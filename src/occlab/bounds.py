"""Closed-form error and concentration bounds for occupancy chains.

Each function evaluates one displayed inequality exactly as written, with
every uninstantiated universal constant set to 1.  Reports carry that
convention and the provenance of the coefficient inputs, so callers can
tell a certified analytic bound from one fed sampled (lower-estimate)
coefficients.  Ordering and scaling checks against Monte Carlo are the
falsifiable content; absolute levels are meaningful modulo the constant.
"""

import math
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from . import rng
from .errors import DegenerateSigmaError, DomainError
from .rules import CoefficientSchedule, _exp, kappa, state_table
from .gaussian import sigma_form
from .simulate import _map_threads, _tile_rows


@dataclass
class BoundReport:
    value: float
    formula_id: str
    inputs: Dict = field(default_factory=dict)
    caveats: List[str] = field(default_factory=list)

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("bounds are nonnegative by construction")


def _schedule(coeffs):
    return coeffs if isinstance(coeffs, CoefficientSchedule) else CoefficientSchedule(coeffs)


def _base_caveats(sched, with_constant, growth=0.0):
    """``growth`` is the bound's sum of exponentials: inf when one overflowed,
    which makes the bound vacuous."""
    out = []
    if with_constant:
        out.append("modulo universal constant C := 1")
    if sched.provenance == "sampled":
        out.append("lower-estimate inputs (sampled coefficients)")
    if math.isinf(growth):
        out.append("vacuous (an exponential overflowed to inf)")
    return out


# ---------------------------------------------------------------------------
# distributional distance rate for projections
# ---------------------------------------------------------------------------

SIGMA_FLOOR = 1e-14


def clt_rate_bound(coeffs, h, q, approx, t):
    """Rate bound on the L^q distance between chain and Gaussian projections.

    value = ||h||_inf^(4-1/q) * sqrt((1+log n)/n)
            * sum_{s=0}^{t-1} kappa_s e^{(4-1/q) alpha_{s,t}}
                              / sigma_{s+1}[D_{s+1,t} h]^(4-2/q)
    """
    sched = _schedule(coeffs)
    if t < 1:
        raise DomainError("rate bound is defined for t >= 1")
    if not (1 <= q):
        raise DomainError("q must lie in [1, inf]")
    h = np.asarray(h, dtype=np.float64)
    n = approx.n
    inv_q = 0.0 if math.isinf(q) else 1.0 / q
    hsup = float(np.abs(h).max())

    total = 0.0
    for s, g in zip(range(t - 1, -1, -1), approx.backward(h, t)):   # g = D_{s+1,t} h
        sig = math.sqrt(max(sigma_form(approx.base.p[s + 1], g), 0.0))
        k_s = kappa(sched, s, n)
        # kappa_s = 0 makes the term zero, whatever sigma and the exponential are
        if k_s > 0.0:
            if sig < SIGMA_FLOOR:
                raise DegenerateSigmaError(
                    f"projected one-step deviation vanishes at step {s + 1}")
            total += (k_s * _exp((4.0 - inv_q) * sched.alpha_window(s, t))
                      / sig ** (4.0 - 2.0 * inv_q))
    value = hsup ** (4.0 - inv_q) * math.sqrt((1.0 + math.log(n)) / n) * total
    return BoundReport(
        value=value, formula_id="projection-rate",
        inputs={"q": q, "t": t, "n": n, "h_sup": hsup,
                "provenance": sched.provenance},
        caveats=_base_caveats(sched, with_constant=True, growth=total))


# ---------------------------------------------------------------------------
# functional error of the deterministic approximation
# ---------------------------------------------------------------------------

def mean_functional_norms(n):
    """``df_norms`` of the mean f(x) = n^{-1} sum_i x_i for :func:`lqr_error_bound`."""
    return {"df_1": 1.0 / n, "df_2q": n ** -0.5, "d2f_1q": 0.0}


def lqr_error_bound(df_norms, coeffs, q, r, t, n):
    """Moment bound on f(X_t) - f(p_t) from the function's derivative norms.

    ``df_norms`` supplies {'df_1': induced-l1 norm of the sup-Jacobian,
    'df_2q': maximal (2,q) norm, 'd2f_1q': maximal (1,q) norm of pure
    second derivatives}.

    value = 6 sqrt(pi) n r^{3/2} df_1 sum_{s<t} (1/n + psi_s) e^{4 r alpha_{s,t}}
            + sqrt(pi (q+r)) df_2q + d2f_1q / 2
    """
    sched = _schedule(coeffs)
    if not (1 <= q < math.inf and 1 <= r < math.inf):
        raise DomainError("q and r must lie in [1, inf)")
    df1 = float(df_norms["df_1"])
    df2q = float(df_norms["df_2q"])
    d2f1q = float(df_norms["d2f_1q"])
    s_total = sum((1.0 / n + sched[s].psi) * _exp(4.0 * r * sched.alpha_window(s, t))
                  for s in range(t))
    value = (6.0 * math.sqrt(math.pi) * n * r ** 1.5 * df1 * s_total
             + math.sqrt(math.pi * (q + r)) * df2q + 0.5 * d2f1q)
    return BoundReport(
        value=value, formula_id="functional-error",
        inputs={"q": q, "r": r, "t": t, "n": n, **{k: float(v) for k, v in df_norms.items()},
                "provenance": sched.provenance},
        caveats=_base_caveats(sched, with_constant=False, growth=s_total))


def jbar_moment_bound(coeffs, q, t, n):
    """L^q bound on the mean coupling discrepancy.

    value = 2q sum_{s<t} (2/n + 3 beta_s sqrt(pi q) + gamma_s) e^{4 q alpha_{s,t}}
    """
    sched = _schedule(coeffs)
    if not 1 <= q < math.inf:
        raise DomainError("q must lie in [1, inf)")
    growth = sum(
        (2.0 / n + 3.0 * sched[s].beta * math.sqrt(math.pi * q) + sched[s].gamma)
        * _exp(4.0 * q * sched.alpha_window(s, t))
        for s in range(t))
    return BoundReport(
        value=2.0 * q * growth, formula_id="discrepancy-moment",
        inputs={"q": q, "t": t, "n": n, "provenance": sched.provenance},
        caveats=_base_caveats(sched, with_constant=False, growth=growth))


# ---------------------------------------------------------------------------
# uniform concentration over a projection class
# ---------------------------------------------------------------------------

def psi_scale(coeffs, t, n):
    """Psi_t = 12 sqrt(pi) (1/n + max_{s<=t} psi_s)."""
    sched = _schedule(coeffs)
    return 12.0 * math.sqrt(math.pi) * (1.0 / n + max(sched[s].psi for s in range(t + 1)))


def concentration_threshold(coeffs, H, rad, t, n, x):
    """Deviation level H t Psi_t x + Rad guarded by :func:`concentration_bound`."""
    return H * t * psi_scale(coeffs, t, n) * x + rad


def concentration_bound(coeffs, H, rad, t, n, x):
    """Probability that the class-uniform deviation exceeds the threshold.

    value = exp(-n t^2 x^2 Psi_t^2 / 2)
            + sum_{s=1}^{t} exp(-4 alpha_{0,s} (log x)^2 / (1 + 4 alpha_{0,t})^2
                                + 4 alpha_{0,s})

    Values above one are clamped to one and flagged vacuous (the second sum
    contributes a unit term whenever an alpha window is empty).
    """
    sched = _schedule(coeffs)
    if x <= 1:
        raise DomainError("the deviation multiplier x must exceed 1")
    psi_t = psi_scale(sched, t, n)
    first = math.exp(-0.5 * n * t ** 2 * x ** 2 * psi_t ** 2)
    denom = (1.0 + 4.0 * sched.alpha_window(0, t)) ** 2
    second = sum(
        _exp(-4.0 * sched.alpha_window(0, s) * math.log(x) ** 2 / denom
             + 4.0 * sched.alpha_window(0, s))
        for s in range(1, t + 1))
    raw = first + second
    caveats = _base_caveats(sched, with_constant=False)
    value = raw
    if raw > 1.0:
        value = 1.0
        caveats.append("vacuous (raw value {:.6g} clamped to 1)".format(raw))
    return BoundReport(
        value=value, formula_id="uniform-concentration",
        inputs={"t": t, "n": n, "x": x, "H": H, "rad": rad, "psi_scale": psi_t,
                "threshold": concentration_threshold(sched, H, rad, t, n, x),
                "raw_value": raw, "provenance": sched.provenance},
        caveats=caveats)


# ---------------------------------------------------------------------------
# Rademacher complexity
# ---------------------------------------------------------------------------

def rademacher_mc(H_set, R, seed, workers=1):
    """Monte Carlo estimate of E sup_h n^{-1} sum_i h_i s_i over sign draws.

    Returns (estimate, standard error).  The class is a (m, n) array of
    projection vectors.  The signs are drawn in the simulator's tiles of
    rows, on up to ``workers`` threads; the result does not depend on
    their number.
    """
    H = np.atleast_2d(np.asarray(H_set, dtype=np.float64))
    m, n = H.shape
    # the class is zero off its support, so only those columns of the sign
    # table (rng.signs' mapping of the whole-row draws) enter the sums
    support = np.nonzero(np.abs(H).sum(axis=0))[0]
    H = H[:, support]
    sups = np.empty(R)
    tile = _tile_rows(n)

    def run_tile(r0):   # each tile writes its own rows of sups
        rows = min(tile, R - r0)
        u = rng.uniforms(seed, 0, n, r0=r0, rows=rows, tag=rng.TAG_RADEMACHER)[:, support]
        sups[r0:r0 + rows] = (np.where(u < 0.5, -1.0, 1.0) @ H.T).max(axis=1) / n

    _map_threads(run_tile, range(0, R, tile), workers)
    est = float(sups.mean())
    se = float(sups.std(ddof=1) / math.sqrt(R)) if R > 1 else float("inf")
    return est, se


def rademacher_exact(H_set):
    """Exact complexity by enumerating all 2^n sign patterns (n <= 20)."""
    H = np.atleast_2d(np.asarray(H_set, dtype=np.float64))
    m, n = H.shape
    if n > 20:
        raise DomainError("exact enumeration is capped at n = 20")
    signs = 1.0 - 2.0 * state_table(n)
    return float((signs @ H.T).max(axis=1).mean() / n)
