"""Distributional diagnostics against the Gaussian companion.

Exact empirical Kolmogorov and 1-Wasserstein distances to a normal target
with bootstrap standard errors, the per-size checks of the CLT
(:func:`clt_point`) and of the uniform law of large numbers
(:func:`lln_point`), and the convergence sweeps that tabulate them versus
system size against the closed-form bounds.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from . import rng
from .errors import OcclabError, TooLargeError
from .bounds import (clt_rate_bound, concentration_bound,
                     concentration_threshold, rademacher_mc)
from .deterministic import det_trajectory
from .gaussian import GaussianApprox
from .rules import coefficient_schedule, state_table
from .simulate import simulate_projections

BOOTSTRAP_RESAMPLES = 200
#: deviation quantiles of each ``lln_sweep`` row, reported as q50, q90, q99
LLN_QUANTILES = (0.5, 0.9, 0.99)


@dataclass(frozen=True)
class NormalTarget:
    mean: float
    variance: float

    @property
    def sd(self):
        return math.sqrt(self.variance)

    def cdf(self, x):
        if self.variance == 0:
            return (np.asarray(x) >= self.mean).astype(np.float64)
        return ndtr((np.asarray(x) - self.mean) / self.sd)


@dataclass
class DistanceReport:
    metric: str                   # 'kolmogorov' or 'wasserstein1'
    sample_size: int
    target: str
    value: float
    stderr: float

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("distances are nonnegative")
        if self.metric == "kolmogorov" and self.value > 1 + 1e-12:
            raise ValueError("a Kolmogorov distance cannot exceed 1")


def _ks_one_sample(sorted_x, target):
    m = len(sorted_x)
    F = target.cdf(sorted_x)
    grid = np.arange(1, m + 1) / m
    return float(max((grid - F).max(), (F - (grid - 1 / m)).max(), 0.0))


def _w1_one_sample(sorted_x, target):
    """Exact integral of |F_emp - F_target| for a normal target."""
    m = len(sorted_x)
    if target.variance == 0:
        return float(np.abs(sorted_x - target.mean).mean())
    sd = target.sd

    def big_i(z):
        # antiderivative of the standard normal CDF
        return z * ndtr(z) + np.exp(-0.5 * z * z) / math.sqrt(2 * math.pi)

    z = (sorted_x - target.mean) / sd
    total = sd * big_i(z[0])                                   # lower tail
    zm = z[-1]
    phi_zm = math.exp(-0.5 * zm * zm) / math.sqrt(2 * math.pi)
    total += sd * (phi_zm - zm * (1.0 - ndtr(zm)))             # upper tail
    levels = np.arange(1, m) / m
    zq = ndtri(levels)                                          # crossing points
    za, zb = z[:-1], z[1:]
    zc = np.clip(zq, za, zb)
    ia, ib, ic = big_i(za), big_i(zb), big_i(zc)
    # int_a^b |c - Phi| = c(zc - za) - (Ic - Ia) + (Ib - Ic) - c(zb - zc), x = mu + sd z
    total += sd * float(np.sum(levels * (zc - za) - (ic - ia)
                               + (ib - ic) - levels * (zb - zc)))
    return float(total)


def _bootstrap(sample, stat, seed):
    m = len(sample)
    vals = np.empty(BOOTSTRAP_RESAMPLES)
    g = np.random.Generator(np.random.Philox(key=rng.derive_seed(seed, "bootstrap")))
    for b in range(BOOTSTRAP_RESAMPLES):
        vals[b] = stat(np.sort(sample[g.integers(0, m, size=m)]))
    return float(vals.std(ddof=1))


def _distance(metric, one_sample, sample, target, seed):
    """``metric`` of the sample against a normal target; ``one_sample``
    takes the sorted sample and the target."""
    sample = np.asarray(sample, dtype=np.float64)
    if sample.size < 2:
        raise ValueError("need at least two sample points")
    stat = lambda s: one_sample(s, target)
    label = f"normal(mean={target.mean:.6g}, var={target.variance:.6g})"
    return DistanceReport(metric=metric, sample_size=len(sample), target=label,
                          value=stat(np.sort(sample)), stderr=_bootstrap(sample, stat, seed))


def ks_distance(sample, target, seed=0):
    """Exact sup gap between the empirical CDF and the target CDF."""
    return _distance("kolmogorov", _ks_one_sample, sample, target, seed)


def wasserstein1(sample, target, seed=0):
    """Exact integral of |F_emp - F_target| (area between the CDFs)."""
    return _distance("wasserstein1", _w1_one_sample, sample, target, seed)


# ---------------------------------------------------------------------------
# convergence sweeps
# ---------------------------------------------------------------------------


def rate_summary(ns, values):
    """Log-log slope of ``values`` against ``ns`` (NaN for one size) and
    whether the values strictly decrease."""
    slope = float("nan")
    if len(ns) >= 2:
        slope = float(np.polyfit(np.log(np.asarray(ns, dtype=np.float64)),
                                 np.log(np.asarray(values, dtype=np.float64)), 1)[0])
    return {"slope": slope,
            "strictly_decreasing": all(a > b for a, b in zip(values, values[1:]))}


def clt_point(rule, X0, h, t, q, R, sim_seed, dist_seed, workers=1):
    """Distance of <xi_t, h> over R replicates to its Gaussian limit.

    Returns the :class:`DistanceReport` (Kolmogorov for q = inf, else
    1-Wasserstein, bootstrapped from ``dist_seed``) and the
    :class:`GaussianApprox` whose projected variance set the target.  The
    replicates are simulated on up to ``workers`` threads.
    """
    approx = GaussianApprox.from_rule(rule, X0.astype(np.float64), t)
    res = simulate_projections(rule, X0, t, R, sim_seed, h=h, p_traj=approx.base.p,
                               workers=workers)
    target = NormalTarget(0.0, approx.projected_variance(h, t))
    distance = ks_distance if math.isinf(q) else wasserstein1
    return distance(res["proj"][:, t], target, seed=dist_seed), approx


def clt_sweep(family, h_family, t, q, n_list, R, seed, model_id="model", workers=1):
    """Distance of projected fluctuations to their Gaussian limit across n.

    ``family(n)`` returns (rule, X0); ``h_family(n)`` the projection vector.
    ``q`` selects the metric: 1 for Wasserstein, inf for Kolmogorov.  Rows
    have the keys model_id, n, t, q, metric, value, stderr and bound_c1; the
    summary is the :func:`rate_summary` of the distances.  Each size is
    simulated on up to ``workers`` threads.
    """
    def row(n):
        # a function, so one size's approximation is freed before the next is built
        rule, X0 = family(n)
        h = np.asarray(h_family(n), dtype=np.float64)
        rep, approx = clt_point(rule, X0, h, t, q, R,
                                rng.derive_seed(seed, f"clt{n}"), seed, workers)
        coeffs = coefficient_schedule(rule, t)
        try:
            bound = clt_rate_bound(coeffs, h, q, approx, t).value
        except OcclabError:
            bound = float("nan")
        return {"model_id": model_id, "n": n, "t": t, "q": q, "metric": rep.metric,
                "value": rep.value, "stderr": rep.stderr, "bound_c1": bound}

    rows = [row(n) for n in n_list]
    return rows, rate_summary(n_list, [r["value"] for r in rows])


def sign_class(k, n):
    """The 2^k sign vectors on coordinates 0..k-1 (zero elsewhere), (2^k, n).

    Raises :class:`TooLargeError` before allocating when 2^k exceeds the
    1e6-vector cap of :func:`lln_sweep`.
    """
    if 2 ** k > 10 ** 6:
        raise TooLargeError("projection class exceeds 1e6 vectors")
    H = np.zeros((2 ** k, n))
    H[:, :k] = 1.0 - 2.0 * state_table(k)
    return H


def lln_point(rule, X0, H, t, R, sim_seed, rad_seed, x, workers=1):
    """Class-uniform deviation at step t over R replicates.

    ``H`` is the (m, n) projection class.  Only the nodes in its support
    are kept, and a support wider than 64 nodes is limited to n <= 4096.
    Returns the per-replicate exact suprema of |<Xbar_t - pbar_t, h>| over
    the class, the Rademacher estimate (from ``rad_seed``) and its standard
    error, the concentration report at ``x`` and the threshold it guards.
    The replicates are simulated, and the Rademacher signs drawn, on up to
    ``workers`` threads.
    """
    n = rule.n
    support = np.nonzero(np.abs(H).sum(axis=0))[0]
    if len(support) > 64 and n > 4096:
        raise TooLargeError("dense projection classes are limited to n <= 4096")
    traj = det_trajectory(rule, X0.astype(np.float64), t)
    res = simulate_projections(rule, X0, t, R, sim_seed, h=None, p_traj=traj.p,
                               keep_nodes=support, workers=workers)
    dev = (res["nodes"][:, t, :].astype(np.float64)
           - traj.p[t][support][None, :]) / n
    sups = np.abs(dev @ H[:, support].T).max(axis=1)

    coeffs = coefficient_schedule(rule, t)
    H_sup = float(np.abs(H).max())
    rad, rad_se = rademacher_mc(H, 20000, rad_seed, workers)
    rep = concentration_bound(coeffs, H_sup, rad, t, n, x)
    thresh = concentration_threshold(coeffs, H_sup, rad, t, n, x)
    return sups, rad, rad_se, rep, thresh


def lln_sweep(family, class_family, t, n_list, R, seed, x=math.e ** 2,
              model_id="model", workers=1):
    """Class-uniform deviation sweep against the concentration bound.

    ``class_family(n)`` returns the projection class as an (m, n) array
    (at most 1e6 vectors).  Per replicate the exact supremum of
    |<Xbar_t - pbar_t, h>| over the class is found by enumeration; the
    table reports the ``LLN_QUANTILES``, the guarded threshold and the
    bound value at the chosen x.  Each size is simulated on up to
    ``workers`` threads.
    """
    rows = []
    for n in n_list:
        rule, X0 = family(n)
        H = np.atleast_2d(np.asarray(class_family(n), dtype=np.float64))
        if H.shape[0] > 10 ** 6:
            raise TooLargeError("projection class exceeds 1e6 vectors")
        sups, rad, rad_se, rep, thresh = lln_point(
            rule, X0, H, t, R, rng.derive_seed(seed, f"lln{n}"),
            rng.derive_seed(seed, f"rad{n}"), x, workers)
        row = {"model_id": model_id, "n": n, "t": t, "x": x,
               "class_size": H.shape[0], "rademacher": rad,
               "rademacher_se": rad_se, "threshold": thresh,
               "bound_c1": rep.value, "exceedance": float((sups > thresh).mean())}
        for qq in LLN_QUANTILES:
            row[f"q{int(qq * 100)}"] = float(np.quantile(sups, qq))
        rows.append(row)
    return rows
