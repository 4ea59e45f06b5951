"""Occupancy rules on the solid hypercube.

A rule bundles the per-node transition probability functions of a binary
interacting-particle system, extended from {0,1}^n to [0,1]^n.  Everything
downstream (simulation, deterministic iteration, Gaussian approximation,
error bounds) consumes rules through this interface.

Conventions
-----------
* Every rule gives its survival/colonization split ``(S, C)``, from which
  ``evaluate`` is derived as ``P_i(x) = x_i * S_i(x) + (1 - x_i) * C_i(x)``
  unless the rule also gives ``evaluate``, where the derived form rounds
  differently or costs more.  Neither ``S_i`` nor ``C_i`` may depend on
  coordinate ``i`` (so ``P_i`` is affine in its own coordinate).
* ``evaluate(x, t)`` must accept ``x`` of shape (n,) or (batch..., n) and
  return the per-node probabilities with the same leading shape.  It must
  be a pure function of its arguments (safe for concurrent callers).
* Jacobian entry (i, j) is the partial derivative of node i's probability
  with respect to coordinate j.
* Two hooks are optional shortcuts, and each must agree with what it
  replaces.  ``by_count(k, t) -> (S, C)`` serves rules whose nodes are
  exchangeable: for a row of binary states with ``k`` occupied nodes (``k``
  an integer vector, one entry per row) it returns the threshold of every
  occupied node and of every empty node, which must equal the split at
  such a state.  ``vjp(x, t, g) -> J^T g`` is the transposed-Jacobian
  product, which must equal ``jacobian(x, t).T @ g``; it lets the
  Gaussian companion walk backward without forming n x n matrices.
* Thresholds must lie in [0,1] wherever the simulator reads them.  At
  step 0 every replicate holds the start state X0, so the simulator reads
  S and C of every node at X0 once per run and range-checks both,
  even the threshold a node does not compare with; a later step checks
  only the threshold each node reads.
"""

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import DomainError, RangeError, TooLargeError
from . import rng

#: slack allowed before a coordinate or probability counts as out of range
EDGE_TOL = 1e-12

#: most bytes one call may allocate for its results (a simulation's
#: tables, a dense Jacobian or reaction matrix)
MAX_RESULT_BYTES = 2 ** 32

#: most bytes of one (rows, n, n) block in :func:`product_rows`
PRODUCT_BLOCK_BYTES = 2 ** 25

#: central-difference step for first derivatives
FD_STEP = 1e-6
#: steps for sampled second/third derivative estimation (see estimate_coefficients)
FD_STEP2 = 1e-4
FD_STEP3 = 2e-3


@dataclass(frozen=True)
class OccupancyRule:
    """A global transition rule for an n-node occupancy chain."""

    n: int
    split: Tuple[Callable, Callable]
    evaluate: Optional[Callable[[np.ndarray, int], np.ndarray]] = None
    jacobian: Optional[Callable[[np.ndarray, int], np.ndarray]] = None
    coeff_oracle: Optional[Callable[[int], "CoefficientSet"]] = None
    by_count: Optional[Callable[[np.ndarray, int], Tuple[np.ndarray, np.ndarray]]] = None
    vjp: Optional[Callable[[np.ndarray, int, np.ndarray], np.ndarray]] = None
    homogeneous: bool = True
    name: str = "rule"

    def __post_init__(self):
        if self.evaluate is not None:
            return
        surv, col = self.split

        def evaluate(x, t=0):
            x = np.asarray(x, dtype=np.float64)
            return x * surv(x, t) + (1.0 - x) * col(x, t)

        object.__setattr__(self, "evaluate", evaluate)


@dataclass(frozen=True)
class CoefficientSet:
    """Derivative sup-norm summaries of a rule at one time step.

    alpha      max over j of the off-diagonal column sum of first-derivative sups
    beta       root mean square (over n) of off-diagonal first-derivative sups
    big_gamma  max over (j, k) of the column sum of mixed second-derivative sups
    gamma      mean (over n) of pure second-derivative sups
    delta      max over j of the sum over (i, k) of third-derivative sups
    psi        always beta + gamma
    provenance 'analytic' for exact suppliers, 'sampled' for finite-difference
               maxima over sampled points (a lower estimate of the true sup)
    """

    alpha: float
    beta: float
    big_gamma: float
    gamma: float
    delta: float
    provenance: str = "analytic"
    psi: float = field(init=False, default=0.0)

    def __post_init__(self):
        for k in ("alpha", "beta", "big_gamma", "gamma", "delta"):
            if getattr(self, k) < 0:
                raise ValueError(f"coefficient {k} must be nonnegative")
        if self.provenance not in ("analytic", "sampled"):
            raise ValueError("provenance must be 'analytic' or 'sampled'")
        object.__setattr__(self, "psi", self.beta + self.gamma)


class CoefficientSchedule:
    """Per-step coefficient sets, with a broadcast shortcut for homogeneous rules."""

    def __init__(self, sets):
        if isinstance(sets, CoefficientSet):
            self._sets = [sets]
            self._broadcast = True
        else:
            self._sets = list(sets)
            self._broadcast = False
            if not self._sets:
                raise ValueError("empty coefficient schedule")

    def __getitem__(self, t) -> CoefficientSet:
        if self._broadcast:
            return self._sets[0]
        if t >= len(self._sets):
            raise IndexError(f"no coefficients recorded for step {t}")
        return self._sets[t]

    @property
    def provenance(self):
        provs = {s.provenance for s in self._sets}
        return "analytic" if provs == {"analytic"} else "sampled"

    def alpha_window(self, s, t):
        """Sum of alpha over steps r with s < r < t (empty window -> 0)."""
        return float(sum(self[r].alpha for r in range(s + 1, t)))


def _check_domain(x, n):
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != n:
        raise DomainError(f"state has {x.shape[-1]} coordinates, rule has n={n}")
    lo, hi = x.min(), x.max()
    if not (lo >= -EDGE_TOL and hi <= 1 + EDGE_TOL):   # NaN fails too
        raise DomainError(f"state leaves [0,1] by more than {EDGE_TOL:g} "
                          f"(min {lo:.3e}, max {hi:.3e})")
    return np.clip(x, 0.0, 1.0)


def _check_range(p):
    """p itself, after RangeError if it is NaN or leaves [0,1] by more than
    ``EDGE_TOL``; two reductions, no copy.  A broadcast view is reduced over
    one copy of its values: index 0 along each axis of stride 0."""
    q = p
    if p.size and 0 in p.strides:
        q = p[tuple(0 if st == 0 else slice(None) for st in p.strides)]
    lo, hi = q.min(), q.max()
    if not (lo >= -EDGE_TOL and hi <= 1 + EDGE_TOL):   # NaN fails too
        raise RangeError(f"rule value leaves [0,1] by more than {EDGE_TOL:g} "
                         f"(min {lo:.3e}, max {hi:.3e})")
    return p


def require_bytes(nbytes):
    """Raise TooLargeError, before anything is allocated, when ``nbytes``
    exceeds ``MAX_RESULT_BYTES``."""
    if nbytes > MAX_RESULT_BYTES:
        raise TooLargeError(f"the results need {nbytes / 2 ** 30:.3g} GiB, above the "
                            f"{MAX_RESULT_BYTES / 2 ** 30:.3g} GiB cap")


def product_rows(coef, x):
    """prod_j (1 - coef_ij x_j) for every row of the (rows, n) array x, as
    exp of a log1p sum; (rows, m) for an (m, n) coef.

    The (rows, m, n) broadcast is formed in blocks of at most
    ``PRODUCT_BLOCK_BYTES`` (one row at least), each negated and logged in
    place, so a call holds one block at a time.  A row's value does not
    depend on its block, so the blocking never changes a bit."""
    step = max(1, PRODUCT_BLOCK_BYTES // (8 * coef.size))
    if x.shape[0] > step:
        out = np.empty((x.shape[0], coef.shape[0]))
        for lo in range(0, x.shape[0], step):
            out[lo:lo + step] = product_rows(coef, x[lo:lo + step])
        return out
    block = np.multiply(coef[None, :, :], x[:, None, :])
    np.negative(block, out=block)
    np.log1p(block, out=block)
    return np.exp(block.sum(axis=2))


def evaluate_rule(rule, x, t=0):
    """Per-node transition probabilities P_t(x), validated and clamped.

    Tiny floating excursions outside [0,1] (within ``EDGE_TOL``) are clamped;
    anything larger, and any NaN, raises DomainError for the input or
    RangeError for the output (the latter signals a malformed model, not bad
    data).
    """
    x = _check_domain(x, rule.n)
    p = np.asarray(rule.evaluate(x, t), dtype=np.float64)
    if p.shape != x.shape:
        raise RangeError(f"rule returned shape {p.shape} for input shape {x.shape}")
    return np.clip(_check_range(p), 0.0, 1.0)


def fd_jacobian(rule, x, t=0, step=FD_STEP):
    """Finite-difference Jacobian, central inside the cube, one-sided at faces."""
    x = _check_domain(x, rule.n)
    n = rule.n
    up = np.minimum(x + step, 1.0)
    dn = np.maximum(x - step, 0.0)
    xs = np.repeat(x[None, :], 2 * n, axis=0)
    idx = np.arange(n)
    xs[idx, idx] = up
    xs[n + idx, idx] = dn
    vals = np.asarray(rule.evaluate(xs, t), dtype=np.float64)
    num = vals[:n] - vals[n:]                 # (j, i): P_i(x + h e_j) - P_i(x - h e_j)
    den = (up - dn)[:, None]
    return (num / den).T


def rule_jacobian(rule, x, t=0):
    """Analytic Jacobian when the rule supplies one, finite differences
    otherwise; TooLargeError first if the n x n result would exceed the cap."""
    require_bytes(8 * rule.n * rule.n)
    x = _check_domain(x, rule.n)
    if rule.jacobian is not None:
        return np.asarray(rule.jacobian(x, t), dtype=np.float64)
    return fd_jacobian(rule, x, t)


def rule_conditionals(rule, x, t=0):
    """Per-node retention and acquisition probabilities (S_i, C_i) at x,
    read from the rule's split after the domain check."""
    x = _check_domain(x, rule.n)
    surv, col = rule.split
    return (np.asarray(surv(x, t), dtype=np.float64),
            np.asarray(col(x, t), dtype=np.float64))


def injected_variance(rule, p_prev, t_prev=0):
    """Conditional-variance diagonal injected by the step p_prev -> next.

    For a binary chain, E[Var(X_{i,t+1} | X_t)] collapses (X^2 = X) to

        p_i S_i(p)(1 - S_i(p)) + (1 - p_i) C_i(p)(1 - C_i(p)),

    evaluated along the deterministic path.  This is the noise the Gaussian
    companion must inject; the marginal form p_{t+1}(1 - p_{t+1}) exceeds it
    by (S - C)^2 p(1 - p), a contribution the Jacobian diagonal already
    propagates from the past.
    """
    p_prev = _check_domain(p_prev, rule.n)
    s, c = rule_conditionals(rule, p_prev, t_prev)
    return p_prev * s * (1.0 - s) + (1.0 - p_prev) * c * (1.0 - c)


def state_table(n):
    """All 2^n binary states as a (2^n, n) float array; row index is the
    little-endian integer encoding (bit i of the index is node i)."""
    codes = np.arange(2 ** n, dtype=np.int64)
    return ((codes[:, None] >> np.arange(n)[None, :]) & 1).astype(np.float64)


# ---------------------------------------------------------------------------
# coefficient estimation
# ---------------------------------------------------------------------------

_SAMPLED_N_CAP = 64

#: sampled points and sampler seed behind coefficients of rules without an oracle
ESTIMATOR_BUDGET = 128
ESTIMATOR_SEED = 0


def _latin_hypercube(n_points, n_dims, seed):
    u = rng.uniforms(rng.derive_seed(seed, "lhs"), 0, n_dims, rows=n_points,
                     tag=rng.TAG_SAMPLER)
    perm_u = rng.uniforms(rng.derive_seed(seed, "lhs-perm"), 1, n_dims,
                          rows=n_points, tag=rng.TAG_SAMPLER)
    order = np.argsort(perm_u, axis=0)
    strata = np.empty_like(order)
    np.put_along_axis(strata, order, np.arange(n_points)[:, None], axis=0)
    return (strata + u) / n_points


def _corner_points(n, seed):
    k = min(n, 10)
    base = rng.uniforms(rng.derive_seed(seed, "corner-base"), 2, n, rows=1,
                        tag=rng.TAG_SAMPLER)[0]
    pick_u = rng.uniforms(rng.derive_seed(seed, "corner-pick"), 3, n, rows=1,
                          tag=rng.TAG_SAMPLER)[0]
    coords = np.argsort(pick_u)[:k]
    corners = np.repeat(base[None, :], 2 ** k, axis=0)
    corners[:, coords] = state_table(k)
    return corners


def estimate_coefficients(rule, t=0, budget=ESTIMATOR_BUDGET, seed=ESTIMATOR_SEED):
    """Sampled coefficient estimation by finite differences.

    Maximizes absolute finite-difference derivatives over ``budget``
    Latin-hypercube points plus the corners of a random (at most
    10-coordinate) sub-cube.  The result is a lower estimate of the true
    sup-norms; provenance is tagged 'sampled' accordingly.
    """
    if budget < 1:
        raise ValueError("estimator budget must be >= 1")
    n = rule.n
    if n > _SAMPLED_N_CAP:
        raise TooLargeError(
            f"sampled coefficient estimation is capped at n={_SAMPLED_N_CAP}; "
            "supply an analytic coefficient oracle for larger models")
    pts = np.vstack([_latin_hypercube(budget, n, seed), _corner_points(n, seed)])
    # keep interior margin so the widest stencil stays inside the cube
    margin = 2 * FD_STEP3 + FD_STEP2
    pts = margin + pts * (1 - 2 * margin)

    m1 = np.zeros((n, n))        # sup |d_j P_i|
    m2 = np.zeros((n, n, n))     # sup |d_j d_k P_i|  (j == k is the pure second)
    m3 = np.zeros((n, n, n))     # sup |d_j d_k^2 P_i|

    eye = np.eye(n)
    ju, ku = np.triu_indices(n, k=1)              # unordered mixed pairs
    jo, ko = np.nonzero(~np.eye(n, dtype=bool))   # ordered pairs for thirds
    h2, h3 = FD_STEP2, FD_STEP3

    for x in pts:
        # one batched evaluation covers every stencil node for this point
        stencil = [x[None, :],
                   x[None, :] + FD_STEP * eye, x[None, :] - FD_STEP * eye,
                   x[None, :] + h2 * eye, x[None, :] - h2 * eye,
                   x[None, :] + h2 * (eye[ju] + eye[ku]),
                   x[None, :] + h2 * (eye[ju] - eye[ku]),
                   x[None, :] - h2 * (eye[ju] - eye[ku]),
                   x[None, :] - h2 * (eye[ju] + eye[ku]),
                   x[None, :] + h3 * eye, x[None, :] - h3 * eye,
                   x[None, :] + 2 * h3 * eye, x[None, :] - 2 * h3 * eye,
                   x[None, :] + h3 * (eye[jo] + eye[ko]),
                   x[None, :] + h3 * (eye[jo] - eye[ko]),
                   x[None, :] - h3 * (eye[jo] - eye[ko]),
                   x[None, :] - h3 * (eye[jo] + eye[ko])]
        sizes = [s.shape[0] for s in stencil]
        vals = np.asarray(rule.evaluate(np.vstack(stencil), t), dtype=np.float64)
        (f0, d1p, d1m, d2p, d2m, mpp, mpm, mmp, mmm,
         e1p, e1m, e2p, e2m, tpp, tpm, tmp, tmm) = np.split(
            vals, np.cumsum(sizes)[:-1])

        np.maximum(m1, np.abs((d1p - d1m) / (2 * FD_STEP)).T, out=m1)

        pure2 = np.abs((d2p - 2 * f0 + d2m) / h2 ** 2)    # (j, i)
        idx = np.arange(n)
        m2[:, idx, idx] = np.maximum(m2[:, idx, idx], pure2.T)
        mix = np.abs((mpp - mpm - mmp + mmm) / (4 * h2 ** 2))  # (pair, i)
        m2[:, ju, ku] = np.maximum(m2[:, ju, ku], mix.T)
        m2[:, ku, ju] = m2[:, ju, ku]

        # d_j^3 by the five-point stencil along one axis
        pure3 = np.abs((e2p - 2 * e1p + 2 * e1m - e2m) / (2 * h3 ** 3))
        m3[:, idx, idx] = np.maximum(m3[:, idx, idx], pure3.T)
        # d_j d_k^2 as a central difference in j of the second difference in k
        gp = tpp - 2 * e1p[jo] + tpm
        gm = tmp - 2 * e1m[jo] + tmm
        third = np.abs((gp - gm) / (2 * h3 ** 3))
        m3[:, jo, ko] = np.maximum(m3[:, jo, ko], third.T)

    off = ~np.eye(n, dtype=bool)
    alpha = float((m1 * off).sum(axis=0).max())
    beta = float(math.sqrt((m1[off] ** 2).sum() / n))
    big_gamma = float(m2.sum(axis=0).max())
    gamma = float(np.einsum("ijj->", m2) / n)
    delta = float(m3.sum(axis=(0, 2)).max())
    return CoefficientSet(alpha=alpha, beta=beta, big_gamma=big_gamma,
                          gamma=gamma, delta=delta, provenance="sampled")


def coefficients(rule, t=0):
    """Coefficient set at step t: analytic oracle if available, else sampled."""
    if rule.coeff_oracle is not None:
        cs = rule.coeff_oracle(t)
        if not isinstance(cs, CoefficientSet):
            raise TypeError("coefficient oracle must return a CoefficientSet")
        return cs
    return estimate_coefficients(rule, t)


def coefficient_schedule(rule, t_max):
    """Schedule covering steps 0..t_max (single broadcast set if homogeneous)."""
    if rule.homogeneous:
        return CoefficientSchedule(coefficients(rule, 0))
    return CoefficientSchedule([coefficients(rule, t) for t in range(t_max + 1)])


def _exp(x):
    """``math.exp``, but ``inf`` where the result overflows a float."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def kappa(coeffs, t, n):
    """Growth constant at step t from the coefficient schedule.

    kappa_t = (1 + alpha_t + n*Gamma_t + sqrt(n)*delta_t)
              * sum_{s=0}^{t-1} [1 + psi_s*sqrt(n)*(1 + psi_s*sqrt(n))] * t
              * exp(16 * alpha_{s,t})
    with the empty sum (t = 0) giving kappa_0 = 0.
    """
    if not isinstance(coeffs, CoefficientSchedule):
        coeffs = CoefficientSchedule(coeffs)
    if t == 0:
        return 0.0
    c_t = coeffs[t]
    lead = 1.0 + c_t.alpha + n * c_t.big_gamma + math.sqrt(n) * c_t.delta
    total = 0.0
    for s in range(t):
        pscale = coeffs[s].psi * math.sqrt(n)
        total += (1.0 + pscale * (1.0 + pscale)) * t * _exp(16.0 * coeffs.alpha_window(s, t))
    return lead * total


# ---------------------------------------------------------------------------
# simple rule constructors (shared by tests, examples and the model zoo)
# ---------------------------------------------------------------------------

def constant_rule(n, c):
    """State-independent rule: every node flips to occupied w.p. c_i."""
    c = np.broadcast_to(np.asarray(c, dtype=np.float64), (n,)).copy()
    if c.min() < 0 or c.max() > 1:
        raise RangeError("constant rule probabilities must lie in [0,1]")

    # given, not derived: x * c + (1 - x) * c is not exactly c
    def ev(x, t):
        return np.broadcast_to(c, np.shape(x)).copy()

    by_count = None
    if (c == c[0]).all():
        def by_count(k, t):
            return np.full(np.shape(k), c[0]), np.full(np.shape(k), c[0])

    return OccupancyRule(
        n=n, evaluate=ev, split=(ev, ev),
        jacobian=lambda x, t: np.zeros((n, n)),
        coeff_oracle=lambda t: CoefficientSet(0.0, 0.0, 0.0, 0.0, 0.0),
        by_count=by_count, vjp=lambda x, t, g: np.zeros(np.shape(g)),
        homogeneous=True, name=f"constant({n})")


def linear_rule(A):
    """Linear rule P(x) = A x with a substochastic nonnegative matrix A.

    Its split sets x_i to 1 and to 0 in row i of A x:
    S = x A^T + diag(A) (1 - x) and C = x A^T - diag(A) x.
    """
    A = np.asarray(A, dtype=np.float64)
    n = A.shape[0]
    if A.min() < 0 or A.sum(axis=1).max() > 1 + EDGE_TOL:
        raise RangeError("linear rule needs nonnegative rows summing to <= 1")

    d = A.diagonal()

    # given, not derived: the derived form costs two products and rounds
    # differently
    def ev(x, t):
        return np.asarray(x) @ A.T

    def survive(x, t):
        return ev(x, t) + d * (1.0 - np.asarray(x))

    def colonize(x, t):
        return ev(x, t) - d * np.asarray(x)

    off = ~np.eye(n, dtype=bool)
    cs = CoefficientSet(alpha=float((np.abs(A) * off).sum(axis=0).max()),
                        beta=float(math.sqrt((A[off] ** 2).sum() / n)),
                        big_gamma=0.0, gamma=0.0, delta=0.0)
    return OccupancyRule(n=n, evaluate=ev, split=(survive, colonize),
                         jacobian=lambda x, t: A.copy(),
                         coeff_oracle=lambda t: cs, homogeneous=True,
                         name=f"linear({n})")
