"""Deterministic approximation and its long-run diagnostics.

Iterating the rule on a probability vector, p_{t+1} = P_t(p_t), gives the
mean-path companion of the chain.  This module also locates fixed points,
screens the monotonicity conditions under which the fixed point is unique
and globally attracting, and computes spectral radii of linearizations.
"""

from dataclasses import dataclass

import numpy as np

from . import rng
from .errors import NotConvergedError
from .rules import _check_domain, evaluate_rule, rule_jacobian

#: smith_check takes the Jacobian "at the origin" this far inside the cube
ORIGIN_EPS = 1e-8


@dataclass
class EquilibriumResult:
    p_inf: np.ndarray
    converged: bool
    iterations: int
    residual: float


@dataclass
class DeterministicTrajectory:
    p: np.ndarray                       # (T+1, n)

    @property
    def T(self):
        return self.p.shape[0] - 1

    @property
    def n(self):
        return self.p.shape[1]


def det_trajectory(rule, p0, T):
    """Iterate p_{t+1} = P_t(p_t) for T steps from p0 in [0,1]^n."""
    p = np.empty((T + 1, rule.n))
    p[0] = _check_domain(np.asarray(p0, dtype=np.float64), rule.n)
    for t in range(T):
        p[t + 1] = evaluate_rule(rule, p[t], t)
    return DeterministicTrajectory(p=p)


def find_equilibrium(rule, p0, tol=1e-12, max_iter=10 ** 6):
    """Fixed-point iteration for homogeneous rules.

    Returns the iterate once the sup-norm step falls to ``tol``; if the
    budget runs out the best iterate comes back flagged, not raised.
    """
    if not rule.homogeneous:
        raise ValueError("equilibrium search needs a time-homogeneous rule")
    p = np.asarray(p0, dtype=np.float64).copy()
    for it in range(1, max_iter + 1):
        q = evaluate_rule(rule, p, 0)
        stepsize = float(np.abs(q - p).max())
        p = q
        if stepsize <= tol:
            res = float(np.abs(evaluate_rule(rule, p, 0) - p).max())
            return EquilibriumResult(p_inf=p, converged=True, iterations=it,
                                     residual=res)
    res = float(np.abs(evaluate_rule(rule, p, 0) - p).max())
    return EquilibriumResult(p_inf=p, converged=False, iterations=max_iter,
                             residual=res)


@dataclass
class SmithReport:
    """Sampled evidence for the monotone-stability conditions.

    positivity             every sampled first partial is strictly positive
    jacobian_monotonicity  DP(x) >= DP(y) entrywise (with strict somewhere)
                           on every sampled ordered pair x < y
    not_all_absorbing      P_i(1) != 1 for at least one node
    spectral_radius_origin r(J0) with J0 the Jacobian at the origin limit
    pairs_checked          number of ordered pairs sampled

    Sampling cannot certify the conditions on a continuum; a passing report
    is evidence, not proof.
    """

    positivity: bool
    jacobian_monotonicity: bool
    not_all_absorbing: bool
    spectral_radius_origin: float
    pairs_checked: int


def smith_check(rule, sample_budget=64, seed=0):
    """Screen the uniqueness/attraction conditions on sampled ordered pairs."""
    if not rule.homogeneous:
        raise ValueError("the stability screen applies to homogeneous rules")
    n = rule.n
    # the origin Jacobian first: a rule too large for dense n x n Jacobians
    # fails before the sampled pairs are drawn
    radius_origin = spectral_radius(rule_jacobian(rule, np.full(n, ORIGIN_EPS), 0))
    u = rng.uniforms(rng.derive_seed(seed, "smith-lo"), 0, n,
                     rows=sample_budget, tag=rng.TAG_SAMPLER)
    v = rng.uniforms(rng.derive_seed(seed, "smith-hi"), 1, n,
                     rows=sample_budget, tag=rng.TAG_SAMPLER)
    lo = np.minimum(u, v) * 0.98 + 0.01
    hi = np.maximum(u, v) * 0.98 + 0.01 + 1e-6
    hi = np.minimum(hi, 1.0)

    positivity = True
    monotone = True
    for x, y in zip(lo, hi):
        jx = rule_jacobian(rule, x, 0)
        jy = rule_jacobian(rule, y, 0)
        if jx.min() <= 0:
            positivity = False
        diff = jx - jy
        if diff.min() < -1e-10 or diff.max() <= 1e-14:
            monotone = False

    p_at_one = evaluate_rule(rule, np.ones(n), 0)
    not_absorbing = bool((p_at_one < 1 - 1e-12).any())
    return SmithReport(positivity=positivity, jacobian_monotonicity=monotone,
                       not_all_absorbing=not_absorbing,
                       spectral_radius_origin=radius_origin,
                       pairs_checked=sample_budget)


_EIG_CAP = 2048


def spectral_radius(A):
    """Largest eigenvalue modulus of a square matrix or of a
    ``scipy.sparse.linalg.LinearOperator``.

    Dense eigenvalues up to order 2048 (exact to machine precision, robust
    for non-normal matrices; an operator is applied to the identity first);
    beyond that ARPACK's ``eigs(k=1)`` on the matrix or the operator, from a
    fixed start that is not constant, as a constant vector is an
    eigenvector of every uniform model's Jacobian.
    """
    if hasattr(A, "matvec"):   # a LinearOperator
        if A.shape[0] != A.shape[1]:
            raise ValueError("spectral_radius needs a square matrix")
        if A.shape[0] <= _EIG_CAP:
            return spectral_radius(A.matmat(np.eye(A.shape[0])))
    else:
        A = np.asarray(A, dtype=np.float64)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError("spectral_radius needs a square matrix")
        if not np.isfinite(A).all():
            raise ValueError("matrix has non-finite entries")
        if A.shape[0] <= _EIG_CAP:
            return float(np.abs(np.linalg.eigvals(A)).max())
        if not A.any():   # ARPACK builds no Krylov space on a zero matrix
            return 0.0
    from scipy.sparse.linalg import ArpackError, eigs
    try:
        lam = eigs(A, k=1, which="LM", return_eigenvectors=False,
                   v0=np.linspace(1.0, 2.0, A.shape[0]))
    except ArpackError as exc:   # no convergence, or no Krylov space from the start
        raise NotConvergedError(f"ARPACK found no largest eigenvalue: {exc}") from None
    return float(np.abs(lam).max())
