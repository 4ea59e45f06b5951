"""Autoregressive Gaussian companion of an occupancy chain.

Around the deterministic path p_t the chain's fluctuations are modelled by
the linear recursion

    Z_0 = p_0,
    Z_t = p_t + J_{t-1} (Z_{t-1} - p_{t-1}) + z_t * sqrt(v_t),

where J_s is the rule Jacobian at p_s, the z are independent standard
normals, and v_t is the conditional-variance diagonal actually injected by
one chain step (see :func:`occlab.rules.injected_variance`):

    v_{i,t} = p_{i,t-1} S_i(1 - S_i) + (1 - p_{i,t-1}) C_i(1 - C_i)   at p_{t-1}.

The naive choice v_t = p_t(1 - p_t) looks natural but double-counts: the
marginal Bernoulli variance already contains (S-C)^2 p(1-p) carried over
from the past, which the Jacobian diagonal propagates a second time.  With
the conditional form, exact enumeration at small n and Monte Carlo at
n up to 1600 agree with the recursion to sampling accuracy, and for
independent nodes the marginal variance p_t(1-p_t) is reproduced exactly.

Writing D_s for the transposed Jacobian and D_{s,t} = D_s...D_{t-1} (empty
product = identity), projections of xi_t = n^{-1/2}(Z_t - p_t) have

    Var <xi_t, h> = sum_{r=1..t} (1/n) sum_i (D_{r,t} h)_i^2 v_{i,r},

and the matrix covariance obeys Sigma_t = J_{t-1} Sigma_{t-1} J_{t-1}^T
+ diag(v_t); in the homogeneous stable case Sigma_t converges to the
solution of the discrete Lyapunov equation Q = J Q J^T + V.

The companion is built for rules whose nodes interact through sums over
many nodes (spreading, hanski, the dynamic graph rule): there each node
feels the state only through averages, which concentrate.  A strictly
local rule breaks that.  Two steps after an iid start, the torus
automaton's mean projected fluctuation is not 0, as the companion's is,
but :func:`occlab.models.domany_kinzel.dk_exact_mean_zeta2`, which grows
like sqrt(n) (acceptance criterion 2).

The projected forms need only products D_s g.  When the rule supplies
``vjp`` the backward walk takes them from it, and no n x n matrix is
formed; otherwise a walk builds J_r for its step r and holds only that
one.  ``projected_variances`` walks every t at once, so it builds each
J_r a single time for all T + 1 variances.  ``covariances`` and
``simulate_gaussian`` read each J_t once, in time order, and hold it
only for that step too.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import rng
from .errors import NotConvergedError, SingularMatrixError
from .deterministic import DeterministicTrajectory, det_trajectory, spectral_radius
from .rules import injected_variance, require_bytes, rule_jacobian


def sigma_form(p, h):
    """One-step variance form n^{-1} sum_i h_i^2 p_i (1 - p_i)."""
    p = np.asarray(p, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    if len(p) != len(h):
        raise ValueError("length mismatch in sigma_form")
    return float((h * h * p * (1.0 - p)).sum() / len(p))


class GaussianApprox:
    """Deterministic path plus its variance diagonals."""

    def __init__(self, rule, base: DeterministicTrajectory):
        self.rule = rule
        self.base = base
        # V[t] is the noise the step into t injects (row 0 is zero: the
        # start is fixed)
        self.V = np.zeros_like(base.p)
        for t in range(base.T):
            self.V[t + 1] = injected_variance(rule, base.p[t], t)
        self._sigma = None

    @classmethod
    def from_rule(cls, rule, p0, T):
        return cls(rule, det_trajectory(rule, p0, T))

    @property
    def n(self):
        return self.base.n

    @property
    def T(self):
        return self.base.T

    def _transposed(self, r):
        """g -> D_r g: the rule's ``vjp`` at p_r, or J_r^T with J_r built
        for this step alone, once for every g it is applied to."""
        vjp = self.rule.vjp
        if vjp is not None:
            return lambda g: vjp(self.base.p[r], r, g)
        JT = rule_jacobian(self.rule, self.base.p[r], r).T
        return lambda g: JT @ g

    def backward(self, h, t):
        """Yield D_{r,t} h for r = t, t-1, ..., 0 (D_u = transposed Jacobian),
        through the rule's ``vjp`` when it has one.

        The walk starts from a copy of h, and each step is taken only when
        the next item is requested: a caller that stops at r = s pays for
        t - s steps."""
        if not 0 <= t <= self.T:
            raise ValueError("need 0 <= t <= T")

        def walk(g):
            yield g
            for r in range(t - 1, -1, -1):
                g = self._transposed(r)(g)
                yield g
        return walk(np.asarray(h, dtype=np.float64).copy())

    def noise_form(self, t, h):
        """Injected-noise quadratic form n^{-1} sum_i h_i^2 v_{i,t}."""
        h = np.asarray(h, dtype=np.float64)
        return float((h * h * self.V[t]).sum() / self.n)

    def projected_variance(self, h, t):
        """Variance of <xi_t, h> via the propagated one-step sums over
        D_{t,t} h, ..., D_{1,t} h; the step to D_{0,t} h is never taken."""
        total = 0.0
        for r, g in zip(range(t, 0, -1), self.backward(h, t)):
            total += self.noise_form(r, g)
        return total

    def projected_variances(self, h):
        """Variances of <xi_t, h> for t = 0..T in one backward sweep.

        The walk of every t is stepped by the same D_r, taken once per r for
        all of them, and each sum is accumulated in the order of
        :meth:`projected_variance`, so the values are its bits; the sweep
        holds T vectors and one Jacobian."""
        var = np.zeros(self.T + 1)
        walks = {}                      # t -> D_{r,t} h at the current r
        for r in range(self.T, 0, -1):
            walks[r] = np.asarray(h, dtype=np.float64).copy()
            for t, g in walks.items():
                var[t] += self.noise_form(r, g)
            if r > 1:   # D_{r-1} lives only for this statement
                walks = dict(zip(walks, map(self._transposed(r - 1), walks.values())))
        return var

    def covariances(self):
        """Full covariance recursion Sigma_0..Sigma_T, cached: the (T+1, n, n)
        result plus one n x n Jacobian and the step's products at a time."""
        if self._sigma is None:
            n = self.n
            require_bytes(8 * (self.T + 1) * n * n)
            sig = np.zeros((self.T + 1, n, n))
            for t in range(self.T):
                J = rule_jacobian(self.rule, self.base.p[t], t)
                sig[t + 1] = J @ sig[t] @ J.T + np.diag(self.V[t + 1])
            self._sigma = sig
        return self._sigma

    def covariance(self, t):
        return self.covariances()[t]


def simulate_gaussian(approx, R, seed):
    """R sample paths of Z_t, using the keyed normal streams; (R, T+1, n).

    Step-major: J_{t-1} is built once per step and advances every block of
    ``rng.BLOCK`` rows from step t - 1, with the normals keyed by (t, rows)."""
    n, T = approx.n, approx.T
    require_bytes(8 * R * (T + 1) * n)
    p = approx.base.p
    sd = np.sqrt(approx.V)
    out = np.empty((R, T + 1, n))
    out[:, 0] = p[0]
    for t in range(1, T + 1):
        J = rule_jacobian(approx.rule, p[t - 1], t - 1)
        for r0 in range(0, R, rng.BLOCK):
            rows = min(rng.BLOCK, R - r0)
            eps = rng.normals(seed, t, n, r0=r0, rows=rows)
            out[r0:r0 + rows, t] = p[t][None, :] \
                + (out[r0:r0 + rows, t - 1] - p[t - 1][None, :]) @ J.T + eps * sd[t][None, :]
    return out


_DIRECT_N_CAP = 64

#: iterative Lyapunov solver: step tolerance (max norm) and step budget
LYAPUNOV_TOL = 1e-12
LYAPUNOV_MAX_ITER = 10 ** 6


@dataclass
class LyapunovResult:
    Q: np.ndarray
    residual: float
    method: str
    iterations: int = 0


def _schur_lyapunov(J, V):
    """Q with Q = J Q J^T + V by complex-Schur back-substitution, O(n^3).

    With J = Z T Z^H (T upper triangular) the equation becomes
    Qt = T Qt T^H + Vt for Qt = Z^H Q Z and Vt = Z^H V Z, whose column j,
    taken from the last to the first, solves the triangular system
    (I - conj(t_jj) T) q_j = Vt[:, j] + T sum_{k>j} conj(T[j, k]) q_k
    (Kitagawa 1977; Barraud 1977).
    """
    n = J.shape[0]
    T, Z = scipy.linalg.schur(J, output="complex")
    t = np.diag(T)
    gap = np.abs(1.0 - t[:, None] * t.conj()[None, :]).min(initial=np.inf)
    if gap <= n * np.finfo(np.float64).eps * max(1.0, np.abs(t).max(initial=0.0) ** 2):
        raise SingularMatrixError(
            "Lyapunov equation is singular: some eigenvalue pair of J "
            "multiplies to one")
    Vt = Z.conj().T @ V @ Z
    Qt = np.zeros((n, n), dtype=np.complex128)
    eye = np.eye(n)
    for j in range(n - 1, -1, -1):
        rhs = Vt[:, j] + T @ (Qt[:, j + 1:] @ T[j, j + 1:].conj())
        Qt[:, j] = scipy.linalg.solve_triangular(
            eye - t[j].conj() * T, rhs, check_finite=False)
    return (Z @ Qt @ Z.conj().T).real


def lyapunov_solve(J, V, method="auto"):
    """Solve Q = J Q J^T + V.

    method 'direct' factors J = Z T Z^H (complex Schur) and back-substitutes
    one column at a time: O(n^3) work and O(n^2) memory.  It is the default
    for n <= 64; above that 'iterative' is, which runs the fixed-point
    recursion until a step moves Q by at most ``LYAPUNOV_TOL``.  A solution
    exists iff no pair of eigenvalues of J multiplies to one; 'direct'
    raises SingularMatrixError when such a pair is at rounding level, and
    the practical precondition is spectral radius < 1, which the iterative
    path effectively requires.
    """
    J = np.asarray(J, dtype=np.float64)
    n = J.shape[0]
    V = np.asarray(V, dtype=np.float64)
    if V.ndim == 1:
        V = np.diag(V)
    if J.shape != (n, n) or V.shape != (n, n):
        raise ValueError("J and V must be square matrices of matching size")

    if method == "auto":
        method = "direct" if n <= _DIRECT_N_CAP else "iterative"

    if method == "direct":
        Q = _schur_lyapunov(J, V)
        Q = 0.5 * (Q + Q.T)
        res = float(np.abs(Q - J @ Q @ J.T - V).max())
        scale = max(1.0, float(np.abs(Q).max()))
        if not np.isfinite(res) or res > 1e-8 * scale:
            raise SingularMatrixError(
                f"Lyapunov equation is numerically singular (residual {res:.3g})")
        return LyapunovResult(Q=Q, residual=res, method="direct")

    if method == "iterative":
        r = spectral_radius(J)
        if r >= 1:
            raise NotConvergedError(
                f"fixed-point iteration needs spectral radius < 1 (got {r:.6g})")
        Q = V.copy()
        for it in range(1, LYAPUNOV_MAX_ITER + 1):
            Qn = J @ Q @ J.T + V
            gap = float(np.abs(Qn - Q).max())
            Q = Qn
            if gap <= LYAPUNOV_TOL:
                res = float(np.abs(Q - J @ Q @ J.T - V).max())
                return LyapunovResult(Q=Q, residual=res, method="iterative",
                                      iterations=it)
        raise NotConvergedError("Lyapunov fixed-point iteration exhausted budget")

    raise ValueError(f"unknown method {method!r}")
