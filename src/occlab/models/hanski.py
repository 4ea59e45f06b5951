"""Patch-occupancy metapopulation with distance-weighted colonization.

Patch i sits at z_i in a compact habitat (the unit interval by default).
It survives one step with probability s(z_i), and an empty patch is
colonized with probability c(conn_i), where the connectivity

    conn_i = sum_{j != i} (a(z_j) / n) D(z_i, z_j) x_j

weighs occupied patches by size density a and dispersal kernel D.

As n grows with equidistributed locations, the empirical occupancy measure
has a deterministic limit whose density rho_t (with respect to the habitat
measure) obeys

    rho_{t+1}(z) = s(z) rho_t(z) + c[C_t(z)] (1 - rho_t(z)),
    C_t(z) = integral a(w) D(z, w) rho_t(w) dw,

with a companion variance density v_t and a linear transfer operator J_t
acting on test functions; all three are advanced here on a quadrature grid
(left-endpoint rectangles on [0, 1]); projected limit variances walk J_t
in the finite chain's sweep, :func:`occlab.gaussian.accumulated_variance`.

Our choices, not canonical: habitat [0, 1] with uniform measure, the
kernel D(z, w) = exp(-|z - w| / ell) and the colonization curve
c(y) = y / (1 + y), the one curve every path reads, with its derivative and
the sups 1, 2, 6 of |c'|, |c''|, |c'''| on y >= 0.

No n x n (or G x G) table is formed for a sum over patches:
:class:`_ExpKernel` applies D in O(n) per row, so the chain step, the
deterministic map, the connectivity inside the Jacobian, the
transposed-Jacobian product ``vjp`` and the grid limit all run
matrix-free.  The dense connectivity matrix is built only when the
coefficient oracle or the dense Jacobian first reads it, so a rule that
never does holds no n x n table at any n.
"""

import math
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Callable

import numpy as np

from ..errors import DomainError
from ..gaussian import accumulated_variance, backward
from ..rules import CoefficientSet, OccupancyRule, require_bytes


def default_colonization(y):
    return y / (1.0 + y)


def default_colonization_prime(y):
    return 1.0 / (1.0 + y) ** 2


@dataclass(frozen=True)
class HanskiModel:
    z: np.ndarray                                   # (n,) patch locations in [0, 1]
    a: Callable = field(default=lambda z: np.ones_like(z))   # weight density
    s: Callable = field(default=lambda z: np.full_like(z, 0.8))  # survival prob
    kernel_scale: float = 0.25                      # ell in exp(-|z - w| / ell)

    def __post_init__(self):
        z = np.asarray(self.z, dtype=np.float64)
        object.__setattr__(self, "z", z)
        if not (z.min() >= 0 and z.max() <= 1):   # NaN fails here too
            raise ValueError("patch locations must be finite and lie in [0, 1]")
        if not 0 < self.kernel_scale < math.inf:
            raise ValueError("kernel_scale must be finite and positive")

    @property
    def n(self):
        return len(self.z)


def equidistributed(n, **kw):
    """Model with n midpoint-equidistributed patches on [0, 1]."""
    return HanskiModel(z=(np.arange(n) + 0.5) / n, **kw)


#: locations per dense diagonal block of :class:`_ExpKernel`
KERNEL_BLOCK = 32
#: most bytes of block tables :class:`_ExpKernel` keeps; a larger set is
#: built a chunk of this size at a time on every call
KERNEL_BLOCK_BYTES = 2 ** 25


def _carry(q, f):
    """q[k] += f[k-1] q[k-1] for k = 1, 2, ... in turn, in place on the rows
    of the (blocks, columns) array q.  A single column runs on Python
    floats, which is faster than two numpy calls a block."""
    seq = q[:, 0].tolist() if q.shape[1] == 1 else list(q)
    q[:] = np.reshape(list(accumulate(zip(seq, [0.0, *f.tolist()]),
                                      lambda acc, qf: qf[0] + qf[1] * acc,
                                      initial=0.0))[1:], q.shape)


class _ExpKernel:
    """w -> sum_j exp(-|z_i - z_j| / ell) w_j along the last axis of w, over
    j != i (or every j with ``diagonal``), in O(n) per row with no n x n table.

    The locations are sorted once (ties allowed) and cut into blocks of
    ``KERNEL_BLOCK``.  Pairs within a block are summed by its dense block,
    pairs across blocks through two carries.  The carry from the left is
    the weight of the blocks before block k at its first location, passed
    on to the next block by exp(-(first_{k+1} - first_k) / ell); the carry
    from the right mirrors it at each block's last location.  Every
    exponent is <= 0, so nothing overflows at any ell > 0; a term that
    underflows is 0.  One matmul per block applies the dense block and
    spreads both carries over the block.
    """

    def __init__(self, z, ell, diagonal=False):
        z = np.asarray(z, dtype=np.float64)
        n, b = len(z), KERNEL_BLOCK
        self.order = None if (np.diff(z) >= 0).all() else np.argsort(z, kind="stable")
        # the last block is padded at the largest location with zero weights
        zb = np.full(-(-n // b) * b, z.max())
        zb[:n] = z if self.order is None else z[self.order]
        self.n, self.ell, self.diagonal = n, ell, diagonal
        self.zb = zb.reshape(-1, b)
        first, last = self.zb[:, :1], self.zb[:, -1:]
        with np.errstate(under="ignore", over="ignore"):
            self.from_first = np.exp((first - self.zb) / ell)     # (blocks, b)
            self.to_last = np.exp((self.zb - last) / ell)
            self.gap = np.exp((last[:-1] - first[1:]) / ell)      # (blocks - 1, 1)
            self.step_first = np.exp((first[:-1] - first[1:]) / ell)[:, 0]
            self.step_last = np.exp((last[:-1] - last[1:]) / ell)[:, 0]
        self.chunk = max(1, KERNEL_BLOCK_BYTES // (8 * (b + 2) * b))
        self.kept = None

    def _tables(self, lo):
        """The tables of the chunk of blocks from lo.  When all blocks fit in
        one chunk they are built on the first call and kept (two threads
        that race to it build the same tables); otherwise every call
        builds each chunk again."""
        if len(self.zb) > self.chunk:
            return self._build(lo, lo + self.chunk)
        if self.kept is None:
            self.kept = self._build(0, len(self.zb))
        return self.kept

    def _build(self, lo, hi):
        """(blocks, b + 2, b) tables of blocks lo..hi-1: the dense block, then
        the rows that spread the carries from the left and from the right."""
        zb, b = self.zb[lo:hi], KERNEL_BLOCK
        tab = np.empty((len(zb), b + 2, b))
        d = tab[:, :b]
        np.subtract(zb[:, :, None], zb[:, None, :], out=d)
        np.abs(d, out=d)
        with np.errstate(under="ignore", over="ignore"):
            np.divide(d, -self.ell, out=d)
            np.exp(d, out=d)
        if not self.diagonal:
            d[:, np.arange(b), np.arange(b)] = 0.0
        tab[:, b] = self.from_first[lo:hi]
        tab[:, b + 1] = self.to_last[lo:hi]
        return tab

    def __call__(self, w):
        w = np.asarray(w, dtype=np.float64)
        n, (nb, b) = self.n, self.zb.shape
        flat = w.reshape(-1, n)
        if self.order is not None:
            flat = flat[:, self.order]
        # per block: the sorted weights (zero-padded), then the two carries
        ws = np.zeros((len(flat), nb, b + 2))
        cut = n - n % b
        ws[:, :cut // b, :b] = flat[:, :cut].reshape(len(flat), -1, b)
        ws[:, -1, :n - cut] = flat[:, cut:]
        wk = ws[:, :, :b]
        out = np.empty((len(flat), nb, b))
        with np.errstate(under="ignore"):
            # block k's sum at block k + 1's first location, carried rightward,
            # and block k + 1's sum at block k's last location, carried leftward
            from_left = np.einsum("rkj,kj->kr", wk[:, :-1], self.to_last[:-1]) * self.gap
            from_right = np.einsum("rkj,kj->kr", wk[:, 1:], self.from_first[1:]) * self.gap
            _carry(from_left, self.step_first[1:])
            _carry(from_right[::-1], self.step_last[-2::-1])
            ws[:, 1:, b] = from_left.T
            ws[:, :-1, b + 1] = from_right.T
            for lo in range(0, nb, self.chunk):
                hi = lo + self.chunk
                np.matmul(ws[:, lo:hi].transpose(1, 0, 2), self._tables(lo),
                          out=out[:, lo:hi].transpose(1, 0, 2))
        res = out.reshape(len(flat), nb * b)[:, :n]
        if self.order is not None:
            res[:, self.order] = res.copy()
        return res.reshape(w.shape)


def _connectivity_matrix(model):
    """M[i, j] = a(z_j) D(z_i, z_j) / n with zero diagonal, formed in place
    on the one table of differences; TooLargeError first if M would exceed
    the cap."""
    require_bytes(8 * model.n * model.n)
    z = model.z
    M = np.subtract(z[:, None], z[None, :])
    np.abs(M, out=M)
    np.negative(M, out=M)
    M /= model.kernel_scale
    np.exp(M, out=M)
    M *= model.a(z)
    M /= model.n
    np.fill_diagonal(M, 0.0)
    return M


def hanski_rule(model):
    """Occupancy rule with analytic split, Jacobian, O(n) ``vjp`` and
    coefficient budget.

    The connectivity matrix M is built on the first call of the coefficient
    oracle or the Jacobian; two threads that race to it build the same M.
    Each of those readers holds at most one more n x n table beside M, and
    checks that twice M fits before it builds either."""
    n = model.n
    M = None

    def dense():
        nonlocal M
        require_bytes(2 * 8 * n * n)
        if M is None:
            M = _connectivity_matrix(model)
        return M

    a_vec = np.asarray(model.a(model.z), dtype=np.float64)
    if not (a_vec.min() >= 0 and a_vec.max() < math.inf):
        raise ValueError("patch weights a(z) must be finite and >= 0")
    s_vec = np.asarray(model.s(model.z), dtype=np.float64)
    if not (s_vec.min() >= 0 and s_vec.max() <= 1):
        raise ValueError("survival probabilities must lie in [0, 1]")
    kernel = _ExpKernel(model.z, model.kernel_scale)
    weight = a_vec / n

    def connectivity(x):
        return kernel(x * weight)

    def vjp(x, t, g):
        # J^T g = M^T ((1 - x) c'(conn) g) + (s - c(conn)) g, where
        # M^T v = (a / n) K v as the kernel K is symmetric
        x = np.asarray(x, dtype=np.float64)
        conn = connectivity(x)
        return (weight * kernel((1.0 - x) * default_colonization_prime(conn) * g)
                + (s_vec - default_colonization(conn)) * g)

    def survive(x, t=0):
        # a read-only view: the chain step reads S, it never writes it
        return np.broadcast_to(s_vec, np.shape(x))

    def colonize(x, t=0):
        return default_colonization(connectivity(np.asarray(x, dtype=np.float64)))

    def jacobian(x, t=0):
        M = dense()
        x = np.asarray(x, dtype=np.float64)
        conn = connectivity(x)
        J = (1.0 - x)[:, None] * default_colonization_prime(conn)[:, None] * M
        J[np.arange(n), np.arange(n)] = s_vec - default_colonization(conn)
        return J

    def coeff_oracle(t):
        # the sups of |c'|, |c''|, |c'''| for c(y) = y / (1 + y) on y >= 0
        c1, c2, c3 = 1.0, 2.0, 6.0
        # sup-norm budgets: |d_j P_i| <= c1 M_ij, |d_j d_k P_i| <= c2 M_ij M_ik
        # (plus c1 M_jk when i is j or k), |d_j d_k^2 P_i| <= c3 M_ij M_ik^2
        # with the matching one- and two-index boundary terms, computed with
        # one n x n table beside M at a time
        M = dense()
        alpha = float(c1 * M.sum(axis=0).max())
        off = M.reshape(-1)[1:].reshape(n - 1, n + 1)[:, :n]   # M off the diagonal
        beta = float(c1 * math.sqrt(np.square(off).sum() / n))
        G = M.T @ M
        G *= c2
        for lo in range(0, n, 64):
            G[lo:lo + 64] += c1 * (M[lo:lo + 64] + M.T[lo:lo + 64])
        big_gamma = float(G.max())
        m2 = np.square(M, out=G)
        gamma = float(c2 * m2.sum() / n)
        q = m2.sum(axis=1)
        del G, m2
        delta = float((c3 * M.T @ q + c2 * q).max())
        return CoefficientSet(alpha=alpha, beta=beta, big_gamma=big_gamma,
                              gamma=gamma, delta=delta)

    return OccupancyRule(
        n=n, split=(survive, colonize), jacobian=jacobian, vjp=vjp,
        coeff_oracle=coeff_oracle, homogeneous=True,
        name=f"hanski(n={n})")


# ---------------------------------------------------------------------------
# limiting measure recursions on a quadrature grid
# ---------------------------------------------------------------------------

@dataclass
class HanskiLimit:
    grid: np.ndarray          # (G,) quadrature nodes
    weights: np.ndarray       # (G,) quadrature weights summing to 1
    rho: np.ndarray           # (T+1, G) occupancy density
    variance: np.ndarray      # (T+1, G) variance density
    connectivity: np.ndarray  # (T+1, G) limiting connectivity C_t(z)
    dispersal: Callable       # f -> sum_w D(z, w) f(w) over grid nodes, (G,) -> (G,)
    s: np.ndarray             # (G,) survival probability s(z) on the grid
    a: np.ndarray             # (G,) weight density a(z) on the grid

    def integrate(self, values_on_grid):
        return float((self.weights * values_on_grid).sum())

    def measure_integral(self, h, t):
        """integral of h against the occupancy measure at time t."""
        return self.integrate(h(self.grid) * self.rho[t])


def _grid(G):
    # left-endpoint rectangles: first-order quadrature, refinement halves error
    nodes = np.arange(G) / G
    weights = np.full(G, 1.0 / G)
    return nodes, weights


def hanski_limit(model, rho0, T, G=512):
    """Advance the limiting density, variance density and connectivity.

    ``rho0`` is the initial density: a callable on [0,1] or a (G,) array.
    Each step applies the kernel matrix-free, in O(G).
    """
    require_bytes(8 * G * 3 * (T + 1))   # the (T+1, G) tables
    nodes, weights = _grid(G)
    rho = np.empty((T + 1, G))
    rho[0] = rho0(nodes) if callable(rho0) else np.asarray(rho0, dtype=np.float64)
    if not (rho[0].min() >= -1e-12 and rho[0].max() <= 1 + 1e-12):   # NaN fails too
        raise DomainError("initial density must take values in [0, 1]")
    rho[0] = np.clip(rho[0], 0.0, 1.0)

    a_g = model.a(nodes)
    s_g = model.s(nodes)
    dispersal = _ExpKernel(nodes, model.kernel_scale, diagonal=True)
    var = np.zeros((T + 1, G))
    conn = np.empty((T + 1, G))
    for t in range(T):
        conn[t] = dispersal(weights * a_g * rho[t])
        cg = default_colonization(conn[t])
        rho[t + 1] = s_g * rho[t] + cg * (1.0 - rho[t])
        if not (rho[t + 1].min() >= -1e-12 and rho[t + 1].max() <= 1 + 1e-12):
            raise DomainError("density left [0, 1]; malformed model inputs")
        rho[t + 1] = np.clip(rho[t + 1], 0.0, 1.0)
        var[t + 1] = (s_g * (1.0 - s_g) * rho[t] + cg * (1.0 - cg) * (1.0 - rho[t])
                      + (s_g - cg) ** 2 * var[t])
    conn[T] = dispersal(weights * a_g * rho[T])
    return HanskiLimit(grid=nodes, weights=weights, rho=rho, variance=var,
                       connectivity=conn, dispersal=dispersal, s=s_g, a=a_g)


def injected_noise_density(model, limit, t):
    """Conditional-variance density of the step rho_{t-1} -> rho_t.

    s(1-s) rho + c(1-c)(1-rho) at time t-1.  The recursive density stored in
    ``limit.variance`` adds the (s-c)^2-propagated past and therefore equals
    the marginal rho_t (1 - rho_t); projections of the chain inject only the
    conditional part per step, the transfer operator carries the rest.
    """
    if t < 1:
        return np.zeros_like(limit.grid)
    s_g = limit.s
    cg = default_colonization(limit.connectivity[t - 1])
    rho = limit.rho[t - 1]
    return s_g * (1.0 - s_g) * rho + cg * (1.0 - cg) * (1.0 - rho)


def grid_projected_variance(model, limit, h, t):
    """Limit variance of sqrt(n) <empirical measure - rho_t, h>.

    The finite-n backward sweep, stepping through the transfer operator.
    """
    hg = h(limit.grid) if callable(h) else h
    walk = backward(lambda r, g: transfer_apply(model, limit, g, r), hg, t)
    return accumulated_variance(
        lambda r, g: limit.integrate(g * g * injected_noise_density(model, limit, r)),
        walk, t)


def transfer_apply(model, limit, h, t):
    """Apply the limiting transfer operator at time t to a test function.

    (J_t h)(z) = (s(z) - c[C_t(z)]) h(z)
                 + a(z) * integral D(z, w) h(w) c'[C_t(w)] (1 - rho_t(w)) dw
    evaluated on the grid; ``h`` is a callable or a grid array.
    """
    nodes, weights = limit.grid, limit.weights
    hg = h(nodes) if callable(h) else np.asarray(h, dtype=np.float64)
    conn = limit.connectivity[t]
    integral = limit.dispersal(weights * hg * default_colonization_prime(conn)
                               * (1.0 - limit.rho[t]))
    return (limit.s - default_colonization(conn)) * hg + limit.a * integral
