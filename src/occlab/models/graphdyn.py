"""Dynamic random subgraphs of a host graph, and their graphon limits.

The chain lives on the edges of a fixed host graph (v vertices, n edges):
a present edge is retained with probability q; an absent host edge (a, b)
appears with probability f(deg a / (2v) + deg b / (2v)), degrees taken in
the current graph.  To keep each edge's colonization independent of its
own state, degrees exclude the edge itself (on binary states this changes
nothing, since the edge is absent whenever colonization is consulted).

Dense host sequences have graphon limits; the edge-density kernel then
follows

    W_{t+1}(x,y) = q W_t(x,y) + W(x,y) [1 - W_t(x,y)] f((d_t(x)+d_t(y))/2)

with d_t the degree function of W_t.  The same recursion on the host's own
step partition reproduces the finite deterministic trajectory exactly.

Graph functionals: cut norms (exact by enumeration up to 16 vertices),
homomorphism densities for small simple graphs, and the variance of the
triangle density's normal limit along the chain, which is the Gaussian
companion's projected variance (:class:`occlab.gaussian.GaussianApprox`)
on the graph rule, walked backward through the rule's ``vjp``.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..deterministic import det_trajectory
from ..errors import TooLargeError
from ..gaussian import GaussianApprox
from ..rules import CoefficientSet, OccupancyRule, require_bytes, state_table


@dataclass(frozen=True)
class GraphDynModel:
    host_edges: np.ndarray        # (n, 2) vertex pairs, canonical a < b
    v: int                        # vertex count
    q: float                      # per-step edge retention probability
    f: Callable                   # attachment curve C^2 [0,1] -> [0,1]
    f_prime: Callable             # f', read by the Jacobian and the vjp
    # sups of |f'|, |f''|, |f'''| on [0,1], used by the coefficient budget
    f_derivative_sups: tuple

    def __post_init__(self):
        e = np.asarray(self.host_edges)
        if e.ndim != 2 or e.shape[1] != 2 or not np.issubdtype(e.dtype, np.integer):
            raise ValueError("host edges must be an (E, 2) integer array")
        e = np.sort(e.astype(np.int64), axis=1)
        order = np.lexsort((e[:, 1], e[:, 0]))
        e = e[order]
        object.__setattr__(self, "host_edges", e)
        if e.size and (e.min() < 0 or e.max() >= self.v):
            raise ValueError(f"host edge vertices must lie in [0, {self.v})")
        if (e[:, 0] == e[:, 1]).any():
            raise ValueError("host graph must be simple (no loops)")
        if (e[1:] == e[:-1]).all(axis=1).any():
            raise ValueError("host graph must be simple (no repeated edge)")
        if not 0 <= self.q <= 1:
            raise ValueError("retention probability must lie in [0, 1]")

    @property
    def n_edges(self):
        return self.host_edges.shape[0]

    def host_adjacency(self):
        A = np.zeros((self.v, self.v))
        a, b = self.host_edges[:, 0], self.host_edges[:, 1]
        A[a, b] = 1.0
        A[b, a] = 1.0
        return A


def complete_host(v, q, f, **kw):
    require_bytes(9 * v * v)  # triu_indices' v x v mask and two int64 index arrays
    a, b = np.triu_indices(v, k=1)
    return GraphDynModel(host_edges=np.column_stack([a, b]), v=v, q=q, f=f, **kw)


def edge_state_to_adjacency(model, x):
    """Scatter edge states (..., n_edges) into adjacency matrices (..., v, v)."""
    x = np.asarray(x, dtype=np.float64)
    A = np.zeros(x.shape[:-1] + (model.v, model.v))
    a, b = model.host_edges[:, 0], model.host_edges[:, 1]
    A[..., a, b] = x
    A[..., b, a] = x
    return A


def graph_rule(model):
    """Occupancy rule on host edges with analytic split, Jacobian, O(n v)
    ``vjp`` and coefficient budget."""
    n = model.n_edges
    v = model.v
    q = model.q
    ea, eb = model.host_edges[:, 0], model.host_edges[:, 1]
    require_bytes(8 * n * v)
    incidence = np.zeros((n, v))
    incidence[np.arange(n), ea] = 1.0
    incidence[np.arange(n), eb] = 1.0

    def args_of(x):
        deg = x @ incidence                     # (..., v) degrees incl. the edge
        return (deg[..., ea] + deg[..., eb] - 2.0 * x) / (2.0 * v)

    def survive(x, t=0):
        x = np.asarray(x, dtype=np.float64)
        return np.broadcast_to(q, x.shape).copy()

    def colonize(x, t=0):
        x = np.asarray(x, dtype=np.float64)
        return model.f(args_of(x))

    def jacobian(x, t=0):
        x = np.asarray(x, dtype=np.float64)
        arg = args_of(x)
        fp = model.f_prime(arg) * (1.0 - x) / (2.0 * v)
        # edges e' sharing a vertex with e move e's degree argument by 1/(2v);
        # on a simple host two distinct edges share at most one vertex
        J = incidence @ incidence.T
        J *= fp[:, None]
        J[np.arange(n), np.arange(n)] = q - model.f(arg)
        return J

    def vjp(x, t, g):
        # J^T g: a vertex sum of a = f'(arg) (1 - x) g / (2v) over the edges
        # at each end, less the edge's own a counted at both ends
        x = np.asarray(x, dtype=np.float64)
        arg = args_of(x)
        a = model.f_prime(arg) * (1.0 - x) / (2.0 * v) * g
        s = a @ incidence
        return s[ea] + s[eb] - 2.0 * a + (q - model.f(arg)) * g

    def coeff_oracle(t):
        # conservative budget: an edge has at most 2(v-2) incident neighbours,
        # each moving its degree argument by 1/(2v)
        fp, fpp, fppp = model.f_derivative_sups
        inc = 2.0 * max(v - 2.0, 0.0)
        alpha = inc * fp / (2.0 * v)
        beta = math.sqrt(inc) * fp / (2.0 * v)
        big_gamma = inc * fpp / (4.0 * v * v) + 2.0 * fp / (2.0 * v)
        gamma = inc * fpp / (4.0 * v * v)
        delta = inc ** 2 * fppp / (8.0 * v ** 3) + 3.0 * inc * fpp / (4.0 * v * v)
        return CoefficientSet(alpha=alpha, beta=beta, big_gamma=big_gamma,
                              gamma=gamma, delta=delta)

    return OccupancyRule(
        n=n, split=(survive, colonize), jacobian=jacobian, vjp=vjp,
        coeff_oracle=coeff_oracle, homogeneous=True,
        name=f"graphdyn(v={v},edges={n},q={q})")


# ---------------------------------------------------------------------------
# graphon recursion and kernel functionals
# ---------------------------------------------------------------------------

def graphon_step(W_t, W_host, q, f):
    """One step of the limiting kernel recursion on a common grid."""
    W_t = np.asarray(W_t, dtype=np.float64)
    d = W_t.mean(axis=1)
    attach = f(0.5 * (d[:, None] + d[None, :]))
    out = q * W_t + np.asarray(W_host, dtype=np.float64) * (1.0 - W_t) * attach
    return out


def graphon_trajectory(W0, W_host, q, f, T):
    out = [np.asarray(W0, dtype=np.float64)]
    for _ in range(T):
        out.append(graphon_step(out[-1], W_host, q, f))
    return np.stack(out)


CUT_NORM_EXACT_CAP = 16


def cut_norm_exact(M):
    """Exact cut norm of a step kernel on equal cells, by enumerating one
    side and optimizing the other by sign (feasible up to 16 cells)."""
    M = np.asarray(M, dtype=np.float64)
    m = M.shape[0]
    if m > CUT_NORM_EXACT_CAP:
        raise TooLargeError(f"exact cut norm is capped at {CUT_NORM_EXACT_CAP} cells")
    U = state_table(m)[1:]                          # skip the empty set
    S = U @ M                                       # column sums per subset
    pos = np.clip(S, 0.0, None).sum(axis=1)
    neg = np.clip(-S, 0.0, None).sum(axis=1)
    return float(max(pos.max(), neg.max()) / m ** 2)


def triangle_density(W):
    """Ordered-triple triangle density of a step kernel: mean of W W W."""
    W = np.asarray(W, dtype=np.float64)
    m = W.shape[0]
    return float(((W @ W) * W).sum() / m ** 3)


def homomorphism_density(edges, num_vertices, W):
    """Homomorphism density of a simple graph F (at most 5 vertices) in W."""
    if num_vertices > 5:
        raise TooLargeError("homomorphism densities are capped at 5 vertices")
    W = np.asarray(W, dtype=np.float64)
    m = W.shape[0]
    letters = "abcde"[:num_vertices]
    terms = [f"{letters[i]}{letters[j]}" for i, j in edges]
    if not terms:
        return 1.0
    out = np.einsum(",".join(terms) + "->", *([W] * len(terms)), optimize=True)
    return float(out / m ** num_vertices)


# ---------------------------------------------------------------------------
# variance functionals for the triangle-density normal limit
# ---------------------------------------------------------------------------

def lambda_kernel(W_t):
    """Two-step connection kernel 3 * integral W_t(x,z) W_t(z,y) dz."""
    W_t = np.asarray(W_t, dtype=np.float64)
    return 3.0 * (W_t @ W_t) / W_t.shape[0]


def deterministic_edge_matrices(model, A0, T):
    """Finite deterministic recursion as symmetric v x v matrices."""
    rule = graph_rule(model)
    ea, eb = model.host_edges[:, 0], model.host_edges[:, 1]
    x0 = np.asarray(A0, dtype=np.float64)[ea, eb]
    traj = det_trajectory(rule, x0, T)
    return np.stack([edge_state_to_adjacency(model, traj.p[s]) for s in range(T + 1)])


def triangle_clt(model, A0, t):
    """The deterministic triangle density at t, and the predicted variance of
    v n^{-1/2} (triangle density - that value), from one deterministic run.

    Linearizing the triangle density at the deterministic state gives the
    edge projection with kernel U = (2/v) Lambda_t, whose variance is the
    Gaussian companion's projected variance on the graph rule.
    """
    ea, eb = model.host_edges[:, 0], model.host_edges[:, 1]
    approx = GaussianApprox.from_rule(graph_rule(model),
                                      np.asarray(A0, dtype=np.float64)[ea, eb], t)
    P_t = edge_state_to_adjacency(model, approx.base.p[t])
    U = (2.0 / model.v) * lambda_kernel(P_t)
    return triangle_density(P_t), approx.projected_variance(U[ea, eb], t)
