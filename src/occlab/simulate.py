"""Exact simulation of occupancy chains and their independent-node coupling.

The chain X and its coupled companion W consume the *same* uniform table:
node i of replicate r at step t reads one keyed Philox draw, so the
coupling is well defined, replicates are independent, and every run is
bit-for-bit reproducible from (rule, X0, seed, R, T) at any worker count.
Replicates advance through all T steps in tiles of ``TILE`` rows (more
for chains of fewer than 128 nodes, fewer for chains of more than 256),
each reading its rows of the keyed table, and a run's ``workers`` threads
share its tiles.

The companion W updates its thresholds at the deterministic trajectory
p_t instead of the current random state, which makes its nodes mutually
independent with mean exactly p_t.  The discrepancy bit J_{i,t} records
whether node i has ever disagreed between the two chains up to time t.
Both chains range-check, without clipping, the thresholds they compare
the uniforms with, and raise RangeError as :func:`occlab.rules.evaluate_rule`
does; W's thresholds at p_t are computed once per step.  A call whose
result arrays would exceed ``rules.MAX_RESULT_BYTES`` raises TooLargeError
before allocating them.

Every replicate starts at X0, so X's thresholds at step 0 are computed
once per run, from the one-row state X0, and range-checked at every node,
S and C alike, before any result array is allocated.  For count-table
and elementwise rules they are the bits a batched evaluation gives.  A
rule that forms its thresholds by a matrix product (non-uniform
spreading, hanski, the graph and linear rules) may round its one-row
value an ulp away from a batched row's (at most 3.3e-16 for non-uniform
spreading and 1.1e-16 for hanski at n = 800), which moves a bit only
when a uniform lands in that gap: a chance of about 2e-16 per comparison.

A later step checks its S and C whole too, and only when one fails
decides on the thresholds the nodes read, so it raises only for a value
some node compares with.  Every step, W's included, picks its bits from
S and C with one flip-select.

The projections n^{-1/2} (x.h - p_t.h) take x.h by numpy's einsum loop on
a tile's uint8 rows and p_t.h once per run by the same loop, one row of
p_traj at a time.  Neither calls BLAS or forms a float (rows, n) table,
so a count-table tile step makes no BLAS call at all.  Both dot products
sum in the same order, so the t = 0 column is exactly 0 when p_0 = X0.
"""

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import rng
from .errors import RangeError, TooLargeError
from .rules import (_check_range, evaluate_rule, require_bytes, rule_conditionals,
                    state_table)

#: replicate rows one worker advances through all T steps at a time; it
#: divides ``rng.BLOCK``, so no tile straddles two generator keys
TILE = rng.BLOCK // 8
#: fewest node updates in one step of a tile, reached on narrow chains by
#: taller tiles: below it, the fixed cost of a tile step and the threads'
#: hand-offs of the interpreter lock outweigh the work
TILE_UPDATES = 2 ** 16
#: most bytes of one tile step's uniform table, kept on wide chains by
#: shorter tiles, so a worker's memory does not grow with n.  A step frees
#: all its tables when it ends; at 1 MiB they stay in the cache and in the
#: heap the allocator keeps.  At 8 MiB (512 rows of 2048 nodes) glibc gave
#: the heap back after every step and faulted it in again.
TILE_BYTES = 2 ** 20


@dataclass
class BinaryEnsemble:
    """R replicate trajectories of an n-node chain over steps 0..T."""

    states: np.ndarray                      # (R, T+1, n) uint8
    coupled: Optional[np.ndarray] = None    # (R, T+1, n) uint8
    discrepancy: Optional[np.ndarray] = None  # (R, T+1, n) uint8


def _select(u, s, c, x):
    """Bits u <= S where x is 1 and u <= C where it is 0, for thresholds s
    and c that broadcast against the uniforms u: u <= C, with (u <= S) xor
    (u <= C) flipped in where x is 1.  These are the bits of
    ``u <= np.where(x == 1, s, c)`` at a third of its cost."""
    bits = (u <= c).view(np.uint8)
    flip = (u <= s).view(np.uint8)
    flip ^= bits
    flip &= x
    bits ^= flip
    return bits


def _thresholds(rule, x, t, whole=True):
    """(S, C) of every node of the binary (rows, n) states x at step t,
    shaped to broadcast against the rows' (rows, n) uniforms: one pair per
    row from ``by_count`` when the rule has it, the split otherwise.

    Both are range-checked whole.  With ``whole=False`` a failure stands
    only if some node reads a failing value: S where x is 1, C where it
    is 0."""
    if rule.by_count is not None:
        s, c = (np.asarray(v, dtype=np.float64)[:, None]
                for v in rule.by_count(x.sum(axis=1, dtype=np.int64), t))
    else:
        xf = x.astype(np.float64)
        s, c = (np.asarray(f(xf, t), dtype=np.float64) for f in rule.split)
    try:
        return _check_range(s), _check_range(c)
    except RangeError:
        if whole:
            raise
        _check_range(np.where(x == 1, s, c))
        return s, c


def _usable_cpus():
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # no affinity call on this platform
        return os.cpu_count() or 1


def _tile_rows(n):
    """``TILE`` rows, doubled up to a block until a step of the tile makes
    ``TILE_UPDATES`` node updates, or halved down to one row until its
    uniform table fits in ``TILE_BYTES``."""
    rows = TILE
    while rows * n < TILE_UPDATES and rows < rng.BLOCK:
        rows *= 2
    while 8 * rows * n > TILE_BYTES and rows > 1:
        rows //= 2
    return rows


def _map_threads(fn, items, workers):
    """Call ``fn`` on each item, on up to ``workers`` threads, no more than
    there are items or usable CPUs, in any order."""
    threads = min(workers, len(items), _usable_cpus())
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(fn, items))
    else:
        for item in items:
            fn(item)


def _trajectory(p_traj, T, n):
    """p_traj as float64, after ValueError unless it covers steps 0..T of n nodes."""
    p_traj = np.asarray(p_traj, dtype=np.float64)
    if p_traj.ndim != 2 or p_traj.shape[0] < T + 1 or p_traj.shape[1] != n:
        raise ValueError(f"p_traj must cover steps 0..T of {n} nodes")
    return p_traj


def _dot(a, h):
    """a @ h for the (rows, n) array a, uint8 or float64, by numpy's own
    einsum loop: no BLAS call, and a uint8 a is cast a buffer at a time,
    never as a whole float (rows, n) table."""
    return np.einsum("ij,j->i", a, h)


def _jbar(t, x, w, j):
    """Share of each row's nodes that have ever disagreed between X and W:
    an exact integer count over n, so the same bits as ``j.mean(axis=1)``."""
    return np.count_nonzero(j, axis=1) / j.shape[1]


def _simulate(rule, X0, T, R, seed, couple, p_traj, workers, keep):
    """Run R replicates from X0 for T steps and keep what ``keep`` names.

    ``keep`` maps an output name to ``(shape, dtype, value)``: the result
    is an (R, T+1, *shape) array of ``dtype`` whose rows of a tile at step
    t hold ``value(t, x, w, j)`` of the tile's (rows, n) states after that
    step (``w`` and ``j`` are None without coupling).  Every check runs,
    and X's step-0 thresholds ``first`` (:func:`_thresholds` at X0) and
    W's thresholds ``companion[t]`` at p_t are computed, before any result
    array is allocated.

    Replicates run in tiles of :func:`_tile_rows` rows.  Every row holds X0
    at t = 0, so that step compares the uniforms with ``first``; later
    steps evaluate the rule on the tile's rows.  Every step picks its bits
    with :func:`_select`.  The tile size depends on n alone, never on the
    worker count, and every row's update is independent
    of the rows batched with it, so results do not depend on ``workers``.
    Tiles write disjoint rows, so they run on :func:`_map_threads`.
    """
    if R < 1:
        raise ValueError("R must be >= 1")
    if R > rng.MAX_ROWS:
        raise TooLargeError(f"R = {R} exceeds the {rng.MAX_ROWS} replicates "
                            "the keyed streams address")
    require_bytes(R * (T + 1) * sum(np.dtype(dtype).itemsize * math.prod(shape)
                                    for shape, dtype, _ in keep.values())
                  + (16 * T * rule.n if couple else 0))
    X0 = np.asarray(X0, dtype=np.uint8)
    if X0.shape != (rule.n,):
        raise ValueError(f"X0 must have shape ({rule.n},)")
    if X0.max(initial=0) > 1:
        raise ValueError("X0 must be a binary state")
    if couple and p_traj is None:
        raise ValueError("coupled simulation needs the deterministic trajectory")
    if p_traj is not None:
        p_traj = _trajectory(p_traj, T, rule.n)
    first = _thresholds(rule, X0[None, :], 0) if T else None
    companion = ([tuple(map(_check_range, rule_conditionals(rule, p_traj[t], t)))
                  for t in range(T)] if couple else None)
    out = {key: np.empty((R, T + 1, *shape), dtype) for key, (shape, dtype, _) in keep.items()}

    def run_tile(r0):
        rows = slice(r0, min(r0 + tile, R))
        x = np.repeat(X0[None, :], rows.stop - r0, axis=0)
        w = x.copy() if couple else None
        j = np.zeros_like(x) if couple else None
        for t in range(T + 1):
            for key, (_, _, value) in keep.items():
                out[key][rows, t] = value(t, x, w, j)
            if t < T:
                u = rng.uniforms(seed, t, rule.n, r0=r0, rows=len(x))
                x = _select(u, *(first if t == 0 else _thresholds(rule, x, t, whole=False)), x)
                if couple:
                    w = _select(u, *companion[t], w)
                    j |= x != w

    tile = _tile_rows(rule.n)
    _map_threads(run_tile, range(0, R, tile), workers)
    return out


def simulate_ensemble(rule, X0, T, R, seed, couple=False, p_traj=None, workers=1):
    """Simulate R independent replicates for T steps from the fixed state X0.

    With ``couple=True`` the independent-node companion W (thresholds taken
    at the supplied deterministic trajectory ``p_traj``) and the discrepancy
    indicators J are tracked alongside X.
    """
    keep = {"states": ((rule.n,), np.uint8, lambda t, x, w, j: x)}
    if couple:
        keep["coupled"] = ((rule.n,), np.uint8, lambda t, x, w, j: w)
        keep["discrepancy"] = ((rule.n,), np.uint8, lambda t, x, w, j: j)
    out = _simulate(rule, X0, T, R, seed, couple, p_traj, workers, keep)
    return BinaryEnsemble(out["states"], out.get("coupled"), out.get("discrepancy"))


def simulate_projections(rule, X0, T, R, seed, h, p_traj, keep_nodes=None,
                         workers=1, couple=False):
    """Streaming simulation keeping only scaled projections of X_t - p_t.

    Returns a dict with ``proj`` of shape (R, T+1) holding
    n^{-1/2} * sum_i h_i (X_{i,t} - p_{i,t}) per replicate (left out when
    ``h`` is None), and optionally ``nodes`` of shape (R, T+1,
    len(keep_nodes)) with raw bits for a column subset, plus ``jbar``
    (R, T+1) when ``couple=True``.  Bit stream and update path match
    :func:`simulate_ensemble` exactly.  ``h`` must have shape (n,) and
    comes with ``p_traj``; ``keep_nodes`` must be integers in [0, n).
    """
    n = rule.n
    keep = {}
    if h is not None:
        h = np.asarray(h, dtype=np.float64)
        if h.shape != (n,) or p_traj is None:
            raise ValueError(f"h must have shape ({n},) and come with p_traj")
        # p_t.h one row at a time, summed as a tile's uint8 rows are (a float
        # (T+1, n) table in one call sums in other chunks above 8192 nodes),
        # so the t = 0 column is exactly 0 when X0 = p_0
        ph = [_dot(pt[None, :], h)[0] for pt in _trajectory(p_traj, T, n)[:T + 1]]
        scale = 1.0 / np.sqrt(n)
        keep["proj"] = ((), np.float64, lambda t, x, w, j: scale * (_dot(x, h) - ph[t]))
    if keep_nodes is not None:
        idx = np.asarray(keep_nodes)
        if idx.ndim != 1 or idx.dtype.kind not in "iu" or not ((idx >= 0) & (idx < n)).all():
            raise ValueError(f"keep_nodes must be integers in [0, {n})")
        keep["nodes"] = ((len(idx),), np.uint8, lambda t, x, w, j: x[:, idx])
    if couple:
        keep["jbar"] = ((), np.float64, _jbar)
    return _simulate(rule, X0, T, R, seed, couple, p_traj, workers, keep)


def simulate_counts(rule, X0, T, R, seed, couple=False, p_traj=None, workers=1,
                    keep_states=False):
    """Streaming simulation keeping per-replicate occupied counts.

    Returns a dict with ``counts`` of shape (R, T+1) holding sum_i X_{i,t}
    per replicate, plus ``jbar`` (R, T+1) when ``couple=True`` and the raw
    bits ``states`` (R, T+1, n) when ``keep_states=True``.  Bit stream and
    update path match :func:`simulate_ensemble` exactly.
    """
    keep = {"counts": ((), np.int64, lambda t, x, w, j: x.sum(axis=1))}
    if couple:
        keep["jbar"] = ((), np.float64, _jbar)
    if keep_states:
        keep["states"] = ((rule.n,), np.uint8, lambda t, x, w, j: x)
    return _simulate(rule, X0, T, R, seed, couple, p_traj, workers, keep)


# ---------------------------------------------------------------------------
# exact small-n law
# ---------------------------------------------------------------------------

def state_index(x):
    x = np.asarray(x)
    return int((x.astype(np.int64) << np.arange(x.shape[-1])).sum())


def _half_factor(p):
    """F[x, y] = P(the nodes in p's columns move to y | x), with y the
    little-endian code of those nodes' next bits.

    Nodes update independently given x, so the kernel factors as
    K[x, y_A + 2^a y_B] = F_A[x, y_A] F_B[x, y_B] for the low a nodes A and
    the rest B.  The factor is built y-major, so every slice written is
    contiguous, and returned x-major.
    """
    Ft = np.empty((2 ** p.shape[1], p.shape[0]))
    Ft[0] = 1.0
    for i, col in enumerate(p.T):
        w = 2 ** i
        np.multiply(Ft[:w], col, out=Ft[w:2 * w])
        Ft[:w] *= 1.0 - col
    return np.ascontiguousarray(Ft.T)


def exact_law(rule, X0, T):
    """Exact distribution over {0,1}^n at steps 0..T from the fixed state X0.

    Returns an array of shape (T+1, 2^n); row t sums to 1 within 1e-12.
    The product-Bernoulli kernel is never formed: with a = n // 2, each
    step builds two half-node factors of 2^n x 2^a and 2^n x 2^(n-a)
    floats and contracts them with the law in one matmul of 4^n
    multiply-adds.

    The peak tables are the state and rule tables (2^n x n each), both
    factors, one more table the size of the larger factor (the transposed
    copy :func:`_half_factor` makes, or the law-weighted factor, which is
    no larger and never held with it) and the (T+1, 2^n) law table:
    8 (2 n 2^n + 2^(n+a) + 2^(2n-a+1) + (T+1) 2^n) bytes, refused with
    TooLargeError before anything is allocated when they exceed
    ``rules.MAX_RESULT_BYTES`` (4 GiB).  So n = 18 is the largest size
    admitted, 3.08 GiB at T = 3 (3 GiB of it the factors), while n = 19
    needs 10.2 GiB; n = 16 needs 402 MiB.
    """
    n = rule.n
    a = n // 2
    require_bytes(8 * (2 * n * 2 ** n + 2 ** (n + a) + 2 ** (2 * n - a + 1)
                       + (T + 1) * 2 ** n))
    states = state_table(n)
    laws = np.zeros((T + 1, 2 ** n))
    laws[0, state_index(X0)] = 1.0
    for t in range(T):
        if t == 0 or not rule.homogeneous:
            K_A = K_B = None  # release the previous factors before building new ones
            p = evaluate_rule(rule, states, t)
            K_A, K_B = _half_factor(p[:, :a]), _half_factor(p[:, a:])
        # row-major (y_B, y_A) flattens to the little-endian code y_A + 2^a y_B
        laws[t + 1] = (K_B.T @ (laws[t][:, None] * K_A)).reshape(-1)
        s = laws[t + 1].sum()
        if abs(s - 1.0) > 1e-12:
            raise RuntimeError(f"law mass drifted to {s!r} at step {t + 1}")
        laws[t + 1] /= s
    return laws


def law_mean(law, n):
    """Per-node occupancy probabilities E X_i under a distribution row."""
    return law @ state_table(n)


def empirical_law(states_at_t, n):
    """Empirical distribution over 2^n states from (R, n) sampled bits."""
    codes = (states_at_t.astype(np.int64) << np.arange(n)).sum(axis=1)
    return np.bincount(codes, minlength=2 ** n) / states_at_t.shape[0]


def total_variation(law_a, law_b):
    return 0.5 * float(np.abs(np.asarray(law_a) - np.asarray(law_b)).sum())
