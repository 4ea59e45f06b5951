"""Counter-based random streams.

All randomness in occlab flows through keyed Philox streams.  A draw is a
pure function of (master seed, stream tag, time step, replicate, node), so
simulations are bit-for-bit reproducible at any worker count, and the
coupled chains can consume the *same* uniforms by construction.

Replicates are grouped into fixed blocks of ``BLOCK`` rows; each
(seed, tag, t, block) quadruple keys an independent Philox generator and
yields a (rows, n) array whose entry (r, i) belongs to replicate
``block * BLOCK + r`` and node ``i``.  The block size is a constant of the
library, never a function of the worker count.

Rows inside a block are addressable: the uniform tables (:func:`uniforms`,
:func:`signs`) take one Philox output per double, so a table starting at
row ``offset`` of a block seeks the generator's counter past the rows in
front of it.  :func:`normals` draws through the ziggurat, which takes a
variable number of outputs per value, so it draws those rows and drops them.
"""

import numpy as np

# Replicate rows generated per generator key.  Fixed: changing it changes
# every stream, so it is part of the reproducibility contract.
BLOCK = 4096

# Rows one (seed, tag, t) can address: the generator key packs the block
# index into the 20 bits below t, so a block index of 2**20 reuses a key.
MAX_ROWS = BLOCK * 2 ** 20

# Stream tags keep distinct uses of the same (seed, t) from colliding.
TAG_CHAIN = 0       # U_{i,t} shared by the chain and its coupling
TAG_GAUSS = 1       # standard normals for the autoregressive approximation
TAG_RADEMACHER = 2  # sign draws for complexity estimates
TAG_SAMPLER = 3     # Latin-hypercube / corner sampling in coefficient estimation

_GOLDEN = 0x9E3779B97F4A7C15
_MASK = 0xFFFFFFFFFFFFFFFF


def _mix64(x):
    """SplitMix64 finalizer; decorrelates adjacent keys."""
    x &= _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return (x ^ (x >> 31)) & _MASK


def _generator(seed, tag, t, block):
    seed = int(seed) & _MASK
    k0 = _mix64(seed ^ ((_GOLDEN * (int(tag) + 1)) & _MASK))
    k1 = _mix64(((int(t) << 20) ^ int(block) ^ (k0 >> 1)) & _MASK)
    bg = np.random.Philox(key=np.array([k0, k1], dtype=np.uint64))
    return np.random.Generator(bg)


def _block_draw(draw, seed, tag, t, n, r0, rows, seek):
    """Assemble rows [r0, r0+rows) of the (replicate, node) table at step t.

    ``draw`` is an unbound ``np.random.Generator`` method taking ``size``
    and ``out``.  With ``seek`` it must take exactly one Philox output per
    value, so the rows in front of r0 are skipped rather than drawn.
    """
    out = np.empty((rows, n), dtype=np.float64)
    filled = 0
    while filled < rows:
        r = r0 + filled
        block, offset = divmod(r, BLOCK)
        take = min(BLOCK - offset, rows - filled)
        # Philox fills a block in order, so its first offset + take rows
        # are the same whichever number of rows is drawn
        g = _generator(seed, tag, t, block)
        if offset == 0 or seek:
            # one counter step yields 4 outputs: advance by whole steps,
            # then drop the remaining outputs of a partial step
            skip, part = divmod(offset * n, 4)
            g.bit_generator.advance(skip)
            if part:
                draw(g, part)
            draw(g, out=out[filled:filled + take])
        else:
            out[filled:filled + take] = draw(g, (offset + take, n))[offset:]
        filled += take
    return out


def uniforms(seed, t, n, r0=0, rows=1, tag=TAG_CHAIN):
    """Uniform(0,1) table of shape (rows, n) for replicates r0..r0+rows-1 at step t."""
    return _block_draw(np.random.Generator.random, seed, tag, t, n, r0, rows, seek=True)


def normals(seed, t, n, r0=0, rows=1, tag=TAG_GAUSS):
    """Standard-normal table of shape (rows, n), keyed like :func:`uniforms`."""
    return _block_draw(np.random.Generator.standard_normal, seed, tag, t, n, r0, rows,
                       seek=False)


def signs(seed, t, n, r0=0, rows=1, tag=TAG_RADEMACHER):
    """Rademacher (+/-1) table of shape (rows, n)."""
    u = _block_draw(np.random.Generator.random, seed, tag, t, n, r0, rows, seek=True)
    return np.where(u < 0.5, -1.0, 1.0)


def derive_seed(seed, label):
    """Stable 64-bit sub-seed for an independent purpose named by ``label``."""
    h = int(seed) & _MASK
    for ch in str(label).encode():
        h = _mix64(h ^ ch)
    return h
