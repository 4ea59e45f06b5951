import tracemalloc

import numpy as np
import pytest

from occlab import rng


def test_reproducible_and_prefix_stable():
    a = rng.uniforms(123, t=4, n=7, r0=0, rows=100)
    b = rng.uniforms(123, t=4, n=7, r0=0, rows=100)
    assert np.array_equal(a, b)
    # rows for replicates [10, 60) are a slice of the full table
    c = rng.uniforms(123, t=4, n=7, r0=10, rows=50)
    assert np.array_equal(c, a[10:60])
    # crossing a block boundary changes nothing about earlier rows
    wide = rng.uniforms(123, t=4, n=7, r0=0, rows=rng.BLOCK + 5)
    assert np.array_equal(wide[:100], a)


@pytest.mark.parametrize("table", [rng.uniforms, rng.normals, rng.signs])
def test_partial_rows_match_full_block_tables(table):
    # rows=BLOCK from a block start draws each block's whole table
    full = np.vstack([table(17, 2, 3, r0=b * rng.BLOCK, rows=rng.BLOCK) for b in (0, 1)])
    for r0 in (0, 1, rng.BLOCK - 1):
        assert np.array_equal(table(17, 2, 3, r0=r0, rows=1), full[r0:r0 + 1])
    span = slice(rng.BLOCK - 5, rng.BLOCK + 7)
    assert np.array_equal(table(17, 2, 3, r0=span.start, rows=12), full[span])


@pytest.mark.parametrize("table", [rng.uniforms, rng.signs])
def test_uniform_tables_seek_to_their_rows(table):
    # the last row of a block at n = 2048 needs no 64 MB prefix
    tracemalloc.start()
    try:
        table(17, 2, 2048, r0=rng.BLOCK - 1, rows=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    # n * offset = 0, 1, 2 and 3 mod 4 drop that many outputs of a counter step
    n = 2047
    full = table(17, 2, n, r0=0, rows=rng.BLOCK)
    for r0 in (1, 2, 3, 4, rng.BLOCK - 1):
        assert np.array_equal(table(17, 2, n, r0=r0, rows=2)[:1], full[r0:r0 + 1])


def test_streams_distinct():
    u1 = rng.uniforms(1, t=0, n=16, rows=8)
    u2 = rng.uniforms(2, t=0, n=16, rows=8)
    u3 = rng.uniforms(1, t=1, n=16, rows=8)
    u4 = rng.uniforms(1, t=0, n=16, rows=8, tag=rng.TAG_GAUSS)
    assert not np.array_equal(u1, u2)
    assert not np.array_equal(u1, u3)
    assert not np.array_equal(u1, u4)


def test_uniform_moments():
    u = rng.uniforms(7, t=0, n=64, rows=4096)
    assert abs(u.mean() - 0.5) < 0.003
    assert abs(u.var() - 1 / 12) < 0.002
    assert u.min() >= 0 and u.max() < 1


def test_normals_and_signs():
    z = rng.normals(7, t=0, n=64, rows=4096)
    assert abs(z.mean()) < 0.01
    assert abs(z.var() - 1.0) < 0.02
    s = rng.signs(7, t=0, n=64, rows=512)
    assert set(np.unique(s)) == {-1.0, 1.0}
    assert abs(s.mean()) < 0.02


def test_cross_step_independence():
    # lagged correlation across steps for the same replicate stays at noise level
    rows, n = 2000, 8
    a = rng.uniforms(99, t=0, n=n, rows=rows).ravel()
    b = rng.uniforms(99, t=1, n=n, rows=rows).ravel()
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) < 4 / np.sqrt(rows * n)


def test_derive_seed_stable():
    assert rng.derive_seed(5, "x") == rng.derive_seed(5, "x")
    assert rng.derive_seed(5, "x") != rng.derive_seed(5, "y")
    assert rng.derive_seed(5, "x") != rng.derive_seed(6, "x")
