import numpy as np
import pytest
from scipy import stats

from occlab import analysis
from occlab.analysis import (NormalTarget, clt_sweep, ks_distance, lln_sweep,
                             sign_class, wasserstein1)
from occlab.errors import TooLargeError
from occlab.models import mean_field, spreading_rule


def test_ks_against_scipy():
    g = np.random.default_rng(1)
    s = g.standard_normal(4000) * 1.2 + 0.1
    target = NormalTarget(0.0, 1.0)
    mine = ks_distance(s, target)
    ref = stats.kstest(s, "norm").statistic
    assert mine.value == pytest.approx(ref, abs=1e-12)
    assert mine.stderr > 0


def test_ks_degenerate_sample_atom():
    rep = ks_distance(np.zeros(10), NormalTarget(0.0, 1.0))
    assert rep.value == pytest.approx(0.5)


def test_ks_affine_invariance():
    g = np.random.default_rng(3)
    s = g.standard_normal(2000)
    base = ks_distance(s, NormalTarget(0.2, 2.0)).value
    for a, b in [(3.0, -1.0), (0.25, 5.0)]:
        moved = ks_distance(a * s + b, NormalTarget(a * 0.2 + b, a * a * 2.0)).value
        assert moved == pytest.approx(base, abs=1e-12)


def test_w1_translation_properties():
    g = np.random.default_rng(4)
    s = g.standard_normal(50000)
    shifted = wasserstein1(s, NormalTarget(0.1, 1.0)).value
    assert shifted == pytest.approx(0.1, abs=0.01)
    # shifting the sample moves the distance to a fixed target by at most |c|
    base = wasserstein1(s, NormalTarget(0.0, 1.0)).value
    moved = wasserstein1(s + 0.05, NormalTarget(0.0, 1.0)).value
    assert abs(moved - base) <= 0.05 + 1e-9
    # against the equally shifted target the distance is unchanged
    same = wasserstein1(s + 0.05, NormalTarget(0.05, 1.0)).value
    assert same == pytest.approx(base, abs=1e-12)


def test_w1_point_mass_translation_cost():
    rep = wasserstein1(np.full(16, 0.7), NormalTarget(0.0, 0.0))
    assert rep.value == pytest.approx(0.7)


def test_w1_one_sample_against_quadrature():
    g = np.random.default_rng(6)
    s = 1.4 * g.standard_normal(800) - 0.3
    target = NormalTarget(0.2, 0.8)
    xs = np.linspace(-15, 15, 300001)
    femp = np.searchsorted(np.sort(s), xs, side="right") / len(s)
    quad = np.trapezoid(np.abs(femp - target.cdf(xs)), xs)
    # the quadrature oracle itself carries O(grid^2) error at the CDF kinks
    assert wasserstein1(s, target).value == pytest.approx(quad, abs=1e-5)


def family(n):
    rule = spreading_rule(mean_field(n, rbar=0.5, mu=0.5))
    X0 = np.zeros(n, dtype=np.uint8)
    X0[: n // 2] = 1
    return rule, X0


def test_clt_sweep_distances_shrink():
    rows, summary = clt_sweep(family, lambda n: np.ones(n), t=2, q=float("inf"),
                              n_list=[50, 800], R=20000, seed=9)
    assert [r["n"] for r in rows] == [50, 800]
    assert rows[0]["value"] > rows[1]["value"]
    assert summary["strictly_decreasing"]
    assert summary["slope"] < -0.2
    for r in rows:
        assert np.isfinite(r["bound_c1"])


def test_clt_sweep_lets_programming_errors_through(monkeypatch):
    # only occlab's own errors turn a bound into NaN; anything else is a bug
    def broken(*args):
        raise RuntimeError("bug in the bound")

    monkeypatch.setattr(analysis, "clt_rate_bound", broken)
    with pytest.raises(RuntimeError, match="bug in the bound"):
        clt_sweep(family, lambda n: np.ones(n), t=1, q=1, n_list=[20], R=50, seed=1)


def test_clt_sweep_bootstrap_scaling():
    rows1, _ = clt_sweep(family, lambda n: np.ones(n), t=1, q=float("inf"),
                         n_list=[100], R=5000, seed=10)
    rows4, _ = clt_sweep(family, lambda n: np.ones(n), t=1, q=float("inf"),
                         n_list=[100], R=20000, seed=10)
    ratio = rows1[0]["stderr"] / rows4[0]["stderr"]
    assert ratio == pytest.approx(2.0, abs=0.6)


def test_lln_sweep_sign_class():
    H = sign_class(2, 3)
    assert H.tolist() == [[1, 1, 0], [-1, 1, 0], [1, -1, 0], [-1, -1, 0]]
    # the 1e6-vector cap is checked before the (2^k, n) array exists
    with pytest.raises(TooLargeError):
        sign_class(21, 50)

    rows = lln_sweep(family, lambda n: sign_class(6, n), t=2, n_list=[64, 256],
                     R=3000, seed=11)
    assert rows[0]["q99"] >= rows[0]["q50"] >= 0
    # deviations of averages shrink with n
    assert rows[1]["q99"] < rows[0]["q99"]
    for r in rows:
        assert 0 <= r["exceedance"] <= 1
        assert r["bound_c1"] <= 1.0


def test_singleton_class_reduces_to_mean_deviation():
    def classes(n):
        return np.ones((1, n))

    rows = lln_sweep(family, classes, t=1, n_list=[128], R=2000, seed=12)
    # the sup over a singleton is |mean occupancy deviation|: order n^{-1/2}
    assert 0 < rows[0]["q50"] <= 5 / np.sqrt(128)
    assert rows[0]["class_size"] == 1
