import math
import sys

import numpy as np
import pytest

import occlab as ol
from occlab import rng
from occlab.analysis import sign_class
from occlab.bounds import (clt_rate_bound, concentration_bound, jbar_moment_bound,
                           lqr_error_bound, mean_functional_norms,
                           rademacher_exact, rademacher_mc)
from occlab.errors import DegenerateSigmaError, DomainError
from occlab.gaussian import GaussianApprox
from occlab.models import mean_field, spreading_rule
from occlab.rules import CoefficientSet, rule_jacobian

INF = float("inf")


def zero_coeffs(steps=6):
    return [CoefficientSet(0, 0, 0, 0, 0)] * steps


def generic_coeffs(steps=6):
    return [CoefficientSet(alpha=0.4, beta=0.05, big_gamma=0.01, gamma=0.02,
                           delta=0.1)] * steps


# ---------------------------------------------------------------------------
# derivative norms
# ---------------------------------------------------------------------------

def test_mean_functional_norms():
    # gradient of the averaging functional: a single row of 1/n entries
    # (one row: its induced l^1 norm is the largest entry, and every
    # maximal (2, q) norm is its l^2 norm)
    n = 64
    row = np.full(n, 1.0 / n)
    norms = mean_functional_norms(n)
    assert np.abs(row).max() == pytest.approx(norms["df_1"])
    assert np.sqrt((row ** 2).sum()) == pytest.approx(norms["df_2q"])
    assert norms["d2f_1q"] == 0.0


# ---------------------------------------------------------------------------
# rate bound for projections
# ---------------------------------------------------------------------------

def test_clt_rate_zero_for_independent_nodes_t1():
    rule = ol.constant_rule(16, 0.3)
    ga = GaussianApprox.from_rule(rule, np.full(16, 0.4), 1)
    rep = clt_rate_bound(zero_coeffs(), np.ones(16), 1, ga, 1)
    assert rep.value == 0.0
    assert any("C := 1" in c for c in rep.caveats)


def test_clt_rate_exponent_arithmetic():
    rule = spreading_rule(mean_field(12, rbar=0.5, mu=0.5, reinfection=True))
    ga = GaussianApprox.from_rule(rule, np.full(12, 0.5), 2)
    coeffs = [rule.coeff_oracle(0)] * 3
    h = 2.0 * np.ones(12)
    n = 12

    def manual(q):
        inv_q = 0.0 if math.isinf(q) else 1.0 / q
        total = 0.0
        for s in range(2):
            g = h.copy()
            for u in range(1, 2)[::-1]:
                if u > s:
                    g = rule_jacobian(rule, ga.base.p[u], u).T @ g
            sig = math.sqrt((g * g * ga.base.p[s + 1]
                             * (1 - ga.base.p[s + 1])).sum() / n)
            total += (ol.kappa(coeffs, s, n)
                      * math.exp((4 - inv_q) * coeffs[0].alpha * max(0, 2 - s - 2))
                      / sig ** (4 - 2 * inv_q))
        return (2.0 ** (4 - inv_q)) * math.sqrt((1 + math.log(n)) / n) * total

    for q in (1.0, 2.0, INF):
        rep = clt_rate_bound(coeffs, h, q, ga, 2)
        assert rep.value == pytest.approx(manual(q), rel=1e-9)


def test_clt_rate_degenerate_sigma_raises():
    rule = ol.constant_rule(8, 1.0)  # all-ones next state: zero variance
    ga = GaussianApprox.from_rule(rule, np.full(8, 0.5), 2)
    with pytest.raises(DegenerateSigmaError):
        clt_rate_bound(generic_coeffs(), np.ones(8), 1, ga, 2)


# ---------------------------------------------------------------------------
# functional error and discrepancy moments
# ---------------------------------------------------------------------------

def test_lqr_error_term_dropout():
    norms = {"df_1": 0.25, "df_2q": 0.5, "d2f_1q": 0.0}
    rep = lqr_error_bound(norms, zero_coeffs(), q=1, r=1, t=1, n=50)
    expect = 6 * math.sqrt(math.pi) * 0.25 + math.sqrt(math.pi * 2) * 0.5
    assert rep.value == pytest.approx(expect)


def test_lqr_error_mean_functional_scaling():
    # averaging functional: bound decays like n^{-1/2} when psi does
    vals = []
    for n in (100, 400, 1600):
        coeffs = [CoefficientSet(alpha=0.5, beta=0.5 / math.sqrt(n), big_gamma=0.0,
                                 gamma=0.0, delta=0.0)] * 6
        norms = {"df_1": 1.0 / n, "df_2q": n ** -0.5, "d2f_1q": 0.0}
        vals.append(lqr_error_bound(norms, coeffs, q=1, r=1, t=5, n=n).value)
    assert vals[0] / vals[1] == pytest.approx(2.0, rel=0.1)
    assert vals[1] / vals[2] == pytest.approx(2.0, rel=0.1)


def test_jbar_moment_trivial():
    rep = jbar_moment_bound(zero_coeffs(), q=2, t=3, n=50)
    assert rep.value == pytest.approx(4 * 2 * 3 / 50)


def test_lq_bounds_reject_infinite_q():
    norms = {"df_1": 0.1, "df_2q": 0.1, "d2f_1q": 0.0}
    for q in (INF, float("nan")):
        with pytest.raises(DomainError):
            jbar_moment_bound(zero_coeffs(), q=q, t=3, n=50)
        with pytest.raises(DomainError):
            lqr_error_bound(norms, zero_coeffs(), q=q, r=1, t=3, n=50)
    with pytest.raises(DomainError):
        lqr_error_bound(norms, zero_coeffs(), q=1, r=INF, t=3, n=50)


def test_jbar_moment_increasing_in_q():
    vals = [jbar_moment_bound(generic_coeffs(), q, 4, 100).value
            for q in (1, 1.5, 2, 4, 8)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_bounds_monotone_in_coefficients():
    base = dict(alpha=0.3, beta=0.1, big_gamma=0.02, gamma=0.05, delta=0.2)
    rule = spreading_rule(mean_field(10, rbar=0.5, mu=0.5))
    ga = GaussianApprox.from_rule(rule, np.full(10, 0.5), 3)
    h = np.ones(10)

    def all_values(c):
        coeffs = [c] * 4
        return [jbar_moment_bound(coeffs, 1, 3, 10).value,
                lqr_error_bound({"df_1": 0.1, "df_2q": 0.3, "d2f_1q": 0.2},
                                coeffs, 1, 1, 3, 10).value,
                clt_rate_bound(coeffs, h, 1, ga, 3).value]

    ref = all_values(CoefficientSet(**base))
    for name in base:
        bumped = dict(base)
        bumped[name] += 0.03
        newvals = all_values(CoefficientSet(**bumped))
        assert all(b >= a - 1e-12 for a, b in zip(ref, newvals)), name


# ---------------------------------------------------------------------------
# concentration
# ---------------------------------------------------------------------------

def test_concentration_alpha_zero_is_vacuous():
    rep = concentration_bound(zero_coeffs(), H=1.0, rad=0.01, t=3, n=100, x=math.e ** 2)
    assert rep.value == 1.0
    assert any("vacuous" in c for c in rep.caveats)
    assert rep.inputs["raw_value"] >= 3.0


def test_concentration_decays_in_x():
    cs = generic_coeffs()
    raws = [concentration_bound(cs, 1.0, 0.0, 3, 10 ** 4, x).inputs["raw_value"]
            for x in (2.0, 8.0, 64.0, 1e6)]
    assert all(a >= b for a, b in zip(raws, raws[1:]))


def test_concentration_rejects_small_x():
    with pytest.raises(DomainError):
        concentration_bound(generic_coeffs(), 1.0, 0.0, 2, 100, x=1.0)


# ---------------------------------------------------------------------------
# Rademacher complexity
# ---------------------------------------------------------------------------

def test_rademacher_singleton_is_zero():
    h = np.linspace(-1, 1, 20)[None, :]
    est, se = rademacher_mc(h, R=20000, seed=0)
    assert abs(est) <= 4 * se + 1e-12


def test_rademacher_sign_pair_matches_enumeration():
    n = 10
    H = np.vstack([np.ones(n), -np.ones(n)])
    exact = rademacher_exact(H)
    est, se = rademacher_mc(H, R=40000, seed=1)
    assert abs(est - exact) <= 4 * se
    # pair of opposite signs: sup is |mean of signs|
    g = np.random.default_rng(2)
    brute = np.abs(np.where(g.random((200000, n)) < 0.5, -1, 1).mean(axis=1)).mean()
    assert exact == pytest.approx(brute, abs=0.002)


def test_rademacher_matches_full_row_sums():
    # a sign class on 3 of 40 coordinates: sums over its support columns equal
    # the sums over whole rows of the sign table, across a block boundary
    n, R = 40, rng.BLOCK + 100
    H = sign_class(3, n)
    sups = np.concatenate([
        (rng.signs(5, 0, n, r0=r0, rows=min(rng.BLOCK, R - r0)) @ H.T).max(axis=1) / n
        for r0 in range(0, R, rng.BLOCK)])
    assert rademacher_mc(H, R, 5) == (sups.mean(), sups.std(ddof=1) / math.sqrt(R))


def test_rademacher_workers_change_nothing():
    # tiles that each write their own rows of the suprema, on one thread or
    # several switching often: a lost or misplaced row would move the result
    g = np.random.default_rng(6)
    H = g.choice([-1.0, 0.0, 1.0], size=(16, 60))
    one = rademacher_mc(H, 20000, 7)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for workers in (2, 8):
            assert rademacher_mc(H, 20000, 7, workers=workers) == one
    finally:
        sys.setswitchinterval(interval)


def test_rademacher_finite_class_bound():
    g = np.random.default_rng(3)
    n = 40
    H = g.choice([-1.0, 1.0], size=(64, n))
    est, se = rademacher_mc(H, R=20000, seed=4)
    # Massart's finite-class bound H sqrt(2 log m / n), here H = 1 and m = 64
    assert est <= math.sqrt(2.0 * math.log(64) / n) + 4 * se


def test_sampled_provenance_sets_caveat():
    cs = CoefficientSet(0.1, 0.1, 0.0, 0.0, 0.0, provenance="sampled")
    rep = jbar_moment_bound([cs] * 3, 1, 2, 10)
    assert any("lower-estimate" in c for c in rep.caveats)
