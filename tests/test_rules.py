import math
import tracemalloc

import numpy as np
import pytest

import occlab as ol
from occlab.errors import DomainError, RangeError
from occlab.models import (DomanyKinzel, SpreadingModel, dk_rule, equidistributed,
                           hanski_rule, mean_field, model_from_descriptor,
                           random_product_rule, spreading_rule)
from occlab import rules
from occlab.rules import (CoefficientSet, coefficient_schedule, fd_jacobian,
                          estimate_coefficients)


def sample_cube(n, count, seed):
    g = np.random.default_rng(seed)
    return g.random((count, n))


def zoo_rules():
    return [
        spreading_rule(mean_field(6, rbar=0.5, mu=0.5)),
        spreading_rule(mean_field(5, rbar=0.8, mu=0.3, reinfection=True)),
        dk_rule(DomanyKinzel(n=6, q1=0.4, q2=0.7), iid_start=False),
        hanski_rule(equidistributed(6)),
        random_product_rule(5, seed=11),
    ]


def test_constant_rule_evaluation():
    rule = ol.constant_rule(4, 0.3)
    out = ol.evaluate_rule(rule, np.array([1.0, 0.0, 0.5, 0.25]))
    assert np.allclose(out, 0.3)
    # exact at fractional states, where x * c + (1 - x) * c may round away
    # from c; so is the iid start of the torus automaton
    xs, c = sample_cube(5, 200, seed=4), sample_cube(5, 1, seed=5)[0]
    assert not np.array_equal(xs * c + (1 - xs) * c, np.broadcast_to(c, xs.shape))
    assert np.array_equal(ol.constant_rule(5, c).evaluate(xs, 0),
                          np.broadcast_to(c, xs.shape))
    dk = dk_rule(DomanyKinzel(n=5, q1=0.4, q2=0.7, p0=0.3))
    assert np.array_equal(dk.evaluate(xs, 0), np.full(xs.shape, 0.3))


def test_constant_rule_hooks_agree_with_what_they_replace():
    x, g = sample_cube(5, 1, seed=6)[0], np.linspace(-1.0, 1.0, 5)
    equal, unequal = ol.constant_rule(5, 0.3), ol.constant_rule(5, np.linspace(0.1, 0.9, 5))
    for rule in (equal, unequal):
        assert np.array_equal(ol.rule_jacobian(rule, x), np.zeros((5, 5)))
        assert np.array_equal(rule.vjp(x, 0, g), rule.jacobian(x, 0).T @ g)
    # a count table only where every node shares one probability
    assert unequal.by_count is None
    k = np.array([0, 2, 5])
    s, c = equal.by_count(k, 0)
    assert np.array_equal(s, np.full(3, 0.3)) and np.array_equal(c, np.full(3, 0.3))
    surv, col = equal.split
    assert np.array_equal(surv(x, 0), np.full(5, s[0]))


def test_domain_error_outside_cube():
    rule = ol.constant_rule(3, 0.5)
    with pytest.raises(DomainError):
        ol.evaluate_rule(rule, np.array([0.5, 1.1, 0.0]))
    with pytest.raises(DomainError):
        ol.evaluate_rule(rule, np.array([0.5, np.nan, 0.0]))
    # tiny float excursions are clamped, not fatal
    out = ol.evaluate_rule(rule, np.array([0.5, 1.0 + 5e-13, 0.0]))
    assert out.shape == (3,)


def test_range_error_for_malformed_rule():
    bad = ol.OccupancyRule(n=2, split=(lambda x, t: np.full(np.shape(x), 1.5),
                                       lambda x, t: np.zeros(np.shape(x))))
    with pytest.raises(RangeError):
        ol.evaluate_rule(bad, np.array([1.0, 1.0]))
    # a NaN compares false with both bounds, so it must be caught on its own
    nan = ol.OccupancyRule(n=2, split=(lambda x, t: np.full(np.shape(x), np.nan),) * 2)
    with pytest.raises(RangeError):
        ol.evaluate_rule(nan, np.array([0.5, 0.5]))


@pytest.mark.parametrize("value", [0.3, 1.5, -0.2, np.nan])
def test_broadcast_thresholds_range_checked_like_their_dense_copy(value):
    # a broadcast view is reduced over one copy of its values: same verdict,
    # same min and max in the message
    row = np.array([0.2, value, 0.9, 0.5])
    for view in (np.broadcast_to(value, (6, 4)), np.broadcast_to(row, (6, 4)),
                 np.broadcast_to(row[:, None], (3, 4, 5))):
        try:
            rules._check_range(np.array(view))
            want = None
        except RangeError as exc:
            want = str(exc)
        if want is None:
            assert rules._check_range(view) is view
        else:
            with pytest.raises(RangeError) as got:
                rules._check_range(view)
            assert str(got.value) == want


def test_rule_needs_evaluate_or_split():
    with pytest.raises(TypeError):
        ol.OccupancyRule(n=3)
    # evaluate alone is not enough: the simulator and the companions read (S, C)
    with pytest.raises(TypeError):
        ol.OccupancyRule(n=3, evaluate=lambda x, t: np.zeros(np.shape(x)))


def test_split_identity_on_sampled_points():
    # evaluate, derived from the split, is bit for bit the x * S + (1 - x) * C
    # each model module once wrote out (hanski and graph wrote S's value)
    R = sample_cube(7, 7, seed=3) * 0.4
    np.fill_diagonal(R, 0.0)
    patches = equidistributed(6)
    graph, graph_rule = model_from_descriptor({"type": "graph", "v": 5, "q": 0.6})
    dk = DomanyKinzel(n=6, q1=0.4, q2=0.7, p0=0.3)
    cases = [
        (spreading_rule(mean_field(6, rbar=0.5, mu=0.5)), None),
        (spreading_rule(mean_field(5, rbar=0.8, mu=0.3, reinfection=True)), None),
        (spreading_rule(SpreadingModel(R_matrix=R, mu=0.3)), None),
        (spreading_rule(SpreadingModel(R_matrix=R, mu=0.3, reinfection=True,
                                       domain_form="exponential")), None),
        (hanski_rule(patches), np.asarray(patches.s(patches.z), dtype=np.float64)),
        (graph_rule, graph.q),
        (random_product_rule(5, seed=11), None),
        (dk_rule(dk, iid_start=False), None),
        (dk_rule(dk), None)]
    for rule, s_value in cases:
        surv, col = rule.split
        xs = sample_cube(rule.n, 64, seed=1)
        # the iid start's step 0 is given, not derived (see the constant rule)
        for t in (0, 1, 2) if rule.homogeneous else (1, 2):
            for x in (xs, xs[0]):
                s = surv(x, t) if s_value is None else s_value
                assert np.array_equal(rule.evaluate(x, t),
                                      x * s + (1.0 - x) * col(x, t)), (rule.name, t)


def test_own_coordinate_affineness():
    # second central difference in the own coordinate must vanish
    for rule in zoo_rules():
        xs = sample_cube(rule.n, 25, seed=2) * 0.98 + 0.01
        h = 1e-3
        for x in xs:
            for i in range(rule.n):
                up = x.copy(); up[i] += h
                dn = x.copy(); dn[i] -= h
                vals = rule.evaluate(np.stack([up, x, dn]), 0)
                second = (vals[0][i] - 2 * vals[1][i] + vals[2][i]) / h ** 2
                assert abs(second) <= 1e-6, rule.name


def test_fd_jacobian_matches_analytic_everywhere():
    for rule in zoo_rules():
        xs = sample_cube(rule.n, 20, seed=3)
        for x in xs:
            gap = np.abs(ol.rule_jacobian(rule, x) - fd_jacobian(rule, x)).max()
            assert gap <= 1e-5, rule.name


def test_fd_jacobian_one_sided_at_faces():
    rule = spreading_rule(mean_field(4, rbar=0.6, mu=0.5))
    x = np.array([0.0, 1.0, 0.3, 0.0])
    gap = np.abs(ol.rule_jacobian(rule, x) - fd_jacobian(rule, x)).max()
    assert gap <= 1e-5


def test_product_rows_blocks_keep_every_bit(monkeypatch):
    g = np.random.default_rng(12)
    coef = g.uniform(0.0, 0.8, (30, 40))
    x = g.random((25, 40))
    whole = np.exp(np.log1p(-coef[None, :, :] * x[:, None, :]).sum(axis=2))
    monkeypatch.setattr(rules, "PRODUCT_BLOCK_BYTES", 3 * 8 * coef.size)   # 3-row blocks
    assert np.array_equal(rules.product_rows(coef, x), whole)
    assert np.array_equal(rules.product_rows(coef, x[:1]), whole[:1])
    monkeypatch.setattr(rules, "PRODUCT_BLOCK_BYTES", 1)   # a row is never split
    assert np.array_equal(rules.product_rows(coef, x), whole)


def test_product_rows_hold_one_block_at_a_time():
    # 700 rows at m = n = 300 make 46-row blocks of 31.6 MiB; each is
    # negated and logged in place, where a copy would double the peak
    g = np.random.default_rng(13)
    coef, x = g.uniform(0.0, 0.8, (300, 300)), g.random((700, 300))
    tracemalloc.start()
    try:
        rules.product_rows(coef, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.2 * rules.PRODUCT_BLOCK_BYTES


def test_random_product_rows_are_bounded_in_bytes(monkeypatch):
    # 300 rows at n = 200 broadcast to 96 MB in one block
    n = 200
    monkeypatch.setattr(rules, "PRODUCT_BLOCK_BYTES", 2 ** 20)
    rule = random_product_rule(n, seed=4)
    x = np.random.default_rng(4).random((300, n))
    tracemalloc.start()
    try:
        rule.split[0](x, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


def test_linear_rule_jacobian_constant():
    A = np.array([[0.2, 0.3, 0.1], [0.0, 0.5, 0.2], [0.4, 0.1, 0.1]])
    rule = ol.linear_rule(A)
    for x in sample_cube(3, 5, seed=4):
        assert np.allclose(ol.rule_jacobian(rule, x), A)


def test_linear_rule_split_fixes_the_own_coordinate():
    # S_i is P_i at x_i := 1 and C_i is P_i at x_i := 0
    A = np.array([[0.2, 0.3, 0.1], [0.0, 0.5, 0.2], [0.4, 0.1, 0.1]])
    surv, col = ol.linear_rule(A).split
    idx = np.arange(3)
    for x in sample_cube(3, 5, seed=4):
        hi, lo = np.repeat(x[None, :], 3, axis=0), np.repeat(x[None, :], 3, axis=0)
        hi[idx, idx], lo[idx, idx] = 1.0, 0.0
        assert np.allclose(surv(x, 0), (hi @ A.T)[idx, idx], rtol=0, atol=1e-15)
        assert np.allclose(col(x, 0), (lo @ A.T)[idx, idx], rtol=0, atol=1e-15)


def test_analytic_coefficients_dominate_sampled():
    for rule in zoo_rules():
        if rule.coeff_oracle is None:
            continue
        analytic = rule.coeff_oracle(0)
        sampled = estimate_coefficients(rule, budget=48, seed=5)
        # finite differences of exact zeros leave ~1e-7 of roundoff noise
        margin = 1e-5
        for name in ("alpha", "beta", "big_gamma", "gamma", "delta"):
            assert getattr(sampled, name) <= getattr(analytic, name) + margin, \
                (rule.name, name, getattr(sampled, name), getattr(analytic, name))
        assert sampled.provenance == "sampled"
        assert analytic.provenance == "analytic"


def test_sampled_coefficients_against_symbolic_cubic():
    # fixed rule P_i(x) = c_i + w * x_{i+1} x_{i+2} (1 - x_{i+1}) on n = 3:
    # all derivative sups are hand-computed from the cubic's closed form
    w = 0.4
    c = np.array([0.1, 0.2, 0.3])

    def ev(x, t=0):
        x = np.asarray(x, dtype=np.float64)
        a = np.roll(x, -1, axis=-1)
        b = np.roll(x, -2, axis=-1)
        return c + w * a * b * (1 - a)

    # P_i ignores x_i, so S_i = C_i = P_i
    rule = ol.OccupancyRule(n=3, split=(ev, ev), evaluate=ev, homogeneous=True)
    got = estimate_coefficients(rule, budget=256, seed=6)
    # d_{i+1} P_i = w b (1 - 2a): sup = w; d_{i+2} P_i = w a(1-a): sup = w/4
    # alpha = per column one of each: w + w/4
    alpha_true = w + w / 4
    # seconds: d_{i+1}^2 P_i = -2wb (sup 2w); d_{i+1}d_{i+2} = w(1-2a) (sup w)
    # thirds: d_{i+1} d_{i+1}^2 = 0, d_{i+2} d_{i+1}^2 P_i = -2w;
    #         d_{i+1} d_{i+2}^2 = 0
    # the sampled numbers are lower estimates of the symbolic sups, close
    # from below because the shrunken corners approach the maximizers
    assert got.alpha <= alpha_true + 1e-6
    assert got.alpha >= 0.97 * alpha_true
    assert 2 * w >= got.big_gamma >= 0.97 * 2 * w
    assert 2 * w >= got.gamma >= 0.97 * 2 * w
    assert 2 * w + 1e-6 >= got.delta >= 0.97 * 2 * w
    beta_true = math.sqrt((3 * w ** 2 + 3 * (w / 4) ** 2) / 3)
    assert beta_true + 1e-6 >= got.beta >= 0.97 * beta_true


def test_kappa_trivial_values():
    zero = CoefficientSet(0, 0, 0, 0, 0)
    assert ol.kappa([zero, zero], 0, 10) == 0.0
    assert ol.kappa([zero, zero], 1, 10) == 1.0


def test_kappa_monotone_in_each_coefficient():
    base = dict(alpha=0.3, beta=0.1, big_gamma=0.02, gamma=0.05, delta=0.2)
    ref = [CoefficientSet(**base)] * 4
    k0 = ol.kappa(ref, 3, 50)
    for name in ("alpha", "big_gamma", "delta", "beta", "gamma"):
        bumped = dict(base)
        bumped[name] = base[name] + 0.05
        k1 = ol.kappa([CoefficientSet(**bumped)] * 4, 3, 50)
        assert k1 >= k0, name


def test_kappa_hand_evaluated_mean_field():
    # mean-field reactions, two steps: evaluated from the closed formula
    # by hand with alpha, psi, Gamma, delta constant across steps
    n = 100
    cs = spreading_rule(mean_field(n, rbar=0.5, mu=0.5)).coeff_oracle(0)
    sched = [cs] * 3
    expect = ((1 + cs.alpha + n * cs.big_gamma + math.sqrt(n) * cs.delta)
              * sum((1 + cs.psi * math.sqrt(n) * (1 + cs.psi * math.sqrt(n))) * 2
                    * math.exp(16 * cs.alpha * max(0, 2 - s - 1 - 1 + 1 - 1))
                    for s in [0, 1]))
    # alpha window: s=0 -> alpha_1 = alpha; s=1 -> empty
    expect = ((1 + cs.alpha + n * cs.big_gamma + math.sqrt(n) * cs.delta)
              * ((1 + cs.psi * math.sqrt(n) * (1 + cs.psi * math.sqrt(n))) * 2
                 * math.exp(16 * cs.alpha)
                 + (1 + cs.psi * math.sqrt(n) * (1 + cs.psi * math.sqrt(n))) * 2))
    assert ol.kappa(sched, 2, n) == pytest.approx(expect, rel=1e-12)


def test_coefficient_schedule_inhomogeneous():
    model = DomanyKinzel(n=5, q1=0.3, q2=0.6)
    rule = dk_rule(model, iid_start=True)
    sched = coefficient_schedule(rule, 3)
    assert sched[0].alpha == 0.0
    assert sched[1].alpha > 0.0
    assert sched.alpha_window(0, 1) == 0.0
    assert sched.alpha_window(0, 3) == sched[1].alpha + sched[2].alpha


def test_injected_variance_matches_split_form():
    rule = spreading_rule(mean_field(6, rbar=0.5, mu=0.4))
    p = np.linspace(0.1, 0.8, 6)
    surv, col = rule.split
    s, c = surv(p, 0), col(p, 0)
    expect = p * s * (1 - s) + (1 - p) * c * (1 - c)
    assert np.allclose(ol.injected_variance(rule, p), expect)


def test_rule_without_coefficient_oracle_gets_sampled_schedule():
    rule = random_product_rule(5, seed=3)
    assert rule.coeff_oracle is None
    sched = coefficient_schedule(rule, 2)
    assert sched.provenance == "sampled" and sched[0].provenance == "sampled"
    assert sched[0] == estimate_coefficients(rule, 0)


def test_rule_without_jacobian_takes_finite_differences():
    # S_i = 1 - x_{i+1} / 2 and C_i = x_{i-1} x_{i+1} on a ring of four nodes
    def survive(x, t=0):
        return 1.0 - 0.5 * np.roll(x, -1, axis=-1)

    def colonize(x, t=0):
        return np.roll(x, 1, axis=-1) * np.roll(x, -1, axis=-1)

    rule = ol.OccupancyRule(n=4, split=(survive, colonize))
    assert rule.jacobian is None
    x = np.array([0.2, 0.9, 0.5, 0.35])
    J = ol.rule_jacobian(rule, x)
    assert np.array_equal(J, fd_jacobian(rule, x))
    # the hand derivative: dP_i/dx_{i+1} = -x_i / 2 + (1 - x_i) x_{i-1}
    i = np.arange(4)
    assert np.abs(J[i, (i + 1) % 4] - (-0.5 * x + (1 - x) * np.roll(x, 1))).max() <= 1e-9
