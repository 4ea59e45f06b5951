import dataclasses
import tracemalloc

import numpy as np
import pytest

import occlab as ol
from occlab import rng, simulate
from occlab.errors import DomainError, RangeError, TooLargeError
from occlab.models import (DomanyKinzel, SpreadingModel, dk_rule, equidistributed,
                           hanski_rule, mean_field, spreading_rule)
from occlab.models import dk_device_time, dk_exact_mean_zeta2, random_product_rule
from occlab.models import complete_host, graph_rule
from occlab.deterministic import det_trajectory
from occlab.rules import evaluate_rule, rule_conditionals
from occlab.simulate import (empirical_law, exact_law, law_mean,
                             simulate_ensemble, simulate_projections,
                             state_index, state_table, total_variation)


def test_absorbing_rule_keeps_state():
    n = 5
    rule = ol.OccupancyRule(
        n=n,
        evaluate=lambda x, t: np.asarray(x, dtype=np.float64),
        split=(lambda x, t: np.ones(np.shape(x)), lambda x, t: np.zeros(np.shape(x))))
    X0 = np.array([1, 0, 1, 1, 0], dtype=np.uint8)
    ens = simulate_ensemble(rule, X0, 6, 50, seed=1)
    assert (ens.states == X0[None, None, :]).all()


def test_all_ones_rule():
    rule = ol.constant_rule(4, 1.0)
    ens = simulate_ensemble(rule, np.zeros(4, dtype=np.uint8), 3, 20, seed=2)
    assert (ens.states[:, 1:, :] == 1).all()


def test_step_bernoulli_marginal():
    rule = ol.constant_rule(1, 0.3)
    ens = simulate_ensemble(rule, np.zeros(1, dtype=np.uint8), 1, 10 ** 5, seed=3)
    p_hat = ens.states[:, 1, 0].mean()
    assert abs(p_hat - 0.3) <= 4 * np.sqrt(0.3 * 0.7 / 10 ** 5)


def test_marginal_correctness_fixed_state():
    rule = spreading_rule(mean_field(6, rbar=0.7, mu=0.4, reinfection=True))
    x = np.array([1, 0, 1, 1, 0, 0], dtype=np.uint8)
    target = rule.evaluate(x.astype(float), 0)
    frozen = ol.constant_rule(6, target)
    ens = simulate_ensemble(frozen, x, 1, 10 ** 5, seed=4)
    hat = ens.states[:, 1, :].mean(axis=0)
    bar = 4 * np.sqrt(target * (1 - target) / 10 ** 5)
    assert (np.abs(hat - target) <= bar).all()


def test_conditional_independence_two_nodes():
    rule = ol.constant_rule(2, np.array([0.3, 0.6]))
    ens = simulate_ensemble(rule, np.zeros(2, dtype=np.uint8), 1, 10 ** 6, seed=5)
    bits = ens.states[:, 1, :].astype(float)
    cov = np.cov(bits.T)[0, 1]
    se = np.sqrt(0.3 * 0.7 * 0.6 * 0.4 / 10 ** 6)
    assert abs(cov) <= 4 * se


def test_determinism_across_workers_and_reruns():
    rule = spreading_rule(mean_field(9, rbar=0.5, mu=0.5))
    X0 = np.array([1, 1, 0, 0, 1, 0, 1, 0, 0], dtype=np.uint8)
    a = simulate_ensemble(rule, X0, 4, 9000, seed=11, workers=1)
    b = simulate_ensemble(rule, X0, 4, 9000, seed=11, workers=4)
    assert np.array_equal(a.states, b.states)
    traj = det_trajectory(rule, X0.astype(float), 4)
    c = simulate_ensemble(rule, X0, 4, 9000, seed=11, couple=True, p_traj=traj.p)
    assert np.array_equal(a.states, c.states)  # coupling shares the uniforms
    d = simulate_projections(rule, X0, 4, 9000, seed=11, h=np.ones(9),
                             p_traj=traj.p, keep_nodes=np.arange(9))
    assert np.array_equal(c.states[:, 4, :], d["nodes"][:, 4, :])


@pytest.mark.parametrize("couple", [False, True])
@pytest.mark.parametrize("start", [0, 1])
def test_simulators_range_check_thresholds(start, couple):
    # an empty start compares the uniforms with colonisation 2.0 and an
    # occupied one with NaN survival; the coupled companion reads both at p
    malformed = ol.OccupancyRule(n=3, split=(lambda x, t: np.full(np.shape(x), np.nan),
                                             lambda x, t: np.full(np.shape(x), 2.0)))
    X0 = np.full(3, start, dtype=np.uint8)
    p = np.full((3, 3), 0.5)
    with pytest.raises(RangeError):
        simulate_ensemble(malformed, X0, 2, 10, seed=0, couple=couple, p_traj=p)
    with pytest.raises(RangeError):
        simulate_projections(malformed, X0, 2, 10, 0, h=np.ones(3), p_traj=p, couple=couple)
    # the count table is range-checked like the split it replaces
    counted = dataclasses.replace(
        malformed, by_count=lambda k, t: (np.full(k.shape, np.nan), np.full(k.shape, 2.0)))
    with pytest.raises(RangeError):
        simulate_ensemble(counted, X0, 2, 10, seed=0, couple=couple, p_traj=p)
    high = ol.OccupancyRule(n=3, split=(lambda x, t: np.full(np.shape(x), 1.5),) * 2)
    with pytest.raises(RangeError):
        simulate_ensemble(high, X0, 2, 10, seed=0, couple=couple, p_traj=p)


def test_non_binary_start_rejected():
    rule = spreading_rule(mean_field(3, rbar=0.6, mu=0.4))
    with pytest.raises(ValueError, match="binary"):
        simulate_ensemble(rule, np.array([0, 2, 1], dtype=np.uint8), 1, 4, seed=0)


@pytest.mark.parametrize("bad", [1.5, -0.5, np.nan])
def test_coupled_companion_domain_checks_p_traj(bad):
    rule = spreading_rule(mean_field(3, rbar=0.6, mu=0.4))
    X0 = np.zeros(3, dtype=np.uint8)
    p = np.full((3, 3), 0.5)
    p[1, 2] = bad
    with pytest.raises(DomainError):
        simulate_ensemble(rule, X0, 2, 10, seed=0, couple=True, p_traj=p)
    with pytest.raises(DomainError):
        simulate_projections(rule, X0, 2, 10, 0, h=np.ones(3), p_traj=p, couple=True)


def test_replicates_beyond_stream_keys_rejected_before_allocation():
    # block indices of 2^20 and up would reuse the generator keys of step t + 1
    rule = ol.constant_rule(3, 0.5)
    tracemalloc.start()
    try:
        with pytest.raises(TooLargeError):
            simulate_projections(rule, np.zeros(3, dtype=np.uint8), 1,
                                 rng.BLOCK * 2 ** 20 + 1, 0, h=np.ones(3),
                                 p_traj=np.full((2, 3), 0.5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_coupling_state_independent_rule_never_disagrees():
    rule = ol.constant_rule(5, 0.4)
    traj = det_trajectory(rule, np.zeros(5), 6)
    ens = simulate_ensemble(rule, np.zeros(5, dtype=np.uint8), 6, 4000, seed=6,
                            couple=True, p_traj=traj.p)
    assert ens.discrepancy.max() == 0
    assert np.array_equal(ens.states, ens.coupled)


def test_discrepancy_monotone_and_threshold_geometry():
    rule = spreading_rule(mean_field(8, rbar=0.8, mu=0.5))
    X0 = np.array([1, 0, 1, 0, 1, 0, 1, 0], dtype=np.uint8)
    traj = det_trajectory(rule, X0.astype(float), 5)
    ens = simulate_ensemble(rule, X0, 5, 5000, seed=7, couple=True, p_traj=traj.p)
    jbar = ens.discrepancy.mean(axis=2)
    assert (np.diff(jbar, axis=1) >= -1e-15).all()

    # one-step disagreement probability for a node empty in both chains is
    # |C(x) - C(p)| by the shared-uniform geometry
    surv, col = rule.split
    x = X0.astype(float)
    d = np.abs(col(x, 0) - col(traj.p[0], 0))
    first = ens.discrepancy[:, 1, :].mean(axis=0)
    empty = X0 == 0
    se = np.sqrt(np.maximum(d * (1 - d), 1e-12) / 5000)
    assert (np.abs(first - d)[empty] <= 5 * se[empty] + 1e-9).all()


def test_exact_law_trivia():
    rule = ol.constant_rule(1, 0.25)
    laws = exact_law(rule, np.array([0], dtype=np.uint8), 1)
    assert np.allclose(laws[1], [0.75, 0.25])
    rule1 = ol.constant_rule(3, 1.0)
    laws = exact_law(rule1, np.zeros(3, dtype=np.uint8), 2)
    assert laws[1][-1] == pytest.approx(1.0)
    assert laws[2][-1] == pytest.approx(1.0)


def test_exact_law_cap():
    rule = ol.constant_rule(13, 0.5)
    with pytest.raises(TooLargeError):
        exact_law(rule, np.zeros(13, dtype=np.uint8), 1)


def _dense_exact_law(rule, X0, T):
    """Reference law from the full 2^n x 2^n kernel K[x, y] = prod_i P(y_i | x)."""
    n = rule.n
    states = state_table(n)
    laws = np.zeros((T + 1, 2 ** n))
    laws[0, state_index(X0)] = 1.0
    for t in range(T):
        p = evaluate_rule(rule, states, t)
        K = np.ones((2 ** n, 2 ** n))
        for i in range(n):
            K *= np.where(states[None, :, i] == 1.0, p[:, None, i], 1.0 - p[:, None, i])
        laws[t + 1] = laws[t] @ K
        laws[t + 1] /= laws[t + 1].sum()
    return laws


@pytest.mark.parametrize("n", [1, 2, 5, 8, 11])
def test_exact_law_matches_dense_kernel(n):
    g = np.random.default_rng(n)
    A = g.random((n, n))
    A /= 1.25 * A.sum(axis=1, keepdims=True)
    rules = [random_product_rule(n, seed=30 + n),
             ol.linear_rule(A),
             ol.constant_rule(n, np.linspace(0.1, 0.9, n)),
             spreading_rule(mean_field(n, rbar=0.6, mu=0.4, reinfection=True))]
    if n >= 3:  # the torus needs three sites; its iid start makes it inhomogeneous
        rules.append(dk_rule(DomanyKinzel(n=n, q1=0.3, q2=0.8, p0=0.4), iid_start=True))
    X0 = (np.arange(n) % 2).astype(np.uint8)
    for rule in rules:
        laws = exact_law(rule, X0, 2)
        assert np.abs(laws - _dense_exact_law(rule, X0, 2)).max() <= 1e-14
        assert np.abs(laws.sum(axis=1) - 1.0).max() <= 1e-12


def test_exact_law_torus_closed_form_at_n14():
    n = 14
    model = DomanyKinzel(n=n, q1=0.35, q2=0.75, p0=0.4)
    rule = dk_rule(model, iid_start=True)
    X0 = np.zeros(n, dtype=np.uint8)
    t = dk_device_time(2)
    with pytest.warns(UserWarning, match="expensive"):
        laws = exact_law(rule, X0, t, n_cap=n)
    traj = det_trajectory(rule, X0.astype(float), t)
    gap = (law_mean(laws[t], n) - traj.p[t]).sum() / np.sqrt(n)
    assert abs(gap - dk_exact_mean_zeta2(model)) <= 1e-10


def test_exact_law_matches_monte_carlo_tv():
    rule = random_product_rule(3, seed=21)
    X0 = np.array([1, 0, 1], dtype=np.uint8)
    T, R = 3, 200000
    laws = exact_law(rule, X0, T)
    ens = simulate_ensemble(rule, X0, T, R, seed=8)
    for t in range(1, T + 1):
        emp = empirical_law(ens.states[:, t, :], 3)
        assert total_variation(emp, laws[t]) <= 4 * np.sqrt(2 ** 3 / R)


def test_exact_law_linear_rule_mean_identity():
    # deterministic trajectory equals the exact mean for linear rules
    A = np.array([[0.3, 0.2, 0.0, 0.1], [0.1, 0.4, 0.2, 0.0],
                  [0.0, 0.2, 0.3, 0.3], [0.25, 0.0, 0.25, 0.25]])
    rule = ol.linear_rule(A)
    X0 = np.array([1, 0, 0, 1], dtype=np.uint8)
    laws = exact_law(rule, X0, 4)
    traj = det_trajectory(rule, X0.astype(float), 4)
    for t in range(5):
        assert np.allclose(law_mean(laws[t], 4), traj.p[t], atol=1e-13)


def test_projection_stream_matches_ensemble():
    rule = dk_rule(DomanyKinzel(n=7, q1=0.3, q2=0.8), iid_start=True)
    X0 = np.zeros(7, dtype=np.uint8)
    traj = det_trajectory(rule, X0.astype(float), 3)
    h = np.linspace(-1, 1, 7)
    ens = simulate_ensemble(rule, X0, 3, 3000, seed=9)
    res = simulate_projections(rule, X0, 3, 3000, seed=9, h=h, p_traj=traj.p)
    for t in range(4):
        direct = (ens.states[:, t, :] - traj.p[t]) @ h / np.sqrt(7)
        assert np.allclose(direct, res["proj"][:, t])


def test_tile_size_changes_no_chain(monkeypatch):
    # the widest chain that takes TILE-row tiles; R crosses a block
    # boundary and ends in a partial tile
    n, T, R = simulate.TILE_BYTES // (8 * simulate.TILE), 3, rng.BLOCK + 300
    assert simulate._tile_rows(n) == simulate.TILE
    g = np.random.default_rng(5)
    reactions = g.uniform(0.0, 2.0 / n, (n, n))
    np.fill_diagonal(reactions, 0.0)
    X0 = (g.random(n) < 0.5).astype(np.uint8)
    h = g.uniform(0.5, 1.5, n)
    runs = {
        "mean_field": (spreading_rule(mean_field(n, rbar=1.5, mu=0.4)), False),
        "mean_field_coupled": (spreading_rule(mean_field(n, rbar=1.5, mu=0.4)), True),
        "nonuniform": (spreading_rule(SpreadingModel(R_matrix=reactions, mu=0.4)), False),
        "hanski_coupled": (hanski_rule(equidistributed(n)), True),
    }

    def outputs():
        out = {}
        for label, (rule, couple) in runs.items():
            p = det_trajectory(rule, X0.astype(float), T).p
            res = simulate_projections(rule, X0, T, R, seed=3, h=h, p_traj=p,
                                       keep_nodes=np.arange(0, n, 7), couple=couple)
            out.update({f"{label}.{k}": v for k, v in res.items()})
        torus = dk_rule(DomanyKinzel(n=n, q1=0.3, q2=0.8), iid_start=True)
        out["torus"] = simulate_ensemble(torus, np.zeros(n, np.uint8), T, R, seed=3).states
        return out

    tiled = outputs()
    monkeypatch.setattr(simulate, "TILE", rng.BLOCK)
    monkeypatch.setattr(simulate, "TILE_BYTES", 8 * rng.BLOCK * n)   # one-block tiles
    assert simulate._tile_rows(n) == rng.BLOCK
    blocked = outputs()
    monkeypatch.setattr(simulate, "TILE_BYTES", 8 * 96 * n)   # 64-row tiles
    assert simulate._tile_rows(n) == 64
    short = outputs()
    for key, value in tiled.items():
        assert np.array_equal(value, blocked[key]), key
        assert np.array_equal(value, short[key]), key


def test_threads_capped_at_tiles_and_cpus(monkeypatch):
    started = []

    class Recorder:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(simulate, "ThreadPoolExecutor", Recorder)
    n = 5
    rule = spreading_rule(mean_field(n, rbar=0.5, mu=0.5))
    X0 = np.zeros(n, np.uint8)
    tile = simulate._tile_rows(n)
    monkeypatch.setattr(simulate, "_usable_cpus", lambda: 64)
    simulate_ensemble(rule, X0, 1, 3 * tile - 1, seed=1, workers=10 ** 6)
    monkeypatch.setattr(simulate, "_usable_cpus", lambda: 2)
    simulate_ensemble(rule, X0, 1, 10 * tile, seed=1, workers=10 ** 6)
    simulate_ensemble(rule, X0, 1, 10 * tile, seed=1, workers=1)
    simulate_ensemble(rule, X0, 1, tile, seed=1, workers=4)
    assert started == [3, 2]


def test_narrow_chains_take_taller_tiles():
    # every chain whose TILE-row uniform table fits in TILE_BYTES
    for n in range(1, simulate.TILE_BYTES // (8 * simulate.TILE) + 1):
        rows = simulate._tile_rows(n)
        assert rng.BLOCK % rows == 0 and rows >= simulate.TILE
        assert rows == rng.BLOCK or rows * n >= simulate.TILE_UPDATES
        assert rows == simulate.TILE or rows * n < 2 * simulate.TILE_UPDATES


def test_wide_chains_take_shorter_tiles():
    # a tile step's uniform table fits in TILE_BYTES, down to one row
    for n in (257, 800, 1023, 2 ** 11, 2 ** 12, 2 ** 12 + 1, 10 ** 4, 10 ** 5, 2 ** 21, 2 ** 22):
        rows = simulate._tile_rows(n)
        assert rng.BLOCK % rows == 0 and rows <= simulate.TILE
        assert 8 * rows * n <= simulate.TILE_BYTES or rows == 1
        assert rows == simulate.TILE or 16 * rows * n > simulate.TILE_BYTES
    assert simulate._tile_rows(simulate.TILE_BYTES // (8 * simulate.TILE)) == simulate.TILE


def test_projections_without_h_keep_only_the_nodes():
    rule = spreading_rule(mean_field(6, rbar=0.5, mu=0.5))
    X0 = np.array([1, 0, 1, 0, 1, 0], dtype=np.uint8)
    p = det_trajectory(rule, X0.astype(float), 2).p
    res = simulate_projections(rule, X0, 2, 700, seed=4, h=None, p_traj=p,
                               keep_nodes=np.arange(6))
    assert set(res) == {"nodes"}
    ens = simulate_ensemble(rule, X0, 2, 700, seed=4)
    assert np.array_equal(res["nodes"], ens.states)


def _per_row_chain(rule, X0, T, R, seed, couple, p_traj):
    """Reference (states, coupled, discrepancy): every step, t = 0 included,
    evaluates the rule on all R rows, and W's bits come from
    u <= np.where(w == 1, S_t, C_t)."""
    x = np.repeat(X0[None, :], R, axis=0)
    w, j = x.copy(), np.zeros_like(x)
    steps = [(x, w, j)]
    for t in range(T):
        u = rng.uniforms(seed, t, rule.n, rows=R)
        xf = x.astype(np.float64)
        if rule.by_count is not None:
            s, c = rule.by_count(x.sum(axis=1), t)
            thresh = np.where(x == 1, s[:, None], c[:, None])
        else:
            surv, col = rule.split
            thresh = np.where(x == 1, surv(xf, t), col(xf, t))
        x = (u <= thresh).astype(np.uint8)
        if couple:
            w = (u <= np.where(w == 1, *rule_conditionals(rule, p_traj[t], t))).astype(np.uint8)
            j = np.maximum(j, (x != w).astype(np.uint8))
        steps.append((x, w, j))
    return [np.stack(arrays, axis=1) for arrays in zip(*steps)]


def _step_zero_rules(n):
    g = np.random.default_rng(17)
    reactions = g.uniform(0.0, 2.0 / n, (n, n))
    np.fill_diagonal(reactions, 0.0)
    A = g.random((n, n))
    A /= 1.25 * A.sum(axis=1, keepdims=True)
    return {
        "mean_field": (spreading_rule(mean_field(n, rbar=1.5, mu=0.4, reinfection=True)), True),
        "torus_iid_start": (dk_rule(DomanyKinzel(n=n, q1=0.3, q2=0.8, p0=0.4),
                                    iid_start=True), False),
        "hanski": (hanski_rule(equidistributed(n)), True),
        "nonuniform": (spreading_rule(SpreadingModel(R_matrix=reactions, mu=0.4)), False),
        "linear": (ol.linear_rule(A), False),
        "constant": (ol.constant_rule(n, 0.3), True),
        "constant_unequal": (ol.constant_rule(n, np.linspace(0.1, 0.9, n)), False),
        "nonuniform_reinfection": (spreading_rule(
            SpreadingModel(R_matrix=reactions, mu=0.4, reinfection=True)), True),
        # its nodes are the 36 edges of a 9-vertex host
        "graph": (graph_rule(complete_host(9, q=0.6, f=lambda y: 0.5 * np.asarray(y),
                                           f_prime=lambda y: np.full_like(y, 0.5),
                                           f_derivative_sups=(0.5, 0.0, 0.0))), True),
        "random_product": (random_product_rule(n, seed=29), False),
    }


@pytest.mark.parametrize("T", [0, 1, 3])
@pytest.mark.parametrize("label", ["mean_field", "torus_iid_start", "hanski", "nonuniform",
                                   "linear", "constant", "constant_unequal",
                                   "nonuniform_reinfection", "graph", "random_product"])
def test_step_zero_once_matches_per_row_chain(label, T):
    # R crosses a block boundary and ends in a partial tile; every later
    # split step's flip-select must give the reference's np.where bits
    R = rng.BLOCK + 300
    rule, couple = _step_zero_rules(40)[label]
    n = rule.n
    X0 = (np.random.default_rng(3).random(n) < 0.5).astype(np.uint8)
    p = det_trajectory(rule, X0.astype(float), T).p
    states, coupled, disc = _per_row_chain(rule, X0, T, R, 8, couple, p)
    projs = []
    for workers in (1, 2):
        ens = simulate_ensemble(rule, X0, T, R, seed=8, couple=couple, p_traj=p,
                                workers=workers)
        assert np.array_equal(ens.states, states)
        counts = simulate.simulate_counts(rule, X0, T, R, seed=8, couple=couple,
                                          p_traj=p, workers=workers)
        assert np.array_equal(counts["counts"], states.sum(axis=2))
        res = simulate_projections(rule, X0, T, R, 8, h=np.ones(n), p_traj=p,
                                   keep_nodes=np.arange(n), workers=workers, couple=couple)
        assert np.array_equal(res["nodes"], states)
        projs.append(res["proj"])
        if couple:
            assert np.array_equal(ens.coupled, coupled)
            assert np.array_equal(ens.discrepancy, disc)
            assert np.array_equal(counts["jbar"], disc.mean(axis=2))
            assert np.array_equal(res["jbar"], disc.mean(axis=2))
    assert np.array_equal(projs[0], projs[1])
    assert np.allclose(projs[0], n ** -0.5 * (states - p) @ np.ones(n), rtol=0, atol=1e-12)


@pytest.mark.parametrize("workers", [1, 2])
def test_step_zero_is_evaluated_once_per_run(workers):
    n, T, R = 30, 3, rng.BLOCK + 300
    seen = {"S": [], "C": []}

    def recorded(key, value):
        def threshold(x, t):
            seen[key].append((t, x.shape[0]))
            return value + 0.5 * np.roll(x, 1, axis=-1)
        return threshold

    rule = ol.OccupancyRule(n=n, split=(recorded("S", 0.4), recorded("C", 0.1)))
    X0 = (np.arange(n) % 3 == 0).astype(np.uint8)
    simulate_ensemble(rule, X0, T, R, seed=2, workers=workers)
    for calls in seen.values():
        assert [rows for t, rows in calls if t == 0] == [1]
        assert sum(rows for t, rows in calls if t > 0) == (T - 1) * R


def test_step_zero_checks_both_thresholds_before_allocating():
    # an empty start reads only C at step 0, yet S is out of range there
    n, R = 8, 2 ** 19
    rule = ol.OccupancyRule(n=n, split=(lambda x, t: np.full(np.shape(x), -0.5),
                                        lambda x, t: np.full(np.shape(x), 0.3)))
    X0 = np.zeros(n, dtype=np.uint8)
    tracemalloc.start()
    try:
        with pytest.raises(RangeError):
            simulate_ensemble(rule, X0, 1, R, seed=0)   # 8 MiB of states
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    # no step, no thresholds read
    assert simulate_ensemble(rule, X0, 0, 3, seed=0).states.shape == (3, 1, n)


@pytest.mark.parametrize("bad", [{"p_traj": None}, {"h": np.ones(7)},
                                 {"p_traj": np.full((2, 7), 0.3)},
                                 {"keep_nodes": [10]}, {"keep_nodes": [0.5]}],
                         ids=["h_without_p_traj", "short_h", "narrow_p_traj",
                              "node_out_of_range", "fractional_node"])
def test_projection_inputs_checked_before_allocating(bad):
    n, R = 8, 2 ** 19
    args = {"h": np.ones(n), "p_traj": np.full((2, n), 0.3), **bad}
    tracemalloc.start()
    try:
        with pytest.raises(ValueError):   # 8 MiB of projections
            simulate_projections(ol.constant_rule(n, 0.3), np.zeros(n, dtype=np.uint8),
                                 1, R, 0, **args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


@pytest.mark.parametrize("counted", [False, True])
def test_later_steps_check_only_the_thresholds_nodes_read(counted):
    # S = 1.5 after step 0 is out of range, but a chain that starts empty
    # never colonises (C = 0), so no node reads it
    n = 6

    def survive(x, t):
        return np.full(np.shape(x), 0.5 if t == 0 else 1.5)

    rule = ol.OccupancyRule(n=n, split=(survive, lambda x, t: np.zeros(np.shape(x))))
    if counted:
        rule = dataclasses.replace(rule, by_count=lambda k, t: (
            np.full(k.shape, 0.5 if t == 0 else 1.5), np.zeros(k.shape)))
    empty = simulate_ensemble(rule, np.zeros(n, dtype=np.uint8), 3, 50, seed=1)
    assert empty.states.max() == 0
    with pytest.raises(RangeError):
        simulate_ensemble(rule, np.ones(n, dtype=np.uint8), 3, 50, seed=1)


@pytest.mark.parametrize("label, n", [("mean_field", 3200), ("hanski", 700),
                                      ("mean_field", 12_000)])
def test_projections_match_the_dense_formula(label, n):
    # three tiles, so two workers share them; above 8192 nodes a whole float
    # table would be summed in other chunks than the uint8 rows, and the
    # t = 0 column would miss 0
    rule = (spreading_rule(mean_field(n, rbar=1.6, mu=0.4, reinfection=True))
            if label == "mean_field" else hanski_rule(equidistributed(n)))
    g = np.random.default_rng(n)
    X0 = (g.random(n) < 0.5).astype(np.uint8)
    h = g.uniform(-1.0, 2.0, n)
    T, R = 3, 2 * simulate._tile_rows(n) + 77
    p = det_trajectory(rule, X0.astype(float), T).p
    states = simulate_ensemble(rule, X0, T, R, seed=9).states
    dense = n ** -0.5 * (states - p[None, :, :]) @ h
    projs = [simulate_projections(rule, X0, T, R, 9, h=h, p_traj=p, workers=workers)["proj"]
             for workers in (1, 2)]
    assert np.array_equal(projs[0], projs[1])
    assert np.abs(projs[0] - dense).max() <= 1e-12
    assert (projs[0][:, 0] == 0.0).all()
