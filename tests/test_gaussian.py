import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import occlab as ol
from occlab.bounds import clt_rate_bound
from occlab import rng
from occlab.errors import NotConvergedError, SingularMatrixError, TooLargeError
from occlab.gaussian import (GaussianApprox, lyapunov_solve, sigma_form,
                             simulate_gaussian)
from occlab.models import (DomanyKinzel, GraphDynModel, SpreadingModel, dk_rule,
                           equidistributed, graph_rule, hanski_rule, mean_field,
                           spreading_rule)
from occlab.rules import coefficient_schedule, injected_variance, rule_jacobian


def make_approx(n=10, T=4, rbar=0.6, mu=0.4, seed=0):
    rule = spreading_rule(mean_field(n, rbar=rbar, mu=mu, reinfection=True))
    g = np.random.default_rng(seed)
    return rule, GaussianApprox.from_rule(rule, g.random(n) * 0.8 + 0.1, T)


def counted(rule):
    """``rule`` with a ``jacobian`` that records the step t of every call."""
    calls = []

    def jacobian(x, t):
        calls.append(t)
        return rule.jacobian(x, t)

    return dataclasses.replace(rule, jacobian=jacobian), calls


def test_sigma_form_degenerate_and_half():
    assert sigma_form(np.array([0.0, 1.0, 1.0]), np.array([3.0, -1.0, 2.0])) == 0.0
    n = 8
    assert sigma_form(np.full(n, 0.5), np.ones(n)) == pytest.approx(0.25)


def test_sigma_form_polarization():
    # a quadratic form: its polarization is the bilinear form sum h h2 p (1 - p) / n
    g = np.random.default_rng(1)
    p, h, h2 = g.random(12), g.standard_normal(12), g.standard_normal(12)
    lhs = (sigma_form(p, h + h2) - sigma_form(p, h - h2)) / 4
    assert lhs == pytest.approx((h * h2 * p * (1 - p)).sum() / 12, abs=1e-12)
    assert sigma_form(p, 3.0 * h) == pytest.approx(9.0 * sigma_form(p, h), rel=1e-14)


def test_projected_variance_time_zero():
    _, ga = make_approx()
    assert ga.projected_variance(np.ones(10), 0) == 0.0


def test_projected_variance_memoryless_rule():
    # a state-independent rule has zero Jacobian: only the last step counts
    rule = ol.constant_rule(6, 0.3)
    ga = GaussianApprox.from_rule(rule, np.full(6, 0.9), 3)
    h = np.linspace(1, 2, 6)
    expect = ga.noise_form(3, h)
    assert ga.projected_variance(h, 3) == pytest.approx(expect)
    # and the injected noise equals the marginal variance for independent nodes
    assert np.allclose(ga.V[3], 0.3 * 0.7)


def test_projected_variance_agrees_with_covariance_matrix():
    _, ga = make_approx(T=5)
    h = np.linspace(-2, 1, 10)
    for t in range(6):
        quad = h @ ga.covariance(t) @ h / 10
        assert ga.projected_variance(h, t) == pytest.approx(quad, abs=1e-10)


def test_covariance_recursion_properties():
    rule, ga = make_approx(T=5)
    sig = ga.covariances()
    assert np.abs(sig[0]).max() == 0.0
    for t in range(5):
        J = rule_jacobian(rule, ga.base.p[t], t)
        expect = J @ sig[t] @ J.T + np.diag(injected_variance(rule, ga.base.p[t], t))
        assert np.allclose(sig[t + 1], expect, atol=1e-12)
        eig = np.linalg.eigvalsh(sig[t + 1])
        assert eig.min() >= -1e-10


def test_propagator_cache_consistency():
    rule, ga = make_approx(T=6)

    def D(s, t):
        # D_{s,t} = D_s ... D_{t-1} with D_u the transposed Jacobian
        out = np.eye(ga.n)
        for u in range(s, t):
            out = out @ rule_jacobian(rule, ga.base.p[u], u).T
        return out

    for (s, t, u) in [(0, 2, 5), (1, 3, 6), (2, 2, 4), (0, 6, 6)]:
        assert np.abs(D(s, t) @ D(t, u) - D(s, u)).max() <= 1e-12
    h = np.linspace(0, 1, 10)
    for r, g in zip(range(5, -1, -1), ga.backward(h, 5)):   # the walk yields D_{r,5} h
        assert np.allclose(g, D(r, 5) @ h)


@pytest.mark.parametrize("label", ["dk-iid", "spreading-reinfection"])
def test_backward_walks_match_hand_written_loops(label):
    # the backward walk, projected_variance and the rate bound each walked
    # g <- J_u^T g by hand before they shared GaussianApprox.backward;
    # those loops, copied here, are the references.  They step with the dense
    # Jacobians, so the rule's vjp is dropped (test_vjp_walks_match_dense_walks
    # compares the two)
    g = np.random.default_rng(9)
    if label == "dk-iid":   # not time-homogeneous: J_0 = 0, then the automaton
        rule = dk_rule(DomanyKinzel(n=9, q1=0.4, q2=0.7, p0=0.6))
    else:
        rule = spreading_rule(mean_field(9, rbar=0.7, mu=0.4, reinfection=True))
    rule = dataclasses.replace(rule, vjp=None)
    n, T = 9, 4
    ga = GaussianApprox.from_rule(rule, g.random(n) * 0.8 + 0.1, T)
    J = [rule_jacobian(rule, ga.base.p[u], u) for u in range(T)]
    sched = coefficient_schedule(rule, T)
    h = g.standard_normal(n)

    def propagate(h, s, t):
        g = np.asarray(h, dtype=np.float64).copy()
        for u in range(t - 1, s - 1, -1):
            g = J[u].T @ g
        return g

    for t in range(T + 1):
        total, gt = 0.0, h.copy()
        for r in range(t, 0, -1):
            total += ga.noise_form(r, gt)
            gt = J[r - 1].T @ gt
        assert ga.projected_variance(h, t) == total
        for s, walked in zip(range(t, -1, -1), ga.backward(h, t)):
            assert np.array_equal(walked, propagate(h, s, t))
        for q in (1.0, 2.0, math.inf) if t else ():
            inv_q = 0.0 if math.isinf(q) else 1.0 / q
            total, gt = 0.0, h.copy()
            for s in range(t - 1, -1, -1):
                sig = math.sqrt(max(sigma_form(ga.base.p[s + 1], gt), 0.0))
                k_s = ol.kappa(sched, s, n)
                if k_s > 0.0:
                    total += (k_s * math.exp((4.0 - inv_q) * sched.alpha_window(s, t))
                              / sig ** (4.0 - 2.0 * inv_q))
                if s > 0:
                    gt = J[s].T @ gt
            value = (float(np.abs(h).max()) ** (4.0 - inv_q)
                     * math.sqrt((1.0 + math.log(n)) / n) * total)
            assert clt_rate_bound(sched, h, q, ga, t).value == value


@pytest.mark.parametrize("reinfection", [False, True])
@pytest.mark.parametrize("n", [2, 50, 3000])
def test_vjp_walks_match_dense_walks(n, reinfection):
    rule = spreading_rule(mean_field(n, rbar=1.6, mu=0.4, reinfection=reinfection))
    assert rule.vjp is not None
    dense_rule = dataclasses.replace(rule, vjp=None)
    g = np.random.default_rng(n)
    x = g.random(n) * 0.8 + 0.1
    v = g.standard_normal(n)
    want = rule.jacobian(x, 0).T @ v
    assert np.abs(rule.vjp(x, 0, v) - want).max() <= 1e-12 * np.abs(want).max()

    T = 3
    p0 = g.random(n) * 0.8 + 0.1
    watched, calls = counted(rule)
    ga, dense = (GaussianApprox.from_rule(r, p0, T) for r in (watched, dense_rule))
    h = g.uniform(0.5, 1.5, n)
    sched = coefficient_schedule(rule, T)

    def close(a, b):
        return np.abs(np.asarray(a) - b).max() <= 1e-12 * np.abs(b).max()

    for t in range(1, T + 1):
        for g_vjp, g_dense in zip(ga.backward(h, t), dense.backward(h, t)):
            assert close(g_vjp, g_dense)
        assert close(ga.projected_variance(h, t), dense.projected_variance(h, t))
        for q in (1.0, math.inf):
            assert close(clt_rate_bound(sched, h, q, ga, t).value,
                         clt_rate_bound(sched, h, q, dense, t).value)
    assert calls == []   # the vjp walks never built a dense Jacobian


def test_vjp_companion_memory_is_linear():
    # the dense Jacobians alone would be 3 x 78 MiB at n = 3200, t = 3
    n = 3200
    rule = spreading_rule(mean_field(n, rbar=1.6, mu=0.4, reinfection=True))
    p0 = np.random.default_rng(3).random(n) * 0.8 + 0.1
    tracemalloc.start()
    try:
        GaussianApprox.from_rule(rule, p0, 3).projected_variance(np.ones(n), 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


def test_lazy_covariances_equal_eager_recursion():
    # the Jacobians and the recursion as GaussianApprox built them eagerly
    rule, ga = make_approx(T=5)
    J = np.empty((5, 10, 10))
    sig = np.zeros((6, 10, 10))
    for t in range(5):
        J[t] = rule.jacobian(ga.base.p[t], t)
        sig[t + 1] = J[t] @ sig[t] @ J[t].T + np.diag(ga.V[t + 1])
    watched, calls = counted(rule)
    assert np.array_equal(GaussianApprox(watched, ga.base).covariances(), sig)
    assert calls == [0, 1, 2, 3, 4]   # each J_t built once, in time order


def _traced_peak(f):
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _nonuniform_approx(n, T, seed=0):
    # non-uniform reactions: the rule has a dense Jacobian and no vjp
    g = np.random.default_rng(seed)
    R = g.uniform(0.0, 3.0 / n, (n, n))
    np.fill_diagonal(R, 0.0)
    rule = spreading_rule(SpreadingModel(R_matrix=R, mu=0.4, reinfection=True))
    assert rule.vjp is None
    return rule, GaussianApprox.from_rule(rule, g.uniform(0.05, 0.5, n), T)


def test_covariances_hold_one_jacobian_at_a_time():
    # the (T, n, n) stack of Jacobians alone would be T n^2 floats beside
    # the (T + 1) n^2 of the result
    n, T = 400, 10
    rule, ga = _nonuniform_approx(n, T)
    watched, calls = counted(rule)
    peak = _traced_peak(GaussianApprox(watched, ga.base).covariances)
    assert calls == list(range(T))
    assert peak < 8 * n * n * (T + 1 + 5)


def test_walks_build_each_jacobian_once():
    rule, ga = _nonuniform_approx(30, 4)
    watched, calls = counted(rule)
    walked = GaussianApprox(watched, ga.base)
    # a walk without vjp builds J_{t-1}..J_1 once each and keeps none of them
    assert walked.projected_variance(np.ones(30), 4) == ga.projected_variance(np.ones(30), 4)
    assert calls == [3, 2, 1]
    calls.clear()
    walked.projected_variances(np.ones(30))    # all T + 1 walks at once
    assert calls == [3, 2, 1]


def _walk_rules(n):
    g = np.random.default_rng(7)
    reactions = g.uniform(0.0, 3.0 / n, (n, n))
    np.fill_diagonal(reactions, 0.0)
    # the first n vertex pairs of the fewest vertices that have n of them
    v = math.ceil((1 + math.sqrt(1 + 8 * n)) / 2)
    host = np.column_stack(np.triu_indices(v, k=1))[:n]
    graph = GraphDynModel(host_edges=host, v=v, q=0.6, f=lambda y: 0.7 * np.asarray(y) ** 2,
                          f_prime=lambda y: 1.4 * np.asarray(y),
                          f_derivative_sups=(1.4, 1.4, 0.0))
    return {"hanski": hanski_rule(equidistributed(n)),
            "nonuniform": spreading_rule(SpreadingModel(R_matrix=reactions, mu=0.4)),
            "mean_field": spreading_rule(mean_field(n, rbar=1.4, mu=0.4, reinfection=True)),
            "mean_field_exponential": spreading_rule(
                mean_field(n, rbar=1.4, mu=0.4, reinfection=True, domain_form="exponential")),
            "torus": dk_rule(DomanyKinzel(n=n, q1=0.3, q2=0.8, p0=0.4), iid_start=True),
            "constant": ol.constant_rule(n, 0.3),
            "graph": graph_rule(graph)}


@pytest.mark.parametrize("label", ["hanski", "nonuniform"])
def test_walks_build_no_jacobian_stack(label):
    # the (T, n, n) stack alone would be 10 n^2 floats; a walk holds one J_r
    n, T = 300, 10
    rule = dataclasses.replace(_walk_rules(n)[label], vjp=None)   # the walk without vjp
    watched, calls = counted(rule)
    ga = GaussianApprox.from_rule(watched, np.random.default_rng(1).uniform(0.05, 0.5, n), T)
    h = np.linspace(0.5, 1.5, n)
    sched = coefficient_schedule(rule, T)
    for walk in (lambda: ga.projected_variance(h, T), lambda: ga.projected_variances(h),
                 lambda: clt_rate_bound(sched, h, 1, ga, T)):
        calls.clear()
        assert _traced_peak(walk) < 8 * n * n * 2
        assert calls == list(range(T - 1, 0, -1))   # one J_r per step


@pytest.mark.parametrize("label", ["hanski", "nonuniform", "mean_field", "torus", "constant",
                                   "graph", "mean_field_exponential"])
def test_one_sweep_variances_equal_the_per_t_walks(label):
    n, T = 40, 12
    rule = _walk_rules(n)[label]
    watched, calls = counted(rule)
    ga = GaussianApprox.from_rule(watched, np.random.default_rng(2).uniform(0.05, 0.9, n), T)
    h = np.random.default_rng(3).uniform(-1.0, 2.0, n)
    swept = ga.projected_variances(h)
    assert swept.shape == (T + 1,) and swept[0] == 0.0
    assert np.array_equal(swept, [ga.projected_variance(h, t) for t in range(T + 1)])
    # a vjp walk builds no Jacobian; otherwise each walk builds J_{t-1}..J_1 once
    steps = [] if rule.vjp is not None else [
        r for t in (T, *range(T + 1)) for r in range(t - 1, 0, -1)]
    assert calls == steps


def test_gaussian_results_are_size_checked_before_allocation():
    # a 10^5-node mean field: Sigma would be 160 GB, the paths 16 GB
    n = 10 ** 5
    approx = GaussianApprox.from_rule(
        spreading_rule(mean_field(n, rbar=1.5, mu=0.4)), np.full(n, 0.5), 1)

    def refused(f):
        with pytest.raises(TooLargeError):
            f()

    assert _traced_peak(lambda: refused(approx.covariances)) < 2 ** 20
    assert _traced_peak(lambda: refused(lambda: simulate_gaussian(approx, 10 ** 4, 1))) < 2 ** 20


@pytest.mark.parametrize("label", ["hanski", "linear", "mean-field"])
def test_simulate_gaussian_matches_block_major_loop(label):
    # the loop simulate_gaussian ran before it went step-major (each block of
    # rows walked all T steps, reading the stacked Jacobians), copied here as
    # the reference; R spans two blocks
    n, T, R, seed = 12, 3, rng.BLOCK + 9, 8
    if label == "hanski":
        rule = hanski_rule(equidistributed(n))
    elif label == "linear":
        rule = ol.linear_rule(np.full((n, n), 0.9 / n))
    else:
        rule = spreading_rule(mean_field(n, rbar=1.4, mu=0.4, reinfection=True))
    p0 = np.random.default_rng(n).uniform(0.1, 0.9, n)
    watched, calls = counted(rule)
    ga = GaussianApprox.from_rule(watched, p0, T)
    Z = simulate_gaussian(ga, R, seed)
    assert calls == [0, 1, 2]   # each J_t built once, for every block of rows
    J = [rule_jacobian(rule, ga.base.p[t], t) for t in range(T)]

    p, sd = ga.base.p, np.sqrt(ga.V)
    want = np.empty((R, T + 1, n))
    for r0 in range(0, R, rng.BLOCK):
        rows = min(rng.BLOCK, R - r0)
        z = np.repeat(p[0][None, :], rows, axis=0)
        want[r0:r0 + rows, 0] = z
        for t in range(1, T + 1):
            eps = rng.normals(seed, t, n, r0=r0, rows=rows)
            z = p[t][None, :] + (z - p[t - 1][None, :]) @ J[t - 1].T \
                + eps * sd[t][None, :]
            want[r0:r0 + rows, t] = z
    assert np.array_equal(Z, want)


def test_transposed_jacobian_column_budget():
    # max column sum of the Jacobian is at most 1 + alpha
    rule, ga = make_approx(T=4)
    alpha = rule.coeff_oracle(0).alpha
    for t in range(4):
        colsum = np.abs(rule_jacobian(rule, ga.base.p[t], t)).sum(axis=0).max()
        assert colsum <= 1 + alpha + 1e-12


def test_simulate_gaussian_degenerate_noise_is_deterministic():
    # at an absorbing corner the injected noise vanishes and Z tracks p exactly
    rule = ol.linear_rule(0.5 * np.eye(4))
    ga = GaussianApprox.from_rule(rule, np.zeros(4), 3)
    assert np.abs(ga.V).max() == 0.0
    Z = simulate_gaussian(ga, 8, seed=0)
    assert np.abs(Z - ga.base.p[None, :, :]).max() == 0.0


def test_simulate_gaussian_matches_covariances():
    _, ga = make_approx(n=8, T=3)
    Z = simulate_gaussian(ga, 200000, seed=4)
    for t in (1, 3):
        emp = np.cov(Z[:, t, :].T)
        sig = ga.covariance(t)
        scale = np.sqrt(np.outer(np.diag(sig), np.diag(sig))) + 1e-12
        # entrywise within 4 rough standard errors of a covariance estimate
        bar = 4 * (scale + np.abs(sig)) / np.sqrt(200000)
        assert (np.abs(emp - sig) <= bar).all()


def test_lyapunov_zero_jacobian():
    V = np.diag([0.1, 0.2, 0.3])
    res = lyapunov_solve(np.zeros((3, 3)), V)
    assert np.allclose(res.Q, V)


def test_lyapunov_scalar_geometric_series():
    res = lyapunov_solve(0.5 * np.eye(4), np.eye(4))
    assert np.allclose(res.Q, (4.0 / 3.0) * np.eye(4))
    assert res.residual <= 1e-10


def test_lyapunov_binary_equilibrium_gives_zero():
    J = np.random.default_rng(0).random((5, 5)) * 0.15
    p_inf = np.array([0.0, 1.0, 0.0, 1.0, 1.0])
    res = lyapunov_solve(J, np.diag(p_inf * (1 - p_inf)))
    assert np.abs(res.Q).max() <= 1e-14


def test_lyapunov_direct_vs_iterative():
    g = np.random.default_rng(5)
    for _ in range(5):
        n = int(g.integers(2, 12))
        G = g.standard_normal((n, n))
        J = 0.85 * G / np.abs(np.linalg.eigvals(G)).max()
        V = np.diag(g.random(n))
        direct = lyapunov_solve(J, V, method="direct")
        iterative = lyapunov_solve(J, V, method="iterative")
        assert np.abs(direct.Q - iterative.Q).max() <= 1e-8
        assert direct.residual <= 1e-10


def test_lyapunov_singular_pair_detected():
    J = np.diag([2.0, 0.5])  # eigenvalue product exactly one
    with pytest.raises(SingularMatrixError):
        lyapunov_solve(J, np.eye(2), method="direct")
    with pytest.raises(NotConvergedError):
        lyapunov_solve(J, np.eye(2), method="iterative")


def _stable_jacobian(g, n, pairs):
    """O (D + N) O^T: O orthogonal, N strictly upper and small, D diagonal
    (real spectrum) or with 2 x 2 rotation blocks (complex-conjugate pairs)."""
    D = np.diag(g.uniform(-0.9, 0.9, n))
    if pairs:
        for i in range(0, n - 1, 2):
            r, th = g.uniform(0.2, 0.9), g.uniform(0.1, 3.0)
            D[i:i + 2, i:i + 2] = r * np.array([[np.cos(th), -np.sin(th)],
                                                [np.sin(th), np.cos(th)]])
    O = np.linalg.qr(g.standard_normal((n, n)))[0]
    return O @ (D + 0.1 * np.triu(g.standard_normal((n, n)), 1)) @ O.T


@pytest.mark.parametrize("pairs", [False, True])
def test_lyapunov_direct_matches_kron_reference(pairs):
    g = np.random.default_rng(11 + pairs)
    for n in range(1, 13):
        J = _stable_jacobian(g, n, pairs)
        assert np.iscomplex(np.linalg.eigvals(J)).any() == (pairs and n > 1)
        A = g.standard_normal((n, n))
        V = A @ A.T
        ref = np.linalg.solve(np.eye(n * n) - np.kron(J, J), V.reshape(-1)).reshape(n, n)
        Q = lyapunov_solve(J, V, method="direct").Q
        assert np.abs(Q - ref).max() <= 1e-12 * np.abs(ref).max()


def test_lyapunov_direct_rotated_singular_pair_detected():
    # eigenvalues 2 and 0.5 behind a rotation: the product is one up to rounding
    O = np.linalg.qr(np.random.default_rng(3).standard_normal((2, 2)))[0]
    with pytest.raises(SingularMatrixError):
        lyapunov_solve(O @ np.diag([2.0, 0.5]) @ O.T, np.eye(2), method="direct")


def test_lyapunov_direct_zero_noise_gives_exact_zero():
    J = _stable_jacobian(np.random.default_rng(4), 9, True)
    res = lyapunov_solve(J, np.zeros((9, 9)), method="direct")
    assert not res.Q.any() and res.residual == 0.0


def test_lyapunov_direct_memory_is_quadratic():
    # the vectorized n^2 x n^2 system alone would be 134 MB at n = 64
    n = 64
    J = _stable_jacobian(np.random.default_rng(5), n, True)
    V = np.eye(n)
    tracemalloc.start()
    try:
        lyapunov_solve(J, V, method="direct")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


def test_covariance_converges_to_lyapunov_solution():
    rule = spreading_rule(mean_field(8, rbar=0.9, mu=0.3, reinfection=True))
    from occlab.deterministic import find_equilibrium
    eq = find_equilibrium(rule, np.full(8, 0.5))
    assert eq.converged
    J = ol.rule_jacobian(rule, eq.p_inf)
    V = np.diag(injected_variance(rule, eq.p_inf))
    Q = lyapunov_solve(J, V).Q
    ga = GaussianApprox.from_rule(rule, eq.p_inf, 200)
    assert np.abs(ga.covariance(200) - Q).max() <= 1e-6


def test_covariance_diverges_for_unstable_jacobian():
    J = 1.05 * np.eye(3)
    V = np.eye(3)
    sig = np.zeros((3, 3))
    norms = []
    for _ in range(60):
        sig = J @ sig @ J.T + V
        norms.append(np.abs(sig).max())
    assert norms[-1] > norms[30] > norms[10]
    assert norms[-1] > 100
