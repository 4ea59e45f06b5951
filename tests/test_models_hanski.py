import dataclasses
import tracemalloc

import numpy as np
import pytest

import occlab as ol
from occlab.deterministic import det_trajectory
from occlab.errors import TooLargeError
from occlab.gaussian import GaussianApprox
from occlab.models import (equidistributed, hanski, hanski_limit, hanski_rule,
                           model_from_descriptor)
from occlab.models.hanski import (KERNEL_BLOCK, HanskiModel, _connectivity_matrix,
                                  _ExpKernel, default_colonization,
                                  default_colonization_prime)
from occlab.rules import injected_variance, rule_conditionals
from occlab.simulate import simulate_projections


def _dense_rule(model):
    """The model's split with the connectivity read from the dense matrix."""
    M, s = _connectivity_matrix(model), model.s(model.z)
    return ol.OccupancyRule(
        n=model.n, split=(lambda x, t=0: np.broadcast_to(s, np.shape(x)),
                          lambda x, t=0: default_colonization(
                              np.asarray(x, dtype=np.float64) @ M.T)))


@pytest.mark.parametrize("n", [1, 2, KERNEL_BLOCK - 1, KERNEL_BLOCK, KERNEL_BLOCK + 1, 801])
@pytest.mark.parametrize("ell", [0.25, 1e-2, 1e-4])
@pytest.mark.parametrize("order", ["sorted", "unsorted", "ties"])
def test_kernel_operator_matches_connectivity_matrix(n, ell, order):
    g = np.random.default_rng([n, int(1 / ell)])
    z = g.random(n)
    if order == "ties":   # runs of equal locations, shuffled
        z = g.permutation(np.repeat(z[: -(-n // 3)], 3)[:n])
    elif order == "sorted":
        z.sort()
    model = HanskiModel(z=z, a=lambda w: 0.5 + w, kernel_scale=ell)
    x = g.random((5, n))
    want = x @ _connectivity_matrix(model).T
    with np.errstate(all="raise"):
        kernel = _ExpKernel(z, ell)
        got = kernel(x * model.a(z) / n)
        assert kernel(np.ones((2, 3, n))).shape == (2, 3, n)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(initial=1e-300)


@pytest.mark.parametrize("ell", [0.3, 1e-4])
def test_kernel_operator_with_the_diagonal_matches_dense_kernel(ell):
    z = np.random.default_rng(5).random(3 * KERNEL_BLOCK + 5)
    w = np.random.default_rng(6).normal(size=len(z))
    want = np.exp(-np.abs(z[:, None] - z[None, :]) / ell) @ w
    with np.errstate(all="raise"):
        got = _ExpKernel(z, ell, diagonal=True)(w)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_kernel_operator_streams_blocks_past_its_table_cap(monkeypatch):
    # above the cap the dense blocks are built a chunk at a time per call
    z = np.random.default_rng(7).random(10 * KERNEL_BLOCK)
    w = np.random.default_rng(8).normal(size=(3, len(z)))
    whole = _ExpKernel(z, 0.1)
    monkeypatch.setattr(hanski, "KERNEL_BLOCK_BYTES", 3 * 8 * (KERNEL_BLOCK + 2) * KERNEL_BLOCK)
    chunked = _ExpKernel(z, 0.1)
    assert np.array_equal(chunked(w), whole(w))
    assert whole.kept is not None and chunked.kept is None


@pytest.mark.parametrize("z", [equidistributed(300).z,
                               np.random.default_rng(9).random(300)])
def test_vjp_matches_dense_jacobian(z):
    rule = hanski_rule(HanskiModel(z=z, a=lambda w: 0.5 + w, kernel_scale=0.2))
    g = np.random.default_rng(10)
    for x in (g.random(300), (g.random(300) < 0.5).astype(float)):
        gv = g.normal(size=300)
        want = rule.jacobian(x, 0).T @ gv
        assert np.abs(rule.vjp(x, 0, gv) - want).max() <= 1e-13 * np.abs(want).max()


def _traced_peak(f):
    """f's result and the most bytes it allocated at once."""
    tracemalloc.start()
    try:
        return f(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_default_kernel_rule_builds_no_connectivity_matrix():
    # M would be 298 GiB; the rule holds its O(n) tables only, and the
    # matrix-free step and vjp run
    n = 200_000
    model = equidistributed(n)
    rule, peak = _traced_peak(lambda: hanski_rule(model))
    assert peak < 16 * 2 ** 20
    x = np.full(n, 0.5)
    c = rule.split[1](x, 0)
    assert c.shape == (n,) and 0 < c.min() <= c.max() < 1
    assert np.isfinite(rule.vjp(x, 0, np.ones(n))).all()
    for read in (lambda: rule.jacobian(x, 0), lambda: rule.coeff_oracle(0)):
        _, peak = _traced_peak(lambda: pytest.raises(TooLargeError, read))
        assert peak < 2 ** 20
    # 20,000 patches: M alone (3.0 GiB) is under the cap, but not M and the
    # one more n x n table each dense reader holds beside it
    n = 20_000
    rule, x = hanski_rule(equidistributed(n)), np.full(n, 0.5)
    for read in (lambda: rule.jacobian(x, 0), lambda: rule.coeff_oracle(0)):
        _, peak = _traced_peak(lambda: pytest.raises(TooLargeError, read))
        assert peak < 2 ** 20


def test_connectivity_matrix_built_once_on_first_dense_read(monkeypatch):
    built = []

    def counted(model):
        built.append(_connectivity_matrix(model))
        return built[-1]

    monkeypatch.setattr(hanski, "_connectivity_matrix", counted)
    model = HanskiModel(z=np.random.default_rng(15).random(300), a=lambda w: 0.5 + w,
                        kernel_scale=0.2)
    rule = hanski_rule(model)
    x = np.random.default_rng(16).random(300)
    rule.split[1](x, 0)
    rule.vjp(x, 0, x)
    assert built == []
    jac = [rule.jacobian(x, 0), rule.coeff_oracle(0), rule.jacobian(x, 0), rule.coeff_oracle(0)]
    assert len(built) == 1
    assert np.array_equal(jac[0], jac[2]) and jac[1] == jac[3]
    # the formula the matrix was built by before it was formed in place
    z = model.z
    want = np.exp(-np.abs(z[:, None] - z[None, :]) / 0.2) * model.a(z)[None, :] / 300
    np.fill_diagonal(want, 0.0)
    assert np.array_equal(built[0], want)


def test_connectivity_matrix_peaks_at_one_table():
    n = 2000
    M, peak = _traced_peak(lambda: _connectivity_matrix(equidistributed(n)))
    assert M.nbytes == 8 * n * n and peak < 1.1 * M.nbytes
    # the dense readers, M's build included, hold about two such tables: the
    # multiple they check against the cap
    x = np.full(n, 0.5)
    for read in (lambda rule: rule.jacobian(x, 0), lambda rule: rule.coeff_oracle(0)):
        rule = hanski_rule(equidistributed(n))
        _, peak = _traced_peak(lambda: read(rule))
        assert peak < 2.1 * M.nbytes


def test_dense_kernel_rule_agrees_with_the_operator():
    model = HanskiModel(z=np.random.default_rng(11).random(200), kernel_scale=0.2)
    rule, dense = hanski_rule(model), _dense_rule(model)
    x = np.random.default_rng(12).random((4, 200))
    for f, f_dense in zip(rule.split, dense.split):
        assert np.abs(f(x, 0) - f_dense(x, 0)).max() <= 1e-15


def test_chain_bits_equal_the_dense_kernel_chain():
    model = equidistributed(800)
    rule, dense = hanski_rule(model), _dense_rule(model)
    X0 = (np.random.default_rng(14).random(800) < 0.5).astype(np.uint8)
    p = det_trajectory(rule, X0.astype(float), 3).p
    h = np.linspace(0.5, 1.5, 800)
    got, want = (simulate_projections(r, X0, 3, 600, 15, h=h, p_traj=p,
                                      keep_nodes=np.arange(0, 800, 7), couple=True)
                 for r in (rule, dense))
    for key in ("proj", "nodes", "jbar"):
        assert np.array_equal(got[key], want[key])


def _dense_grid_rule(model, lim):
    """The limit's grid rule with its G x G kernel (self term kept) formed
    densely, and its Jacobian from that table."""
    G = len(lim.grid)
    M = (np.exp(-np.abs(lim.grid[:, None] - lim.grid[None, :]) / model.kernel_scale)
         * lim.weights * model.a(lim.grid))
    s = model.s(lim.grid)

    def jacobian(x, t=0):
        conn = M @ x
        J = (1.0 - x)[:, None] * default_colonization_prime(conn)[:, None] * M
        J[np.arange(G), np.arange(G)] += s - default_colonization(conn)
        return J

    return ol.OccupancyRule(
        n=G, split=(lambda x, t=0: np.broadcast_to(s, np.shape(x)),
                    lambda x, t=0: default_colonization(x @ M.T)),
        jacobian=jacobian)


def test_limit_matches_dense_kernel_limit():
    model = equidistributed(8, kernel_scale=0.15, a=lambda z: 1.0 + z)
    lim = hanski_limit(model, lambda z: 0.3 + 0.4 * z, T=4, G=300)
    dense = _dense_grid_rule(model, lim)
    for t in range(4):
        S, C = rule_conditionals(dense, lim.rho[t], t)
        want = S * lim.rho[t] + C * (1.0 - lim.rho[t])
        assert np.abs(lim.rho[t + 1] - want).max() <= 1e-13
    h = np.cos(2 * np.pi * lim.grid)
    for t in range(4):
        want = dense.jacobian(lim.rho[t], t).T @ h
        assert np.abs(lim.rule.vjp(lim.rho[t], t, h) - want).max() <= 1e-13
    h_fn = lambda z: 1.0 + 0.5 * np.sin(2 * np.pi * z)
    want = dataclasses.replace(lim, rule=dense).projected_variance(h_fn, 4)
    assert abs(lim.projected_variance(h_fn, 4) - want) <= 1e-13 * want


def test_limit_applies_the_kernel_once_a_step(monkeypatch):
    calls = []
    apply = _ExpKernel.__call__

    def counted(self, w):
        calls.append(np.shape(w))
        return apply(self, w)

    monkeypatch.setattr(_ExpKernel, "__call__", counted)
    for T in (0, 1, 5):
        calls.clear()
        hanski_limit(equidistributed(8), lambda z: np.full_like(z, 0.5), T, G=64)
        assert calls == [(64,)] * T


def test_unsorted_patch_table_keeps_each_rows_weights(tmp_path):
    # np.interp needs increasing z: read in file order, this table gave the
    # patches a = [3, 1, 1] and s = [0.5, 0.9, 0.9]
    path = tmp_path / "patches.csv"
    path.write_text("0.9,1,0.9\n0.1,2,0.1\n0.5,3,0.5\n")
    model, _ = model_from_descriptor({"type": "hanski", "patch_csv": str(path)})
    assert model.z.tolist() == [0.9, 0.1, 0.5]
    assert model.a(model.z).tolist() == [1.0, 2.0, 3.0]
    assert model.s(model.z).tolist() == [0.9, 0.1, 0.5]


def test_pure_survival_decay():
    # zero weights give zero connectivity and so zero colonization: the
    # density just decays by the survival profile
    model = equidistributed(16, a=lambda z: np.zeros_like(z),
                            s=lambda z: np.full_like(z, 0.75))
    lim = hanski_limit(model, lambda z: np.full_like(z, 0.6), T=4, G=64)
    for t in range(5):
        assert np.allclose(lim.rho[t], 0.6 * 0.75 ** t)


def test_full_occupancy_absorbing_when_survival_one():
    model = equidistributed(16, s=lambda z: np.ones_like(z))
    lim = hanski_limit(model, lambda z: np.ones_like(z), T=4, G=64)
    assert np.allclose(lim.rho, 1.0)


def test_grid_refinement_first_order():
    model = equidistributed(16)
    rho0 = lambda z: 0.4 + 0.2 * np.sin(2 * np.pi * z)
    T = 3
    sols = {G: hanski_limit(model, rho0, T, G=G) for G in (128, 256, 512, 1024)}

    # compare on the coarse skeleton by block-averaging the finer solutions
    def coarse(lim, G):
        return lim.rho[T].reshape(128, G // 128).mean(axis=1)
    d1 = np.abs(coarse(sols[128], 128) - coarse(sols[256], 256)).max()
    d2 = np.abs(coarse(sols[256], 256) - coarse(sols[512], 512)).max()
    d3 = np.abs(coarse(sols[512], 512) - coarse(sols[1024], 1024)).max()
    # rectangle quadrature refines at first order: halving ratio near 2
    assert 1.5 <= d1 / d2 <= 2.5
    assert 1.5 <= d2 / d3 <= 2.5


def test_variance_density_identity_from_binary_start():
    # started from a 0/1 density, the recursive variance density equals the
    # marginal rho(1 - rho) at every step
    model = equidistributed(16)
    rho0 = lambda z: (z < 0.5).astype(np.float64)
    lim = hanski_limit(model, rho0, T=5, G=128)
    for t in range(6):
        assert np.allclose(lim.variance[t], lim.rho[t] * (1 - lim.rho[t]),
                           atol=1e-12)


def test_variance_density_from_a_constant_start():
    # from the fixed start of density 1/2 (the hanski-limit task's default)
    # the variance starts at 0, below the marginal rho (1 - rho) = 1/4, and
    # the site-averaged gap narrows step by step
    lim = hanski_limit(equidistributed(8), lambda z: np.full_like(z, 0.5), T=4, G=512)
    gap = (lim.weights * (lim.rho * (1 - lim.rho) - lim.variance)).sum(axis=1)
    assert gap[0] == 0.25 and (np.diff(gap) < 0).all()
    assert np.abs(gap - [0.25, 0.103, 0.0433, 0.0185, 0.0080]).max() <= 1e-3


def test_injected_density_vs_marginal_split():
    model = equidistributed(16)
    lim = hanski_limit(model, lambda z: (z < 0.5).astype(np.float64), T=3, G=64)
    for t in (1, 3):
        inj = injected_variance(lim.rule, lim.rho[t - 1], t - 1)
        marg = lim.rho[t] * (1 - lim.rho[t])
        # marginal = injected + (s - c)^2 * previous marginal
        S, C = rule_conditionals(lim.rule, lim.rho[t - 1], t - 1)
        prev = lim.rho[t - 1] * (1 - lim.rho[t - 1])
        assert np.allclose(marg, inj + (S - C) ** 2 * prev, atol=1e-12)


def test_transfer_operator_against_finite_jacobian():
    # the grid rule's vjp is the n -> infinity limit of h -> J^T h
    n, G = 400, 400
    model = equidistributed(n)
    rule = hanski_rule(model)
    rho0 = lambda z: 0.3 + 0.4 * z
    lim = hanski_limit(model, rho0, T=2, G=G)
    p0 = rho0(model.z)
    ga = GaussianApprox.from_rule(rule, p0, 2)
    h = np.cos(2 * np.pi * model.z)
    finite = ol.rule_jacobian(rule, ga.base.p[1], 1).T @ h   # sum_i h_i dP_i/dx_j
    grid_vals = lim.rule.vjp(lim.rho[1], 1, np.cos(2 * np.pi * lim.grid))
    # evaluate the grid answer at patch locations (same grid geometry)
    interp = np.interp(model.z, lim.grid, grid_vals)
    assert np.abs(finite - interp).max() <= 0.02


def test_grid_projected_variance_matches_finite_chain():
    n = 600
    model = equidistributed(n)
    rule = hanski_rule(model)
    X0 = (np.arange(n) % 2).astype(np.uint8)     # alternating start, density 1/2
    ga = GaussianApprox.from_rule(rule, X0.astype(float), 3)
    h_fn = lambda z: 1.0 + 0.5 * np.sin(2 * np.pi * z)
    h = h_fn(model.z)
    finite_v = ga.projected_variance(h, 3)
    lim = hanski_limit(model, lambda z: np.full_like(z, 0.5), T=3, G=512)
    grid_v = lim.projected_variance(h_fn, 3)
    assert abs(finite_v - grid_v) <= 0.05 * grid_v
    res = simulate_projections(rule, X0, 3, 30000, seed=3, h=h, p_traj=ga.base.p)
    emp = res["proj"][:, 3].var()
    assert abs(emp - grid_v) <= 0.08 * grid_v


def test_grid_projected_variance_matches_hand_written_loop():
    # the backward sweep through the grid rule's vjp, written out
    model = equidistributed(16, kernel_scale=0.3)
    lim = hanski_limit(model, lambda z: 0.3 + 0.4 * z, T=4, G=128)
    h_fn = lambda z: np.cos(3 * z) - 0.2
    for t in range(5):
        g, total = h_fn(lim.grid), 0.0
        for r in range(t, 0, -1):
            inj = injected_variance(lim.rule, lim.rho[r - 1], r - 1)
            total += float((g * g * inj).sum() / 128)
            if r > 1:
                g = lim.rule.vjp(lim.rho[r - 1], r - 1, g)
        assert lim.projected_variance(h_fn, t) == total
        assert lim.projected_variance(h_fn(lim.grid), t) == total


@pytest.mark.parametrize("G,want", [(128, 0.13723911756388074),
                                    (512, 0.1378130242047278),
                                    (2048, 0.13795677836342432)])
def test_grid_projected_variance_keeps_the_transfer_operator_sweep(G, want):
    # the values of the grid's own transfer-operator sweep, which the grid
    # rule's Gaussian companion replaced
    model = equidistributed(16, kernel_scale=0.3, a=lambda z: 1.0 + z)
    lim = hanski_limit(model, lambda z: 0.3 + 0.4 * z, T=4, G=G)
    assert abs(lim.projected_variance(lambda z: np.cos(3 * z) - 0.2, 4) - want) <= 1e-15 * want


def test_empirical_measure_converges_to_limit():
    # small-scale law-of-large-numbers check
    h_fn = lambda z: np.exp(-z)
    errs = []
    for n in (100, 400):
        model = equidistributed(n)
        rule = hanski_rule(model)
        X0 = (np.arange(n) % 2).astype(np.uint8)
        traj = det_trajectory(rule, X0.astype(float), 2)
        lim = hanski_limit(model, lambda z: np.full_like(z, 0.5), T=2, G=512)
        target = lim.integrate(h_fn(lim.grid) * lim.rho[2])
        res = simulate_projections(rule, X0, 2, 200, seed=4, h=h_fn(model.z),
                                   p_traj=traj.p)
        mu_vals = res["proj"][:, 2] / np.sqrt(n) + h_fn(model.z) @ traj.p[2] / n
        errs.append(np.abs(mu_vals - target).mean())
    assert errs[1] < errs[0]


def test_density_domain_validation():
    model = equidistributed(8)
    for rho0 in (lambda z: 1.2 * np.ones_like(z), np.full(32, np.nan)):
        with pytest.raises(ol.DomainError):
            hanski_limit(model, rho0, T=1, G=32)


def test_oversized_grid_refused_before_allocating():
    # the two (T + 1, G) tables of a 10^9-node grid are 89 GiB
    model = equidistributed(8)
    _, peak = _traced_peak(lambda: pytest.raises(
        TooLargeError, hanski_limit, model, lambda z: np.full_like(z, 0.5), 5, G=10 ** 9))
    assert peak < 2 ** 20
