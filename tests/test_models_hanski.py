import numpy as np
import pytest

import occlab as ol
from occlab.deterministic import det_trajectory
from occlab.gaussian import GaussianApprox
from occlab.models import equidistributed, hanski_limit, hanski_rule
from occlab.models.hanski import (grid_projected_variance,
                                  injected_noise_density, transfer_apply)
from occlab.simulate import simulate_projections


def test_pure_survival_decay():
    # zero colonization: the density just decays by the survival profile
    model = equidistributed(16, s=lambda z: np.full_like(z, 0.75),
                            c=lambda y: np.zeros_like(np.asarray(y, dtype=np.float64)),
                            c_prime=lambda y: np.zeros_like(np.asarray(y, dtype=np.float64)))
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


def test_injected_density_vs_marginal_split():
    model = equidistributed(16)
    lim = hanski_limit(model, lambda z: (z < 0.5).astype(np.float64), T=3, G=64)
    for t in (1, 3):
        inj = injected_noise_density(model, lim, t)
        marg = lim.rho[t] * (1 - lim.rho[t])
        # marginal = injected + (s - c)^2 * previous marginal
        s_g = model.s(lim.grid)
        cg = model.c(lim.connectivity[t - 1])
        prev = lim.rho[t - 1] * (1 - lim.rho[t - 1])
        assert np.allclose(marg, inj + (s_g - cg) ** 2 * prev, atol=1e-12)


def test_jacobian_without_c_prime_by_finite_differences():
    analytic = hanski_rule(equidistributed(8))
    rule = hanski_rule(equidistributed(8, c_prime=None))
    assert rule.jacobian is None
    x = np.random.default_rng(2).uniform(0.1, 0.9, 8)
    assert np.abs(ol.rule_jacobian(rule, x) - analytic.jacobian(x, 0)).max() <= 1e-6


@pytest.mark.parametrize("rho0", [0.0, 0.4])
def test_limit_without_c_prime_by_finite_differences(rho0):
    # rho0 = 0 puts C_0 at 0, where the difference is one-sided
    analytic = equidistributed(8)
    model = equidistributed(8, c_prime=None)
    lim = hanski_limit(model, lambda z: np.full_like(z, rho0), T=3, G=256)
    assert lim.connectivity[:3].any() == (rho0 > 0)
    h = np.cos(2 * np.pi * lim.grid)
    for t in range(3):
        got = transfer_apply(model, lim, h, t)
        assert np.abs(got - transfer_apply(analytic, lim, h, t)).max() <= 1e-6
    h_fn = lambda z: 1.0 + 0.5 * np.sin(2 * np.pi * z)
    want = grid_projected_variance(analytic, lim, h_fn, 3)
    assert abs(grid_projected_variance(model, lim, h_fn, 3) - want) <= 1e-6 * want


def test_transfer_operator_against_finite_jacobian():
    # the grid transfer operator is the n -> infinity limit of h -> J^T h
    n, G = 400, 400
    model = equidistributed(n)
    rule = hanski_rule(model)
    rho0 = lambda z: 0.3 + 0.4 * z
    lim = hanski_limit(model, rho0, T=2, G=G)
    p0 = rho0(model.z)
    ga = GaussianApprox.from_rule(rule, p0, 2)
    h = np.cos(2 * np.pi * model.z)
    finite = ga.jacobians[1].T @ h                 # sum_i h_i dP_i/dx_j
    grid_vals = transfer_apply(model, lim, np.cos(2 * np.pi * lim.grid), 1)
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
    grid_v = grid_projected_variance(model, lim, h_fn, 3)
    assert abs(finite_v - grid_v) <= 0.05 * grid_v
    res = simulate_projections(rule, X0, 3, 30000, seed=3, h=h, p_traj=ga.base.p)
    emp = res["proj"][:, 3].var()
    assert abs(emp - grid_v) <= 0.08 * grid_v


def test_grid_projected_variance_matches_hand_written_loop():
    # the grid sweep before it shared occlab.gaussian's backward walk,
    # copied here as the reference
    model = equidistributed(16, kernel_scale=0.3)
    lim = hanski_limit(model, lambda z: 0.3 + 0.4 * z, T=4, G=128)
    h_fn = lambda z: np.cos(3 * z) - 0.2
    for t in range(5):
        g, total = h_fn(lim.grid), 0.0
        for r in range(t, 0, -1):
            total += lim.integrate(g * g * injected_noise_density(model, lim, r))
            if r > 1:
                g = transfer_apply(model, lim, g, r - 1)
        assert grid_projected_variance(model, lim, h_fn, t) == total
        assert grid_projected_variance(model, lim, h_fn(lim.grid), t) == total


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
    with pytest.raises(ol.DomainError):
        hanski_limit(model, lambda z: 1.2 * np.ones_like(z), T=1, G=32)
