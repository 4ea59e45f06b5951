import numpy as np
import pytest
from scipy.sparse.linalg import LinearOperator

import occlab as ol
from occlab.deterministic import (det_trajectory, find_equilibrium, smith_check,
                                  spectral_radius)
from occlab.models import (DomanyKinzel, dk_rule, epidemic_threshold,
                           mean_field, spreading_rule, SpreadingModel)


def positive_reaction_matrix(n, radius, seed):
    g = np.random.default_rng(seed)
    B = g.random((n, n)) + 0.05
    np.fill_diagonal(B, 0.0)
    return radius * B / spectral_radius(B)


def test_constant_rule_trajectory():
    rule = ol.constant_rule(4, 0.3)
    traj = det_trajectory(rule, np.linspace(0, 1, 4), 5)
    assert np.allclose(traj.p[1:], 0.3)


def test_linear_rule_trajectory_is_matrix_power():
    A = np.array([[0.4, 0.3], [0.2, 0.5]])
    rule = ol.linear_rule(A)
    p0 = np.array([0.8, 0.1])
    traj = det_trajectory(rule, p0, 6)
    expect = p0.copy()
    for t in range(1, 7):
        expect = A @ expect
        assert np.allclose(traj.p[t], expect, atol=1e-14)


def test_trajectory_step_identity():
    rule = spreading_rule(mean_field(10, rbar=0.6, mu=0.5))
    traj = det_trajectory(rule, np.full(10, 0.5), 8)
    for t in range(8):
        assert np.abs(traj.p[t + 1] - ol.evaluate_rule(rule, traj.p[t])).max() <= 1e-14


def test_halving_rule_equilibrium_origin():
    rule = ol.linear_rule(0.5 * np.eye(3))
    eq = find_equilibrium(rule, np.array([1.0, 0.5, 0.25]))
    assert eq.converged
    assert np.abs(eq.p_inf).max() <= 1e-11


def test_equilibrium_residual_contract():
    model = SpreadingModel(R_matrix=positive_reaction_matrix(20, 0.6, 1), mu=0.3)
    rule = spreading_rule(model)
    eq = find_equilibrium(rule, np.full(20, 0.5), tol=1e-12)
    assert eq.converged
    assert eq.residual <= 10 * 1e-12
    assert eq.p_inf.min() > 0


def test_equilibrium_independent_of_start():
    model = SpreadingModel(R_matrix=positive_reaction_matrix(12, 0.8, 2), mu=0.4)
    rule = spreading_rule(model)
    g = np.random.default_rng(3)
    sols = [find_equilibrium(rule, g.random(12) * 0.9 + 0.05).p_inf
            for _ in range(5)]
    for s in sols[1:]:
        assert np.abs(s - sols[0]).max() <= 1e-8


def test_threshold_subcritical_dies_out():
    model = SpreadingModel(R_matrix=positive_reaction_matrix(15, 0.25, 4), mu=0.5)
    rep = epidemic_threshold(model)
    assert rep.verdict == "extinction"
    assert rep.residual < 1e-8


def test_threshold_supercritical_positive_equilibrium():
    model = SpreadingModel(R_matrix=positive_reaction_matrix(15, 0.6, 5), mu=0.3)
    rep = epidemic_threshold(model)
    assert rep.verdict == "endemic-possible"
    assert rep.p_inf.min() > 0
    assert rep.equilibrium_radius < 1
    assert rep.residual <= 1e-9


def test_threshold_no_recovery():
    model = SpreadingModel(R_matrix=positive_reaction_matrix(8, 0.5, 6), mu=0.0)
    assert epidemic_threshold(model).verdict == "no-recovery"


def test_smith_check_linear_positive():
    A = np.full((5, 5), 0.15)
    rule = ol.linear_rule(A)
    rep = smith_check(rule, sample_budget=32, seed=0)
    assert rep.positivity
    assert rep.not_all_absorbing
    assert rep.spectral_radius_origin == pytest.approx(0.75, abs=1e-9)
    # constant Jacobian is never strictly decreasing: monotonicity evidence fails
    assert not rep.jacobian_monotonicity


def test_smith_check_dk_locality_fails_positivity():
    rule = dk_rule(DomanyKinzel(n=6, q1=0.3, q2=0.7), iid_start=False)
    rep = smith_check(rule, sample_budget=16, seed=1)
    assert not rep.positivity


def test_smith_check_spreading_monotone():
    model = SpreadingModel(R_matrix=positive_reaction_matrix(6, 0.5, 7), mu=0.4)
    rule = spreading_rule(model)
    rep = smith_check(rule, sample_budget=64, seed=2)
    assert rep.positivity
    assert rep.jacobian_monotonicity
    assert rep.not_all_absorbing


def test_smith_consistency_with_origin_attraction():
    # screen passes, origin fixed, radius <= 1: every start is pulled to 0
    model = SpreadingModel(R_matrix=positive_reaction_matrix(6, 0.3, 8), mu=0.5)
    rule = spreading_rule(model)
    rep = smith_check(rule, sample_budget=32, seed=3)
    assert rep.positivity and rep.jacobian_monotonicity and rep.not_all_absorbing
    assert rep.spectral_radius_origin <= 1
    g = np.random.default_rng(4)
    for _ in range(20):
        traj = det_trajectory(rule, g.random(6), 400)
        assert np.abs(traj.p[-1]).max() <= 1e-8


def test_spectral_radius_examples():
    assert spectral_radius(np.eye(7)) == pytest.approx(1.0)
    upper = np.triu(np.ones((5, 5)), k=1)
    assert spectral_radius(upper) <= 1e-10
    n, rbar = 100, 0.5
    R = np.full((n, n), rbar / n)
    np.fill_diagonal(R, 0.0)
    assert spectral_radius(R) == pytest.approx(rbar * (n - 1) / n, abs=1e-12)


def test_spectral_radius_arpack_above_dense_cap():
    # uniform reactions r (11^T - I): the Perron root is (n - 1) r
    n, r = 2100, 0.5 / 2100
    R = np.full((n, n), r)
    np.fill_diagonal(R, 0.0)
    assert spectral_radius(R) == pytest.approx((n - 1) * r, abs=1e-12)
    # signed: d I + c (11^T - I) has eigenvalues d + (n - 1) c and d - c, so its
    # radius is |d - c| = 0.5001, while the radius of its |A| is about 0.7
    c, d = 0.2 / n, -0.5
    A = np.full((n, n), c)
    np.fill_diagonal(A, d)
    assert spectral_radius(A) == pytest.approx(c - d, rel=1e-12)
    # the same as an operator, through ARPACK above the cap and densely below it
    for m in (n, 300):
        op = LinearOperator((m, m), dtype=np.float64,
                            matvec=lambda v: c * (v.sum() - v) + d * v)
        assert spectral_radius(op) == pytest.approx(c - d, rel=1e-12)
    assert spectral_radius(np.zeros((n, n))) == 0.0


def test_spectral_radius_rejects_bad_input():
    with pytest.raises(ValueError):
        spectral_radius(np.ones((2, 3)))
    with pytest.raises(ValueError):
        spectral_radius(np.array([[np.nan, 0], [0, 1]]))


def test_equilibrium_budget_runs_out_flagged_not_raised():
    rule = spreading_rule(mean_field(20, rbar=1.5, mu=0.3))
    eq = find_equilibrium(rule, np.full(20, 0.5), tol=1e-15, max_iter=3)
    assert not eq.converged and eq.iterations == 3
    assert eq.residual == pytest.approx(4.104e-3, rel=1e-3)
    assert eq.residual == float(np.abs(ol.evaluate_rule(rule, eq.p_inf) - eq.p_inf).max())
