import dataclasses
import tracemalloc

import numpy as np
import pytest

from occlab.errors import SchemaError, TooLargeError
from occlab.gaussian import GaussianApprox
from occlab.models import (GraphDynModel, complete_host, graph_rule, graphon_step,
                           graphon_trajectory, homomorphism_density,
                           lambda_kernel, model_from_descriptor,
                           triangle_clt, triangle_density)
from occlab.models.graphdyn import (cut_norm_exact, deterministic_edge_matrices,
                                    edge_state_to_adjacency)
from occlab.rules import injected_variance, rule_jacobian
from occlab.simulate import simulate_ensemble


def logistic_model(v, q=0.6, slope=0.5):
    f = lambda y: slope * np.asarray(y, dtype=np.float64)
    fp = lambda y: np.full_like(np.asarray(y, dtype=np.float64), slope)
    return complete_host(v, q=q, f=f, f_prime=fp,
                         f_derivative_sups=(slope, 0.0, 0.0))


def test_triangle_density_k3():
    A = np.ones((3, 3)) - np.eye(3)
    assert triangle_density(A) == pytest.approx(2.0 / 9.0)
    assert homomorphism_density([(0, 1), (1, 2), (0, 2)], 3, A) == \
        pytest.approx(2.0 / 9.0)


def test_constant_kernel_functionals():
    W = np.full((8, 8), 0.37)
    assert cut_norm_exact(W) == pytest.approx(0.37)
    assert triangle_density(W) == pytest.approx(0.37 ** 3)
    # edge density as a homomorphism of a single edge
    assert homomorphism_density([(0, 1)], 2, W) == pytest.approx(0.37)


def test_homomorphism_density_vertex_cap():
    with pytest.raises(TooLargeError):
        homomorphism_density([(0, 1), (2, 3), (4, 5)], 6, np.ones((4, 4)))


def test_cut_norm_exact_cap():
    with pytest.raises(TooLargeError):
        cut_norm_exact(np.ones((17, 17)))


def test_graphon_step_range_and_symmetry():
    g = np.random.default_rng(1)
    W0 = g.random((12, 12)); W0 = 0.5 * (W0 + W0.T)
    host = (g.random((12, 12)) < 0.8).astype(float); host = np.triu(host, 1)
    host = host + host.T
    f = lambda y: 0.2 + 0.6 * np.asarray(y, dtype=np.float64) ** 2
    traj = graphon_trajectory(W0, host, q=0.7, f=f, T=6)
    for W in traj:
        assert np.allclose(W, W.T)
        assert W.min() >= 0 and W.max() <= 1


@pytest.mark.parametrize("curve", ["constant", "linear", "quadratic"])
def test_vjp_matches_dense_jacobian(curve):
    g = np.random.default_rng(10)
    keep = g.random((11, 11)) < 0.6
    partial = np.argwhere(np.triu(keep, 1))
    complete, _ = model_from_descriptor({"type": "graph", "v": 11, "q": 0.55,
                                         "attachment": curve, "attachment_scale": 0.7})
    # the complete host and a non-complete one on the same 11 vertices
    for model in (complete, dataclasses.replace(complete, host_edges=partial)):
        rule = graph_rule(model)
        for x in (g.random(rule.n), (g.random(rule.n) < 0.5).astype(float)):
            gv = g.normal(size=rule.n)
            want = rule.jacobian(x, 0).T @ gv
            assert np.abs(rule.vjp(x, 0, gv) - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("edges,why", [
    ([[0, 1], [2, 2]], "loops"),
    ([[0, 1, 2]], "integer array"),
    ([[0.0, 1.0]], "integer array"),
], ids=["loop", "three-columns", "float-vertices"])
def test_host_must_be_a_simple_edge_list(edges, why):
    # out-of-range and repeated edges: tests/test_cli.py, through edges_csv
    f = lambda y: 0.5 * np.asarray(y)
    fp = lambda y: np.full_like(y, 0.5)
    with pytest.raises(ValueError, match=why):
        GraphDynModel(host_edges=np.array(edges), v=3, q=0.5, f=f, f_prime=fp,
                      f_derivative_sups=(0.5, 0.0, 0.0))


def test_chain_stays_inside_host():
    model = logistic_model(8)
    rule = graph_rule(model)
    x0 = np.zeros(model.n_edges, dtype=np.uint8); x0[::3] = 1
    ens = simulate_ensemble(rule, x0, 6, 500, seed=2)
    # nodes are host edges by construction; adjacency never leaves the host
    A = edge_state_to_adjacency(model, ens.states[:, 6, :].astype(float))
    assert (A <= model.host_adjacency()[None, :, :] + 1e-12).all()


def test_deterministic_edge_recursion_matches_graphon_step_on_complete_host():
    # on the host's own partition the kernel recursion with self-exclusion
    # equals the finite deterministic recursion exactly
    model = logistic_model(10)
    A0 = model.host_adjacency()
    P = deterministic_edge_matrices(model, A0, 3)
    # graphon_step without self-exclusion differs by O(1/v); check closeness
    W = graphon_trajectory(A0, model.host_adjacency(), model.q, model.f, 3)
    assert np.abs(P[3] - W[3]).max() <= 0.05
    # and the structural identity: the recursive variance (the injected
    # noise plus the (q - w)^2-propagated past, w the colonization at P)
    # equals the marginal P(1-P) on the host edges from a graph
    rule = graph_rule(model)
    ea, eb = model.host_edges[:, 0], model.host_edges[:, 1]
    var = np.zeros(model.n_edges)
    for s in range(3):
        w = rule.split[1](P[s][ea, eb])
        var = injected_variance(rule, P[s][ea, eb], s) + (model.q - w) ** 2 * var
        marginal = P[s + 1][ea, eb] * (1 - P[s + 1][ea, eb])
        assert np.allclose(var, marginal, atol=1e-12)


def test_clt_functionals_match_edge_chain_exactly():
    # the variance walks the graph rule's vjp; the reference walks its
    # dense Jacobians
    model = logistic_model(10, q=0.7, slope=0.4)
    rule = dataclasses.replace(graph_rule(model), vjp=None)
    A0 = model.host_adjacency()
    ea, eb = model.host_edges[:, 0], model.host_edges[:, 1]
    P_seq = deterministic_edge_matrices(model, A0, 3)
    U = (2.0 / model.v) * lambda_kernel(P_seq[3])
    density, grid_v = triangle_clt(model, A0, 3)
    assert density == triangle_density(P_seq[3])
    ga = GaussianApprox.from_rule(rule, A0[ea, eb], 3)
    assert grid_v == pytest.approx(ga.projected_variance(U[ea, eb], 3), rel=1e-12)


def test_triangle_variance_matches_hand_written_loop():
    # the backward sweep written out on edge vectors, with dense Jacobians
    model = logistic_model(9, q=0.65, slope=0.45)
    rule = graph_rule(model)
    g = np.random.default_rng(4)
    A0 = (g.random((9, 9)) < 0.5).astype(np.float64)
    A0 = np.triu(A0, 1) + np.triu(A0, 1).T
    ea, eb = model.host_edges[:, 0], model.host_edges[:, 1]
    for t in range(4):
        P_seq = deterministic_edge_matrices(model, A0, t)
        u = (2.0 / model.v) * lambda_kernel(P_seq[t])[ea, eb]
        total = 0.0
        for r in range(t, 0, -1):
            p = P_seq[r - 1][ea, eb]
            total += (u * u * injected_variance(rule, p, r - 1)).sum() / model.n_edges
            if r > 1:
                u = rule_jacobian(rule, p, r - 1).T @ u
        assert triangle_clt(model, A0, t)[1] == pytest.approx(total, rel=1e-12, abs=0)


def test_triangle_variance_forms_no_edge_table():
    # E = 1770 edges: one E x E table would be 25 MB
    model = logistic_model(60, q=0.6, slope=0.5)
    A0 = model.host_adjacency()
    E = model.n_edges
    tracemalloc.start()
    try:
        triangle_clt(model, A0, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * E * E


def test_injected_noise_below_marginal():
    model = logistic_model(8)
    P = deterministic_edge_matrices(model, model.host_adjacency(), 2)
    ea, eb = model.host_edges[:, 0], model.host_edges[:, 1]
    inj = injected_variance(graph_rule(model), P[1][ea, eb], 1)
    assert (inj <= P[2][ea, eb] * (1 - P[2][ea, eb]) + 1e-12).all()


def test_triangle_variance_desk_scale():
    # empirical variance of the normalized triangle fluctuation against the
    # kernel-functional prediction (small desk check; the acceptance suite
    # runs the larger calibration)
    model = logistic_model(24, q=0.6, slope=0.5)
    rule = graph_rule(model)
    A0 = model.host_adjacency()
    ea, eb = model.host_edges[:, 0], model.host_edges[:, 1]
    x0 = A0[ea, eb].astype(np.uint8)
    t, R = 2, 4000
    pred = triangle_clt(model, A0, t)[1]
    P_det = deterministic_edge_matrices(model, A0, t)
    ens = simulate_ensemble(rule, x0, t, R, seed=5)
    As = edge_state_to_adjacency(model, ens.states[:, t, :].astype(float))
    tri = np.einsum("rij,rjk,rik->r", As, As, As) / model.v ** 3
    stat = model.v * (tri - triangle_density(P_det[t])) / np.sqrt(model.n_edges)
    emp = stat.var()
    assert emp == pytest.approx(pred, rel=0.2)


def test_graph_descriptor_attachment_defaults_to_linear():
    desc = {"type": "graph", "v": 5, "q": 0.4, "attachment_scale": 0.3}
    _, default = model_from_descriptor(desc)
    _, linear = model_from_descriptor({**desc, "attachment": "linear"})
    assert default.coeff_oracle(0) == linear.coeff_oracle(0)
    x = np.linspace(0.0, 1.0, default.n)
    assert np.array_equal(default.evaluate(x, 0), linear.evaluate(x, 0))


def test_graph_descriptor_rejects_unknown_key():
    with pytest.raises(SchemaError, match="'atachment'"):
        model_from_descriptor({"type": "graph", "v": 5, "q": 0.4, "atachment": "linear"})
