import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest

import occlab as ol
from occlab.deterministic import det_trajectory, spectral_radius
from occlab.errors import TooLargeError
from occlab.gaussian import GaussianApprox
from occlab.models import (DomanyKinzel, descriptors, dk_device_time, dk_exact_mean_zeta2,
                           dk_rule, epidemic_threshold, mean_field,
                           model_from_descriptor, spreading_rule, SpreadingModel)
from occlab.models.spreading import _product_factor
from occlab.rules import (coefficient_schedule, estimate_coefficients, fd_jacobian,
                          rule_jacobian)
from occlab.simulate import exact_law, law_mean, simulate_projections, state_table


# ---------------------------------------------------------------------------
# spreading
# ---------------------------------------------------------------------------

def test_spreading_zero_reactions_pure_death():
    model = SpreadingModel(R_matrix=np.zeros((4, 4)), mu=0.3)
    rule = spreading_rule(model)
    x = np.array([1.0, 1.0, 0.0, 1.0])
    p = ol.evaluate_rule(rule, x)
    assert np.allclose(p, x * 0.7)


def test_spreading_single_factor_example():
    model = SpreadingModel(R_matrix=np.array([[0.0, 0.2], [0.2, 0.0]]), mu=0.5)
    rule = spreading_rule(model)
    surv, col = rule.split
    x = np.array([1.0, 1.0])
    assert col(x, 0)[0] == pytest.approx(0.2)
    assert surv(x, 0)[0] == pytest.approx(0.5)


def test_spreading_alpha_is_max_column_sum():
    g = np.random.default_rng(0)
    R = g.random((7, 7)) * 0.3
    np.fill_diagonal(R, 0.0)
    model = SpreadingModel(R_matrix=R, mu=0.4)
    cs = spreading_rule(model).coeff_oracle(0)
    assert cs.alpha == pytest.approx(R.sum(axis=0).max())
    assert cs.beta == pytest.approx(np.sqrt((R ** 2).sum() / 7))
    G = (R + np.eye(7)).T @ (R + np.eye(7)) - np.eye(7)
    assert cs.big_gamma == pytest.approx(G.max())
    assert cs.delta == 0.0 and cs.gamma == 0.0


@pytest.mark.parametrize("n", [6, 8])
def test_spreading_coefficients_dominate_sampled(n):
    # the exponential form's first partials reach -log1p(-r_ij) > r_ij and it
    # is not multilinear: its bounds take the product form's on L = -log1p(-R)
    R = np.random.default_rng(0).uniform(0.3, 0.8, (n, n))
    np.fill_diagonal(R, 0.0)
    L = -np.log1p(-R)
    q = (L ** 2).sum(axis=1)
    for form, reinfection in itertools.product(("product", "exponential"), (False, True)):
        rule = spreading_rule(SpreadingModel(R_matrix=R, mu=0.4, reinfection=reinfection,
                                             domain_form=form))
        analytic = rule.coeff_oracle(0)
        sampled = estimate_coefficients(rule)
        for key in ("alpha", "beta", "big_gamma", "gamma", "delta"):
            assert getattr(sampled, key) <= getattr(analytic, key) + 1e-5, (form, key)
        if form == "exponential":
            assert analytic.alpha == pytest.approx(L.sum(axis=0).max(), rel=1e-14)
            assert analytic.gamma == pytest.approx(q.sum() / n, rel=1e-14)
            assert analytic.delta == pytest.approx((L.T @ q + q).max(), rel=1e-14)


def _zoo_descriptor(kind, tmp_path):
    """A descriptor of ``kind`` at n <= 12 whose coefficients are not all
    trivial: unsorted hanski patches with non-constant weights and survival,
    a non-uniform linear A."""
    g = np.random.default_rng(12)
    if kind == "hanski":
        z = g.permutation(np.linspace(0.05, 0.95, 10))
        path = tmp_path / "patches.csv"
        np.savetxt(path, np.column_stack([z, 0.5 + 3.0 * z, 0.2 + 0.6 * z]), delimiter=",")
        return {"type": "hanski", "patch_csv": str(path), "kernel_scale": 0.3}
    if kind == "linear":
        A = g.random((7, 7))
        return {"type": "linear", "A": (A / (1.1 * A.sum(axis=1, keepdims=True))).tolist()}
    return {"domany_kinzel": {"type": "domany_kinzel", "n": 9, "q1": 0.3, "q2": 0.8},
            "graph": {"type": "graph", "v": 5, "q": 0.6, "attachment": "quadratic",
                      "attachment_scale": 0.9},
            "constant": {"type": "constant", "n": 5, "c": 0.3}}[kind]


@pytest.mark.parametrize("kind", ["hanski", "domany_kinzel", "graph", "linear", "constant"])
def test_zoo_coefficients_dominate_sampled(kind, tmp_path):
    # the analytic coefficients of every other descriptor type with an oracle
    # bound its sampled lower estimate, as the spreading ones do above
    _, rule = model_from_descriptor(_zoo_descriptor(kind, tmp_path))
    assert rule.n <= 12
    for t in (0, 1):   # the torus's iid start makes its step 0 differ
        analytic = rule.coeff_oracle(t)
        sampled = estimate_coefficients(rule, t)
        for key in ("alpha", "beta", "big_gamma", "gamma", "delta"):
            assert getattr(sampled, key) <= getattr(analytic, key) + 1e-5, (t, key)


@pytest.mark.parametrize("reinfection", [False, True])
@pytest.mark.parametrize("domain_form", ["product", "exponential"])
@pytest.mark.parametrize("uniform", [False, True])
def test_spreading_evaluate_equals_split_form_bitwise(reinfection, domain_form, uniform):
    # the rule's own evaluate shares one product factor between S and C and
    # must round exactly as the derived x * S + (1 - x) * C
    g = np.random.default_rng(6)
    n = 9
    if uniform:
        R = np.full((n, n), 0.1)
    else:
        R = g.uniform(0.0, 0.3, (n, n))
    np.fill_diagonal(R, 0.0)
    model = SpreadingModel(R_matrix=R, mu=0.35, reinfection=reinfection,
                           domain_form=domain_form)
    assert (model._uniform_r is not None) == uniform
    rule = spreading_rule(model)
    surv, col = rule.split
    for x in (g.random(n), g.random((5, n)), state_table(n)):
        derived = x * surv(x, 0) + (1.0 - x) * col(x, 0)
        assert np.array_equal(rule.evaluate(x, 0), derived)


def test_exponential_and_product_forms_agree_on_binary():
    desc = {"type": "spreading", "n": 6, "rbar": 0.8, "mu": 0.4, "reinfection": True}
    _, prod = model_from_descriptor(desc)
    model, expf = model_from_descriptor({**desc, "domain_form": "exponential"})
    assert model.domain_form == "exponential"
    corners = state_table(6)
    assert np.abs(prod.evaluate(corners, 0) - expf.evaluate(corners, 0)).max() <= 1e-12
    # a non-uniform R: both forms read the one log table on binary states
    R = _nonuniform_reactions(6, 3)
    prod, expf = (spreading_rule(SpreadingModel(R_matrix=R, mu=0.4, reinfection=True,
                                                domain_form=form))
                  for form in ("product", "exponential"))
    assert np.array_equal(prod.evaluate(corners, 0), expf.evaluate(corners, 0))


def test_mean_field_fast_path_matches_dense_path():
    n = 30
    model = mean_field(n, rbar=0.7, mu=0.5, reinfection=True)
    dense = SpreadingModel(R_matrix=dense_mean_field(n, 0.7), mu=0.5, reinfection=True)
    object.__setattr__(dense, "_uniform_r", None)  # force the generic path
    ra, rb = spreading_rule(model), spreading_rule(dense)
    g = np.random.default_rng(2)
    xs = g.random((40, n))
    assert np.abs(ra.evaluate(xs, 0) - rb.evaluate(xs, 0)).max() <= 1e-12
    bits = (xs > 0.5).astype(float)
    assert np.abs(ra.evaluate(bits, 0) - rb.evaluate(bits, 0)).max() <= 1e-12


def _nonuniform_reactions(n, seed):
    R = np.random.default_rng(seed).uniform(0.0, 2.0 / n, (n, n))
    np.fill_diagonal(R, 0.0)
    return R


@pytest.mark.parametrize("reinfection", [False, True])
@pytest.mark.parametrize("form", ["product", "exponential"])
@pytest.mark.parametrize("uniform", [True, False])
def test_spreading_jacobian_matches_three_array_form(uniform, form, reinfection):
    # the Jacobian as spreading_rule built it from three n x n arrays
    # (partial, inner, jac), copied here as the reference
    n, mu = 40, 0.4
    R = dense_mean_field(n, 1.3) if uniform else _nonuniform_reactions(n, 4)
    model = SpreadingModel(R_matrix=R, mu=mu, reinfection=reinfection, domain_form=form)
    assert (model._uniform_r is not None) == uniform
    rule = spreading_rule(model)
    g = np.random.default_rng(6)
    for x in (g.random(n), (g.random(n) < 0.5).astype(np.float64)):
        pf = _product_factor(model)[0](x)
        if form == "exponential":
            r = model._uniform_r
            keep = -np.log1p(-R) if r is None else np.full((n, n), -math.log1p(-r))
            inner = keep * pf[:, None]
        else:
            react = R if model._uniform_r is None else model._uniform_r
            partial = pf[:, None] / (1.0 - react * x[None, :])
            inner = react * partial
        if reinfection:
            coef, diag = mu * x + (1.0 - x), (1.0 - mu * pf) - (1.0 - pf)
        else:
            coef, diag = 1.0 - x, (1.0 - mu) - (1.0 - pf)
        want = coef[:, None] * inner
        want[np.arange(n), np.arange(n)] = diag
        assert np.array_equal(rule.jacobian(x, 0), want)


@pytest.mark.parametrize("case", ["mean-field", "mean-field-reinfection", "mean-field-exponential",
                                  "nonuniform-exponential", "nonuniform-binary"])
def test_spreading_jacobian_holds_one_matrix(case):
    # the three-array form kept about 3 n^2 floats alive
    n = 500
    form = "exponential" if case.endswith("exponential") else "product"
    if case.startswith("mean-field"):
        model = mean_field(n, rbar=1.5, mu=0.4, reinfection=case.endswith("reinfection"),
                           domain_form=form)
    else:
        model = SpreadingModel(R_matrix=_nonuniform_reactions(n, 5), mu=0.4, reinfection=True,
                               domain_form=form)
    rule = spreading_rule(model)
    g = np.random.default_rng(7)
    x = (g.random(n) < 0.5).astype(np.float64) if case.endswith("binary") else g.random(n)
    rule.jacobian(x, 0)   # builds the binary path's cached log table first
    tracemalloc.start()
    try:
        rule.jacobian(x, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * 8 * n * n


@pytest.mark.parametrize("reinfection", [False, True])
def test_by_count_matches_split_at_binary_states(reinfection):
    g = np.random.default_rng(8)
    for (n, xs), form in itertools.product(
            ((9, state_table(9)),
             (1600, (g.random((64, 1600)) < g.random((64, 1))).astype(float))),
            ("product", "exponential")):
        rule = spreading_rule(mean_field(n, rbar=1.7, mu=0.4, reinfection=reinfection,
                                         domain_form=form))
        surv, col = rule.split
        s, c = rule.by_count(xs.sum(axis=1).astype(np.int64), 0)
        occupied = xs == 1.0
        want = np.where(occupied, surv(xs, 0), col(xs, 0))
        got = np.where(occupied, s[:, None], c[:, None])
        assert (np.abs(got - want) <= 1e-15 * np.abs(want)).all()
        # the exponential split reads (1 - r)^k as the count table does
        assert form == "product" or np.array_equal(got, want)


def test_by_count_survival_stays_a_probability_in_empty_rows():
    # r = 0.85 > 1 - mu: (1 - r)^(-1) at k = 0 would put S at -1.67; a row
    # with no occupied node reads no S, and the chain runs through extinction
    rule = spreading_rule(mean_field(2, rbar=1.7, mu=0.4, reinfection=True))
    s, c = rule.by_count(np.array([0, 1, 2]), 0)
    assert np.array_equal(s, [0.6, 0.6, 1.0 - 0.4 * 0.15]) and c[0] == 0.0
    split_only = dataclasses.replace(rule, by_count=None)
    X0 = np.array([1, 0], dtype=np.uint8)
    a, b = (simulate_projections(r, X0, 5, 300, seed=5, h=np.ones(2),
                                 p_traj=np.full((6, 2), 0.5), keep_nodes=np.arange(2))
            for r in (rule, split_only))
    assert (a["nodes"][:, 5].sum(axis=1) == 0).any()
    assert np.array_equal(a["proj"], b["proj"]) and np.array_equal(a["nodes"], b["nodes"])


def test_hooks_only_for_uniform_models():
    R = np.full((5, 5), 0.1)
    np.fill_diagonal(R, 0.0)
    for form, uniform, hooked in (("product", True, True), ("exponential", True, True),
                                  ("product", False, False), ("exponential", False, False)):
        Rm = R if uniform else R * np.linspace(0.5, 1.0, 5)[:, None]
        rule = spreading_rule(SpreadingModel(R_matrix=Rm, mu=0.3, domain_form=form))
        assert (rule.by_count is not None) == hooked
        assert (rule.vjp is not None) == hooked
        if hooked:
            x, g = np.linspace(0.1, 0.9, 5), np.linspace(-1.0, 2.0, 5)
            want = rule.jacobian(x, 0).T @ g
            assert np.abs(rule.vjp(x, 0, g) - want).max() <= 1e-15 * np.abs(want).max()


@pytest.mark.parametrize("n, R", [(1600, 2048), (10_000, 256)])
def test_count_table_step_matches_split_step_bitwise(n, R):
    # the chain with the rule's by_count and with the split alone draw the
    # same bits: every projection and discrepancy fraction is equal
    g = np.random.default_rng(n)
    for reinfection, form in itertools.product((False, True), ("product", "exponential")):
        # r-only models: no n x n matrix at either size
        rule = spreading_rule(mean_field(n, rbar=1.7, mu=0.4, reinfection=reinfection,
                                         domain_form=form))
        split_only = dataclasses.replace(rule, by_count=None)
        X0 = (g.random(n) < 0.3).astype(np.uint8)
        T, h = 2, g.uniform(0.5, 1.5, n)
        p = det_trajectory(rule, X0, T).p
        for couple in (False, True):
            a, b = (simulate_projections(r, X0, T, R, seed=7, h=h, p_traj=p,
                                         keep_nodes=np.arange(0, n, 97), couple=couple)
                    for r in (rule, split_only))
            for key in a:
                assert np.array_equal(a[key], b[key]), (reinfection, form, couple, key)


def gram_reference(model):
    """The same model with uniform detection switched off: its oracle forms G."""
    ref = SpreadingModel(R_matrix=model.R_matrix, mu=model.mu,
                         reinfection=model.reinfection, domain_form=model.domain_form)
    object.__setattr__(ref, "_uniform_r", None)
    return ref


@pytest.mark.parametrize("n", [1, 2, 3, 50, 3000])
def test_uniform_coefficients_match_gram_reference(n):
    R = dense_mean_field(n, 0.8)
    for reinfection in (False, True):
        for form in ("product", "exponential"):
            model = SpreadingModel(R_matrix=R, mu=0.4, reinfection=reinfection,
                                   domain_form=form)
            got = spreading_rule(model).coeff_oracle(0)
            want = spreading_rule(gram_reference(model)).coeff_oracle(0)
            for key in ("alpha", "beta", "big_gamma", "gamma", "delta"):
                a, b = getattr(got, key), getattr(want, key)
                assert abs(a - b) <= 1e-13 * abs(b), (key, a, b)


def test_uniform_coefficients_allocate_no_matrix():
    rule = spreading_rule(mean_field(3000, rbar=0.8, mu=0.4))
    tracemalloc.start()
    try:
        rule.coeff_oracle(0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_uniform_detection_edge_cases():
    def dense_detect(R):   # the detection by an off-diagonal copy it replaced
        off = R[~np.eye(R.shape[0], dtype=bool)]
        return float(off[0]) if off.size and (off == off[0]).all() else None

    mf = dense_mean_field(300, 0.8)
    cases = [np.zeros((4, 4)), np.zeros((1, 1)), np.array([[0.0, 0.2], [0.2, 0.0]]),
             np.array([[0.0, 0.2], [0.3, 0.0]]), np.array([[0.0, 0.0], [0.3, 0.0]]), mf]
    for i, j in [(0, 1), (1, 0), (299, 298), (150, 3)]:
        for value in (0.0, 0.5):
            R = mf.copy()
            R[i, j] = value
            cases.append(R)
    Z = np.zeros((300, 300))
    Z[299, 0] = 0.1
    cases.append(Z)
    for R in cases:
        got = SpreadingModel(R_matrix=R, mu=0.4)._uniform_r
        want = dense_detect(R)
        assert got == want and type(got) is type(want)


def dense_mean_field(n, rbar):
    """The n x n matrix of uniform reactions rbar / n, zero on the diagonal."""
    R = np.full((n, n), rbar / n)
    np.fill_diagonal(R, 0.0)
    return R


@pytest.mark.parametrize("reinfection", [False, True])
@pytest.mark.parametrize("form", ["product", "exponential"])
@pytest.mark.parametrize("n", [2, 9, 1600])
def test_r_only_mean_field_matches_explicit_uniform_matrix(n, form, reinfection):
    lean = mean_field(n, rbar=1.7, mu=0.4, reinfection=reinfection, domain_form=form)
    dense = SpreadingModel(R_matrix=dense_mean_field(n, 1.7), mu=0.4,
                           reinfection=reinfection, domain_form=form)
    assert lean._uniform_r == dense._uniform_r == 1.7 / n
    a, b = spreading_rule(lean), spreading_rule(dense)
    g = np.random.default_rng(n)
    x = g.random((5, n))
    bits = (x < 0.5).astype(float)
    for xs in (x, bits, x[0], bits[0]):
        assert np.array_equal(a.evaluate(xs, 0), b.evaluate(xs, 0))
        for fa, fb in zip(a.split, b.split):
            assert np.array_equal(fa(xs, 0), fb(xs, 0))
    for point in (x[0], bits[0]):
        assert np.array_equal(a.jacobian(point, 0), b.jacobian(point, 0))
    k = bits.sum(axis=1).astype(np.int64)
    for sa, sb in zip(a.by_count(k, 0), b.by_count(k, 0)):
        assert np.array_equal(sa, sb)
    assert np.array_equal(a.vjp(x[0], 0, x[1]), b.vjp(x[0], 0, x[1]))
    got = a.coeff_oracle(0)
    want = spreading_rule(gram_reference(dense)).coeff_oracle(0)
    for key in ("alpha", "beta", "big_gamma", "gamma", "delta"):
        assert abs(getattr(got, key) - getattr(want, key)) <= 1e-13 * getattr(want, key)
    X0 = (g.random(n) < 0.3).astype(np.uint8)
    T, h = 2, g.uniform(0.5, 1.5, n)
    p = det_trajectory(a, X0, T).p
    for couple in (False, True):
        sa, sb = (simulate_projections(rule, X0, T, 300, seed=5, h=h, p_traj=p,
                                       keep_nodes=np.arange(0, n, 7), couple=couple)
                  for rule in (a, b))
        for key in sa:
            assert np.array_equal(sa[key], sb[key]), (couple, key)
    assert lean.R_matrix == (n, 1.7 / n)   # still the marker: no n x n matrix was formed


def test_mean_field_keeps_its_marker():
    # n = 10^5: R would be 80 GB; replace, repr and the exponential rule read n and r
    n = 10 ** 5
    tracemalloc.start()
    try:
        huge = mean_field(n, rbar=0.8, mu=0.4)
        moved = dataclasses.replace(huge, mu=0.3, domain_form="exponential")
        text = repr(moved)
        rule = spreading_rule(moved)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    assert moved.R_matrix == (n, 0.8 / n) and moved.n == n and moved._uniform_r == 0.8 / n
    assert f"n={n}" in text and rule.by_count is not None and rule.vjp is not None
    assert np.array_equal(mean_field(1, rbar=0.8, mu=0.4).R_matrix, np.zeros((1, 1)))
    with pytest.raises(ValueError):
        mean_field(4, rbar=4.0, mu=0.4)       # r = 1 is not a probability below 1


def test_epidemic_threshold_closed_form_radius_matches_eigenvalues():
    for rbar in (0.3, 1.5):
        model = mean_field(300, rbar=rbar, mu=0.4)
        rep = epidemic_threshold(model)
        dense = spectral_radius(dense_mean_field(300, rbar))
        assert abs(rep.reaction_radius - dense) <= 1e-12 * dense
        assert rep.verdict == ("extinction" if rbar < 0.4 else "endemic-possible")


def test_epidemic_threshold_of_a_large_mean_field_walks_its_vjp():
    # n = 10^5: the equilibrium Jacobian would be 80 GB.  At the uniform
    # equilibrium it is d I + c (11^T - I), with eigenvalues d + (n - 1) c and
    # d - c; its row 0, J^T e_0, gives d and c
    n = 10 ** 5
    model = mean_field(n, rbar=1.5, mu=0.9)
    tracemalloc.start()
    try:
        rep = epidemic_threshold(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 48 * 2 ** 20
    assert rep.verdict == "endemic-possible" and (rep.p_inf == rep.p_inf[0]).all()
    d, c = spreading_rule(model).vjp(rep.p_inf, 0, np.eye(1, n)[0])[:2]
    want = max(abs(d + (n - 1) * c), abs(d - c))
    assert abs(rep.equilibrium_radius - want) <= 1e-12 * want


def test_large_mean_field_allocates_no_matrix():
    # n = 10^5: an n x n array would be 80 GB; the rule, a short simulation,
    # the projected variance and the coefficients stay far below one
    n = 10 ** 5
    X0 = (np.arange(n) < n // 2).astype(np.uint8)
    h = np.ones(n)
    tracemalloc.start()
    try:
        rule = spreading_rule(mean_field(n, rbar=1.5, mu=0.4))
        approx = GaussianApprox.from_rule(rule, X0.astype(np.float64), 2)
        out = simulate_projections(rule, X0, 2, 64, seed=3, h=h, p_traj=approx.base.p)
        var = approx.projected_variance(h, 2)
        coefficient_schedule(rule, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20
    assert out["proj"].shape == (64, 3) and var > 0


def test_dense_jacobians_of_a_large_mean_field_are_refused():
    n = 10 ** 5
    rule = spreading_rule(mean_field(n, rbar=1.5, mu=0.4))
    with pytest.raises(TooLargeError):
        rule_jacobian(rule, np.full(n, 0.5), 0)


# ---------------------------------------------------------------------------
# torus automaton
# ---------------------------------------------------------------------------

def test_dk_all_ones_value():
    rule = dk_rule(DomanyKinzel(n=8, q1=0.4, q2=0.7), iid_start=False)
    assert np.allclose(ol.evaluate_rule(rule, np.ones(8)), 0.3)


def test_dk_closed_form_degenerate_cases():
    assert dk_exact_mean_zeta2(DomanyKinzel(n=50, q1=0.3, q2=0.6)) == 0.0
    assert dk_exact_mean_zeta2(DomanyKinzel(n=50, q1=0.3, q2=0.8, p0=0.0)) == 0.0
    assert dk_exact_mean_zeta2(DomanyKinzel(n=50, q1=0.3, q2=0.8, p0=1.0)) == 0.0


def dk_exact_law_mean(model):
    rule = dk_rule(model, iid_start=True)
    X0 = np.zeros(model.n, dtype=np.uint8)
    t = dk_device_time(2)
    laws = exact_law(rule, X0, t)
    traj = det_trajectory(rule, X0.astype(float), t)
    return float((law_mean(laws[t], model.n) - traj.p[t]).sum() / np.sqrt(model.n))


def test_dk_closed_form_matches_exact_law():
    g = np.random.default_rng(3)
    for _ in range(6):
        n = int(g.integers(4, 7))
        q2, p0, frac = g.random(3)
        model = DomanyKinzel(n=n, q1=frac * q2, q2=q2, p0=p0)
        assert dk_exact_law_mean(model) == pytest.approx(
            dk_exact_mean_zeta2(model), abs=1e-12)


def test_dk_closed_form_matches_monte_carlo_n100():
    model = DomanyKinzel(n=100, q1=0.4, q2=0.7, p0=0.5)
    rule = dk_rule(model, iid_start=True)
    X0 = np.zeros(100, dtype=np.uint8)
    t = dk_device_time(2)
    traj = det_trajectory(rule, X0.astype(float), t)
    R = 10 ** 5
    res = simulate_projections(rule, X0, t, R, seed=13, h=np.ones(100),
                               p_traj=traj.p)
    sample = res["proj"][:, t]
    se = sample.std(ddof=1) / np.sqrt(R)
    assert abs(sample.mean() - dk_exact_mean_zeta2(model)) <= 4 * se


def test_dk_mean_grows_like_sqrt_n():
    base = DomanyKinzel(n=25, q1=0.4, q2=0.7, p0=0.5)
    big = DomanyKinzel(n=100, q1=0.4, q2=0.7, p0=0.5)
    assert dk_exact_mean_zeta2(big) == pytest.approx(
        2 * dk_exact_mean_zeta2(base))


# ---------------------------------------------------------------------------
# descriptors
# ---------------------------------------------------------------------------

#: one descriptor of each type, and whether its rule must walk a vjp
DESCRIBED = {
    "constant": ({"type": "constant", "n": 5, "c": 0.3}, False),
    "linear": ({"type": "linear", "A": [[0.1, 0.2], [0.3, 0.1]]}, False),
    "spreading": ({"type": "spreading", "n": 8, "rbar": 0.5, "mu": 0.5}, True),
    "domany_kinzel": ({"type": "domany_kinzel", "n": 8, "q1": 0.4, "q2": 0.7}, False),
    "hanski": ({"type": "hanski", "n": 8}, True),
    "graph": ({"type": "graph", "v": 5, "q": 0.5, "attachment": "quadratic"}, True),
    "random_product": ({"type": "random_product", "n": 5}, False),
}


def test_every_descriptor_type_is_described():
    assert set(DESCRIBED) == set(descriptors._KEYS)


@pytest.mark.parametrize("kind", sorted(DESCRIBED))
def test_descriptor_rules_have_analytic_jacobians(kind):
    # no task on a described model reaches rules.fd_jacobian
    desc, needs_vjp = DESCRIBED[kind]
    _, rule = model_from_descriptor(desc)
    assert rule.jacobian is not None
    assert rule.vjp is not None or not needs_vjp
    g = np.random.default_rng(17)
    x, gv = g.uniform(0.2, 0.8, rule.n), g.normal(size=rule.n)
    J = rule.jacobian(x, 1)
    assert np.abs(J - fd_jacobian(rule, x, 1)).max() <= 1e-6
    if rule.vjp is not None:
        assert np.abs(rule.vjp(x, 1, gv) - J.T @ gv).max() <= 1e-13
