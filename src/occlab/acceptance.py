"""Acceptance harness: every end-to-end claim checked at a pinned tolerance.

``run_all`` executes the eleven criteria and prints one PASS/FAIL line per
criterion.  Tolerances are fixed here, not tuned at run time; random inputs
are drawn from fixed seeds so the suite is reproducible bit for bit.

Criterion 2 documents a known discrepancy: the reference closed-form constant
(q1 + q2 - 2 p0 q1) for the torus automaton's two-step projected mean
disagrees with exact enumeration of the chain, which instead matches
(q1 + q2 p0 - 2 q1 p0) to machine precision (see
:func:`occlab.models.dk_exact_mean_zeta2`).  The criterion is evaluated
against the reference constant as stated and is expected to FAIL; the detail
line reports both values so the discrepancy is auditable.
"""

import math
import os
import time
from dataclasses import dataclass

import numpy as np

from . import rng
from .analysis import clt_point, lln_point, rate_summary, sign_class
from .bounds import jbar_moment_bound, lqr_error_bound, mean_functional_norms
from .deterministic import det_trajectory, find_equilibrium, spectral_radius
from .gaussian import GaussianApprox, lyapunov_solve
from .models import (DomanyKinzel, dk_device_time, dk_rule, equidistributed,
                     hanski_limit, hanski_rule, mean_field, model_from_descriptor,
                     random_product_rule, spreading_rule, SpreadingModel)
from .models import graphdyn as gd
from .rules import coefficient_schedule, injected_variance, rule_jacobian
from .simulate import (empirical_law, exact_law, law_mean, simulate_ensemble,
                       simulate_projections, total_variation)

MASTER_SEED = 20240817
#: simulation threads of every criterion but 11, as ``occlab run`` defaults to;
#: results do not depend on it
WORKERS = os.cpu_count() or 1


@dataclass
class CriterionResult:
    ident: int
    name: str
    passed: bool
    detail: str
    seconds: float = 0.0

    def line(self):
        flag = "PASS" if self.passed else "FAIL"
        return f"[{flag}] criterion {self.ident:2d} ({self.name}): {self.detail}"


def _positive_reactions(n, radius, seed):
    g = np.random.default_rng(seed)
    B = g.random((n, n)) + 0.05
    np.fill_diagonal(B, 0.0)
    return radius * B / spectral_radius(B)


def _half_start(n):
    x = np.zeros(n, dtype=np.uint8)
    x[: n // 2] = 1
    return x


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def criterion_1(fast=False):
    """Exact-oracle equivalence of Monte Carlo and the enumerated law."""
    R = 10 ** 5 if fast else 10 ** 6
    tol = 4 * math.sqrt(2 ** 3 / R)
    cases = [random_product_rule(3, seed=s) for s in (101, 102, 103, 104)]
    cases.append(dk_rule(DomanyKinzel(n=3, q1=0.35, q2=0.75), iid_start=False))
    worst = 0.0
    for k, rule in enumerate(cases):
        X0 = np.array([1, 0, 1], dtype=np.uint8)
        laws = exact_law(rule, X0, 3)
        ens = simulate_ensemble(rule, X0, 3, R, seed=rng.derive_seed(MASTER_SEED, f"c1-{k}"),
                                workers=WORKERS)
        for t in (1, 2, 3):
            tv = total_variation(empirical_law(ens.states[:, t, :], 3), laws[t])
            worst = max(worst, tv)
    return worst <= tol, f"max TV {worst:.3e} vs allowance {tol:.3e} (R={R})"


def criterion_2(fast=False):
    """Torus-automaton closed form versus exact law and Monte Carlo.

    Evaluated against the reference constant (q1 + q2 - 2 p0 q1); exact
    enumeration instead matches (q1 + q2 p0 - 2 q1 p0), so this criterion
    records an expected failure with both values reported.
    """
    g = np.random.default_rng(rng.derive_seed(MASTER_SEED, "c2"))
    t = dk_device_time(2)
    worst_reference = 0.0
    worst_corrected = 0.0
    n = 12
    for _ in range(3 if fast else 10):
        q2, frac, p0 = g.random(3)
        q1 = frac * q2
        model = DomanyKinzel(n=n, q1=q1, q2=q2, p0=p0)
        rule = dk_rule(model, iid_start=True)
        X0 = np.zeros(n, dtype=np.uint8)
        laws = exact_law(rule, X0, t)
        traj = det_trajectory(rule, X0.astype(float), t)
        exact = float((law_mean(laws[t], n) - traj.p[t]).sum() / math.sqrt(n))
        b = q2 - 2 * q1
        reference = math.sqrt(n) * b ** 2 * p0 ** 2 * (1 - p0) * (q1 + q2 - 2 * p0 * q1)
        corrected = math.sqrt(n) * b ** 2 * p0 ** 2 * (1 - p0) * (q1 + b * p0)
        worst_reference = max(worst_reference, abs(exact - reference))
        worst_corrected = max(worst_corrected, abs(exact - corrected))

    # large-n Monte Carlo leg at the canonical parameter point
    model = DomanyKinzel(n=100, q1=0.4, q2=0.7, p0=0.5)
    rule = dk_rule(model, iid_start=True)
    X0 = np.zeros(100, dtype=np.uint8)
    traj = det_trajectory(rule, X0.astype(float), t)
    R = 10 ** 5 if fast else 10 ** 6
    res = simulate_projections(rule, X0, t, R,
                               rng.derive_seed(MASTER_SEED, "c2mc"),
                               h=np.ones(100), p_traj=traj.p, workers=WORKERS)
    sample = res["proj"][:, t]
    se = sample.std(ddof=1) / math.sqrt(R)
    reference_100 = 10 * 0.01 * 0.125 * 0.7
    corrected_100 = 10 * 0.01 * 0.125 * 0.35
    mc_gap_reference = abs(sample.mean() - reference_100)
    mc_gap_corrected = abs(sample.mean() - corrected_100)

    passed = worst_reference <= 1e-10 and mc_gap_reference <= 4 * se
    detail = (f"exact-law vs reference constant: max gap {worst_reference:.3e} "
              f"(tolerance 1e-10); vs corrected constant {worst_corrected:.3e}; "
              f"n=100 MC gap to reference {mc_gap_reference:.2e} vs 4se={4 * se:.2e}, "
              f"to corrected {mc_gap_corrected:.2e}")
    return passed, detail


def criterion_3(fast=False):
    """Variance recursion on the uniform-contact epidemic at n = 1000."""
    n = 1000
    R = 2 * 10 ** 4 if fast else 10 ** 5
    rule = spreading_rule(mean_field(n, rbar=0.5, mu=0.5))
    X0 = _half_start(n)
    ga = GaussianApprox.from_rule(rule, X0.astype(float), 5)
    res = simulate_projections(rule, X0, 5, R,
                               rng.derive_seed(MASTER_SEED, "c3"),
                               h=np.ones(n), p_traj=ga.base.p, workers=WORKERS)
    pred = ga.projected_variances(np.ones(n)).tolist()
    worst = 0.0
    gaps = []
    for t in range(1, 6):
        emp = float(res["proj"][:, t].var())
        rel = abs(emp - pred[t]) / pred[t]
        gaps.append(f"t={t}:{rel:.3%}")
        worst = max(worst, rel)
    return worst <= 0.05, f"max relative gap {worst:.3%} (allow 5%): " + " ".join(gaps)


def criterion_4(fast=False):
    """Distributional convergence rate across n for the projected mean."""
    n_list = [100, 400, 1600]
    R = 4 * 10 ** 4 if fast else 2 * 10 ** 5
    t = 3
    values = []
    for n in n_list:
        rule = spreading_rule(mean_field(n, rbar=0.5, mu=0.5))
        rep, _ = clt_point(rule, _half_start(n), np.ones(n), t, math.inf, R,
                           rng.derive_seed(MASTER_SEED, f"c4-{n}"),
                           rng.derive_seed(MASTER_SEED, f"c4ks{n}"), WORKERS)
        values.append(rep.value)
    summary = rate_summary(n_list, values)
    decreasing, slope = summary["strictly_decreasing"], summary["slope"]
    passed = decreasing and -0.75 <= slope <= -0.30
    detail = (f"KS distances {['%.4f' % v for v in values]}, slope {slope:.3f} "
              f"(window [-0.75, -0.30]), strictly decreasing: {decreasing}")
    return passed, detail


def criterion_5(fast=False):
    """Coupling bound dominance on the mean-field zoo (analytic coefficients)."""
    R = 2 * 10 ** 4 if fast else 10 ** 5
    T = 5
    zoo = []
    zoo.append(("spreading", spreading_rule(mean_field(500, rbar=0.5, mu=0.5))))
    zoo.append(("spreading-reinfection",
                spreading_rule(mean_field(500, rbar=0.5, mu=0.5, reinfection=True))))
    zoo.append(("patch-occupancy", hanski_rule(equidistributed(256))))
    zoo.append(("graph", model_from_descriptor(
        {"type": "graph", "v": 24, "q": 0.6, "attachment_scale": 0.5})[1]))

    details = []
    ok = True
    for label, rule in zoo:
        n = rule.n
        X0 = _half_start(n)
        traj = det_trajectory(rule, X0.astype(float), T)
        res = simulate_projections(rule, X0, T, R,
                                   rng.derive_seed(MASTER_SEED, f"c5-{label}"),
                                   h=np.ones(n), p_traj=traj.p, couple=True,
                                   workers=WORKERS)
        # |Xbar - pbar| = n^{-1/2} |<zeta, 1>|
        mean_err = float(np.abs(res["proj"][:, T]).mean()) / math.sqrt(n)
        jbar_mean = float(res["jbar"][:, T].mean())
        coeffs = coefficient_schedule(rule, T)
        func_bound = lqr_error_bound(mean_functional_norms(n), coeffs,
                                     q=1, r=1, t=T, n=n).value
        jb_bound = jbar_moment_bound(coeffs, q=1, t=T, n=n).value
        good = mean_err <= func_bound and jbar_mean <= jb_bound
        ok = ok and good
        details.append(f"{label}: E|Xbar-pbar| {mean_err:.2e}<={func_bound:.2e}"
                       f" & EJbar {jbar_mean:.3f}<={jb_bound:.3f}")
    return ok, "; ".join(details)


def criterion_6(fast=False):
    """Stationary covariance: solver agreement, convergence, degenerate zero."""
    g = np.random.default_rng(rng.derive_seed(MASTER_SEED, "c6"))
    worst_gap = 0.0
    worst_res = 0.0
    for _ in range(5 if fast else 20):
        n = int(g.integers(2, 41))
        G = g.standard_normal((n, n))
        J = 0.9 * G / max(np.abs(np.linalg.eigvals(G)))
        V = np.diag(g.random(n) + 0.01)
        direct = lyapunov_solve(J, V, method="direct")
        iterative = lyapunov_solve(J, V, method="iterative")
        worst_gap = max(worst_gap, float(np.abs(direct.Q - iterative.Q).max()))
        worst_res = max(worst_res, direct.residual, iterative.residual)

    # endemic equilibrium: the covariance recursion approaches the solution
    model = SpreadingModel(R_matrix=_positive_reactions(50, 0.6, 7), mu=0.3)
    rule = spreading_rule(model)
    eq = find_equilibrium(rule, np.full(50, 0.5))
    J_inf = rule_jacobian(rule, eq.p_inf)
    V_inf = np.diag(injected_variance(rule, eq.p_inf))
    Q = lyapunov_solve(J_inf, V_inf).Q
    approx = GaussianApprox.from_rule(rule, eq.p_inf, 200)
    drift = float(np.abs(approx.covariance(200) - Q).max())

    # extinct equilibrium: the origin is an exact binary fixed point (zero
    # colonization pressure), iteration is attracted to it, and the
    # stationary covariance there is exactly zero
    sub = SpreadingModel(R_matrix=_positive_reactions(20, 0.2, 8), mu=0.5)
    sub_rule = spreading_rule(sub)
    eq0 = find_equilibrium(sub_rule, np.full(20, 0.5))
    p_binary = np.zeros(20)
    fixed_point_residual = float(np.abs(
        spreading_rule(sub).evaluate(p_binary, 0)).max())
    attracted = eq0.converged and float(np.abs(eq0.p_inf).max()) <= 1e-9
    q0 = lyapunov_solve(rule_jacobian(sub_rule, p_binary),
                        np.diag(injected_variance(sub_rule, p_binary))).Q
    zero_norm = float(np.abs(q0).max())

    passed = (worst_gap <= 1e-8 and worst_res <= 1e-10 and drift <= 1e-6
              and fixed_point_residual == 0.0 and attracted
              and zero_norm == 0.0)
    detail = (f"direct-vs-iterative {worst_gap:.2e} (<=1e-8), residual "
              f"{worst_res:.2e} (<=1e-10), |Sigma_200 - Q| {drift:.2e} (<=1e-6), "
              f"binary-equilibrium Q {zero_norm:.2e} (exact zero), iterates "
              f"attracted: {attracted}")
    return passed, detail


def criterion_7(fast=False):
    """Epidemic threshold: subcritical extinction, supercritical equilibrium."""
    n, mu = 50, 0.5
    R_sub = _positive_reactions(n, 0.9 * mu, 11)
    rule = spreading_rule(SpreadingModel(R_matrix=R_sub, mu=mu))
    traj = det_trajectory(rule, np.ones(n), 500)
    tail = float(np.abs(traj.p[-1]).max())

    mu2 = 0.3
    R_sup = _positive_reactions(n, 2 * mu2, 12)
    rule2 = spreading_rule(SpreadingModel(R_matrix=R_sup, mu=mu2))
    eq = find_equilibrium(rule2, np.full(n, 0.5), tol=1e-13)
    g = np.random.default_rng(rng.derive_seed(MASTER_SEED, "c7"))
    spread = 0.0
    for _ in range(5):
        other = find_equilibrium(rule2, g.random(n) * 0.9 + 0.05, tol=1e-13)
        spread = max(spread, float(np.abs(other.p_inf - eq.p_inf).max()))
    passed = (tail < 1e-8 and eq.p_inf.min() > 0 and eq.residual < 1e-10
              and spread <= 1e-8)
    detail = (f"subcritical sup at t=500 {tail:.2e} (<1e-8); positive equilibrium "
              f"min {eq.p_inf.min():.4f}, residual {eq.residual:.2e} (<1e-10), "
              f"multi-start spread {spread:.2e} (<=1e-8)")
    return passed, detail


def criterion_8(fast=False):
    """Uniform concentration over a sign class on the large epidemic model."""
    n = 10 ** 4
    R = 2000 if fast else 10 ** 4
    t, k = 3, 10
    rule = spreading_rule(mean_field(n, rbar=0.5, mu=0.5))
    sups, _, _, rep, thresh = lln_point(rule, _half_start(n), sign_class(k, n), t, R,
                                        rng.derive_seed(MASTER_SEED, "c8"),
                                        rng.derive_seed(MASTER_SEED, "c8rad"), math.e ** 2,
                                        WORKERS)
    exceed = float((sups > thresh).mean())
    se = math.sqrt(max(rep.value * (1 - rep.value), 1e-12) / R)
    passed = exceed <= rep.value + 2 * se
    caveat = " [vacuous bound]" if any("vacuous" in c for c in rep.caveats) else ""
    detail = (f"exceedance {exceed:.4f} of threshold {thresh:.4f} vs bound "
              f"{rep.value:.4f}{caveat}; max sup {sups.max():.2e}")
    return passed, detail


def criterion_9(fast=False):
    """Dynamic-graph pipeline: cut norms, densities, variance calibration."""
    g = np.random.default_rng(rng.derive_seed(MASTER_SEED, "c9"))
    worst = 0.0
    for _ in range(20 if fast else 100):
        M = g.standard_normal((12, 12))
        M = 0.5 * (M + M.T)
        mine = gd.cut_norm_exact(M)
        # independent oracle: full bilinear enumeration over both subsets
        codes = np.arange(2 ** 12)
        U = ((codes[:, None] >> np.arange(12)[None, :]) & 1).astype(float)
        brute = np.abs(U @ M @ U.T).max() / 144.0
        worst = max(worst, abs(mine - brute))
    tri_exact = gd.triangle_density(np.ones((3, 3)) - np.eye(3))

    # complete hosts, linear attachment f(y) = 0.5 y
    graph = {"type": "graph", "q": 0.6, "attachment_scale": 0.5}

    # cut distance of the simulated graph to the limit kernel across sizes
    def cut_distance(v, reps):
        model, rule = model_from_descriptor({**graph, "v": v})
        ea, eb = model.host_edges[:, 0], model.host_edges[:, 1]
        x0 = model.host_adjacency()[ea, eb].astype(np.uint8)
        ens = simulate_ensemble(rule, x0, 3, reps,
                                rng.derive_seed(MASTER_SEED, f"c9v{v}"), workers=WORKERS)
        # the limit edge density: the kernel recursion on the one-cell complete kernel
        c = gd.graphon_trajectory(np.ones((1, 1)), np.ones((1, 1)), model.q, model.f, 3)[3]
        vals = []
        for r in range(reps):
            A = gd.edge_state_to_adjacency(model, ens.states[r, 3, :].astype(float))
            vals.append(gd.cut_norm_exact(A - c))
        return float(np.mean(vals))

    d8 = cut_distance(8, 12)
    d16 = cut_distance(16, 12)

    # desk-scale variance calibration at v = 64 on the complete host
    v = 64
    model, rule = model_from_descriptor({**graph, "v": v})
    A0 = model.host_adjacency()
    ea, eb = model.host_edges[:, 0], model.host_edges[:, 1]
    x0 = A0[ea, eb].astype(np.uint8)
    t = 3
    R = 2000 if fast else 10 ** 4
    det_tri, pred = gd.triangle_clt(model, A0, t)
    ens = simulate_ensemble(rule, x0, t, R, rng.derive_seed(MASTER_SEED, "c9desk"),
                            workers=WORKERS)
    stats = np.empty(R)
    for lo in range(0, R, 1000):
        block = ens.states[lo:lo + 1000, t, :].astype(float)
        As = gd.edge_state_to_adjacency(model, block)
        # sum_ijk A_ij A_jk A_ik; every partial sum is an integer, so exact
        tri = ((As @ As) * As).sum(axis=(1, 2)) / v ** 3
        stats[lo:lo + 1000] = tri
    emp_var = float((model.v * (stats - det_tri) / math.sqrt(model.n_edges)).var())
    rel = abs(emp_var - pred) / pred

    passed = (worst <= 1e-12 and abs(tri_exact - 2.0 / 9.0) <= 1e-15
              and d16 < d8 and rel <= 0.15)
    detail = (f"cut-norm max gap to enumeration {worst:.2e}; K3 density "
              f"{tri_exact:.12f}; cut distance {d8:.3f} -> {d16:.3f}; triangle "
              f"variance rel gap {rel:.2%} (allow 15%)")
    return passed, detail


def criterion_10(fast=False):
    """Patch-occupancy law of large numbers across system sizes."""
    funcs = [lambda z: np.ones_like(z),
             lambda z: np.sin(2 * np.pi * z) + 1.2,
             lambda z: np.exp(-z)]
    n_list = [200, 800, 3200]
    reps = 40 if fast else 160
    T = 3
    # the limiting recursion depends only on the model functions, not on n
    lim = hanski_limit(equidistributed(n_list[0]),
                       lambda z: np.full_like(z, 0.5), T, G=2048)
    errs = {(ti, fi): [] for ti in (1, 3) for fi in range(3)}
    for n in n_list:
        model = equidistributed(n)
        rule = hanski_rule(model)
        X0 = (np.arange(n) % 2).astype(np.uint8)
        traj = det_trajectory(rule, X0.astype(float), T)
        for fi, h_fn in enumerate(funcs):
            h = h_fn(model.z)
            res = simulate_projections(rule, X0, T, reps,
                                       rng.derive_seed(MASTER_SEED, f"c10-{n}-{fi}"),
                                       h=h, p_traj=traj.p, workers=WORKERS)
            for ti in (1, 3):
                target = lim.measure_integral(h_fn, ti)
                mu_vals = (res["proj"][:, ti] / math.sqrt(n)
                           + h @ traj.p[ti] / n)
                errs[(ti, fi)].append(float(np.abs(mu_vals - target).mean()))
    ok = True
    details = []
    for key, seq in errs.items():
        mono = all(a > b for a, b in zip(seq, seq[1:]))
        halved = seq[-1] < 0.5 * seq[0]
        ok = ok and mono and halved
        details.append(f"t={key[0]},h{key[1]}: " +
                       "->".join(f"{e:.4f}" for e in seq))
    return ok, "; ".join(details)


def criterion_11(fast=False):
    """Byte-level determinism of experiment artifacts at any worker count."""
    import tempfile
    from pathlib import Path
    from .cli import run_config

    configs = [
        {"model": {"type": "spreading", "n": 40, "rbar": 0.5, "mu": 0.5},
         "task": "simulate",
         "parameters": {"T": 4, "R": 5000, "seed": 77, "x0": "half",
                        "couple": True}},
        {"model": {"type": "spreading", "rbar": 0.5, "mu": 0.5, "n": 0},
         "task": "clt-sweep",
         "parameters": {"n_list": [32, 64], "t": 2, "q": "inf",
                        "R": 1000 if fast else 4000, "seed": 78}},
        {"model": {"type": "domany_kinzel", "n": 24, "q1": 0.4, "q2": 0.7},
         "task": "simulate", "parameters": {"T": 5, "R": 4000, "seed": 79}},
    ]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        identical = True
        for i, cfg in enumerate(configs):
            f1 = run_config(cfg, tmp / f"a{i}", workers=1)
            f2 = run_config(cfg, tmp / f"b{i}", workers=4)
            for a, b in zip(f1, f2):
                if Path(a).read_bytes() != Path(b).read_bytes():
                    identical = False
    return identical, f"{len(configs)} configs re-run at workers 1 vs 4"


CRITERIA = [
    (1, "exact-oracle equivalence", criterion_1),
    (2, "torus-automaton closed form", criterion_2),
    (3, "variance recursion", criterion_3),
    (4, "distributional convergence rate", criterion_4),
    (5, "coupling bound dominance", criterion_5),
    (6, "stationary covariance", criterion_6),
    (7, "epidemic threshold", criterion_7),
    (8, "uniform concentration", criterion_8),
    (9, "dynamic-graph pipeline", criterion_9),
    (10, "patch-occupancy law of large numbers", criterion_10),
    (11, "artifact determinism", criterion_11),
]


def run_criterion(ident, fast=False):
    for cid, name, fn in CRITERIA:
        if cid == ident:
            start = time.time()
            passed, detail = fn(fast=fast)
            return CriterionResult(ident=cid, name=name, passed=passed,
                                   detail=detail, seconds=time.time() - start)
    raise KeyError(f"no criterion {ident}")


def run_all(fast=False, echo=True):
    results = []
    for cid, _, _ in CRITERIA:
        res = run_criterion(cid, fast=fast)
        results.append(res)
        if echo:
            print(res.line() + f" [{res.seconds:.1f}s]", flush=True)
    if echo:
        n_pass = sum(r.passed for r in results)
        print(f"{n_pass}/{len(results)} criteria passed", flush=True)
    return results
