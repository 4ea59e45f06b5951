"""The benchmark's three workloads: inputs, operations and output checks.

Each workload builds its inputs from the workload seed in ``setup`` and
returns a fixed list of operations ("ops").  An op calls into occlab
through module attributes, so the traced run sees the wrapped names; its
check compares the output with a reference that does not reuse the code
under test, and its digest is the SHA-256 of the output bytes.

Sizes were chosen so that one round of each workload takes a few seconds
on a 2-core machine with one BLAS thread.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import scipy.linalg

import occlab.cli as cli
import occlab.deterministic as deterministic
import occlab.gaussian as gaussian
import occlab.models as models
import occlab.rules as rules
import occlab.simulate as simulate
from occlab import bounds


class CheckFailed(Exception):
    """An op's output disagrees with its reference."""


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


@dataclass
class Op:
    name: str
    run: Callable          # run(rules) -> output; rules is the plain or traced rule map
    check: Callable        # check(output) raises CheckFailed on a wrong output
    digest: Callable       # digest(output) -> SHA-256 hex of the output
    node_updates: int = 0  # sum of R * T * n over the op's simulate calls


def sha256_arrays(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str((a.dtype.str, a.shape)).encode())
        h.update(a.data)
    return h.hexdigest()


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def seed_int(g):
    """A 62-bit simulation seed drawn from the input generator."""
    return int(g.integers(0, 2 ** 62))


def det_path(rule, p0, T):
    """p_{t+1} = P_t(p_t) from the rule's own evaluate, clamped to [0, 1]."""
    p = np.empty((T + 1, rule.n))
    p[0] = p0
    for t in range(T):
        p[t + 1] = np.clip(rule.evaluate(p[t], t), 0.0, 1.0)
    return p


def marginals(law, n):
    """Per-node occupancy probabilities of a law over {0,1}^n (bit i = node i)."""
    bits = (np.arange(2 ** n)[:, None] >> np.arange(n)[None, :]) & 1
    return law @ bits


def random_reactions(g, n, rbar):
    """Non-uniform reaction matrix with mean rbar / n off the diagonal."""
    R = g.uniform(0.0, 2.0 * rbar / n, (n, n))
    np.fill_diagonal(R, 0.0)
    return R


class Workload:
    """Base: ``setup`` builds ``rules`` (the rules the ops take, by name) and ``ops``."""

    name = ""

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = Path(workdir)
        self.rules = {}
        self.ops = []

    def close(self):
        pass


# ---------------------------------------------------------------------------
# chain: single-threaded Monte Carlo on full RNG blocks
# ---------------------------------------------------------------------------

class Chain(Workload):
    """Five simulate calls with R = one RNG block and T = 4, workers = 1."""

    name = "chain"
    R = 4096
    T = 4
    n = 800
    n_torus = 2048
    #: a sample variance may miss the Gaussian companion by this many
    #: standard errors of the sample variance
    Z_VARIANCE = 6.0
    #: the torus mean gap may miss the exact closed form by this many
    #: standard errors of the sample mean
    Z_MEAN = 6.0

    def setup(self):
        g = np.random.default_rng([self.seed, 1])
        n, T, R = self.n, self.T, self.R
        mf = models.mean_field(n, g.uniform(1.2, 2.0), g.uniform(0.3, 0.6))
        nu = models.SpreadingModel(R_matrix=random_reactions(g, n, g.uniform(1.2, 2.0)),
                                   mu=g.uniform(0.3, 0.6))
        hk = models.equidistributed(n, kernel_scale=g.uniform(0.15, 0.35))
        q2 = g.uniform(0.5, 0.9)
        dk = models.DomanyKinzel(n=self.n_torus, q1=q2 * g.uniform(0.3, 0.7), q2=q2,
                                 p0=g.uniform(0.3, 0.7))
        self.rules = {"mean_field": models.spreading_rule(mf),
                      "nonuniform": models.spreading_rule(nu),
                      "hanski": models.hanski_rule(hk),
                      "torus": models.dk_rule(dk, iid_start=True)}
        X0 = (g.random(n) < 0.5).astype(np.uint8)
        h = g.uniform(0.5, 1.5, n)
        sim_seed = seed_int(g)

        # references: deterministic path, Gaussian projected variance and,
        # for coupled runs, the discrepancy moment bound
        ref = {}
        for key in ("mean_field", "nonuniform", "hanski"):
            rule = self.rules[key]
            approx = gaussian.GaussianApprox.from_rule(rule, X0.astype(np.float64), T)
            bound = bounds.jbar_moment_bound(rules.coefficient_schedule(rule, T), 1, T, n)
            ref[key] = (approx.base.p, approx.projected_variance(h, T), bound.value)
        torus_p = det_path(self.rules["torus"], np.zeros(self.n_torus), T)
        torus_t = models.dk_device_time(2)
        torus_mean = models.dk_exact_mean_zeta2(dk)

        def projections(key, couple):
            p_traj = ref[key][0]

            def run(rules_):
                return simulate.simulate_projections(
                    rules_[key], X0, T, R, sim_seed, h=h, p_traj=p_traj,
                    workers=1, couple=couple)

            def check(out):
                x = out["proj"][:, T]
                var = x.var(ddof=1)
                se = math.sqrt(max(((x - x.mean()) ** 4).mean() - var ** 2, 0.0) / R)
                require(abs(var - ref[key][1]) <= self.Z_VARIANCE * se,
                        f"{key}: projection variance {var:.6g} vs Gaussian "
                        f"{ref[key][1]:.6g} (se {se:.3g})")
                if couple:
                    jbar = float(out["jbar"][:, T].mean())
                    require(jbar <= ref[key][2],
                            f"{key}: mean discrepancy {jbar:.6g} above bound {ref[key][2]:.6g}")

            def digest(out):
                return sha256_arrays(*(out[k] for k in sorted(out)))

            label = f"{key}_{'coupled' if couple else 'plain'}"
            return Op(label, run, check, digest, R * T * n)

        def torus_run(rules_):
            return simulate.simulate_ensemble(rules_["torus"], np.zeros(self.n_torus, np.uint8),
                                              T, R, sim_seed, workers=1)

        def torus_check(ens):
            z = (ens.states[:, torus_t, :] - torus_p[torus_t]).sum(axis=1) / math.sqrt(self.n_torus)
            se = z.std(ddof=1) / math.sqrt(R)
            require(abs(z.mean() - torus_mean) <= self.Z_MEAN * se,
                    f"torus: mean gap {z.mean():.6g} vs closed form {torus_mean:.6g} (se {se:.3g})")

        self.ops = [projections("mean_field", False),
                    projections("mean_field", True),
                    projections("nonuniform", False),
                    projections("hanski", True),
                    Op("torus_ensemble", torus_run, torus_check,
                       lambda ens: sha256_arrays(ens.states), R * T * self.n_torus)]


# ---------------------------------------------------------------------------
# oracle: closed forms and the exact law, no Monte Carlo
# ---------------------------------------------------------------------------

class Oracle(Workload):
    """Exact laws, a coefficient oracle, the Gaussian recursion and two solvers."""

    name = "oracle"
    n_torus = 12
    n_product = 11
    n_coeff = 3000
    n_gauss = 400
    T_gauss = 20

    def setup(self):
        g = np.random.default_rng([self.seed, 2])
        q2 = g.uniform(0.5, 0.9)
        dk = models.DomanyKinzel(n=self.n_torus, q1=q2 * g.uniform(0.3, 0.7), q2=q2,
                                 p0=g.uniform(0.3, 0.7))
        rbar_c = g.uniform(1.2, 2.0)
        nu = models.SpreadingModel(
            R_matrix=random_reactions(g, self.n_gauss, g.uniform(1.5, 2.5)),
            mu=g.uniform(0.3, 0.6), reinfection=True)
        self.rules = {
            "torus": models.dk_rule(dk, iid_start=True),
            "product": models.random_product_rule(self.n_product, int(g.integers(0, 2 ** 31))),
            "mean_field": models.spreading_rule(models.mean_field(self.n_coeff, rbar_c, 0.5)),
            "nonuniform": models.spreading_rule(nu),
        }
        ops = []

        # exact law of the torus automaton: mean gap against the closed form
        T_torus = models.dk_device_time(2)
        torus_p = det_path(self.rules["torus"], np.zeros(self.n_torus), T_torus)
        torus_mean = models.dk_exact_mean_zeta2(dk)

        def torus_check(law):
            gap = float((marginals(law[T_torus], self.n_torus) - torus_p[T_torus]).sum()
                        / math.sqrt(self.n_torus))
            require(abs(gap - torus_mean) <= 1e-10,
                    f"torus law: mean gap {gap!r} vs closed form {torus_mean!r}")

        ops.append(Op("torus_exact_law",
                      lambda r: simulate.exact_law(r["torus"], np.zeros(self.n_torus, np.uint8),
                                                   T_torus),
                      torus_check, sha256_arrays))

        # exact law of a random product rule: step-1 marginals are P(X0)
        X0 = (g.random(self.n_product) < 0.5).astype(np.uint8)
        step1 = np.clip(self.rules["product"].evaluate(X0.astype(np.float64), 0), 0.0, 1.0)

        def product_check(law):
            gap = float(np.abs(marginals(law[1], self.n_product) - step1).max())
            require(gap <= 1e-12, f"product law: step-1 marginals off by {gap:.3g}")

        ops.append(Op("product_exact_law",
                      lambda r: simulate.exact_law(r["product"], X0, 4),
                      product_check, sha256_arrays))

        # spreading coefficient oracle against the mean-field closed form
        n, r = self.n_coeff, rbar_c / self.n_coeff
        closed = {"alpha": (n - 1) * r, "beta": r * math.sqrt(n - 1),
                  "big_gamma": 2 * r + (n - 2) * r * r, "gamma": 0.0, "delta": 0.0}

        def coeff_check(sched):
            cs = sched[0]
            for key, want in closed.items():
                got = getattr(cs, key)
                require(abs(got - want) <= 1e-12 * max(1.0, abs(want)),
                        f"mean-field {key}: {got!r} vs closed form {want!r}")

        ops.append(Op("meanfield_coefficients",
                      lambda r: rules.coefficient_schedule(r["mean_field"], 0),
                      coeff_check,
                      lambda s: hashlib.sha256(repr(s[0]).encode()).hexdigest()))

        # Gaussian companion covariances against a direct recursion written
        # from the model's own evaluate, split and Jacobian
        rule = self.rules["nonuniform"]
        T = self.T_gauss
        p0 = g.uniform(0.05, 0.5, self.n_gauss)
        p = det_path(rule, p0, T)
        surv, col = rule.split
        sigma = np.zeros((self.n_gauss, self.n_gauss))
        for t in range(T):
            J = rule.jacobian(p[t], t)
            s, c = surv(p[t], t), col(p[t], t)
            v = p[t] * s * (1 - s) + (1 - p[t]) * c * (1 - c)
            sigma = J @ sigma @ J.T + np.diag(v)
        sigma_scale = float(np.abs(sigma).max())

        def gauss_run(rules_):
            approx = gaussian.GaussianApprox.from_rule(rules_["nonuniform"], p0, T)
            return approx.covariances()

        def gauss_check(sig):
            gap = float(np.abs(sig[T] - sigma).max())
            require(gap <= 1e-10 * sigma_scale,
                    f"Gaussian covariance off by {gap:.3g} (scale {sigma_scale:.3g})")

        ops.append(Op("gaussian_covariances", gauss_run, gauss_check, sha256_arrays))

        # Lyapunov solvers against scipy's Bartels-Stewart solution
        def lyapunov(label, size, method):
            A = g.standard_normal((size, size))
            J = A * (g.uniform(0.7, 0.9) / np.abs(np.linalg.eigvals(A)).max())
            V = np.diag(g.uniform(0.1, 0.25, size))
            Q_ref = scipy.linalg.solve_discrete_lyapunov(J, V)

            def check(res):
                resid = float(np.abs(res.Q - J @ res.Q @ J.T - V).max())
                require(resid <= 1e-10, f"{label}: residual {resid:.3g}")
                gap = float(np.abs(res.Q - Q_ref).max())
                require(gap <= 1e-8, f"{label}: {gap:.3g} from the scipy solution")

            return Op(label, lambda r: gaussian.lyapunov_solve(J, V, method=method),
                      check, lambda res: sha256_arrays(res.Q))

        ops.append(lyapunov("lyapunov_direct", 40, "direct"))
        ops.append(lyapunov("lyapunov_iterative", 64, "iterative"))

        # fixed point of the reinfecting non-uniform spreading rule
        def eq_check(res):
            resid = float(np.abs(np.clip(rule.evaluate(res.p_inf, 0), 0, 1) - res.p_inf).max())
            require(res.converged and resid <= 1e-10,
                    f"equilibrium: converged={res.converged}, residual {resid:.3g}")

        ops.append(Op("equilibrium",
                      lambda r: deterministic.find_equilibrium(
                          r["nonuniform"], np.full(self.n_gauss, 0.5)),
                      eq_check, lambda res: sha256_arrays(res.p_inf)))
        self.ops = ops


# ---------------------------------------------------------------------------
# cli-sweeps: one in-process `occlab run` per task
# ---------------------------------------------------------------------------

class CliSweeps(Workload):
    """One config per CLI task, run in process with --workers 2."""

    name = "cli-sweeps"

    def setup(self):
        g = np.random.default_rng([self.seed, 3])
        seed = seed_int(g)
        workers = str(min(2, os.cpu_count() or 1))

        def spreading(n, **extra):
            return {"type": "spreading", "n": n, "rbar": round(g.uniform(1.2, 2.0), 6),
                    "mu": round(g.uniform(0.3, 0.6), 6), **extra}

        def hanski(n):
            return {"type": "hanski", "n": n, "kernel_scale": round(g.uniform(0.15, 0.35), 6)}

        x0 = [int(b) for b in g.random(40) < 0.5]
        configs = [
            ("simulate", {"model": spreading(40), "task": "simulate",
                          "parameters": {"T": 4, "R": 2000, "x0": x0, "couple": True,
                                         "full_states": True}},
             2000 * 4 * 40),
            ("clt-sweep", {"model": spreading(200), "task": "clt-sweep",
                           "parameters": {"n_list": [200, 800, 3200], "R": 2000, "t": 3}},
             2000 * 3 * (200 + 800 + 3200)),
            ("lln-sweep", {"model": hanski(100), "task": "lln-sweep",
                           "parameters": {"n_list": [100, 400], "R": 1000, "t": 3,
                                          "class_coords": 8}},
             1000 * 3 * (100 + 400)),
            ("deterministic", {"model": hanski(1000), "task": "deterministic",
                               "parameters": {"T": 40, "p0": 0.3}}, 0),
            ("gaussian", {"model": hanski(600), "task": "gaussian",
                          "parameters": {"T": 20, "p0": 0.3}}, 0),
            ("bounds", {"model": spreading(1000), "task": "bounds",
                        "parameters": {"t": 5, "q": 2, "r": 1, "p0": 0.3}}, 0),
            ("equilibrium", {"model": spreading(300, reinfection=True), "task": "equilibrium",
                             "parameters": {"p0": 0.5}}, 0),
            ("graphon", {"model": {"type": "graph", "v": 8, "q": round(g.uniform(0.2, 0.5), 6),
                                   "attachment": "linear", "attachment_scale": 0.5},
                         "task": "graphon", "parameters": {"v_list": [16, 32, 64], "T": 3}}, 0),
            ("hanski-limit", {"model": hanski(50), "task": "hanski-limit",
                              "parameters": {"grid": 2048, "T": 20, "rho0": 0.5}}, 0),
        ]
        self.workdir.mkdir(parents=True, exist_ok=True)
        ops = []
        for task, config, updates in configs:
            models.model_from_descriptor(config["model"])   # rejects a bad descriptor early
            path = self.workdir / f"{task}.json"
            path.write_text(json.dumps(config))
            out = self.workdir / task
            argv = ["run", "--config", str(path), "--out", str(out), "--seed", str(seed),
                    "--workers", workers]
            ops.append(Op(task, self._runner(argv, out), self._check, self._digest, updates))
        self.ops = ops

    @staticmethod
    def _runner(argv, out):
        def run(rules_):
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            return code, out
        return run

    @staticmethod
    def _check(result):
        code, out = result
        require(code == 0, f"{out.name}: exit code {code}")
        manifest = json.loads((out / "manifest.json").read_text())
        on_disk = {p.name: sha256_file(p) for p in out.iterdir() if p.name != "manifest.json"}
        require(manifest["files"] == on_disk,
                f"{out.name}: manifest checksums differ from the files on disk")

    @staticmethod
    def _digest(result):
        code, out = result
        files = json.loads((out / "manifest.json").read_text())["files"]
        return hashlib.sha256(json.dumps(files, sort_keys=True).encode()).hexdigest()

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (Chain, Oracle, CliSweeps)}
