"""Batch experiment driver.

``occlab run --config exp.json [--out DIR] [--seed N] [--workers N]``
validates the config against a strict schema, dispatches to the library,
and writes CSV/JSON artifacts plus a manifest with the resolved config,
config hash and per-file checksums.  Outputs are deterministic given
(config, seed) at any worker count.  ``occlab verify`` runs the full
acceptance suite and prints one pass/fail line per criterion.
"""

import argparse
import hashlib
import json
import os
import sys
import time
from pathlib import Path

import numpy as np
import jsonschema

from . import __version__
from .acceptance import run_all
from .analysis import SWEEP_HEADER, clt_sweep, lln_sweep, rows_to_csv, sign_class
from .bounds import (clt_rate_bound, jbar_moment_bound, lqr_error_bound,
                     mean_functional_norms)
from .deterministic import (det_trajectory, find_equilibrium, smith_check,
                            trajectory_to_csv)
from .errors import OcclabError, SchemaError
from .gaussian import GaussianApprox, variance_to_csv
from .models import graphdyn as gd
from .models import hanski_limit
from .models.descriptors import model_from_descriptor
from .rules import coefficient_schedule
from .simulate import ensemble_to_csv, simulate_ensemble, summary_to_csv


def _canonical(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _write_rows(path, rows, header=None):
    rows_to_csv(rows, path, header=header)
    return path


def _x0(spec, n):
    if spec is None or spec == "zeros":
        return np.zeros(n, dtype=np.uint8)
    if spec == "ones":
        return np.ones(n, dtype=np.uint8)
    if spec == "half":
        x = np.zeros(n, dtype=np.uint8)
        x[: n // 2] = 1
        return x
    x = np.asarray(spec, dtype=np.uint8)
    if x.shape != (n,):
        raise SchemaError(f"x0 must have length {n}")
    return x


def _h(spec, n):
    if spec is None or spec == "ones":
        return np.ones(n)
    h = np.asarray(spec, dtype=np.float64)
    if h.shape != (n,):
        raise SchemaError(f"h must have length {n}")
    return h


def _q(spec):
    return float("inf") if spec in ("inf", "infinity") else float(spec)


def _p0(params, n):
    p0 = params.get("p0", 0.5)
    return np.full(n, float(p0)) if np.isscalar(p0) else np.asarray(p0)


def _family(config, params):
    """``n -> (rule, X0)`` for the sweeps: the model descriptor at size n."""
    def family(n):
        _, rule = model_from_descriptor({**config["model"], "n": n})
        return rule, _x0(params.get("x0", "half"), n)
    return family


def _simulate(config, params, seed, workers, out):
    _, rule = model_from_descriptor(config["model"])
    T = int(params.get("T", 10))
    R = int(params.get("R", 100))
    X0 = _x0(params.get("x0"), rule.n)
    couple = bool(params.get("couple", False))
    p_traj = det_trajectory(rule, X0.astype(float), T).p if couple else None
    ens = simulate_ensemble(rule, X0, T, R, seed, couple=couple,
                            p_traj=p_traj, workers=workers)
    files = [out / "summary.csv"]
    summary_to_csv(ens, files[0])
    if params.get("full_states"):
        files.append(out / "states.csv")
        ensemble_to_csv(ens, files[1])
    return files


def _deterministic(config, params, seed, workers, out):
    _, rule = model_from_descriptor(config["model"])
    traj = det_trajectory(rule, _p0(params, rule.n), int(params.get("T", 10)))
    path = out / "trajectory.csv"
    trajectory_to_csv(traj, path)
    return [path]


def _equilibrium(config, params, seed, workers, out):
    _, rule = model_from_descriptor(config["model"])
    if not rule.homogeneous:
        raise SchemaError("task 'equilibrium' needs a time-homogeneous model")
    eq = find_equilibrium(rule, _p0(params, rule.n), tol=float(params.get("tol", 1e-12)),
                          max_iter=int(params.get("max_iter", 10 ** 6)))
    screen = smith_check(rule, sample_budget=64, seed=seed)
    return [_write_json(out / "equilibrium.json", {
        "converged": eq.converged, "iterations": eq.iterations,
        "residual": eq.residual, "p_inf": [f"{v:.17g}" for v in eq.p_inf],
        "monotone_screen": {
            "positivity": screen.positivity,
            "jacobian_monotonicity": screen.jacobian_monotonicity,
            "not_all_absorbing": screen.not_all_absorbing,
            "spectral_radius_origin": screen.spectral_radius_origin,
        }})]


def _gaussian(config, params, seed, workers, out):
    _, rule = model_from_descriptor(config["model"])
    h = _h(params.get("h"), rule.n)
    approx = GaussianApprox.from_rule(rule, _p0(params, rule.n), int(params.get("T", 10)))
    path = out / "projected_variance.csv"
    variance_to_csv(approx, h, path)
    return [path]


def _report(rep):
    return {"value": rep.value, "formula": rep.formula_id,
            "inputs": rep.inputs, "caveats": rep.caveats}


def _bounds(config, params, seed, workers, out):
    _, rule = model_from_descriptor(config["model"])
    n = rule.n
    t = int(params.get("t", 5))
    q = _q(params.get("q", 1))
    r = float(params.get("r", 1))
    h = _h(params.get("h"), n)
    coeffs = coefficient_schedule(rule, t)
    approx = GaussianApprox.from_rule(rule, _p0(params, n), t)
    payload = {
        "discrepancy_moment": _report(jbar_moment_bound(coeffs, q, t, n)),
        "mean_functional_error": _report(lqr_error_bound(
            mean_functional_norms(n), coeffs, q, r, t, n)),
    }
    try:
        payload["projection_rate"] = _report(clt_rate_bound(coeffs, h, q, approx, t))
    except OcclabError as exc:
        payload["projection_rate"] = {"error": str(exc)}
    return [_write_json(out / "bounds.json", payload)]


def _clt_sweep(config, params, seed, workers, out):
    rows, summary = clt_sweep(_family(config, params), lambda n: np.ones(n),
                              int(params.get("t", 3)), _q(params.get("q", "inf")),
                              params.get("n_list", [100, 400]),
                              int(params.get("R", 20000)), seed,
                              model_id=config["model"].get("type", "model"))
    return [_write_rows(out / "clt_sweep.csv", rows, header=SWEEP_HEADER),
            _write_json(out / "clt_summary.json", summary)]


def _lln_sweep(config, params, seed, workers, out):
    k = int(params.get("class_coords", 10))
    rows = lln_sweep(_family(config, params), lambda n: sign_class(min(k, n), n),
                     int(params.get("t", 3)), params.get("n_list", [100, 400]),
                     int(params.get("R", 2000)), seed,
                     x=float(params.get("x", float(np.e) ** 2)),
                     model_id=config["model"].get("type", "model"))
    return [_write_rows(out / "lln_sweep.csv", rows)]


def _graphon(config, params, seed, workers, out):
    T = int(params.get("T", 3))
    rows = []
    for v in params.get("v_list", [8, 16]):
        gmodel, _ = model_from_descriptor({**config["model"], "v": v})
        A0 = gmodel.host_adjacency()
        P_seq = gd.deterministic_edge_matrices(gmodel, A0, T)
        rows.append({"v": v, "edges": gmodel.n_edges,
                     "triangle_density_T": gd.triangle_density(P_seq[T]),
                     "clt_variance_T": gd.triangle_clt_variance(gmodel, A0, T)})
    return [_write_rows(out / "graphon.csv", rows)]


def _hanski_limit(config, params, seed, workers, out):
    T = int(params.get("T", 5))
    rho0 = float(params.get("rho0", 0.5))
    model, _ = model_from_descriptor(config["model"])
    limit = hanski_limit(model, lambda z: np.full_like(z, rho0), T,
                         G=int(params.get("grid", 512)))
    rows = [{"t": t, "mean_density": float((limit.weights * limit.rho[t]).sum()),
             "mean_variance_density": float((limit.weights * limit.variance[t]).sum())}
            for t in range(T + 1)]
    return [_write_rows(out / "hanski_limit.csv", rows)]


#: task name -> function(config, params, seed, workers, out) returning the
#: paths it wrote
TASKS = {
    "simulate": _simulate,
    "deterministic": _deterministic,
    "gaussian": _gaussian,
    "bounds": _bounds,
    "clt-sweep": _clt_sweep,
    "lln-sweep": _lln_sweep,
    "equilibrium": _equilibrium,
    "graphon": _graphon,
    "hanski-limit": _hanski_limit,
}

CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["model", "task"],
    "properties": {
        "model": {"type": "object"},
        "task": {"enum": list(TASKS)},
        "output_dir": {"type": "string"},
        "parameters": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "T": {"type": "integer", "minimum": 0},
                "R": {"type": "integer", "minimum": 1},
                "seed": {"type": "integer"},
                "t": {"type": "integer", "minimum": 0},
                "q": {"anyOf": [{"type": "number"}, {"enum": ["inf", "infinity"]}]},
                "r": {"type": "number"},
                "x": {"type": "number"},
                "x0": {"anyOf": [{"enum": ["zeros", "ones", "half"]},
                                 {"type": "array", "items": {"enum": [0, 1]}}]},
                "p0": {"type": ["number", "array"], "items": {"type": "number"}},
                "h": {"anyOf": [{"enum": ["ones"]},
                                {"type": "array", "items": {"type": "number"}}]},
                "n_list": {"type": "array", "items": {"type": "integer"}},
                "grid": {"type": "integer", "minimum": 2},
                "rho0": {"type": "number"},
                "couple": {"type": "boolean"},
                "full_states": {"type": "boolean"},
                "tol": {"type": "number"},
                "max_iter": {"type": "integer"},
                "class_coords": {"type": "integer", "minimum": 1},
                "v_list": {"type": "array", "items": {"type": "integer"}},
            },
        },
    },
}


def run_config(config, out_dir, seed_override=None, workers=1):
    """Execute one experiment; returns the list of files written."""
    try:
        jsonschema.validate(config, CONFIG_SCHEMA)
    except jsonschema.ValidationError as exc:
        raise SchemaError(f"config invalid at /{'/'.join(map(str, exc.path))}: "
                          f"{exc.message}") from exc

    params = dict(config.get("parameters", {}))
    if seed_override is not None:
        params["seed"] = seed_override
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return TASKS[config["task"]](config, params, int(params.get("seed", 0)),
                                 workers, out)


def _manifest(config, files, out, elapsed, workers):
    return {
        "config": config,
        "config_sha256": hashlib.sha256(_canonical(config).encode()).hexdigest(),
        "version": __version__,
        "workers": workers,
        "wall_time_s": elapsed,
        "files": {f.name: _sha256_file(f) for f in files},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(prog="occlab",
                                     description="occupancy-process laboratory")
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="execute an experiment config")
    runp.add_argument("--config", required=True)
    runp.add_argument("--out", default=None)
    runp.add_argument("--seed", type=int, default=None)
    runp.add_argument("--workers", type=int, default=os.cpu_count() or 1,
                      help="worker threads (results are identical at any count)")
    verp = sub.add_parser("verify", help="run the acceptance suite")
    verp.add_argument("--fast", action="store_true",
                      help="reduced replicate counts (smoke check only)")
    args = parser.parse_args(argv)

    if args.command == "verify":
        results = run_all(fast=args.fast)
        return 0 if all(r.passed for r in results) else 1

    try:
        with open(args.config) as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    out_dir = args.out or config.get("output_dir", "occlab-out")
    started = time.time()
    try:
        files = run_config(config, out_dir, seed_override=args.seed,
                           workers=args.workers)
    except SchemaError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OcclabError as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return 3
    manifest = _manifest(config, files, out_dir, time.time() - started,
                         args.workers)
    _write_json(Path(out_dir) / "manifest.json", manifest)
    for f in files:
        print(f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
