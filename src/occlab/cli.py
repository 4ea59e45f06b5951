"""Batch experiment driver.

``occlab run --config exp.json [--out DIR] [--seed N] [--workers N]``
validates the config against a strict schema, dispatches to the library,
and writes the CSV/JSON artifacts its tasks return (their formats live
only here) plus a manifest with the resolved config, config hash and
per-file checksums.  Outputs are deterministic given (config, seed) at any
worker count.  ``occlab verify`` runs the full acceptance suite and prints
one pass/fail line per criterion.
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
from .analysis import clt_sweep, lln_sweep, sign_class
from .bounds import (clt_rate_bound, jbar_moment_bound, lqr_error_bound,
                     mean_functional_norms)
from .deterministic import det_trajectory, find_equilibrium, smith_check
from .errors import OcclabError, SchemaError
from .gaussian import GaussianApprox
from .models import graphdyn as gd
from .models import hanski_limit
from .models.descriptors import model_from_descriptor
from .rules import coefficient_schedule, require_bytes
from .simulate import simulate_counts

#: rows formatted per write; bounds the text held in memory for big tables
_CSV_ROWS = 1 << 12


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


def _cells(col):
    """A non-empty CSV column, flattened, as cell strings: ``%.17g`` for
    floats, ``str`` for ints and text (so ``""`` is an empty cell)."""
    col = np.asarray(col).reshape(-1)
    if col.dtype.kind == "f":
        return np.array(["%.17g" % v for v in col.tolist()])
    if col.dtype.kind in "iu":
        lo, hi = int(col.min()), int(col.max())
        if hi - lo < col.size:   # gather from a table of the values' strings
            return np.array([str(k) for k in range(lo, hi + 1)])[col - lo]
    return col.astype(str)


def _write_csv(path, header, columns):
    """Write same-shape columns under ``header``, one row per entry in C
    order, about ``_CSV_ROWS`` rows per write.  Text cells are written
    unquoted, so they must hold no comma, quote or line break."""
    step = max(1, _CSV_ROWS * len(columns[0]) // np.size(columns[0]))
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for lo in range(0, len(columns[0]), step):
            line = _cells(columns[0][lo:lo + step])
            for col in columns[1:]:
                line = np.char.add(np.char.add(line, ","), _cells(col[lo:lo + step]))
            fh.write("\r\n".join(line.tolist()) + "\r\n")
    return path


def _table(rows):
    """A list of dicts with the same keys as a ``(header, columns)`` table."""
    return list(rows[0]), [[row[key] for row in rows] for key in rows[0]]


def _long_table(header, values):
    """An array as one row per entry: its indices, then its value (the index
    columns are broadcast views, so they take no memory)."""
    return header, np.broadcast_arrays(*np.ogrid[tuple(map(slice, values.shape))], values)


def _vector(params, name, default, n, dtype):
    """Parameter ``name`` as a length-n vector: a list, one number for every
    coordinate, or "zeros", "ones" or "half" (the first n // 2 coordinates one)."""
    spec = params.get(name, default)
    if isinstance(spec, str):
        spec = np.arange(n) < {"zeros": 0, "ones": n, "half": n // 2}[spec]
    elif np.isscalar(spec):
        return np.full(n, spec, dtype=dtype)
    v = np.asarray(spec, dtype=dtype)
    if v.shape != (n,):
        raise SchemaError(f"{name} must have length {n}")
    return v


def _q(spec):
    return float("inf") if spec in ("inf", "infinity") else float(spec)


def _family(task, config, params):
    """``n -> (rule, X0)`` for the sweeps: the model descriptor at size n."""
    desc = config["model"]
    if desc.get("type") in ("linear", "graph") or {"R_csv", "patch_csv"} & set(desc):
        raise SchemaError(f"task {task!r} sizes its model by n, which this "
                          f"{desc['type']!r} model does not take")

    def family(n):
        _, rule = model_from_descriptor({**desc, "n": n})
        return rule, _vector(params, "x0", "half", n, np.uint8)
    return family


def _simulate(config, params, seed, workers):
    _, rule = model_from_descriptor(config["model"])
    T = int(params.get("T", 10))
    R = int(params.get("R", 100))
    X0 = _vector(params, "x0", "zeros", rule.n, np.uint8)
    couple = bool(params.get("couple", False))
    full = bool(params.get("full_states", False))
    if couple:   # the deterministic path, checked before it is allocated
        require_bytes(8 * (T + 1) * rule.n)
    p_traj = det_trajectory(rule, X0.astype(float), T).p if couple else None
    out = simulate_counts(rule, X0, T, R, seed, couple=couple, p_traj=p_traj,
                          workers=workers, keep_states=full)
    jbar = out["jbar"].mean(axis=0) if couple else [""] * (T + 1)
    files = {"summary.csv": (["t", "mean_occupancy", "jbar_mean"],
                             [np.arange(T + 1), out["counts"].sum(axis=0) / (R * rule.n),
                              jbar])}
    if full:
        files["states.csv"] = _long_table(["replicate", "t", "node", "bit"], out["states"])
    return files


def _deterministic(config, params, seed, workers):
    _, rule = model_from_descriptor(config["model"])
    p0 = _vector(params, "p0", 0.5, rule.n, np.float64)
    traj = det_trajectory(rule, p0, int(params.get("T", 10)))
    return {"trajectory.csv": _long_table(["t", "node", "p"], traj.p)}


def _equilibrium(config, params, seed, workers):
    _, rule = model_from_descriptor(config["model"])
    if not rule.homogeneous:
        raise SchemaError("task 'equilibrium' needs a time-homogeneous model")
    eq = find_equilibrium(rule, _vector(params, "p0", 0.5, rule.n, np.float64),
                          tol=float(params.get("tol", 1e-12)),
                          max_iter=int(params.get("max_iter", 10 ** 6)))
    screen = smith_check(rule, sample_budget=64, seed=seed)
    return {"equilibrium.json": {
        "converged": eq.converged, "iterations": eq.iterations,
        "residual": eq.residual, "p_inf": [f"{v:.17g}" for v in eq.p_inf],
        "monotone_screen": {
            "positivity": screen.positivity,
            "jacobian_monotonicity": screen.jacobian_monotonicity,
            "not_all_absorbing": screen.not_all_absorbing,
            "spectral_radius_origin": screen.spectral_radius_origin,
        }}}


def _gaussian(config, params, seed, workers):
    _, rule = model_from_descriptor(config["model"])
    h = _vector(params, "h", "ones", rule.n, np.float64)
    p0 = _vector(params, "p0", 0.5, rule.n, np.float64)
    approx = GaussianApprox.from_rule(rule, p0, int(params.get("T", 10)))
    var = approx.projected_variances(h)
    return {"projected_variance.csv": _long_table(["t", "projected_variance"], var)}


def _report(bound, *args):
    """``bound(*args)`` as a JSON record, or ``{"error": ...}`` if its inputs
    are outside its domain."""
    try:
        rep = bound(*args)
    except OcclabError as exc:
        return {"error": str(exc)}
    return {"value": rep.value, "formula": rep.formula_id,
            "inputs": rep.inputs, "caveats": rep.caveats}


def _bounds(config, params, seed, workers):
    _, rule = model_from_descriptor(config["model"])
    n = rule.n
    t = int(params.get("t", 5))
    q = _q(params.get("q", 1))
    r = float(params.get("r", 1))
    h = _vector(params, "h", "ones", n, np.float64)
    coeffs = coefficient_schedule(rule, t)
    approx = GaussianApprox.from_rule(rule, _vector(params, "p0", 0.5, n, np.float64), t)
    return {"bounds.json": {
        "discrepancy_moment": _report(jbar_moment_bound, coeffs, q, t, n),
        "mean_functional_error": _report(lqr_error_bound, mean_functional_norms(n),
                                         coeffs, q, r, t, n),
        "projection_rate": _report(clt_rate_bound, coeffs, h, q, approx, t),
    }}


def _clt_sweep(config, params, seed, workers):
    R = int(params.get("R", 20000))
    if R < 2:   # a distance needs at least two replicates
        raise SchemaError("task 'clt-sweep' needs R >= 2")
    rows, summary = clt_sweep(_family("clt-sweep", config, params), lambda n: np.ones(n),
                              int(params.get("t", 3)), _q(params.get("q", "inf")),
                              params.get("n_list", [100, 400]), R, seed,
                              model_id=config["model"].get("type", "model"), workers=workers)
    return {"clt_sweep.csv": _table(rows), "clt_summary.json": summary}


def _lln_sweep(config, params, seed, workers):
    k = int(params.get("class_coords", 10))
    rows = lln_sweep(_family("lln-sweep", config, params),
                     lambda n: sign_class(min(k, n), n),
                     int(params.get("t", 3)), params.get("n_list", [100, 400]),
                     int(params.get("R", 2000)), seed,
                     x=float(params.get("x", float(np.e) ** 2)),
                     model_id=config["model"].get("type", "model"), workers=workers)
    return {"lln_sweep.csv": _table(rows)}


def _graphon(config, params, seed, workers):
    T = int(params.get("T", 3))
    rows = []
    for v in params.get("v_list", [8, 16]):
        gmodel, _ = model_from_descriptor({**config["model"], "v": v})
        density, variance = gd.triangle_clt(gmodel, gmodel.host_adjacency(), T)
        rows.append({"v": v, "edges": gmodel.n_edges,
                     "triangle_density_T": density, "clt_variance_T": variance})
    return {"graphon.csv": _table(rows)}


def _hanski_limit(config, params, seed, workers):
    T = int(params.get("T", 5))
    rho0 = float(params.get("rho0", 0.5))
    model, _ = model_from_descriptor(config["model"])
    limit = hanski_limit(model, lambda z: np.full_like(z, rho0), T,
                         G=int(params.get("grid", 512)))
    return {"hanski_limit.csv": (["t", "mean_density", "mean_variance_density"], [
        np.arange(T + 1), (limit.weights * limit.rho).sum(axis=1),
        (limit.weights * limit.variance).sum(axis=1)])}


#: task name -> function(config, params, seed, workers) returning the
#: artifacts in write order, ``{file name: JSON payload or (header, columns)}``
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
                "n_list": {"type": "array", "minItems": 1,
                           "items": {"type": "integer", "minimum": 1}},
                "grid": {"type": "integer", "minimum": 2},
                "rho0": {"type": "number"},
                "couple": {"type": "boolean"},
                "full_states": {"type": "boolean"},
                "tol": {"type": "number"},
                "max_iter": {"type": "integer"},
                "class_coords": {"type": "integer", "minimum": 1},
                "v_list": {"type": "array", "minItems": 1,
                           "items": {"type": "integer", "minimum": 2}},
            },
        },
    },
}


#: built once: ``jsonschema.validate`` would check the schema itself on every run
_VALIDATOR = jsonschema.validators.validator_for(CONFIG_SCHEMA)(CONFIG_SCHEMA)


def run_config(config, out_dir, seed_override=None, workers=1):
    """Execute one experiment; returns the list of files written."""
    exc = jsonschema.exceptions.best_match(_VALIDATOR.iter_errors(config))
    if exc is not None:
        raise SchemaError(f"config invalid at /{'/'.join(map(str, exc.path))}: "
                          f"{exc.message}") from exc

    params = dict(config.get("parameters", {}))
    if seed_override is not None:
        params["seed"] = seed_override
    artifacts = TASKS[config["task"]](config, params, int(params.get("seed", 0)), workers)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return [_write_csv(out / name, *content) if isinstance(content, tuple)
            else _write_json(out / name, content)
            for name, content in artifacts.items()]


def _manifest(config, files, elapsed, workers):
    return {
        "config": config,
        "config_sha256": hashlib.sha256(_canonical(config).encode()).hexdigest(),
        "version": __version__,
        "workers": workers,
        "wall_time_s": elapsed,
        "files": {f.name: _sha256_file(f) for f in files},
    }


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def main(argv=None):
    parser = argparse.ArgumentParser(prog="occlab",
                                     description="occupancy-process laboratory")
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="execute an experiment config")
    runp.add_argument("--config", required=True)
    runp.add_argument("--out", default=None)
    runp.add_argument("--seed", type=int, default=None)
    runp.add_argument("--workers", type=_positive_int, default=os.cpu_count() or 1,
                      help="simulation threads for the simulate, clt-sweep and lln-sweep "
                           "tasks (results are identical at any count)")
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
    manifest = _manifest(config, files, time.time() - started, args.workers)
    _write_json(Path(out_dir) / "manifest.json", manifest)
    for f in files:
        print(f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
