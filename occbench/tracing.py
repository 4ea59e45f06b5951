"""In-memory span tracer for the benchmark's traced run.

``Tracer.install`` wraps the public functions of every occlab layer module
under each name a caller looks them up by: the defining module, every
occlab module that imported the function by name (``analysis`` binds
``simulate_projections`` at import, ``simulate`` binds ``evaluate_rule``),
and the package re-exports.  Public methods of the classes those modules
define are wrapped on the class.  Private helpers such as
``simulate._kernel``, ``simulate._draw_bits`` and
``simulate._coupled_update`` are not wrapped, so their time is self time
of the public function that calls them.  The rule callables (``evaluate``,
the survival/colonization split, ``jacobian`` and the coefficient oracle)
are closures on the rule object; ``wrap_rule`` returns a traced copy of a
rule, and rules returned by ``model_from_descriptor`` are wrapped that way.

Each call records a span: name, layer, start, end, parent and a small
work record (draws, node evaluations, node updates, bytes, iterations).
Spans stay in memory until ``dump`` writes them out at the end of the run.
A span started in a worker thread with no open span of its own takes the
main thread's innermost open span as parent, which is the simulate call
that started the thread pool.
"""

import dataclasses
import importlib
import inspect
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from functools import wraps

import numpy as np

LAYERS = ("rng", "rules", "simulate", "deterministic", "gaussian", "bounds",
          "analysis", "models", "cli")

_LAYER_MODULES = {
    "occlab.rng": "rng",
    "occlab.rules": "rules",
    "occlab.simulate": "simulate",
    "occlab.deterministic": "deterministic",
    "occlab.gaussian": "gaussian",
    "occlab.bounds": "bounds",
    "occlab.analysis": "analysis",
    "occlab.models.spreading": "models",
    "occlab.models.domany_kinzel": "models",
    "occlab.models.hanski": "models",
    "occlab.models.graphdyn": "models",
    "occlab.models.random_rules": "models",
    "occlab.models.descriptors": "models",
    "occlab.cli": "cli",
}


class Span:
    __slots__ = ("id", "name", "layer", "start", "end", "parent", "work")

    def __init__(self, id_, name, layer, start, parent):
        self.id = id_
        self.name = name
        self.layer = layer
        self.start = start
        self.end = None
        self.parent = parent
        self.work = None


def _size(x):
    return int(np.size(x))


def _bound(fn, args, kwargs):
    sig = inspect.signature(fn)
    b = sig.bind(*args, **kwargs)
    b.apply_defaults()
    return b.arguments


def _simulate_work(fn):
    def work(args, kwargs, out):
        a = _bound(fn, args, kwargs)
        return {"couple": bool(a["couple"]),
                "node_updates": int(a["R"]) * int(a["T"]) * int(a["rule"].n)}
    return work


def _exact_law_work(fn):
    def work(args, kwargs, out):
        a = _bound(fn, args, kwargs)
        return {"state_steps": int(a["T"]) * 2 ** int(a["rule"].n)}
    return work


def _export_work(fn):
    def work(args, kwargs, out):
        return {"bytes": os.path.getsize(_bound(fn, args, kwargs)["path"])}
    return work


def _draw_work(fn):
    return lambda args, kwargs, out: {"draws": _size(out)}


def _iterations_work(fn):
    return lambda args, kwargs, out: {"iterations": int(out.iterations)}


def _lyapunov_work(fn):
    return lambda args, kwargs, out: {"iterations": int(out.iterations), "method": out.method}


def _run_config_work(fn):
    return lambda args, kwargs, out: {"files": len(out),
                                      "bytes": sum(os.path.getsize(p) for p in out)}


def _main_work(fn):
    def work(args, kwargs, out):
        argv = list(_bound(fn, args, kwargs)["argv"] or [])
        if out != 0 or "--out" not in argv:
            return None
        manifest = os.path.join(argv[argv.index("--out") + 1], "manifest.json")
        return {"files": 1, "bytes": os.path.getsize(manifest)}
    return work


_WORK = {
    "rng.uniforms": _draw_work, "rng.normals": _draw_work, "rng.signs": _draw_work,
    "simulate.simulate_projections": _simulate_work,
    "simulate.simulate_ensemble": _simulate_work,
    "simulate.exact_law": _exact_law_work,
    "simulate.ensemble_to_csv": _export_work,
    "simulate.summary_to_csv": _export_work,
    "deterministic.find_equilibrium": _iterations_work,
    "gaussian.lyapunov_solve": _lyapunov_work,
    "cli.run_config": _run_config_work,
    "cli.main": _main_work,
}


class Tracer:
    """Spans of wrapped occlab calls, kept in memory."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack = []
        self._patches = None      # (owner, attribute, original, wrapper)

    # -- recording ---------------------------------------------------------

    def _stack(self):
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name, layer, work=None, post=None):
        """``fn`` recording a span per call; ``work(args, kwargs, out)`` gives
        the span's work record and ``post(out)`` the value returned."""
        tracer = self

        @wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1].id
            else:
                main = tracer._main_stack
                parent = main[-1].id if main else None
            span = Span(next(tracer._ids), name, layer, time.perf_counter(), parent)
            tracer.spans.append(span)
            stack.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if work is not None:
                span.work = work(args, kwargs, out)
            return post(out) if post is not None else out

        return traced

    def wrap_rule(self, rule):
        """Traced copy of an OccupancyRule: its callables become rules-layer spans."""
        def evals(args, kwargs, out):
            return {"node_evals": _size(args[0] if args else kwargs["x"])}

        changes = {"evaluate": self.wrap(rule.evaluate, "rules.rule.evaluate", "rules", evals)}
        if rule.split is not None:
            surv, col = rule.split
            changes["split"] = (self.wrap(surv, "rules.rule.survive", "rules", evals),
                                self.wrap(col, "rules.rule.colonize", "rules", evals))
        if rule.jacobian is not None:
            changes["jacobian"] = self.wrap(rule.jacobian, "rules.rule.jacobian", "rules")
        if rule.coeff_oracle is not None:
            changes["coeff_oracle"] = self.wrap(rule.coeff_oracle, "rules.rule.coeff_oracle",
                                                "rules")
        return dataclasses.replace(rule, **changes)

    # -- installing wrappers ------------------------------------------------

    def install(self):
        """Put the wrappers in place: every public occlab function under each
        name it is looked up by, and the public methods of its classes."""
        if self._patches is None:
            self._patches = self._plan()
        for owner, attr, _, new in self._patches:
            setattr(owner, attr, new)

    def uninstall(self):
        for owner, attr, orig, _ in reversed(self._patches or []):
            setattr(owner, attr, orig)

    def _plan(self):
        patches = []
        wrapped = {}              # id(original function) -> (original, wrapper)
        for modname, layer in _LAYER_MODULES.items():
            mod = importlib.import_module(modname)
            prefix = f"models.{modname.rsplit('.', 1)[-1]}" if layer == "models" else layer
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != modname:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = (obj, self._wrap_function(obj, f"{prefix}.{attr}", layer))
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    patches += self._wrap_class(obj, f"{prefix}.{attr}", layer)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "occlab" or modname.startswith("occlab.")):
                continue
            for attr, obj in vars(mod).items():
                entry = wrapped.get(id(obj))
                if entry is not None and entry[0] is obj:
                    patches.append((mod, attr, obj, entry[1]))
        return patches

    def _wrap_function(self, fn, name, layer):
        work = _WORK.get(name)
        post = None
        if name == "models.descriptors.model_from_descriptor":
            post = lambda out: (out[0], self.wrap_rule(out[1]))
        return self.wrap(fn, name, layer, work(fn) if work else None, post)

    def _wrap_class(self, cls, name, layer):
        """Patches for the constructor and the public methods of a class."""
        fields = {f.name for f in dataclasses.fields(cls)} if dataclasses.is_dataclass(cls) else ()
        patches = []
        for attr, obj in vars(cls).items():
            if (attr.startswith("_") and attr != "__init__") or attr in fields:
                continue
            if inspect.isfunction(obj):
                new = self.wrap(obj, f"{name}.{attr}", layer)
            elif isinstance(obj, (classmethod, staticmethod)):
                new = type(obj)(self.wrap(obj.__func__, f"{name}.{attr}", layer))
            else:
                continue
            patches.append((cls, attr, obj, new))
        return patches

    # -- output ---------------------------------------------------------------

    def dump(self, path):
        """Write every span as one JSON line: id, name, layer, start, end, parent, work."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.id, s.name, s.layer, s.start, s.end, s.parent, s.work],
                                    separators=(",", ":")) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def self_times(spans, t0, t1):
    """Split [t0, t1] among the spans: (self seconds by span id, unattributed seconds).

    At each instant the time goes to the innermost open spans, shared equally
    when worker threads have several open at once; time with no open span
    is the benchmark's own.  The parts add up to t1 - t0.
    """
    events = []
    for s in spans:
        events.append((s.start, 1, s))
        events.append((s.end, 0, s))
    events.sort(key=lambda e: (e[0], e[1]))
    open_children = defaultdict(int)
    active, leaves = set(), set()
    self_s = defaultdict(float)
    unattributed = 0.0
    prev = t0
    for when, is_start, s in events:
        dt = when - prev
        if dt > 0:
            if leaves:
                for sid in leaves:
                    self_s[sid] += dt / len(leaves)
            else:
                unattributed += dt
            prev = when
        parent = s.parent if s.parent in active else None
        if is_start:
            active.add(s.id)
            leaves.add(s.id)
            if parent is not None:
                open_children[parent] += 1
                leaves.discard(parent)
        else:
            active.discard(s.id)
            leaves.discard(s.id)
            if parent is not None:
                open_children[parent] -= 1
                if open_children[parent] == 0:
                    leaves.add(parent)
    unattributed += max(t1 - prev, 0.0)
    return self_s, unattributed


#: per-layer metrics of the traced run: name -> unit.  Times and counts are
#: per traced round, averaged over the traced rounds.
PER_LAYER = {
    "rng.calls": "count", "rng.draws": "count", "rng.busy_s": "s",
    "rng.draws_per_s": "1/s", "rng.self_s": "s",
    "rules.node_evals": "count", "rules.busy_s": "s", "rules.node_evals_per_s": "1/s",
    "rules.jacobian_s": "s", "rules.coefficients_s": "s", "rules.self_s": "s",
    "simulate.plain_s": "s", "simulate.plain_self_s": "s", "simulate.coupled_s": "s",
    "simulate.coupled_self_s": "s", "simulate.node_updates": "count",
    "simulate.exact_law_s": "s", "simulate.exact_law_state_steps_per_s": "1/s",
    "simulate.export_s": "s", "simulate.export_bytes_per_s": "bytes/s", "simulate.self_s": "s",
    "deterministic.trajectory_s": "s", "deterministic.equilibrium_s": "s",
    "deterministic.equilibrium_iterations": "count", "deterministic.self_s": "s",
    "gaussian.approx_s": "s", "gaussian.covariances_s": "s",
    "gaussian.projected_variance_s": "s", "gaussian.lyapunov_direct_s": "s",
    "gaussian.lyapunov_iterative_s": "s", "gaussian.lyapunov_iterations": "count",
    "gaussian.self_s": "s",
    "bounds.rademacher_s": "s", "bounds.closed_form_s": "s", "bounds.self_s": "s",
    "analysis.distance_s": "s", "analysis.sweep_self_s": "s", "analysis.self_s": "s",
    "models.build_s": "s", "models.self_s": "s",
    "cli.self_s": "s", "cli.files_written": "count", "cli.bytes_written": "bytes",
    "trace.wall_s": "s", "trace.unattributed_s": "s", "trace.overhead_frac": "ratio",
    "trace.spans": "count",
}

_DRAWS = {"rng.uniforms", "rng.normals", "rng.signs"}
_EVALS = {"rules.rule.evaluate", "rules.rule.survive", "rules.rule.colonize"}
_JACOBIAN = {"rules.rule_jacobian", "rules.fd_jacobian", "rules.rule.jacobian"}
_COEFFS = {"rules.coefficient_schedule", "rules.coefficients",
           "rules.estimate_coefficients", "rules.rule.coeff_oracle"}
_CHAINS = {"simulate.simulate_projections", "simulate.simulate_ensemble"}
_EXPORT = {"simulate.ensemble_to_csv", "simulate.summary_to_csv"}
_APPROX = {"gaussian.GaussianApprox.from_rule", "gaussian.GaussianApprox.__init__"}
_PROJVAR = {"gaussian.GaussianApprox.projected_variance", "gaussian.projected_variance"}
_RADEMACHER = {"bounds.rademacher_mc", "bounds.rademacher_exact"}
_DISTANCE = {"analysis.ks_distance", "analysis.wasserstein1"}
_SWEEPS = {"analysis.clt_sweep", "analysis.lln_sweep"}


def _outermost(spans, by_id, member):
    """Spans that satisfy ``member`` and have no ancestor that does."""
    out = []
    for s in spans:
        if not member(s):
            continue
        p = by_id.get(s.parent)
        while p is not None and not member(p):
            p = by_id.get(p.parent)
        if p is None:
            out.append(s)
    return out


def _busy(spans, by_id, member):
    return sum(s.end - s.start for s in _outermost(spans, by_id, member))


def _work(spans, key, member=lambda s: True):
    return sum((s.work or {}).get(key, 0) for s in spans if member(s))


def _rate(num, seconds):
    return num / seconds if seconds > 0 else 0.0


def round_metrics(spans, t0, t1):
    """Per-layer metrics of one traced round that ran from t0 to t1."""
    by_id = {s.id: s for s in spans}
    self_s, unattributed = self_times(spans, t0, t1)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        layer_self[s.layer] += self_s.get(s.id, 0.0)

    def named(names):
        return lambda s: s.name in names

    def chains(couple):
        return lambda s: s.name in _CHAINS and s.work["couple"] == couple

    def lyapunov(method):
        return lambda s: s.name == "gaussian.lyapunov_solve" and s.work["method"] == method

    draws = _work(spans, "draws")
    evals = _work(spans, "node_evals")
    draw_s = _busy(spans, by_id, named(_DRAWS))
    eval_s = _busy(spans, by_id, named(_EVALS))
    law_s = _busy(spans, by_id, named({"simulate.exact_law"}))
    export_s = _busy(spans, by_id, named(_EXPORT))
    m = {
        "rng.calls": sum(1 for s in spans if s.name in _DRAWS),
        "rng.draws": draws,
        "rng.busy_s": _busy(spans, by_id, lambda s: s.layer == "rng"),
        "rng.draws_per_s": _rate(draws, draw_s),
        "rules.node_evals": evals,
        "rules.busy_s": _busy(spans, by_id, lambda s: s.layer == "rules"),
        "rules.node_evals_per_s": _rate(evals, eval_s),
        "rules.jacobian_s": _busy(spans, by_id, named(_JACOBIAN)),
        "rules.coefficients_s": _busy(spans, by_id, named(_COEFFS)),
        "simulate.plain_s": _busy(spans, by_id, chains(False)),
        "simulate.plain_self_s": sum(self_s.get(s.id, 0.0) for s in spans
                                     if chains(False)(s)),
        "simulate.coupled_s": _busy(spans, by_id, chains(True)),
        "simulate.coupled_self_s": sum(self_s.get(s.id, 0.0) for s in spans
                                       if chains(True)(s)),
        "simulate.node_updates": _work(spans, "node_updates", named(_CHAINS)),
        "simulate.exact_law_s": law_s,
        "simulate.exact_law_state_steps_per_s": _rate(_work(spans, "state_steps"), law_s),
        "simulate.export_s": export_s,
        "simulate.export_bytes_per_s": _rate(_work(spans, "bytes", named(_EXPORT)), export_s),
        "deterministic.trajectory_s": _busy(spans, by_id,
                                            named({"deterministic.det_trajectory"})),
        "deterministic.equilibrium_s": _busy(spans, by_id,
                                             named({"deterministic.find_equilibrium"})),
        "deterministic.equilibrium_iterations": _work(
            spans, "iterations", named({"deterministic.find_equilibrium"})),
        "gaussian.approx_s": _busy(spans, by_id, named(_APPROX)),
        "gaussian.covariances_s": _busy(spans, by_id,
                                        named({"gaussian.GaussianApprox.covariances"})),
        "gaussian.projected_variance_s": _busy(spans, by_id, named(_PROJVAR)),
        "gaussian.lyapunov_direct_s": _busy(spans, by_id, lyapunov("direct")),
        "gaussian.lyapunov_iterative_s": _busy(spans, by_id, lyapunov("iterative")),
        "gaussian.lyapunov_iterations": _work(spans, "iterations",
                                              named({"gaussian.lyapunov_solve"})),
        "bounds.rademacher_s": _busy(spans, by_id, named(_RADEMACHER)),
        "bounds.closed_form_s": _busy(spans, by_id, lambda s: s.layer == "bounds"
                                      and s.name not in _RADEMACHER),
        "analysis.distance_s": _busy(spans, by_id, named(_DISTANCE)),
        "analysis.sweep_self_s": sum(self_s.get(s.id, 0.0) for s in spans
                                     if s.name in _SWEEPS),
        "cli.files_written": _work(spans, "files", lambda s: s.layer == "cli"),
        "cli.bytes_written": _work(spans, "bytes", lambda s: s.layer == "cli"),
        "trace.wall_s": t1 - t0,
        "trace.unattributed_s": unattributed,
        "trace.spans": len(spans),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
    return m


def traced_metrics(tracer, rounds, setup, untraced_walls):
    """Per-layer metrics averaged over the traced rounds.

    ``rounds`` holds the (t0, t1) of each traced round, ``setup`` the
    interval of the traced set-up (for ``models.build_s``) and
    ``untraced_walls`` the round times of the untraced rounds run beside
    them (for ``trace.overhead_frac``).
    """
    spans = sorted((s for s in tracer.spans if s.end is not None), key=lambda s: s.start)
    per_round = []
    for t0, t1 in rounds:
        inside = [s for s in spans if s.start >= t0 and s.end <= t1]
        per_round.append(round_metrics(inside, t0, t1))
    out = {k: float(np.mean([r[k] for r in per_round])) for k in per_round[0]}
    in_setup = [s for s in spans if s.start >= setup[0] and s.end <= setup[1]]
    by_id = {s.id: s for s in in_setup}
    out["models.build_s"] = _busy(in_setup, by_id, lambda s: s.layer == "models")
    traced_walls = [t1 - t0 for t0, t1 in rounds]
    out["trace.overhead_frac"] = (float(np.median(traced_walls))
                                  / float(np.median(untraced_walls)) - 1.0)
    return {k: int(out[k]) if PER_LAYER[k] in ("count", "bytes") and float(out[k]).is_integer()
            else out[k] for k in PER_LAYER}
