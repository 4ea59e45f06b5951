#!/usr/bin/env python3
"""occlab benchmark.

    python3 occbench/run.py --workload {chain,oracle,cli-sweeps} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source tree: the package is imported from ``src/``
beside this directory, never from an installed copy.  The workload's inputs
are generated from ``--seed``.  Ops run back to back in rounds (a closed
loop, one caller) until ``--seconds`` have passed; every op's output is
checked after its round, and a failed check counts as a failed op.

``--trace 0`` reports the end-to-end metrics from untraced code.
``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics of the traced rounds; the spans are written to
``.occbench/traces/``.  Each run writes a results file with the metrics,
per-op output digests and the environment to ``.occbench/results/``, a
table to standard error, and one JSON line as the last line of standard
output.  BLAS and OpenMP pools are capped at one thread; the only other
threads are the CLI's two simulate workers.
"""

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

THREAD_CAPS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_CAPS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".occbench"

#: end-to-end metrics (trace 0): name -> unit
END_TO_END = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s", "op_tail_s": "s",
              "peak_rss_mb": "MB"}
#: reported beside the end-to-end metrics, in the table and the results file
EXTRA_UNITS = {"rounds": "count", "op_samples": "count", "op_tail_percentile": "%",
               "op_tail_beyond": "count", "fail_frac": "ratio", "node_updates_per_s": "1/s"}
#: set-up is measured in this many fresh processes; setup_s is their median
SETUP_PROBES = 3
#: op_tail_s is the highest percentile with at least this many samples beyond it
TAIL_BEYOND = 10


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="occlab benchmark")
    p.add_argument("--workload", required=True, choices=("chain", "oracle", "cli-sweeps"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="set the workload up, print 'ready' and exit (times setup_s)")
    return p.parse_args(argv)


def import_occlab():
    """Import occlab from this tree's src/, or exit 2 when the tree has none."""
    if not (SRC / "occlab" / "__init__.py").is_file():
        print(f"error: no occlab sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import occlab
    if Path(occlab.__file__).resolve().parent != (SRC / "occlab").resolve():
        print(f"error: occlab imported from {occlab.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def environment(seed):
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
        commit = res.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((SRC / "occlab").rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode())
        src.update(path.read_bytes())
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")
                 if k in blas},
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "thread_caps": {v: os.environ.get(v) for v in THREAD_CAPS},
        "git_commit": commit,
        "source_sha256": src.hexdigest(),
        "workload_seed": seed,
    }


def measure_setup(args):
    """Median seconds from process start to 'ready' over fresh set-up processes."""
    times = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - t0
            child.stdout.read()
            code = child.wait()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code})")
        times.append(elapsed)
    return statistics.median(times), times


def tail(samples):
    """(value, percentile, samples beyond) at the highest percentile with at
    least TAIL_BEYOND samples beyond it; the maximum when there are fewer."""
    xs = sorted(samples)
    k = max(len(xs) - TAIL_BEYOND - 1, 0) if len(xs) > TAIL_BEYOND else len(xs) - 1
    return xs[k], 100.0 * (k + 1) / len(xs), len(xs) - k - 1


class Runner:
    """Runs rounds of a workload's ops, timing, checking and digesting them."""

    def __init__(self, wl, tracer):
        self.wl = wl
        self.tracer = tracer
        self.plain_rules = wl.rules
        self.traced_rules = ({k: tracer.wrap_rule(r) for k, r in wl.rules.items()}
                             if tracer else None)
        self.rounds = []                 # dicts: t0, t1, traced, op_s
        self.attempted = 0
        self.failures = []
        self.digests = {op.name: set() for op in wl.ops}

    def round(self, traced):
        rules_ = self.traced_rules if traced else self.plain_rules
        outs, op_s = [], []
        if traced:
            self.tracer.install()
        try:
            t0 = time.perf_counter()
            for op in self.wl.ops:
                s = time.perf_counter()
                try:
                    outs.append(op.run(rules_))
                except Exception as exc:   # an op that raises is a failed op
                    outs.append(exc)
                op_s.append(time.perf_counter() - s)
            t1 = time.perf_counter()
        finally:
            if traced:
                self.tracer.uninstall()
        for op, out in zip(self.wl.ops, outs):
            self.attempted += 1
            try:
                if isinstance(out, Exception):
                    raise out
                op.check(out)
                self.digests[op.name].add(op.digest(out))
            except Exception as exc:       # a wrong or missing output is a failed op
                self.failures.append(f"{op.name}: {type(exc).__name__}: {exc}")
                if len(self.failures) == 1:
                    traceback.print_exception(exc, file=sys.stderr)
        del outs
        self.rounds.append({"t0": t0, "t1": t1, "traced": traced, "op_s": op_s})


def end_to_end(runner, setup_s):
    rounds = [r for r in runner.rounds if not r["traced"]]
    walls = [r["t1"] - r["t0"] for r in rounds]
    ops = [s for r in rounds for s in r["op_s"]]
    value, pct, beyond = tail(ops)
    metrics = {
        "setup_s": setup_s,
        "wall_s": statistics.median(walls),
        "op_p50_s": statistics.median(ops),
        "op_tail_s": value,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    updates = sum(op.node_updates for op in runner.wl.ops) * len(rounds)
    notes = {
        "wall_s": f"median of {len(walls)} rounds",
        "op_p50_s": f"median of {len(ops)} ops",
        "op_tail_s": f"p{pct:.1f} of {len(ops)} ops, {beyond} beyond",
    }
    extra = {
        "rounds": len(walls),
        "op_samples": len(ops),
        "op_tail_percentile": pct,
        "op_tail_beyond": beyond,
        "fail_frac": len(runner.failures) / max(runner.attempted, 1),
    }
    if updates:
        extra["node_updates_per_s"] = updates / sum(walls)
    return metrics, notes, extra


def print_table(title, metrics, units, notes, extra):
    print(title, file=sys.stderr)
    for name, value in metrics.items():
        print(f"  {name:40s} {value:>16.6g} {units[name]:8s} {notes.get(name, '')}",
              file=sys.stderr)
    for name, value in extra.items():
        print(f"  {name:40s} {value:>16.6g} {EXTRA_UNITS[name]}", file=sys.stderr)


def main(argv=None):
    args = parse_args(argv)
    import_occlab()
    import tracing
    import workloads

    workdir = OUT / "work" / f"{args.workload}-{os.getpid()}"
    tracer = tracing.Tracer() if args.trace and not args.setup_probe else None
    if tracer:
        tracer.install()
    setup0 = time.perf_counter()
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
    try:
        wl.setup()
        setup1 = time.perf_counter()
        if tracer:
            tracer.uninstall()
        if args.setup_probe:
            print("ready", flush=True)
            return 0

        setup_s, setup_samples = (None, [])
        if not args.trace:
            setup_s, setup_samples = measure_setup(args)
        # whole rounds until the time is up: at least two of each kind, and
        # in the traced run as many traced rounds as untraced ones
        runner = Runner(wl, tracer)
        kinds = 1 + args.trace
        deadline = time.perf_counter() + args.seconds
        while True:
            runner.round(traced=len(runner.rounds) % kinds == 1)
            done = len(runner.rounds)
            if time.perf_counter() >= deadline and done >= 2 * kinds and done % kinds == 0:
                break
    finally:
        wl.close()

    result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(args.seed),
              "attempted": runner.attempted, "failures": runner.failures,
              "digests": {k: sorted(v) for k, v in runner.digests.items()},
              "setup_probe_s": setup_samples,
              "op_s": {op.name: [r["op_s"][i] for r in runner.rounds]
                       for i, op in enumerate(wl.ops)}}
    if args.trace:
        walls = [r["t1"] - r["t0"] for r in runner.rounds if not r["traced"]]
        metrics = tracing.traced_metrics(
            tracer, [(r["t0"], r["t1"]) for r in runner.rounds if r["traced"]],
            (setup0, setup1), walls)
        units = tracing.PER_LAYER
        print_table(f"{args.workload} (traced, per round)", metrics, units, {}, {})
        tracer.dump(str(OUT / "traces" / f"{args.workload}-seed{args.seed}.jsonl"))
    else:
        metrics, notes, extra = end_to_end(runner, setup_s)
        units = END_TO_END
        result.update(extra)
        print_table(f"{args.workload} (end to end)", metrics, units, notes, extra)
    result["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    for name, digests in result["digests"].items():
        if len(digests) > 1:
            print(f"  note: {name} gave {len(digests)} different outputs across rounds",
                  file=sys.stderr)
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    path = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1, default=str) + "\n")

    failed = len(runner.failures)
    print(json.dumps({"correct": failed == 0, "attempted": runner.attempted,
                      "failed": failed, "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
