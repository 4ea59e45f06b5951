import csv
import json
import hashlib
import tracemalloc
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from occlab import cli
from occlab.errors import SchemaError
from occlab.models import mean_field, spreading_rule
from occlab.simulate import simulate_ensemble


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def file_bytes(path):
    return Path(path).read_bytes()


def test_schema_rejects_unknown_keys(tmp_path):
    cfg = {"model": {"type": "constant", "n": 2, "c": 0.5},
           "task": "simulate", "bogus": 1}
    with pytest.raises(SchemaError):
        cli.run_config(cfg, tmp_path)
    cfg2 = {"model": {"type": "constant", "n": 2, "c": 0.5},
            "task": "simulate", "parameters": {"unknown_param": 3}}
    with pytest.raises(SchemaError):
        cli.run_config(cfg2, tmp_path)


def test_exit_codes(tmp_path, capsys):
    bad = write_config(tmp_path, {"model": {}, "task": "nope"})
    assert cli.main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    # runtime model failure: malformed descriptor type
    broken = write_config(tmp_path, {"model": {"type": "mystery"},
                                     "task": "deterministic"}, "b.json")
    assert cli.main(["run", "--config", str(broken),
                     "--out", str(tmp_path / "o2")]) == 2
    # a descriptor file that does not exist: named in the message
    missing = write_config(tmp_path, {"model": {"type": "spreading", "R_csv": "no-such.csv",
                                                "mu": 0.5}, "task": "deterministic"}, "m.json")
    assert cli.main(["run", "--config", str(missing), "--out", str(tmp_path / "o3")]) == 2
    assert "'no-such.csv'" in capsys.readouterr().err


SPREADING = {"type": "spreading", "n": 8, "rbar": 0.5, "mu": 0.5}
GRAPH = {"type": "graph", "q": 0.5, "attachment": "linear", "attachment_scale": 0.5, "v": 6}


@pytest.mark.parametrize("model,task,params", [
    ({"type": "constant", "n": 3, "c": 0.4}, "simulate", {"x0": "bogus"}),
    ({"type": "constant", "n": 3, "c": 0.4}, "gaussian", {"h": "zeros"}),
    ({"type": "spreading", "n": 8, "rbar": 0.5, "mu": 0.5}, "bounds", {"q": "abc"}),
    ({"type": "domany_kinzel", "n": 8, "q1": 0.4, "q2": 0.7}, "equilibrium", {}),
    ({"type": "constant", "c": 0.4}, "deterministic", {}),
    ({"type": "spreading", "n": 8, "rbar": 0.5, "mu": 0.5, "reinfecton": True},
     "deterministic", {}),
    # the sweeps size their model by n, which these models do not take
    (GRAPH, "clt-sweep", {"n_list": [8]}),
    ({"type": "linear", "A": [[0.1, 0.2], [0.3, 0.1]]}, "lln-sweep", {"n_list": [8]}),
    ({"type": "spreading", "R_csv": "R.csv", "mu": 0.5}, "clt-sweep", {"n_list": [8]}),
    ({"type": "hanski", "patch_csv": "patches.csv"}, "lln-sweep", {"n_list": [8]}),
    # empty or out-of-range size lists
    (SPREADING, "clt-sweep", {"n_list": []}),
    (GRAPH, "graphon", {"v_list": []}),
    (SPREADING, "clt-sweep", {"n_list": [0]}),
    (SPREADING, "lln-sweep", {"n_list": [-3]}),
    (GRAPH, "graphon", {"v_list": [1]}),
    # values a model constructor rejects
    ({"type": "domany_kinzel", "n": 2, "q1": 0.4, "q2": 0.7}, "deterministic", {}),
    ({"type": "spreading", "n": 8, "rbar": 0.5, "mu": 1.5}, "deterministic", {}),
    # a p0 list of the wrong length
    ({"type": "constant", "n": 3, "c": 0.4}, "deterministic", {"p0": [0.1, 0.2]}),
    # sizes below the least a model takes
    ({"type": "random_product", "n": 0}, "simulate", {}),
    ({"type": "spreading", "n": 0, "rbar": 0.5, "mu": 0.5}, "simulate", {}),
    ({**GRAPH, "v": 1}, "deterministic", {}),
    # a size of the wrong JSON type
    ({"type": "constant", "n": None, "c": 0.5}, "simulate", {}),
    # parameters that would give NaN or probabilities above 1
    ({"type": "random_product", "n": 4, "strength": 2}, "simulate", {}),
    ({**GRAPH, "attachment_scale": 3}, "simulate", {}),
    # keys a descriptor would otherwise ignore
    ({**SPREADING, "domain_form": "bogus"}, "deterministic", {}),
    ({"type": "spreading", "R_csv": "R.csv", "rbar": 0.5, "mu": 0.5}, "deterministic", {}),
    ({"type": "spreading", "R_csv": "R.csv", "n": 8, "mu": 0.5}, "deterministic", {}),
    ({"type": "hanski", "patch_csv": "patches.csv", "n": 8}, "deterministic", {}),
    ({"type": "linear", "A_csv": "A.csv", "A": [[0.1]]}, "deterministic", {}),
    # too few replicates for a distance
    (SPREADING, "clt-sweep", {"R": 1, "n_list": [8]}),
    # a kernel scale that is zero, negative (a kernel growing with distance)
    # or NaN: before they were checked these exited 0 or 3
    ({"type": "hanski", "n": 8, "kernel_scale": 0}, "hanski-limit", {}),
    ({"type": "hanski", "n": 8, "kernel_scale": -0.5}, "simulate", {}),
    ({"type": "hanski", "n": 8, "kernel_scale": float("nan")}, "hanski-limit", {}),
    # a probability above 1, a negative weight, NaN in either (these exited
    # 3) and a non-square matrix (it exited 2 with numpy's broadcast message)
    ({"type": "constant", "n": 3, "c": 1.5}, "deterministic", {}),
    ({"type": "linear", "A": [[0.1, -0.2], [0.3, 0.1]]}, "deterministic", {}),
    ({"type": "constant", "n": 3, "c": float("nan")}, "simulate", {}),
    ({"type": "linear", "A": [[float("nan"), 0.1], [0.1, 0.1]]}, "simulate", {}),
    ({"type": "linear", "A": [[0.1, 0.2, 0.1], [0.3, 0.1, 0.1]]}, "deterministic", {}),
])
def test_bad_input_exits_2_without_traceback(tmp_path, capsys, model, task, params):
    path = write_config(tmp_path, {"model": model, "task": task, "parameters": params})
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err
    assert not (tmp_path / "o" / "manifest.json").exists()


@pytest.mark.parametrize("key,table", [
    # a vertex past v - 1 (an IndexError once), a negative vertex (it wrapped
    # to v - 1), one edge given twice (its Jacobian entries came out halved)
    # and fractional vertices (they were truncated to whole ones)
    ("edges_csv", "0,1\n0,5\n"),
    ("edges_csv", "0,1\n0,-1\n"),
    ("edges_csv", "0,1\n1,0\n1,2\n"),
    ("edges_csv", "0.7,1\n1,2.9\n"),
    # a patch table without its third column s, and ones with a NaN location,
    # a NaN survival probability (both exited 3) or a negative weight (exit 0)
    ("patch_csv", "0.25,1\n0.75,2\n"),
    ("patch_csv", "0.25,1,0.8\nnan,1,0.8\n"),
    ("patch_csv", "0.25,1,0.8\n0.75,1,nan\n"),
    ("patch_csv", "0.25,1,0.8\n0.75,-1,0.8\n"),
    # one location given twice, which no interpolation of a(z) and s(z) fits
    ("patch_csv", "0.75,1,0.8\n0.25,1,0.8\n0.75,2,0.5\n"),
], ids=["vertex-past-v", "negative-vertex", "repeated-edge", "fractional-vertex",
        "two-column-patches", "nan-location", "nan-survival", "negative-weight",
        "repeated-location"])
def test_malformed_tables_exit_2_without_traceback(tmp_path, capsys, key, table):
    csv_path = tmp_path / "table.csv"
    csv_path.write_text(table)
    model = {"type": "graph", "v": 3, "q": 0.5} if key == "edges_csv" else {"type": "hanski"}
    model[key] = str(csv_path)
    path = write_config(tmp_path, {"model": model, "task": "gaussian", "parameters": {"T": 2}})
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err


@pytest.mark.parametrize("model,task,params", [
    # more replicates than the keyed streams address
    ({"type": "constant", "n": 3, "c": 0.4}, "simulate", {"R": 5_000_000_000}),
    # n x n or v x v tables (7.3 TiB or 931 GiB) refused before allocation:
    # hanski's M and one more table for its coefficient oracle, which its chain
    # step never reads
    ({"type": "hanski", "n": 1_000_000}, "bounds", {}),
    ({"type": "random_product", "n": 1_000_000}, "simulate", {}),
    # the three (T + 1, G) tables of a 10^9-node grid (134 GiB)
    ({"type": "hanski", "n": 8}, "hanski-limit", {"grid": 1_000_000_000}),
    ({**GRAPH, "v": 1_000_000}, "simulate", {}),
    (GRAPH, "graphon", {"v_list": [1_000_000]}),
    # a NaN initial density (it exited 0 with NaN rows, where 1.5 exits 3)
    ({"type": "hanski", "n": 8}, "hanski-limit", {"rho0": float("nan")}),
])
def test_model_error_exits_3_without_traceback(tmp_path, capsys, model, task, params):
    path = write_config(tmp_path, {"model": model, "task": task, "parameters": params})
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("model error:") and "Traceback" not in err
    assert not (tmp_path / "o" / "manifest.json").exists()


def test_coupled_linear_simulation_exits_0(tmp_path, capsys):
    path = write_config(tmp_path, {"model": {"type": "linear", "A": [[0.1, 0.2], [0.3, 0.1]]},
                                   "task": "simulate",
                                   "parameters": {"T": 3, "R": 50, "couple": True,
                                                  "x0": "half"}})
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
    assert "Traceback" not in capsys.readouterr().err
    rows = list(csv.DictReader(open(tmp_path / "o" / "summary.csv")))
    assert len(rows) == 4 and all(0 <= float(r["jbar_mean"]) <= 1 for r in rows)


def test_million_node_hanski_limit_grid_exits_0(tmp_path, capsys):
    # the default kernel is applied matrix-free: O(T G) work and memory
    path = write_config(tmp_path, {"model": {"type": "hanski", "n": 8},
                                   "task": "hanski-limit",
                                   "parameters": {"grid": 1_000_000}})
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
    assert "Traceback" not in capsys.readouterr().err
    rows = list(csv.DictReader(open(tmp_path / "o" / "hanski_limit.csv")))
    assert len(rows) == 6 and all(0 <= float(r["mean_density"]) <= 1 for r in rows)


def test_huge_simulation_exits_3_before_allocating(tmp_path, capsys):
    # a billion coupled replicates need 164 GiB of summary arrays: refused
    # before anything large is allocated
    path = write_config(tmp_path, {"model": {"type": "constant", "n": 3, "c": 0.4},
                                   "task": "simulate",
                                   "parameters": {"R": 1_000_000_000, "couple": True}})
    tracemalloc.start()
    try:
        code = cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3 and peak < 16 * 2 ** 20
    err = capsys.readouterr().err
    assert err.startswith("model error:") and "GiB" in err and "Traceback" not in err
    assert not (tmp_path / "o" / "manifest.json").exists()


def test_huge_mean_field_equilibrium_exits_3_before_dense_jacobians(tmp_path, capsys):
    # the fixed point of a 10^6-node mean field is O(n) work; the stability
    # screen's dense 10^6 x 10^6 Jacobians (8 TB) are refused unallocated
    path = write_config(tmp_path, {"model": {"type": "spreading", "n": 10 ** 6, "rbar": 1.5,
                                             "mu": 0.4, "reinfection": True},
                                   "task": "equilibrium", "parameters": {"p0": 0.5}})
    tracemalloc.start()
    try:
        code = cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3 and peak < 128 * 2 ** 20
    err = capsys.readouterr().err
    assert err.startswith("model error:") and "GiB" in err and "Traceback" not in err
    assert not (tmp_path / "o" / "manifest.json").exists()


def test_huge_constant_rule_simulates_without_a_dense_jacobian(tmp_path, capsys):
    # the rule's zero Jacobian (298 GiB at n = 200000) is made only on call
    path = write_config(tmp_path, {"model": {"type": "constant", "n": 200000, "c": 0.3},
                                   "task": "simulate", "parameters": {"T": 1, "R": 2}})
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
    assert "Traceback" not in capsys.readouterr().err
    rows = list(csv.DictReader(open(tmp_path / "o" / "summary.csv")))
    assert abs(float(rows[1]["mean_occupancy"]) - 0.3) < 0.01


@pytest.mark.parametrize("model,t,failed", [
    # the rate bound needs t >= 1: recorded as an error
    (SPREADING, 0, "projection_rate"),
    # the rate bound's exponential leaves the float range: inf, flagged vacuous
    ({**SPREADING, "n": 40, "rbar": 20}, 5, None),
])
def test_bounds_edge_inputs_exit_0(tmp_path, capsys, model, t, failed):
    path = write_config(tmp_path, {"model": model, "task": "bounds", "parameters": {"t": t}})
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
    assert "Traceback" not in capsys.readouterr().err
    payload = json.loads((tmp_path / "o" / "bounds.json").read_text())
    if failed:
        assert "t >= 1" in payload[failed]["error"]
    else:
        rate = payload["projection_rate"]
        assert rate["value"] == float("inf")
        assert any("vacuous" in c for c in rate["caveats"])


def test_bounds_task_records_lq_bounds_errors_at_q_inf(tmp_path):
    cfg = {"model": SPREADING, "task": "bounds", "parameters": {"t": 3, "q": "inf"}}
    files = cli.run_config(cfg, tmp_path / "o")
    payload = json.loads(files[0].read_text())
    assert "[1, inf)" in payload["discrepancy_moment"]["error"]
    assert "[1, inf)" in payload["mean_functional_error"]["error"]
    # the Kolmogorov rate bound is defined at q = inf
    assert 0 < payload["projection_rate"]["value"] < float("inf")


def test_config_errors_match_jsonschema_validate(tmp_path):
    jsonschema.validators.validator_for(cli.CONFIG_SCHEMA).check_schema(cli.CONFIG_SCHEMA)
    model = {"type": "constant", "n": 3, "c": 0.4}
    bad = [{"model": model},
           {"model": model, "task": "nope"},
           {"model": model, "task": "simulate", "parameters": {"T": -1, "R": 0}},
           {"model": model, "task": "simulate", "parameters": {"x0": [0, 2]}},
           {"model": model, "task": "clt-sweep", "parameters": {"n_list": [8, "a"]}},
           {"model": 3, "task": "simulate", "bogus": 1}]
    for cfg in bad:
        with pytest.raises(jsonschema.ValidationError) as want:
            jsonschema.validate(cfg, cli.CONFIG_SCHEMA)
        with pytest.raises(SchemaError) as got:
            cli.run_config(cfg, tmp_path / "o")
        exc = want.value
        assert str(got.value) == (f"config invalid at /{'/'.join(map(str, exc.path))}: "
                                  f"{exc.message}")


def test_sweep_rejection_names_task_and_model(tmp_path):
    cfg = {"model": GRAPH, "task": "clt-sweep", "parameters": {"n_list": [8]}}
    with pytest.raises(SchemaError, match="'clt-sweep'.*'graph'"):
        cli.run_config(cfg, tmp_path / "o")


def test_write_csv_formats_cells(tmp_path):
    path = cli._write_csv(tmp_path / "t.csv", ["a", "b", "c", "d"],
                          [[1, 2, 30], [0.5, 1.0 / 3.0, float("inf")], ["x", "y", "z"],
                           ["", "", ""]])
    raw = path.read_bytes()
    assert raw == (b"a,b,c,d\r\n1,0.5,x,\r\n2,0.33333333333333331,y,\r\n"
                   b"30,inf,z,\r\n")
    # a float column round-trips through its 17 significant digits
    vals = np.random.default_rng(0).normal(size=50) * 10.0 ** np.arange(-25, 25)
    cli._write_csv(path, ["v"], [vals])
    assert [float(v) for v in path.read_text().split()[1:]] == vals.tolist()


def test_states_csv_parses_back_to_ensemble(tmp_path, monkeypatch):
    # a tiny write size: the table goes out one replicate per write
    monkeypatch.setattr(cli, "_CSV_ROWS", 7)
    cfg = {"model": {"type": "spreading", "n": 5, "rbar": 0.8, "mu": 0.3},
           "task": "simulate",
           "parameters": {"T": 2, "R": 11, "seed": 4, "x0": "half", "full_states": True}}
    files = cli.run_config(cfg, tmp_path / "out")
    assert [f.name for f in files] == ["summary.csv", "states.csv"]
    ens = simulate_ensemble(spreading_rule(mean_field(5, 0.8, 0.3)),
                            np.array([1, 1, 0, 0, 0], dtype=np.uint8), 2, 11, 4)
    with open(files[1], newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["replicate", "t", "node", "bit"]
    states = np.zeros_like(ens.states)
    for r, t, i, bit in rows[1:]:
        states[int(r), int(t), int(i)] = int(bit)
    assert len(rows) == 1 + ens.states.size
    assert np.array_equal(states, ens.states)


def test_simulate_trivial_single_row(tmp_path):
    cfg = {"model": {"type": "constant", "n": 3, "c": 0.4},
           "task": "simulate",
           "parameters": {"T": 0, "R": 1, "seed": 5, "x0": [1, 0, 1]}}
    files = cli.run_config(cfg, tmp_path / "out")
    body = file_bytes(files[0]).decode().strip().splitlines()
    assert body[0] == "t,mean_occupancy,jbar_mean"
    assert body[1].startswith("0,0.66666666666666663")


def test_rerun_is_byte_identical_any_workers(tmp_path):
    cfg = {"model": {"type": "spreading", "n": 12, "rbar": 0.5, "mu": 0.5},
           "task": "simulate",
           "parameters": {"T": 4, "R": 3000, "seed": 9, "x0": "half",
                          "couple": True}}
    f1 = cli.run_config(cfg, tmp_path / "a", workers=1)
    f2 = cli.run_config(cfg, tmp_path / "b", workers=4)
    for a, b in zip(f1, f2):
        assert file_bytes(a) == file_bytes(b)


@pytest.mark.parametrize("task,model", [
    ("clt-sweep", {"type": "spreading", "n": 0, "rbar": 1.5, "mu": 0.4}),
    ("lln-sweep", {"type": "hanski", "n": 0, "kernel_scale": 0.25}),
])
def test_sweeps_byte_identical_at_one_and_two_workers(tmp_path, task, model):
    # at these sizes R spans three simulation tiles but one RNG block
    cfg = {"model": model, "task": task,
           "parameters": {"n_list": [128, 300], "R": 1500, "t": 3, "seed": 5}}
    f1 = cli.run_config(cfg, tmp_path / "a", workers=1)
    f2 = cli.run_config(cfg, tmp_path / "b", workers=2)
    assert [file_bytes(f) for f in f1] == [file_bytes(f) for f in f2]


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_nonpositive_workers_exit_2(tmp_path, capsys, workers):
    cfg = write_config(tmp_path, {"model": SPREADING, "task": "deterministic"})
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "o"),
                  "--workers", workers])
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_manifest_contains_hash_and_checksums(tmp_path):
    cfg = {"model": {"type": "constant", "n": 2, "c": 0.3},
           "task": "deterministic", "parameters": {"T": 3}}
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"] == cfg
    body = json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
    assert manifest["config_sha256"] == hashlib.sha256(body).hexdigest()
    for name, digest in manifest["files"].items():
        raw = (out / name).read_bytes()
        assert hashlib.sha256(raw).hexdigest() == digest


def test_seed_override_changes_output(tmp_path):
    cfg = {"model": {"type": "constant", "n": 4, "c": 0.5},
           "task": "simulate", "parameters": {"T": 2, "R": 500, "seed": 1}}
    f1 = cli.run_config(cfg, tmp_path / "a")
    f2 = cli.run_config(cfg, tmp_path / "b", seed_override=2)
    f3 = cli.run_config(cfg, tmp_path / "c", seed_override=2)
    assert file_bytes(f1[0]) != file_bytes(f2[0])
    assert file_bytes(f2[0]) == file_bytes(f3[0])


def test_equilibrium_task(tmp_path):
    cfg = {"model": {"type": "spreading", "n": 10, "rbar": 0.9, "mu": 0.3},
           "task": "equilibrium", "parameters": {"p0": 0.5}}
    files = cli.run_config(cfg, tmp_path / "out")
    report = json.loads(file_bytes(files[0]))
    assert report["converged"]
    assert float(report["residual"]) <= 1e-11


def test_bounds_task(tmp_path):
    cfg = {"model": {"type": "spreading", "n": 20, "rbar": 0.5, "mu": 0.5},
           "task": "bounds", "parameters": {"t": 3, "q": 1, "r": 1, "p0": 0.5}}
    files = cli.run_config(cfg, tmp_path / "out")
    payload = json.loads(file_bytes(files[0]))
    assert payload["discrepancy_moment"]["value"] > 0
    assert payload["projection_rate"]["value"] > 0


def test_clt_sweep_task(tmp_path):
    cfg = {"model": {"type": "spreading", "rbar": 0.5, "mu": 0.5, "n": 0},
           "task": "clt-sweep",
           "parameters": {"n_list": [32, 128], "t": 2, "q": "inf", "R": 4000}}
    files = cli.run_config(cfg, tmp_path / "out")
    table = file_bytes(files[0]).decode().strip().splitlines()
    assert table[0] == "model_id,n,t,q,metric,value,stderr,bound_c1"
    assert len(table) == 3


def test_hanski_limit_task(tmp_path):
    cfg = {"model": {"type": "hanski", "n": 50},
           "task": "hanski-limit", "parameters": {"T": 3, "grid": 64}}
    files = cli.run_config(cfg, tmp_path / "out")
    lines = file_bytes(files[0]).decode().strip().splitlines()
    assert len(lines) == 5


def test_graphon_task(tmp_path):
    cfg = {"model": {"type": "graph", "q": 0.6, "attachment": "linear",
                     "attachment_scale": 0.5, "v": 0},
           "task": "graphon", "parameters": {"v_list": [6, 8], "T": 2}}
    files = cli.run_config(cfg, tmp_path / "out")
    lines = file_bytes(files[0]).decode().strip().splitlines()
    assert lines[0].startswith("v,edges,triangle_density_T")
    assert len(lines) == 3


def test_manifest_round_trip_reproduces_outputs(tmp_path):
    cfg = {"model": {"type": "spreading", "n": 16, "rbar": 0.6, "mu": 0.4},
           "task": "simulate",
           "parameters": {"T": 3, "R": 1000, "seed": 21, "x0": "half"}}
    path = write_config(tmp_path, cfg)
    out1 = tmp_path / "first"
    assert cli.main(["run", "--config", str(path), "--out", str(out1)]) == 0
    manifest = json.loads((out1 / "manifest.json").read_text())
    # re-running from the embedded config reproduces every artifact
    replay = write_config(tmp_path, manifest["config"], "replay.json")
    out2 = tmp_path / "second"
    assert cli.main(["run", "--config", str(replay), "--out", str(out2)]) == 0
    for name in manifest["files"]:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
