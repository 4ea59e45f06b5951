import json
import hashlib
from pathlib import Path

import pytest

from occlab import cli
from occlab.errors import SchemaError


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


@pytest.mark.parametrize("model,task,params", [
    ({"type": "constant", "n": 3, "c": 0.4}, "simulate", {"x0": "bogus"}),
    ({"type": "constant", "n": 3, "c": 0.4}, "gaussian", {"h": "zeros"}),
    ({"type": "spreading", "n": 8, "rbar": 0.5, "mu": 0.5}, "bounds", {"q": "abc"}),
    ({"type": "domany_kinzel", "n": 8, "q1": 0.4, "q2": 0.7}, "equilibrium", {}),
    ({"type": "constant", "c": 0.4}, "deterministic", {}),
    ({"type": "spreading", "n": 8, "rbar": 0.5, "mu": 0.5, "reinfecton": True},
     "deterministic", {}),
])
def test_bad_input_exits_2_without_traceback(tmp_path, capsys, model, task, params):
    path = write_config(tmp_path, {"model": model, "task": task, "parameters": params})
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err
    assert not (tmp_path / "o" / "manifest.json").exists()


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
