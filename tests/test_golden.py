"""Pinned SHA-256 checksums of fixed-seed outputs.

The keyed Philox tables, the chain and its coupling, the streaming
projections and the CLI artifacts of every task are reproducible bit for
bit, so each is pinned by a digest here.  A change that moves any of them
(a new stream layout, a reordered float expression, a different artifact
format) must update the digest on purpose and say which output changed.
"""

import hashlib

import numpy as np
import pytest

from occlab import cli, rng
from occlab.deterministic import det_trajectory
from occlab.models import mean_field, spreading_rule
from occlab.simulate import simulate_ensemble, simulate_projections


def digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


GOLDEN = {
    "uniforms":
        "2bbedb2e40f9dd2b554fb60a6f7c43751724c921e1dbca6138f48ef1aeb57446",
    "normals":
        "7966df8434042b51c568f02214496fa180e02537404178031f1932269299c958",
    "ensemble":
        "7b9fe14a6d9d6dd186be88f236c55608360a82513b51151f4d23ad5035467189",
    "ensemble-coupled":
        "ac5288df2d80011b1533664ef88a3283d43cc4c8db903c40b3078766223c1fd8",
    "projections":
        "88b280d940d149e8beeac796b65191f9fbc55df46470ebc763b14833299a60e5",
    "projections-coupled":
        "f2114f1008a6a36c43775a4db266dce72911028fe0f601f4dcadfd0c6a467ae2",
    "simulate":
        "8057ccb941ed9679e5ae9471cc386b7b728474260ccb928a7fcc86b95619adac",
    "simulate-uncoupled":
        "92e8559a99337b28cf496beed9c3cbe3f9ac460b8256f96a2996bf75f5e3018b",
    "deterministic":
        "22150696424b3c1636d1fc3ff4c6858aa88015a7fe6f7bb18003863987796f98",
    "equilibrium":
        "6332535a9f93f4305392f5ac8786aec9e7b7bda63ca70413bb9e6b230a2d0238",
    "gaussian":
        "d0cd4fa6a471b31a92e755651243f810aea1e88c34a9326d8b8a5201d00ad111",
    "bounds":
        "31f21954d8102c20325dc98988c38ab79305dde2bc7d34a59324789b225742cb",
    "clt-sweep":
        "79b3dce4d2aa0e0dd4109fcd95ae864fc80d4eb129d0ea246e448ae51349f91b",
    "lln-sweep":
        "02c7a803fac703724e9cd00a1c70ecc2f3937534e20ad22323c56bd4eb6125b0",
    "graphon":
        "4fd36aafd7d0e187f611cb5b8e4b3689ea6464a88c87df18f25e2b9e2fdbfad2",
    "hanski-limit":
        "15d690de021196a35d91f6ce77c8b5da934a8fd3a423771e4ae795c08e1ffd65",
}

# rows 4090..4105 straddle the boundary between Philox blocks 0 and 1
R_TWO_BLOCKS = rng.BLOCK + 9


def chain():
    rule = spreading_rule(mean_field(7, rbar=0.6, mu=0.4, reinfection=True))
    X0 = np.array([1, 0, 1, 1, 0, 0, 1], dtype=np.uint8)
    return rule, X0, det_trajectory(rule, X0.astype(float), 3).p


def test_rng_tables():
    assert digest(rng.uniforms(41, 2, 5, r0=rng.BLOCK - 6, rows=16)) == GOLDEN["uniforms"]
    assert digest(rng.normals(41, 2, 5, r0=rng.BLOCK - 6, rows=16)) == GOLDEN["normals"]


@pytest.mark.parametrize("workers", [1, 2])
def test_simulate_ensemble(workers):
    rule, X0, p = chain()
    plain = simulate_ensemble(rule, X0, 3, R_TWO_BLOCKS, seed=42, workers=workers)
    assert plain.coupled is None and plain.discrepancy is None
    assert digest(plain.states) == GOLDEN["ensemble"]
    ens = simulate_ensemble(rule, X0, 3, R_TWO_BLOCKS, seed=42, couple=True,
                            p_traj=p, workers=workers)
    assert digest(ens.states, ens.coupled, ens.discrepancy) == GOLDEN["ensemble-coupled"]


@pytest.mark.parametrize("workers", [1, 2])
def test_simulate_projections(workers):
    rule, X0, p = chain()
    h = np.linspace(-1.0, 2.0, 7)
    plain = simulate_projections(rule, X0, 3, R_TWO_BLOCKS, 42, h=h, p_traj=p,
                                 workers=workers)
    assert sorted(plain) == ["proj"]
    assert digest(plain["proj"]) == GOLDEN["projections"]
    res = simulate_projections(rule, X0, 3, R_TWO_BLOCKS, 42, h=h, p_traj=p,
                               keep_nodes=np.array([0, 3, 6]), workers=workers,
                               couple=True)
    assert sorted(res) == ["jbar", "nodes", "proj"]
    assert digest(res["proj"], res["nodes"], res["jbar"]) == GOLDEN["projections-coupled"]


SPREADING = {"type": "spreading", "n": 12, "rbar": 0.9, "mu": 0.3}
HANSKI = {"type": "hanski", "n": 30}

CONFIGS = {
    "simulate": {"model": SPREADING, "task": "simulate",
                 "parameters": {"T": 3, "R": 300, "seed": 3, "x0": "half",
                                "couple": True, "full_states": True}},
    # uncoupled: the summary's jbar_mean column is empty
    "simulate-uncoupled": {"model": SPREADING, "task": "simulate",
                           "parameters": {"T": 3, "R": 300, "seed": 3, "x0": "half",
                                          "full_states": True}},
    "deterministic": {"model": HANSKI, "task": "deterministic",
                      "parameters": {"T": 6, "p0": 0.3}},
    "equilibrium": {"model": SPREADING, "task": "equilibrium",
                    "parameters": {"p0": [0.2] * 6 + [0.7] * 6, "seed": 4}},
    "gaussian": {"model": HANSKI, "task": "gaussian",
                 "parameters": {"T": 5, "p0": 0.4, "h": [1.0, -1.0] * 15}},
    "bounds": {"model": SPREADING, "task": "bounds",
               "parameters": {"t": 3, "q": "inf", "r": 2, "p0": 0.4}},
    "clt-sweep": {"model": {**SPREADING, "n": 0}, "task": "clt-sweep",
                  "parameters": {"n_list": [16, 32], "t": 2, "q": 1, "R": 400,
                                 "seed": 5}},
    "lln-sweep": {"model": {**HANSKI, "n": 0}, "task": "lln-sweep",
                  "parameters": {"n_list": [8, 24], "t": 2, "R": 300,
                                 "class_coords": 4, "x0": "ones", "seed": 6}},
    "graphon": {"model": {"type": "graph", "q": 0.5, "attachment": "linear",
                          "attachment_scale": 0.5, "v": 0},
                "task": "graphon", "parameters": {"v_list": [5, 7], "T": 2}},
    "hanski-limit": {"model": HANSKI, "task": "hanski-limit",
                     "parameters": {"T": 3, "grid": 32, "rho0": 0.6}},
}


@pytest.mark.parametrize("task", sorted(CONFIGS))
def test_cli_artifacts(task, tmp_path):
    files = cli.run_config(CONFIGS[task], tmp_path / "out", workers=2)
    h = hashlib.sha256()
    for path in files:
        h.update(path.name.encode())
        h.update(path.read_bytes())
    assert h.hexdigest() == GOLDEN[task]
