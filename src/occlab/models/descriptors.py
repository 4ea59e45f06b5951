"""JSON model descriptors.

A descriptor is a JSON object with a ``type`` tag plus parameters; file
references (reaction matrices as dense CSV, edge lists as two-column CSV,
patch tables as CSV with columns z, a, s) are paths resolved against the
working directory.  Each type accepts only the keys listed in ``_KEYS``;
any other key (a misspelling, say), a missing required key or file, a
value of the wrong type or one the model rejects (a hanski ``kernel_scale``
that is not finite and positive, or a patch table with a location outside
[0, 1], a negative weight or a NaN, say), a size ``n`` below 1, a
``graph`` vertex count ``v`` below 2, an edge list that is not a simple
graph on the whole vertices 0..v-1, a patch table without exactly three
columns, or two sources for one quantity (a file next to the values it
replaces, see ``_SOURCES``) raises ``SchemaError``.  A ``graph``
descriptor without ``attachment`` uses the ``"linear"`` curve
f(y) = attachment_scale * y, with the scale in [0, 1].
"""

import numpy as np

from ..errors import SchemaError
from ..rules import constant_rule, linear_rule
from .spreading import SpreadingModel, mean_field, spreading_rule
from .domany_kinzel import DomanyKinzel, dk_rule
from .hanski import HanskiModel, equidistributed, hanski_rule
from .graphdyn import GraphDynModel, complete_host, graph_rule
from .random_rules import random_product_rule


_KEYS = {
    "constant": {"n", "c"},
    "linear": {"A", "A_csv"},
    "spreading": {"n", "rbar", "mu", "R_csv", "reinfection", "domain_form"},
    "domany_kinzel": {"n", "q1", "q2", "p0", "iid_start"},
    "hanski": {"n", "patch_csv", "kernel_scale"},
    "graph": {"v", "q", "edges_csv", "attachment", "attachment_scale"},
    "random_product": {"n", "seed", "strength"},
}

#: a file key and the keys giving what it replaces; a descriptor may not give both
_SOURCES = {"A_csv": ("A",), "R_csv": ("rbar", "n"), "patch_csv": ("n",)}


def _load_csv_matrix(path):
    try:
        return np.loadtxt(path, delimiter=",", ndmin=2)
    except OSError as exc:
        raise SchemaError(f"cannot read {path!r}: {exc.strerror or exc}") from None


def _attachment(spec):
    kind = spec.get("attachment", "linear")
    scale = float(spec.get("attachment_scale", 0.5))
    if not 0 <= scale <= 1:
        raise SchemaError("attachment_scale must lie in [0, 1]")
    if kind == "constant":
        return (lambda y: np.full_like(np.asarray(y, dtype=np.float64), scale),
                lambda y: np.zeros_like(np.asarray(y, dtype=np.float64)),
                (0.0, 0.0, 0.0))
    if kind == "linear":
        return (lambda y: scale * np.asarray(y, dtype=np.float64),
                lambda y: np.full_like(np.asarray(y, dtype=np.float64), scale),
                (scale, 0.0, 0.0))
    if kind == "quadratic":
        # f(y) = scale * y^2 on [0,1]
        return (lambda y: scale * np.asarray(y, dtype=np.float64) ** 2,
                lambda y: 2.0 * scale * np.asarray(y, dtype=np.float64),
                (2.0 * scale, 2.0 * scale, 0.0))
    raise SchemaError(f"unknown attachment curve {kind!r}")


def model_from_descriptor(desc):
    """Build (model_object, rule) from a descriptor dict."""
    kind = desc.get("type")
    if kind not in _KEYS:
        raise SchemaError(f"unknown model type {kind!r}")
    unknown = sorted(set(desc) - _KEYS[kind] - {"type"})
    if unknown:
        raise SchemaError(f"{kind!r} descriptor has unknown key {unknown[0]!r}")
    for source, replaced in _SOURCES.items():
        for key in replaced:
            if source in desc and key in desc:
                raise SchemaError(f"{kind!r} descriptor gives both {source!r} "
                                  f"and {key!r}")
    try:
        for key, least in (("n", 1), ("v", 2)):
            if key in desc and int(desc[key]) < least:
                raise SchemaError(f"{kind!r} descriptor needs {key} >= {least}")
        return _build(desc)
    except KeyError as exc:
        raise SchemaError(f"{kind!r} descriptor is missing key "
                          f"{exc.args[0]!r}") from None
    except (TypeError, ValueError) as exc:   # e.g. "n": null or "mu": 1.5
        raise SchemaError(f"{kind!r} descriptor: {exc}") from None


def _build(desc):
    kind = desc.get("type")
    if kind == "constant":
        n = int(desc["n"])
        return None, constant_rule(n, float(desc["c"]))
    if kind == "linear":
        A = _load_csv_matrix(desc["A_csv"]) if "A_csv" in desc \
            else np.asarray(desc["A"], dtype=np.float64)
        return None, linear_rule(A)
    if kind == "spreading":
        if "R_csv" in desc:
            R = _load_csv_matrix(desc["R_csv"])
            model = SpreadingModel(R_matrix=R, mu=float(desc["mu"]),
                                   reinfection=bool(desc.get("reinfection", False)),
                                   domain_form=desc.get("domain_form", "product"))
        elif "rbar" in desc:
            model = mean_field(int(desc["n"]), float(desc["rbar"]), float(desc["mu"]),
                               reinfection=bool(desc.get("reinfection", False)),
                               domain_form=desc.get("domain_form", "product"))
        else:
            raise SchemaError("spreading descriptor needs R_csv or rbar")
        return model, spreading_rule(model)
    if kind == "domany_kinzel":
        model = DomanyKinzel(n=int(desc["n"]), q1=float(desc["q1"]),
                             q2=float(desc["q2"]), p0=float(desc.get("p0", 0.5)))
        return model, dk_rule(model, iid_start=bool(desc.get("iid_start", True)))
    if kind == "hanski":
        if "patch_csv" in desc:
            tbl = _load_csv_matrix(desc["patch_csv"])
            if tbl.shape[1] != 3:
                raise SchemaError("hanski patch_csv needs three columns (z, a, s), "
                                  f"got {tbl.shape[1]}")
            z, a_col, s_col = tbl.T
            model = HanskiModel(z=z,
                                a=lambda zz: np.interp(zz, z, a_col),
                                s=lambda zz: np.interp(zz, z, s_col),
                                kernel_scale=float(desc.get("kernel_scale", 0.25)))
        else:
            model = equidistributed(int(desc["n"]),
                                    kernel_scale=float(desc.get("kernel_scale", 0.25)))
        return model, hanski_rule(model)
    if kind == "graph":
        f, fp, sups = _attachment(desc)
        q = float(desc["q"])
        if "edges_csv" in desc:
            edges = _load_csv_matrix(desc["edges_csv"])
            if not np.array_equal(edges, np.round(edges)):   # NaN fails here too
                raise SchemaError("edges_csv vertices must be whole numbers")
            edges = edges.astype(int)
            model = GraphDynModel(host_edges=edges, v=int(desc["v"]), q=q,
                                  f=f, f_prime=fp, f_derivative_sups=sups)
        else:
            model = complete_host(int(desc["v"]), q, f, f_prime=fp,
                                  f_derivative_sups=sups)
        return model, graph_rule(model)
    if kind == "random_product":
        return None, random_product_rule(int(desc["n"]), int(desc.get("seed", 0)),
                                         strength=float(desc.get("strength", 0.8)))
