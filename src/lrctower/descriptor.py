"""Bit-exact JSON descriptors for constructed codes.

The descriptor is self-contained: field modulus, tower spec, group element
lists, places, generator matrix, recovery sets and parameters.  Reading one
back rebuilds a working code object without any in-memory state from the
construction run.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .construct import CodeDims, CodeParams, LrcCode
from .field import field_from_json, field_to_json
from .groups import ADDITIVE, MULTIPLICATIVE, RecoveryGroup, build_recovery_group, combine
from .tower import Place, TowerSpec

FORMAT = "lrc-descriptor/1"


def group_to_json(group: RecoveryGroup) -> dict:
    if group.kind == ADDITIVE:
        return {"kind": ADDITIVE, "shifts": [int(a) for a in group.shifts]}
    return {"kind": MULTIPLICATIVE, "scalars": [int(c) for c in group.scalars]}


def group_from_json(spec: TowerSpec, obj: dict) -> RecoveryGroup:
    if obj["kind"] == ADDITIVE:
        return build_recovery_group(spec, ADDITIVE, shifts=[int(a) for a in obj["shifts"]])
    g = build_recovery_group(spec, MULTIPLICATIVE, order=len(obj["scalars"]))
    if list(g.scalars) != sorted(int(c) for c in obj["scalars"]):
        raise ValueError("scalar list does not match the canonical subgroup")
    return g


def code_to_descriptor(code: LrcCode, seed: int = 0) -> dict:
    return {
        "format": FORMAT,
        "field": field_to_json(code.field),
        "tower": {"variant": code.spec.variant, "ell": code.spec.ell, "m": code.spec.m},
        "groups": [group_to_json(code.group1), group_to_json(code.group2)],
        "places": [list(p.coords) for p in code.places],
        "generator_matrix": [[int(x) for x in row] for row in code.generator_matrix],
        "recovery_sets": [
            {"coord": i, "set1": list(s1), "set2": list(s2)}
            for i, (s1, s2) in enumerate(code.recovery_sets)
        ],
        "params": {
            "n": code.params.n,
            "k": code.params.k,
            "d_designed": code.params.d_designed,
            "r1": code.params.r1,
            "r2": code.params.r2,
        },
        "dims": {
            "dim_v1": code.dims.dim_v1,
            "dim_v2": code.dims.dim_v2,
            "dim_sum": code.dims.dim_sum,
            "budget": code.dims.budget,
            "caps": list(code.dims.caps) if code.dims.caps is not None else None,
        },
        "seed": seed,
    }


def descriptor_bytes(desc: dict) -> bytes:
    return (json.dumps(desc, sort_keys=True, indent=2) + "\n").encode()


def write_descriptor(code: LrcCode, path, seed: int = 0) -> None:
    Path(path).write_bytes(descriptor_bytes(code_to_descriptor(code, seed)))


def _required(obj: dict, key: str, path: str):
    """``obj[key]``, or a ValueError naming the JSON path of the missing key."""
    if not isinstance(obj, dict) or key not in obj:
        raise ValueError(f"descriptor has no {path}")
    return obj[key]


def code_from_descriptor(desc: dict) -> LrcCode:
    if desc.get("format") != FORMAT:
        raise ValueError(f"unknown descriptor format {desc.get('format')!r}")
    fld = field_from_json(_required(desc, "field", "field"))
    tw = _required(desc, "tower", "tower")
    tower = {key: _required(tw, key, f"tower.{key}") for key in ("variant", "ell", "m")}
    spec = TowerSpec(tower["variant"], fld, int(tower["m"]))
    if int(tower["ell"]) != fld.ell:
        raise ValueError("tower ell does not match the field")
    groups = _required(desc, "groups", "groups")
    g1 = group_from_json(spec, groups[0])
    g2 = group_from_json(spec, groups[1])
    places = [
        Place(coords=tuple(int(c) for c in co), spec=spec, index=i)
        for i, co in enumerate(_required(desc, "places", "places"))
    ]
    gen = np.array(_required(desc, "generator_matrix", "generator_matrix"), dtype=np.int64)
    if gen.ndim != 2:
        raise ValueError("generator matrix must be two-dimensional")
    n = len(places)

    def index(path: str, value) -> int:
        i = int(value)
        if not 0 <= i < n:
            raise ValueError(f"{path} = {i} out of range for n={n}")
        return i

    recovery = [(tuple(), tuple())] * n
    for e, entry in enumerate(_required(desc, "recovery_sets", "recovery_sets")):
        path = f"recovery_sets[{e}]"
        i = index(f"{path}.coord", _required(entry, "coord", f"{path}.coord"))
        recovery[i] = tuple(
            tuple(index(f"{path}.{key}[{h}]", x)
                  for h, x in enumerate(_required(entry, key, f"{path}.{key}")))
            for key in ("set1", "set2")
        )
    p = _required(desc, "params", "params")
    p = {key: int(_required(p, key, f"params.{key}")) for key in ("n", "k", "d_designed", "r1", "r2")}
    params = CodeParams(**p, q=fld.q, ell=fld.ell, m=spec.m, variant=spec.variant)
    d = desc.get("dims") or {}
    dims = CodeDims(
        dim_v1=int(d.get("dim_v1", 0)), dim_v2=int(d.get("dim_v2", 0)),
        dim_sum=int(d.get("dim_sum", 0)), budget=int(d.get("budget", 0)),
        caps=tuple(d["caps"]) if d.get("caps") is not None else None,
    )
    combine(g1, g2)  # validates the pair: trivial intersection and closure
    return LrcCode(
        spec=spec, group1=g1, group2=g2, places=places,
        generator_matrix=gen, recovery_sets=recovery, params=params, dims=dims,
    )


def load_code(path) -> LrcCode:
    return code_from_descriptor(json.loads(Path(path).read_text()))
