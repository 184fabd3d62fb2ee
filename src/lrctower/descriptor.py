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


def _required(obj, key, path: str):
    """``obj[key]`` for a dict key or a list index, or a ValueError naming
    the JSON path of the missing entry."""
    if isinstance(obj, dict):
        present = key in obj
    else:
        present = isinstance(obj, list) and isinstance(key, int) and 0 <= key < len(obj)
    if not present:
        raise ValueError(f"descriptor has no {path}")
    return obj[key]


def _integer(value, path: str) -> int:
    """``value`` if it is an integer (not a float, bool or string), else a
    ValueError naming its JSON path: nothing is truncated."""
    if type(value) is not int:
        raise ValueError(f"{path} must be an integer, got {value!r}")
    return value


def _list(value, path: str) -> list:
    """``value`` if it is a list, else a ValueError naming its JSON path."""
    if not isinstance(value, list):
        raise ValueError(f"{path} must be a list, got {value!r}")
    return value


def _int_list(value, path: str, length: int | None = None) -> list[int]:
    """``value`` if it is a list of integers (of ``length`` entries, if
    given), else a ValueError naming its JSON path."""
    if not (isinstance(value, list) and all(type(x) is int for x in value)
            and length in (None, len(value))):
        size = "" if length is None else f" of length {length}"
        raise ValueError(f"{path} must be a list of integers{size}, got {value!r}")
    return value


def _generator(raw, q: int) -> np.ndarray:
    """The generator matrix of ``raw`` if it is a rectangular list of integer
    rows with every entry in [0, q), else a ValueError naming the first bad
    entry.  The test is on the whole array; the rows are walked only to name
    a failure."""
    try:
        gen = np.array(raw)
    except ValueError:  # ragged rows
        gen = None
    if (gen is not None and gen.ndim == 2 and gen.dtype.kind in "iu"
            and ((gen >= 0) & (gen < q)).all()):
        return gen
    for r, row in enumerate(raw if isinstance(raw, list) else []):
        path = f"generator_matrix[{r}]"
        if not isinstance(row, list):
            raise ValueError(f"{path} must be a list of integers, got {row!r}")
        if len(row) != len(raw[0]):
            raise ValueError(f"{path} has {len(row)} entries, generator_matrix[0] has {len(raw[0])}")
        for c, x in enumerate(row):
            if type(x) is not int:
                raise ValueError(f"{path}[{c}] must be an integer, got {x!r}")
            if not 0 <= x < q:
                raise ValueError(f"{path}[{c}] = {x} out of range for q={q}")
    raise ValueError(f"generator_matrix must be a non-empty list of integer rows, got {raw!r}")


def group_from_json(spec: TowerSpec, obj: dict, path: str) -> RecoveryGroup:
    """The group of one ``groups[e]`` entry; ``path`` names it in errors."""
    if _required(obj, "kind", f"{path}.kind") == ADDITIVE:
        shifts = _int_list(_required(obj, "shifts", f"{path}.shifts"), f"{path}.shifts")
        return build_recovery_group(spec, ADDITIVE, shifts=shifts)
    scalars = _int_list(_required(obj, "scalars", f"{path}.scalars"), f"{path}.scalars")
    g = build_recovery_group(spec, MULTIPLICATIVE, order=len(scalars))
    if list(g.scalars) != sorted(scalars):
        raise ValueError("scalar list does not match the canonical subgroup")
    return g


def code_to_descriptor(code: LrcCode, seed: int = 0) -> dict:
    return {
        "format": FORMAT,
        "field": field_to_json(code.field),
        "tower": {"variant": code.spec.variant, "ell": code.spec.ell, "m": code.spec.m},
        "groups": [group_to_json(code.group1), group_to_json(code.group2)],
        "places": [list(p.coords) for p in code.places],
        "generator_matrix": code.generator_matrix.tolist(),
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


def code_from_descriptor(desc: dict) -> LrcCode:
    if desc.get("format") != FORMAT:
        raise ValueError(f"unknown descriptor format {desc.get('format')!r}")
    fd = _required(desc, "field", "field")
    fld = field_from_json({
        "p": _integer(_required(fd, "p", "field.p"), "field.p"),
        "k": _integer(_required(fd, "k", "field.k"), "field.k"),
        "modulus": _int_list(_required(fd, "modulus", "field.modulus"), "field.modulus"),
    })
    tw = _required(desc, "tower", "tower")
    variant = _required(tw, "variant", "tower.variant")
    ell, m = (_integer(_required(tw, key, f"tower.{key}"), f"tower.{key}") for key in ("ell", "m"))
    spec = TowerSpec(variant, fld, m)
    if ell != fld.ell:
        raise ValueError("tower ell does not match the field")
    groups = _required(desc, "groups", "groups")
    g1, g2 = (group_from_json(spec, _required(groups, e, f"groups[{e}]"), f"groups[{e}]")
              for e in (0, 1))
    places = []
    for i, co in enumerate(_list(_required(desc, "places", "places"), "places")):
        for c, x in enumerate(_int_list(co, f"places[{i}]", spec.m)):
            if not 0 <= x < fld.q:
                raise ValueError(f"places[{i}][{c}] = {x} out of range for q={fld.q}")
        places.append(Place(coords=tuple(co), spec=spec, index=i))
    gen = _generator(_required(desc, "generator_matrix", "generator_matrix"), fld.q)
    n = len(places)

    def index(path: str, value) -> int:
        if not 0 <= _integer(value, path) < n:
            raise ValueError(f"{path} = {value} out of range for n={n}")
        return value

    recovery = [(tuple(), tuple())] * n
    owner: dict[int, int] = {}  # coord -> the recovery_sets entry that holds it
    recovery_sets = _list(_required(desc, "recovery_sets", "recovery_sets"), "recovery_sets")
    for e, entry in enumerate(recovery_sets):
        path = f"recovery_sets[{e}]"
        i = index(f"{path}.coord", _required(entry, "coord", f"{path}.coord"))
        if i in owner:
            raise ValueError(f"{path}.coord = {i} repeats recovery_sets[{owner[i]}].coord")
        owner[i] = e
        recovery[i] = tuple(
            tuple(index(f"{path}.{key}[{h}]", x)
                  for h, x in enumerate(_int_list(_required(entry, key, f"{path}.{key}"),
                                                  f"{path}.{key}")))
            for key in ("set1", "set2")
        )
    if len(owner) < n:
        missing = min(set(range(n)) - owner.keys())
        raise ValueError(f"recovery_sets has no entry with coord {missing}")
    p = _required(desc, "params", "params")
    p = {key: _integer(_required(p, key, f"params.{key}"), f"params.{key}")
         for key in ("n", "k", "d_designed", "r1", "r2")}
    if p["n"] != n:
        raise ValueError(f"params.n = {p['n']} does not match the {n} places")
    if gen.shape[1] != n:
        raise ValueError(f"params.n = {n} does not match the column count {gen.shape[1]} of generator_matrix")
    if p["k"] != gen.shape[0]:
        raise ValueError(f"params.k = {p['k']} does not match the row count {gen.shape[0]} of generator_matrix")
    params = CodeParams(**p, q=fld.q, ell=fld.ell, m=spec.m, variant=spec.variant)
    d = _required(desc, "dims", "dims")
    caps = _required(d, "caps", "dims.caps")  # one cap per tower level, or null
    dims = CodeDims(
        **{key: _integer(_required(d, key, f"dims.{key}"), f"dims.{key}")
           for key in ("dim_v1", "dim_v2", "dim_sum", "budget")},
        caps=None if caps is None else tuple(_int_list(caps, "dims.caps", spec.m)),
    )
    combine(g1, g2)  # validates the pair: trivial intersection and closure
    return LrcCode(
        spec=spec, group1=g1, group2=g2, places=places,
        generator_matrix=gen, recovery_sets=recovery, params=params, dims=dims,
    )


def load_code(path) -> LrcCode:
    return code_from_descriptor(json.loads(Path(path).read_text()))
