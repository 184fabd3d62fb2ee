"""Bit-exact JSON descriptors for constructed codes.

The descriptor is self-contained: field modulus, tower spec, group element
lists, places, generator matrix, recovery sets and parameters.  Reading one
back rebuilds a working code object without any in-memory state from the
construction run.  ``FIELDS`` states the format: each fixed JSON path and
the kind of value it holds.  An object key it does not name (the unread
``seed`` apart) is refused, as is a third group or a recovery set entry's key
other than ``coord``, ``set1`` and ``set2``.  The long lists (places,
generator, recovery sets) are checked whole; their entries are walked only
to name a failure.  The checks here name the JSON path at fault.  The field
is rebuilt from ``field.p`` and ``field.k`` alone; ``field.modulus`` stays in
the format and must be that field's modulus.  Likewise ``places`` must be the
tower's canonical enumeration, which the code reads from its spec.
"""

from __future__ import annotations

import json
import re
from dataclasses import asdict, dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .construct import CodeDims, LrcCode
from .field import shared_field
from .groups import ADDITIVE, MULTIPLICATIVE, build_recovery_group, combine
from .tower import GS95, GS96, TowerSpec

FORMAT = "lrc-descriptor/1"


@dataclass(frozen=True)
class Ints:
    """A list of integers, read as a tuple: one per tower level if ``levels``, or null if ``nullable``."""

    levels: bool = False
    nullable: bool = False


# Each fixed JSON path and its kind: int, list, Ints, or a tuple of the values
# it may take; one line per JSON object.
FIELDS = {
    "format": (FORMAT,),
    "field.p": int, "field.k": int, "field.modulus": Ints(),
    "tower.variant": (GS96, GS95), "tower.ell": int, "tower.m": int,
    "groups[0].kind": (ADDITIVE, MULTIPLICATIVE), "groups[1].kind": (ADDITIVE, MULTIPLICATIVE),
    "places": list, "generator_matrix": list, "recovery_sets": list,
    "dims.dim_v1": int, "dims.dim_v2": int, "dims.dim_sum": int, "dims.budget": int,
    "dims.caps": Ints(levels=True, nullable=True),
    "params.n": int, "params.k": int, "params.d_designed": int, "params.r1": int, "params.r2": int,
}
MEMBERS = {ADDITIVE: "shifts", MULTIPLICATIVE: "scalars"}  # a group's element list, by its kind
TOP_KEYS = {re.match(r"\w+", path)[0] for path in FIELDS} | {"seed"}  # seed is written, never read


def _check(value, path: str, kind, m: int | None = None):
    """``value`` if it is of ``kind`` (``m`` is the level count), else a ValueError naming ``path``."""
    if isinstance(kind, Ints):
        if value is None and kind.nullable:
            return None
        ok = (isinstance(value, list) and all(type(x) is int for x in value)
              and (not kind.levels or len(value) == m))
        want = "a list of integers" + (f" of length {m}" if kind.levels else "")
    elif isinstance(kind, tuple):
        ok, want = value in kind, "one of " + ", ".join(map(repr, kind))
    else:
        ok = type(value) is int if kind is int else isinstance(value, kind)
        want = {int: "an integer", list: "a list", dict: "an object"}[kind]
    if not ok:
        raise ValueError(f"{path} must be {want}, got {value!r}")
    return tuple(value) if isinstance(kind, Ints) else value


def _read(desc, path: str, kind=None, m: int | None = None):
    """The value at JSON ``path`` ("a.b[3].c"), checked against ``kind`` or ``FIELDS[path]``."""
    value, at = desc, "descriptor"
    for step in re.finditer(r"(\w+)(\]?)", path):
        key = int(step[1]) if step[2] else step[1]
        value = _check(value, at, list if step[2] else dict)
        if key not in (range(len(value)) if step[2] else value):
            raise ValueError(f"descriptor has no {path[:step.end()]}")
        value, at = value[key], path[:step.end()]
    return _check(value, path, FIELDS[path] if kind is None else kind, m)


def _known(obj: dict, path: str, keys) -> None:
    """Refuse a key of the JSON object at ``path`` that is not in ``keys``."""
    extra = sorted(set(obj) - set(keys))
    if extra:
        raise ValueError(f"{path} has unknown key {extra[0]!r}")


def _block(desc, name: str, m: int | None = None) -> dict:
    """Every ``FIELDS`` entry under ``name``, read in table order, by key; the
    object holds no other key."""
    out = {path[len(name) + 1:]: _read(desc, path, m=m)
           for path in FIELDS if path.startswith(name + ".")}
    _known(_read(desc, name, dict), name, out)
    return out


def _in_range(x: int, path: str, bound: int, name: str) -> int:
    if not 0 <= x < bound:
        raise ValueError(f"{path} = {x} out of range for {name}={bound}")
    return x


def _ints_below(values: list, bound: int) -> bool:
    return set(map(type, values)) <= {int} and (not values or 0 <= min(values) and max(values) < bound)


def _group(desc, spec: TowerSpec, e: int):
    kind = _read(desc, f"groups[{e}].kind")
    path = f"groups[{e}].{MEMBERS[kind]}"
    members = _read(desc, path, Ints())
    _known(_read(desc, f"groups[{e}]", dict), f"groups[{e}]", ("kind", MEMBERS[kind]))
    g = build_recovery_group(spec, kind, shifts=members, order=len(members))
    if sorted(members) != list(getattr(g, MEMBERS[kind])):
        raise ValueError(f"{path} does not match the canonical subgroup")
    return g


def _places(raw: list, spec: TowerSpec) -> None:
    """Refuse ``raw`` unless it is the spec's canonical place list: each
    entry m integer coordinates in [0, q), then entry by entry equal."""
    if not (all(type(co) is list and len(co) == spec.m for co in raw)
            and _ints_below(list(chain.from_iterable(raw)), spec.q)):
        for i, co in enumerate(raw):
            for c, x in enumerate(_check(co, f"places[{i}]", Ints(levels=True), spec.m)):
                _in_range(x, f"places[{i}][{c}]", spec.q, "q")
    canonical = spec.places().tolist()
    if raw != canonical:
        for i, (co, want) in enumerate(zip(raw, canonical)):
            if co != want:
                raise ValueError(f"places[{i}] = {co} is not the canonical place {want}")
        raise ValueError(f"places has {len(raw)} entries, the tower has {len(canonical)} places")


def _generator(raw: list, q: int) -> np.ndarray:
    """``raw`` as a matrix with entries in [0, q); numpy reads true as 1, so types go first."""
    if (raw and all(type(row) is list and len(row) == len(raw[0]) for row in raw)
            and set(map(type, chain.from_iterable(raw))) == {int}):
        gen = np.array(raw)
        if ((gen >= 0) & (gen < q)).all():
            return gen
    for r, row in enumerate(raw):
        path = f"generator_matrix[{r}]"
        if not isinstance(row, list):
            raise ValueError(f"{path} must be a list of integers, got {row!r}")
        if len(row) != len(raw[0]):
            raise ValueError(f"{path} has {len(row)} entries, generator_matrix[0] has {len(raw[0])}")
        for c, x in enumerate(row):
            _in_range(_check(x, f"{path}[{c}]", int), f"{path}[{c}]", q, "q")
    raise ValueError(f"generator_matrix must be a non-empty list of integer rows, got {raw!r}")


def _recovery(desc, raw: list, n: int) -> list:
    """The (set1, set2) of every coordinate: ``raw`` holds each coordinate in
    [0, n) once, as ``coord``, with two lists of indices in [0, n) and no other key."""
    keys = {"coord", "set1", "set2"}
    if not (all(type(e) is dict and e.keys() <= keys and "coord" in e
                and type(e.get("set1")) is type(e.get("set2")) is list for e in raw)
            and _ints_below([e["coord"] for e in raw], n) and len({e["coord"] for e in raw}) == n == len(raw)
            and _ints_below([x for e in raw for x in e["set1"] + e["set2"]], n)):
        owner: dict[int, int] = {}  # coord -> the recovery_sets entry that holds it
        for e in range(len(raw)):
            path = f"recovery_sets[{e}]"
            i = _in_range(_read(desc, f"{path}.coord", int), f"{path}.coord", n, "n")
            if owner.setdefault(i, e) != e:
                raise ValueError(f"{path}.coord = {i} repeats recovery_sets[{owner[i]}].coord")
            for key in ("set1", "set2"):
                for h, x in enumerate(_read(desc, f"{path}.{key}", Ints())):
                    _in_range(x, f"{path}.{key}[{h}]", n, "n")
            _known(raw[e], path, keys)
        if len(owner) < n:
            raise ValueError(f"recovery_sets has no entry with coord {min(set(range(n)) - owner.keys())}")
    return [(tuple(e["set1"]), tuple(e["set2"])) for e in sorted(raw, key=lambda e: e["coord"])]


def code_to_descriptor(code: LrcCode, seed: int = 0) -> dict:
    fld, spec, dims = code.field, code.spec, code.dims
    return {
        "format": FORMAT,
        "field": {"p": fld.p, "k": fld.k, "modulus": list(fld.modulus)},
        "tower": {"variant": spec.variant, "ell": spec.ell, "m": spec.m},
        "groups": [{"kind": g.kind, MEMBERS[g.kind]: [int(x) for x in getattr(g, MEMBERS[g.kind])]}
                   for g in (code.group1, code.group2)],
        "places": spec.places().tolist(),
        "generator_matrix": code.generator_matrix.tolist(),
        "recovery_sets": [{"coord": i, "set1": list(s1), "set2": list(s2)}
                          for i, (s1, s2) in enumerate(code.recovery_sets)],
        "params": asdict(code.params),
        "dims": {**asdict(dims), "caps": None if dims.caps is None else list(dims.caps)},
        "seed": seed,
    }


def descriptor_bytes(desc: dict) -> bytes:
    return (json.dumps(desc, sort_keys=True, indent=2) + "\n").encode()


def write_descriptor(code: LrcCode, path, seed: int = 0) -> None:
    Path(path).write_bytes(descriptor_bytes(code_to_descriptor(code, seed)))


def code_from_descriptor(desc: dict) -> LrcCode:
    _read(desc, "format")
    _known(desc, "descriptor", TOP_KEYS)
    field = _block(desc, "field")
    fld = shared_field(field["p"], field["k"])
    if field["modulus"] != fld.modulus:
        raise ValueError(f"field.modulus = {list(field['modulus'])} is not the modulus {list(fld.modulus)} of {fld}")
    tower = _block(desc, "tower")
    spec = TowerSpec(tower["variant"], fld, tower["m"])
    if tower["ell"] != fld.ell:
        raise ValueError("tower ell does not match the field")
    g1, g2 = (_group(desc, spec, e) for e in (0, 1))
    if len(desc["groups"]) != 2:
        raise ValueError(f"groups must hold 2 entries, got {len(desc['groups'])}")
    _places(_read(desc, "places"), spec)
    gen = _generator(_read(desc, "generator_matrix"), fld.q)
    recovery = _recovery(desc, _read(desc, "recovery_sets"), len(spec.places()))
    dims = CodeDims(**_block(desc, "dims", spec.m))
    p = _block(desc, "params")
    combine(g1, g2)  # validates the pair: trivial intersection, H2 normalizes H1
    code = LrcCode(spec=spec, group1=g1, group2=g2, generator_matrix=gen,
                   recovery_sets=recovery, d_designed=p["d_designed"], dims=dims)
    # the block must state what the code derives
    n, k = code.params.n, code.params.k
    for key, source in (("n", "the {} places"), ("k", "the row count {} of generator_matrix"),
                        ("r1", "the locality {} of groups[0]"), ("r2", "the locality {} of groups[1]")):
        value = getattr(code.params, key)
        if p[key] != value:
            raise ValueError(f"params.{key} = {p[key]} does not match {source.format(value)}")
    # the rank identity of V1 and V2, whose sum holds both and lies in GF(q)^n
    v1, v2, total = dims.dim_v1, dims.dim_v2, dims.dim_sum
    if v1 + v2 - total != k:
        raise ValueError(f"dims.dim_v1 + dims.dim_v2 - dims.dim_sum = {v1 + v2 - total} does not match k = {k}")
    if not max(v1, v2) <= total <= n:
        raise ValueError(f"dims.dim_sum = {total} is not in [max(dim_v1, dim_v2), n] = [{max(v1, v2)}, {n}]")
    return code


def load_code(path) -> LrcCode:
    return code_from_descriptor(json.loads(Path(path).read_text()))
