"""Bit-exact JSON descriptors for constructed codes.

The descriptor is self-contained: field modulus, tower spec, group element
lists, places, generator matrix, recovery sets and parameters.  Reading one
back rebuilds a working code object without any in-memory state from the
construction run.  ``FIELDS`` states the format: each fixed JSON path and
the kind of value it holds, with the code's tuples indexed by s written as
``r{s}``, ``dim_v{s}`` and ``set{s}`` (``groups[s - 1]``).  An object key it
does not name (the unread ``seed`` apart) is refused, as is a group or a
recovery set entry's key beyond the ones it names.  The long lists (places,
generator, recovery sets) are checked whole; their entries are walked only
to name a failure.  The checks here name the JSON path at fault.  The field
is rebuilt from ``field.p`` and ``field.k`` alone; ``field.modulus`` stays in
the format and must be that field's modulus.  Likewise ``places`` must be the
tower's canonical enumeration, which the code reads from its spec, and
``recovery_sets`` the groups' orbits, which the code derives
(``LrcCode.recovery_sets``); ``dims.caps`` must be one of the cap splits
construction searches for that budget.
"""

from __future__ import annotations

import json
import re
from json.encoder import encode_basestring_ascii
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .construct import CodeDims, LrcCode, _cap_profiles
from .field import shared_field
from .groups import ADDITIVE, MULTIPLICATIVE, build_recovery_group
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
GROUPS = [path.removesuffix(".kind") for path in FIELDS if path.startswith("groups[")]  # "groups[0]", ...


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


def _group(desc, spec: TowerSpec, at: str):
    kind = _read(desc, f"{at}.kind")
    path = f"{at}.{MEMBERS[kind]}"
    members = _read(desc, path, Ints())
    _known(_read(desc, at, dict), at, ("kind", MEMBERS[kind]))
    g = build_recovery_group(spec, kind, shifts=members, order=len(members))
    if sorted(members) != list(getattr(g, MEMBERS[kind])):
        raise ValueError(f"{path} does not match the canonical subgroup")
    return g


def _places(raw: list, spec: TowerSpec) -> None:
    """Refuse ``raw`` unless it is the spec's canonical place list: each
    entry m integer coordinates in [0, q), then entry by entry equal."""
    if not (all(type(co) is list and len(co) == spec.m for co in raw)
            and _ints_below(list(chain.from_iterable(raw)), spec.field.q)):
        for i, co in enumerate(raw):
            for c, x in enumerate(_check(co, f"places[{i}]", Ints(levels=True), spec.m)):
                _in_range(x, f"places[{i}][{c}]", spec.field.q, "q")
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


def _by_s(name: str, values) -> dict:
    """The s-indexed tuple ``values`` as the keys name1, name2, ..."""
    return {f"{name}{s}": v for s, v in enumerate(values, 1)}


def _recovery_entries(code: LrcCode) -> list[dict]:
    """The ``recovery_sets`` list of ``code``: entry i holds coordinate i's row of each set array."""
    entries = [{"coord": i} for i in range(code.params.n)]
    for key, sets in _by_s("set", code.recovery_sets).items():  # key by key: a dict(zip()) per entry is slower
        for entry, row in zip(entries, sets.tolist()):
            entry[key] = row
    return entries


def _recovery(desc, code: LrcCode) -> None:
    """Refuse ``recovery_sets`` unless it is ``code``'s own layout, entry by
    entry, with every value an int (JSON true and 1.0 equal 1 in Python);
    else name the first entry that differs, or the count."""
    raw, want, keys = _read(desc, "recovery_sets"), _recovery_entries(code), _by_s("set", code.recovery_sets)
    if raw == want and ({type(e["coord"]) for e in raw}
                        | set(map(type, chain.from_iterable(e[key] for e in raw for key in keys)))) <= {int}:
        return
    for e, entry in enumerate(want[:len(raw)]):
        path = f"recovery_sets[{e}]"
        _known(_read(desc, path, dict), path, entry)
        coord = _read(desc, f"{path}.coord", int)
        if coord != e:
            raise ValueError(f"{path}.coord = {coord} is not {e}")
        for key in keys:
            got = list(_read(desc, f"{path}.{key}", Ints()))
            if got != entry[key]:
                raise ValueError(f"{path}.{key} = {got} is not the orbit set {entry[key]}")
    raise ValueError(f"recovery_sets has {len(raw)} entries, the code has {len(want)} coordinates")


def code_to_descriptor(code: LrcCode, seed: int = 0) -> dict:
    fld, spec, p, dims = code.field, code.spec, code.params, code.dims
    return {
        "format": FORMAT,
        "field": {"p": fld.p, "k": fld.k, "modulus": list(fld.modulus)},
        "tower": {"variant": spec.variant, "ell": fld.ell, "m": spec.m},
        "groups": [{"kind": g.kind, MEMBERS[g.kind]: [int(x) for x in getattr(g, MEMBERS[g.kind])]}
                   for g in code.groups],
        "places": spec.places().tolist(),
        "generator_matrix": code.generator_matrix.tolist(),
        "recovery_sets": _recovery_entries(code),
        "params": {"n": p.n, "k": p.k, "d_designed": p.d_designed, **_by_s("r", p.r)},
        "dims": {**_by_s("dim_v", dims.dim_v), "dim_sum": dims.dim_sum, "budget": dims.budget,
                 "caps": None if dims.caps is None else list(dims.caps)},
        "seed": seed,
    }


def json_text(value) -> str:
    """``json.dumps(value, sort_keys=True, indent=2) + "\\n"``, the one writer
    of descriptors and reports.  It walks objects (str keys), lists and
    tuples itself and joins a list of plain ints once; ``json.dumps`` with
    ``indent`` would run its pure-Python encoder on every value."""
    return _json(value, "\n") + "\n"


_LITERALS = {True: "true", False: "false", None: "null"}


def _json(value, pad: str) -> str:
    """``value`` as JSON whose nested lines start with ``pad`` + two spaces."""
    kind = type(value)
    if kind is int:
        return str(value)
    if kind is bool or value is None:
        return _LITERALS[value]
    if kind not in (dict, list, tuple):
        return json.dumps(value)
    inner = pad + "  "
    if kind is dict:
        items = [f"{encode_basestring_ascii(key)}: {_json(value[key], inner)}" for key in sorted(value)]
    elif all(type(x) is int for x in value):
        items = list(map(str, value))
    else:
        items = [_json(x, inner) for x in value]
    brackets = "{}" if kind is dict else "[]"
    if not items:
        return brackets
    return brackets[0] + inner + ("," + inner).join(items) + pad + brackets[1]


def write_descriptor(code: LrcCode, path, seed: int = 0) -> None:
    Path(path).write_bytes(json_text(code_to_descriptor(code, seed)).encode())


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
        raise ValueError(f"tower.ell = {tower['ell']} does not match the field's l = {fld.ell}")
    groups = tuple(_group(desc, spec, at) for at in GROUPS)
    if len(desc["groups"]) != len(groups):
        raise ValueError(f"groups must hold {len(groups)} entries, got {len(desc['groups'])}")
    _places(_read(desc, "places"), spec)
    gen = _generator(_read(desc, "generator_matrix"), fld.q)
    d = _block(desc, "dims", spec.m)
    dims = CodeDims(tuple(d.pop(key) for key in list(d) if key.startswith("dim_v")), **d)
    p = _block(desc, "params")
    code = LrcCode(spec=spec, groups=groups, generator_matrix=gen, d_designed=p["d_designed"], dims=dims)
    _recovery(desc, code)
    # the block must state what the code derives
    n, k = code.params.n, code.params.k
    derived = {"n": (n, "the {} places"), "k": (k, "the row count {} of generator_matrix"),
               **_by_s("r", [(r, f"the locality {{}} of {at}") for r, at in zip(code.params.r, GROUPS)])}
    for key, (value, source) in derived.items():
        if p[key] != value:
            raise ValueError(f"params.{key} = {p[key]} does not match {source.format(value)}")
    # the rank identity (t = 2): V_1 + V_2 holds both spaces and lies in GF(q)^n
    names, v, total = list(_by_s("dim_v", dims.dim_v)), dims.dim_v, dims.dim_sum
    if sum(v) - total != k:
        raise ValueError(f"dims.{' + dims.'.join(names)} - dims.dim_sum = {sum(v) - total} does not match k = {k}")
    if not max(v) <= total <= n:
        raise ValueError(f"dims.dim_sum = {total} is not in [max({', '.join(names)}), n] = [{max(v)}, {n}]")
    if dims.caps not in _cap_profiles(spec, dims.budget):
        caps = "null" if dims.caps is None else list(dims.caps)
        raise ValueError(f"dims.caps = {caps} is not a cap split of budget {dims.budget}")
    return code


def load_code(path) -> LrcCode:
    return code_from_descriptor(json.loads(Path(path).read_text()))
