"""In-memory spans for the traced run, and the per-layer metrics they give.

The traced run wraps public library functions at every attribute a caller
can resolve them through (each ``lrctower`` module global bound to the same
function object, or the class attribute for methods) and restores them
afterwards.  A span is (name, start, end, parent); spans stay in memory
until the run ends.  A function that no longer exists is listed as absent
and its metrics read 0.
"""

from __future__ import annotations

import importlib
import os
import sys
from array import array
from contextlib import contextmanager

import numpy as np

# Nested calls of these spans inside a span of the same name are not
# recorded: vec_sub calls vec_add and vec_neg, for instance, and the
# elements it computes are counted once.
_FLAT = {"field.vec", "gflinalg.rowspace_intersection"}


def _cells(args, kwargs, out) -> float:
    return float(np.prod(np.shape(args[1] if len(args) > 1 else kwargs["mat"])))


def _elems(args, kwargs, out) -> float:
    return float(np.size(out))


def _written(args, kwargs, out) -> float:
    return float(os.path.getsize(args[1] if len(args) > 1 else kwargs["path"]))


def _caps(args, kwargs, out):
    return args[3] if len(args) > 3 else kwargs.get("caps")


# (module, attribute, span name, work measure, tag)
TARGETS = (
    ("lrctower.gflinalg", "rref", "gflinalg.rref", _cells, None),
    ("lrctower.gflinalg", "rowspace_intersection", "gflinalg.rowspace_intersection", None, None),
    ("lrctower.construct", "rowspace_intersection", "gflinalg.rowspace_intersection", None, None),
    ("lrctower.gflinalg", "matmul", "gflinalg.matmul", None, None),
    ("lrctower.construct", "spanning_set", "construct.spanning_set", None, _caps),
    ("lrctower.construct", "evaluation_matrix", "construct.evaluation_matrix", None, None),
    ("lrctower.construct", "orbit", "groups.orbit", None, None),
    ("lrctower.field", "FiniteField.__init__", "field.tables", None, None),
    ("lrctower.field", "FiniteField.vec_add", "field.vec", _elems, None),
    ("lrctower.field", "FiniteField.vec_neg", "field.vec", _elems, None),
    ("lrctower.field", "FiniteField.vec_sub", "field.vec", _elems, None),
    ("lrctower.field", "FiniteField.vec_mul", "field.vec", _elems, None),
    ("lrctower.field", "FiniteField.vec_pow", "field.vec", _elems, None),
    ("lrctower.tower", "TowerSpec.places", "tower.places", None, None),
    ("lrctower.cli", "construct_lrc", "construct.construct_lrc", None, None),
    ("lrctower.cli", "write_descriptor", "descriptor.write", _written, None),
    ("lrctower.cli", "load_code", "descriptor.load", None, None),
    ("lrctower.cli", "verify_code", "repair.verify_code", None, None),
)


class Tracer:
    """Append-only span store; spans nest by the order they open and close."""

    def __init__(self, clock):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.work = array("d")
        self.tags: dict[int, object] = {}
        self._stack = [-1]

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def __len__(self):
        return len(self.start)

    def open(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self.work.append(0.0)
        self._stack.append(i)
        self.start.append(self.clock())
        return i

    def close(self, i: int, work: float = 0.0) -> None:
        self.end[i] = self.clock()
        self.work[i] = work
        self._stack.pop()

    def current_name(self) -> int:
        top = self._stack[-1]
        return -1 if top < 0 else self.name[top]

    @contextmanager
    def span(self, name: str):
        i = self.open(self.name_id(name))
        try:
            yield i
        finally:
            self.close(i)


def _wrapper(tracer: Tracer, fn, name: str, measure, tag):
    nid = tracer.name_id(name)
    flat = name in _FLAT

    def traced(*args, **kwargs):
        if flat and tracer.current_name() == nid:
            return fn(*args, **kwargs)
        i = tracer.open(nid)
        work = 0.0
        try:
            out = fn(*args, **kwargs)
            if measure is not None:
                work = measure(args, kwargs, out)
            if tag is not None:
                tracer.tags[i] = tag(args, kwargs, out)
            return out
        finally:
            tracer.close(i, work)

    traced.__wrapped__ = fn
    return traced


@contextmanager
def instrument(tracer: Tracer):
    """Wrap every target for the duration of the block; yields the absent ones."""
    patched = []
    absent = []
    try:
        for module_name, attr, name, measure, tag in TARGETS:
            try:
                module = importlib.import_module(module_name)
                owner_name, _, fn_name = attr.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                fn = getattr(owner, fn_name)
            except (ImportError, AttributeError):
                absent.append(f"{module_name}.{attr}")
                continue
            traced = _wrapper(tracer, fn, name, measure, tag)
            if owner_name:
                patched.append((owner, fn_name, fn))
                setattr(owner, fn_name, traced)
                continue
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").partition(".")[0] != "lrctower":
                    continue
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        patched.append((mod, key, fn))
                        setattr(mod, key, traced)
        yield absent
    finally:
        for owner, key, fn in reversed(patched):
            setattr(owner, key, fn)


def self_times(start, end, parent, which) -> dict[int, float]:
    """Self time of each span in ``which``: its duration minus the part of
    it that the union of its direct children's intervals covers."""
    wanted = {int(i): [] for i in which}
    for j in np.nonzero(np.isin(parent, list(wanted)))[0]:
        wanted[int(parent[j])].append((start[j], end[j]))
    out = {}
    for i, kids in wanted.items():
        s, e = start[i], end[i]
        covered = 0.0
        cur_s = cur_e = None
        for ks, ke in sorted(kids):
            ks, ke = max(ks, s), min(ke, e)
            if ke <= ks:
                continue
            if cur_e is None or ks > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = ks, ke
            else:
                cur_e = max(cur_e, ke)
        if cur_e is not None:
            covered += cur_e - cur_s
        out[i] = (e - s) - covered
    return out


class SpanView:
    """Numpy view of the spans with indices in [lo, hi)."""

    def __init__(self, tracer: Tracer, lo: int, hi: int):
        self.tracer = tracer
        self.lo = lo
        # slicing copies, so the tracer's arrays stay free to grow
        self.name = np.frombuffer(tracer.name[lo:hi], dtype=np.int32)
        self.start = np.frombuffer(tracer.start[lo:hi])
        self.end = np.frombuffer(tracer.end[lo:hi])
        self.parent = np.frombuffer(tracer.parent[lo:hi], dtype=np.int32) - lo
        self.work = np.frombuffer(tracer.work[lo:hi])

    def ids(self, name: str) -> np.ndarray:
        nid = self.tracer._ids.get(name, -1)
        return np.nonzero(self.name == nid)[0]

    def ancestor_of(self, names: set[str]) -> np.ndarray:
        """For each span, the index of its nearest ancestor-or-self named in ``names`` (-1 if none)."""
        nids = {self.tracer._ids[n] for n in names if n in self.tracer._ids}
        out = np.full(self.name.size, -1, dtype=np.int64)
        for i in range(self.name.size):
            if self.name[i] in nids:
                out[i] = i
            elif self.parent[i] >= 0:
                out[i] = out[self.parent[i]]
        return out


def layer_metrics(view: SpanView, mask: np.ndarray, scale: float) -> dict[str, float]:
    """Per-layer counts and times over the spans selected by ``mask``.

    Times are multiplied by ``scale`` (the drift correction).
    """
    def sel(name):
        idx = view.ids(name)
        return idx[mask[idx]]

    def seconds(name):
        idx = sel(name)
        return float(np.sum(view.end[idx] - view.start[idx])) * scale

    def self_of(name):
        idx = sel(name)
        st = self_times(view.start, view.end, view.parent, idx)
        return sum(st.values()) * scale

    rref = sel("gflinalg.rref")
    profiles = 0
    for c in sel("construct.construct_lrc"):
        kids = [i for i in sel("construct.spanning_set") if view.parent[i] == c]
        profiles += len({view.tracer.tags.get(int(i) + view.lo) for i in kids})
    vec = sel("field.vec")
    return {
        "gflinalg.rref_calls": float(rref.size),
        "gflinalg.rref_s": seconds("gflinalg.rref"),
        "gflinalg.rref_cells": float(np.sum(view.work[rref])),
        "gflinalg.intersection_calls": float(sel("gflinalg.rowspace_intersection").size),
        "gflinalg.intersection_s": seconds("gflinalg.rowspace_intersection"),
        "gflinalg.matmul_calls": float(sel("gflinalg.matmul").size),
        "gflinalg.matmul_s": seconds("gflinalg.matmul"),
        "construct.profiles": float(profiles),
        "construct.spanning_set_s": seconds("construct.spanning_set"),
        "construct.evaluation_matrix_s": seconds("construct.evaluation_matrix"),
        "construct.self_s": self_of("construct.construct_lrc"),
        "field.tables_s": seconds("field.tables"),
        "field.vec_calls": float(vec.size),
        "field.vec_elems": float(np.sum(view.work[vec])),
        "field.vec_s": seconds("field.vec"),
        "descriptor.write_s": seconds("descriptor.write"),
        "descriptor.load_s": seconds("descriptor.load"),
        "descriptor.bytes": float(np.sum(view.work[sel("descriptor.write")])),
        "tower.places": float(sel("tower.places").size),
        "tower.places_s": seconds("tower.places"),
        "groups.orbit_calls": float(sel("groups.orbit").size),
        "groups.orbit_s": seconds("groups.orbit"),
        "cli.self_s": self_of("cli.main"),
    }
