import dataclasses
import functools
import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lrctower import (FiniteField, TowerSpec, artin_schreier_kernel, build_recovery_group, check_place,
                      evaluation_matrix, genus, spanning_set)
from lrctower import tower
from lrctower.errors import UnsupportedDepth
from lrctower.field import shared_field


def _value_at(t, coords, fld, group=None):
    """evaluation_matrix of one exponent vector on a one-row coordinate array."""
    return int(evaluation_matrix(np.array([t]), np.array([coords], dtype=np.int64), fld, group)[0, 0])


def _scalar_check_place(spec, coords):
    """The reference membership test: the tower recursion checked level by
    level with scalar pow/add/mul/inv, in place of a lookup in the
    enumeration.  Level 1 is each variant's filter (y_1 off the
    Artin-Schreier kernel, x_1 nonzero); level i > 1 tests a_i^l + a_i
    against y_{i-1}^l / (y_{i-1}^(l-1) + 1) on the y-tower and x_1^(l+1) on
    the xz-tower, which is exact to its Hermitian level."""
    f, ell = spec.field, spec.field.ell
    trace = [f.add(f.pow(a, ell), a) for a in coords]
    if spec.variant == "gs96":
        for i in range(spec.m):
            if trace[i] == 0:
                return False, f"coordinate {i + 1} lies in the additive kernel"
            if i > 0:
                y = coords[i - 1]
                if trace[i] != f.mul(f.pow(y, ell), f.inv(f.add(f.pow(y, ell - 1), 1))):
                    return False, f"level {i + 1} recursion equation fails"
    else:
        if coords[0] == 0:
            return False, "first coordinate is zero"
        for i in range(1, spec.m):
            if trace[i] != f.pow(coords[0], ell + 1):
                return False, f"level {i + 1} recursion equation fails"
    return True, "ok"


def test_rational_level_places_gf9(gf9):
    spec = TowerSpec("gs96", gf9, 1)
    coords = spec.places()[:, 0].tolist()
    # everything except the kernel {0, t, 2t} = {0, 3, 6}
    assert coords == [1, 2, 4, 5, 7, 8]


@pytest.mark.parametrize("pk,m", [((2, 2), 1), ((2, 2), 2), ((2, 2), 3),
                                  ((3, 2), 1), ((3, 2), 2), ((3, 2), 3),
                                  ((2, 4), 2), ((5, 2), 2), ((5, 2), 3)])
def test_y_tower_place_counts(pk, m):
    f = FiniteField(*pk)
    spec = TowerSpec("gs96", f, m)
    assert len(spec.places()) == (f.q - f.ell) * f.ell ** (m - 1)


@pytest.mark.parametrize("pk,m", [((2, 2), 1), ((2, 2), 2), ((3, 2), 2),
                                  ((2, 4), 2), ((5, 2), 1), ((5, 2), 2)])
def test_xz_tower_place_counts(pk, m):
    f = FiniteField(*pk)
    spec = TowerSpec("gs95", f, m)
    assert len(spec.places()) == (f.q - 1) * f.ell ** (m - 1)


def test_spec_holds_only_its_inputs(gf9, monkeypatch):
    """A spec is (variant, field, m), frozen; equal specs hash equal, and
    each enumerates its places once, on first use."""
    a, b = TowerSpec("gs96", gf9, 2), TowerSpec("gs96", FiniteField(3, 2), 2)
    assert [f.name for f in dataclasses.fields(TowerSpec)] == ["variant", "field", "m"]
    assert a == b and hash(a) == hash(b) and a != TowerSpec("gs96", gf9, 1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.m = 3
    calls = []
    enumerate_places = tower._enumerate
    monkeypatch.setattr(tower, "_enumerate", lambda spec: calls.append(spec) or enumerate_places(spec))
    for spec in (a, a, b):
        assert spec.places().shape == (18, 2)
    assert len(calls) == 2 and calls[0] is a and calls[1] is b


def test_chain_lemma_every_coordinate_off_kernel(gf9):
    spec = TowerSpec("gs96", gf9, 3)
    ell = gf9.ell
    for a in spec.places().ravel().tolist():
        assert gf9.add(gf9.pow(a, ell), a) != 0
        assert a != 0


def test_place_ordering_is_lexicographic(gf9):
    spec = TowerSpec("gs96", gf9, 2)
    tuples = [tuple(row) for row in spec.places().tolist()]
    assert tuples == sorted(set(tuples)) and len(tuples) == 18


def test_check_place_round_trip(gf9, gf25):
    for spec in (TowerSpec("gs96", gf9, 2), TowerSpec("gs95", gf25, 2)):
        for coords in spec.places():
            ok, why = check_place(spec, coords)
            assert ok, why


def test_check_place_rejections(gf9):
    spec2 = TowerSpec("gs96", gf9, 2)
    ok, why = check_place(spec2, (3, 1))  # t is in the kernel
    assert not ok and "kernel" in why
    spec1 = TowerSpec("gs96", gf9, 1)
    assert check_place(spec1, (1,))[0]
    assert not check_place(spec2, (1,))[0]  # wrong arity
    # shifting the last coordinate by 1 (not a kernel element) breaks level 2
    a1, a2 = spec2.places()[0].tolist()
    bad = (a1, gf9.add(a2, 1))
    ok, why = check_place(spec2, bad)
    assert not ok and "recursion" in why
    h = TowerSpec("gs95", gf9, 2)
    assert not check_place(h, (0, 1))[0]


@pytest.mark.parametrize("variant,pk,m", [
    ("gs96", (2, 2), 1), ("gs96", (2, 2), 2), ("gs96", (2, 2), 3),
    ("gs96", (3, 2), 1), ("gs96", (3, 2), 2), ("gs96", (3, 2), 3),
    ("gs95", (2, 2), 2), ("gs95", (3, 2), 1), ("gs95", (3, 2), 2), ("gs95", (5, 2), 2),
])
def test_check_place_matches_scalar_oracle_on_the_whole_box(variant, pk, m):
    """Over every tuple of GF(q)^m the scalar oracle accepts exactly the rows
    of spec.places(), in order, and check_place gives its verdict and its
    message; the one difference is a y-tower coordinate in the kernel above
    level 1, which check_place names as that level's recursion failing."""
    spec = TowerSpec(variant, FiniteField(*pk), m)
    box = list(itertools.product(range(spec.field.q), repeat=m))
    oracle = [_scalar_check_place(spec, coords) for coords in box]
    assert [list(c) for c, (ok, _) in zip(box, oracle) if ok] == spec.places().tolist()
    for coords, (ok, why) in zip(box, oracle):
        if why.startswith("coordinate") and not why.startswith("coordinate 1 "):
            why = f"level {why.split()[1]} recursion equation fails"
        assert check_place(spec, coords) == (ok, why)


def test_check_place_names_the_level_of_a_kernel_coordinate(gf9):
    """A y-tower coordinate in the kernel {0, 3, 6} above level 1 fails that
    level's recursion: the prefix lookup names the level, not the kernel."""
    spec = TowerSpec("gs96", gf9, 3)
    a1, a2, _ = spec.places()[0].tolist()
    for kernel in (0, 3, 6):
        assert _scalar_check_place(spec, (a1, kernel, 1)) == (False, "coordinate 2 lies in the additive kernel")
        assert check_place(spec, (a1, kernel, 1)) == (False, "level 2 recursion equation fails")
        assert check_place(spec, (a1, a2, kernel)) == (False, "level 3 recursion equation fails")


@pytest.mark.parametrize("variant", ["gs96", "gs95"])
@pytest.mark.parametrize("value", [-1, 9, 99])
def test_check_place_refuses_codes_outside_the_field(gf9, variant, value):
    """A coordinate outside [0, q) is refused by name before any table is
    read: -1 would otherwise wrap to the last code, and 99 index past it."""
    spec = TowerSpec(variant, gf9, 2)
    good = spec.places()[0].tolist()
    for i in range(2):
        coords = list(good)
        coords[i] = value
        assert check_place(spec, coords) == (False, f"coordinate {i + 1} = {value} is outside [0, 9)")
    assert check_place(TowerSpec(variant, gf9, 1), (value,)) == (False, f"coordinate 1 = {value} is outside [0, 9)")


def test_depth_caps(gf9):
    with pytest.raises(UnsupportedDepth):
        TowerSpec("gs96", gf9, 4)
    with pytest.raises(UnsupportedDepth):
        TowerSpec("gs95", gf9, 3)


def test_genus_table():
    table = {
        (2, 1): 0, (2, 2): 1, (2, 3): 3,
        (3, 1): 0, (3, 2): 4, (3, 3): 16,
        (4, 1): 0, (4, 2): 9, (4, 3): 45,
        (5, 1): 0, (5, 2): 16, (5, 3): 96,
    }
    fields = {2: FiniteField(2, 2), 3: FiniteField(3, 2),
              4: FiniteField(2, 4), 5: FiniteField(5, 2)}
    for (ell, m), g in table.items():
        assert genus(TowerSpec("gs96", fields[ell], m)) == g
    # hermitian level of the xz-tower: l(l-1)/2
    assert genus(TowerSpec("gs95", fields[5], 2)) == 10
    assert genus(TowerSpec("gs95", fields[5], 1)) == 0


def test_pole_degrees(gf9, gf25):
    """Pole degree t . pole_weights of an expanded exponent vector t: g * w
    over the kernel of GF(9) has t = (4,)."""
    s1 = TowerSpec("gs96", gf9, 1)
    g_times_w = spanning_set(build_recovery_group(s1, "additive", shifts="kernel"), 4)[-1]
    assert g_times_w.tolist() == [4] and g_times_w @ s1.pole_weights() == 4
    s2 = TowerSpec("gs96", gf9, 2)
    assert np.array([1, 1]) @ s2.pole_weights() == 6
    herm = TowerSpec("gs95", gf25, 2)
    assert np.array([2, 1]) @ herm.pole_weights() == 16
    h1 = TowerSpec("gs95", gf25, 1)
    assert np.array([4]) @ h1.pole_weights() == 4


def test_evaluate_examples(gf9):
    spec = TowerSpec("gs96", gf9, 2)
    p = spec.places()[0]
    assert _value_at((1, 0), p, gf9) == p[0]
    assert _value_at((0, 0), p, gf9) == 1
    # g vanishes exactly on the kernel: t_w = |W| reads as g(w)^1
    h = build_recovery_group(TowerSpec("gs96", gf9, 1), "additive", shifts="kernel")
    assert _value_at((3,), (3,), gf9, h) == 0
    assert _value_at((3,), (1,), gf9, h) != 0


@pytest.mark.parametrize("variant,pk,m", [("gs96", (3, 2), 1), ("gs96", (3, 2), 2),
                                          ("gs96", (2, 4), 2), ("gs95", (5, 2), 2)])
def test_zero_counts_respect_pole_degree(variant, pk, m):
    """Number of zeros of f - v never exceeds the declared pole degree."""
    f = FiniteField(*pk)
    spec = TowerSpec(variant, f, m)
    places = spec.places()
    rng = random.Random(hash((variant, pk, m)) & 0xFFFF)
    for _ in range(20):
        exps = tuple(rng.randrange(3) for _ in range(m))
        if not any(exps):
            exps = (1,) + exps[1:]
        v0 = rng.randrange(f.q)
        zeros = sum(1 for p in places if _value_at(exps, p, f) == v0)
        assert zeros <= np.array(exps) @ spec.pole_weights()


# the table path (q <= TABLE_CAP) and the digit-loop path (GF(37^2), GF(2^12))
ENUMERATION_CASES = [
    ("gs96", (3, 2), 3), ("gs95", (5, 2), 2), ("gs96", (2, 4), 3),
    ("gs96", (37, 2), 1), ("gs96", (37, 2), 2), ("gs95", (37, 2), 1), ("gs95", (37, 2), 2),
    ("gs96", (2, 12), 1), ("gs95", (2, 12), 1),
]


@pytest.mark.parametrize("variant,pk,m", ENUMERATION_CASES)
def test_enumeration_on_both_arithmetic_paths(variant, pk, m):
    """The closed-form count of rows, strictly increasing in lexicographic
    order, a sample of them accepted by the scalar oracle and by
    check_place, and one read-only array however often it is asked for."""
    f = FiniteField(*pk)
    spec = TowerSpec(variant, f, m)
    places = spec.places()
    level1 = f.q - f.ell if variant == "gs96" else f.q - 1
    assert places.shape == (level1 * f.ell ** (m - 1), m) and places.dtype == np.int64
    # at the first column where two neighbouring rows differ, the later one is larger
    step = np.diff(places, axis=0)
    first = (step != 0).argmax(axis=1)
    assert (step[np.arange(len(step)), first] > 0).all()
    for row in places[np.random.default_rng(m).choice(len(places), 25, replace=False)]:
        assert _scalar_check_place(spec, row.tolist()) == check_place(spec, row) == (True, "ok")
    assert spec.places() is places and not places.flags.writeable
    with pytest.raises(ValueError):
        places[0, 0] = 0


@functools.cache
def _additive_groups(pk, m):
    """The trivial shift group and the whole kernel of GF(p^2) (its only
    two additive subgroups), on the y-tower at level m."""
    spec = TowerSpec("gs96", shared_field(*pk), m)
    return tuple(build_recovery_group(spec, "additive", shifts=s) for s in ([0], "kernel"))


def _scalar_value(t, row, fld, group):
    """x^t at one coordinate row by scalar field ops; under an additive
    group the w column is g(w)^j * w^l, (j, l) = divmod(t_w, |W|), with
    g(w) = prod (w - root) multiplied out."""
    value = 1
    for i, (a, e) in enumerate(zip(row, t)):
        if group is not None and group.kind == "additive" and i == group.w_index:
            j, e = divmod(e, group.order)
            g = 1
            for root in group.shifts:
                g = fld.mul(g, fld.add(a, fld.neg(root)))
            value = fld.mul(value, fld.pow(g, j))
        value = fld.mul(value, fld.pow(a, e))
    return value


@settings(derandomize=True, deadline=None, max_examples=60)
@given(data=st.data())
def test_evaluation_matrix_matches_scalar_oracle(data):
    """On GF(9), GF(25) and GF(37^2) (the digit-loop path), random exponent
    arrays, plain, under a scalar group and under shift groups from the
    field's kernel (g-powers 0..3), at random coordinate rows, take the
    values of a scalar pow/mul/add/neg evaluation."""
    pk = data.draw(st.sampled_from([(3, 2), (5, 2), (37, 2)]))
    fld = shared_field(*pk)
    m, n = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 6))
    elem = st.integers(0, fld.q - 1)
    coords = np.array(data.draw(st.lists(st.lists(elem, min_size=m, max_size=m), min_size=n, max_size=n)))
    scalars = build_recovery_group(TowerSpec("gs96", fld, m), "multiplicative", order=2)
    group = data.draw(st.sampled_from((None, scalars, *_additive_groups(pk, m))))
    order = group.order if group is not None else 1
    column = [st.integers(0, 7)] * (m - 1) + [st.integers(0, 4 * max(order, 2) - 1)]
    exps = np.array(data.draw(st.lists(st.tuples(*column), max_size=8)), dtype=np.int64).reshape(-1, m)
    got = evaluation_matrix(exps, coords, fld, group)
    assert got.dtype == fld.dtype and got.shape == (len(exps), n)
    assert got.tolist() == [[_scalar_value(t, row, fld, group) for row in coords.tolist()]
                            for t in exps.tolist()]
