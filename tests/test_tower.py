import dataclasses
import functools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lrctower import FiniteField, TowerSpec, check_place, evaluation_matrix, genus, pole_degree
from lrctower import tower
from lrctower.errors import UnsupportedDepth
from lrctower.tower import MonomialFunction


def _value_at(f, coords, fld):
    """evaluation_matrix on a one-row coordinate array."""
    return int(evaluation_matrix([f], np.array([coords], dtype=np.int64), fld)[0, 0])


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
    s1 = TowerSpec("gs96", gf9, 1)
    f = MonomialFunction(exponents=(0,), w_index=0, w_power=1, g_roots=(0, 3, 6), g_power=1)
    assert pole_degree(f, s1) == 4
    s2 = TowerSpec("gs96", gf9, 2)
    assert pole_degree(MonomialFunction((1, 1), w_index=1), s2) == 6
    h = TowerSpec("gs95", gf25, 2)
    assert pole_degree(MonomialFunction((2, 1), w_index=0), h) == 16
    h1 = TowerSpec("gs95", gf25, 1)
    assert pole_degree(MonomialFunction((3,), w_index=0, w_power=1), h1) == 4


def test_evaluate_examples(gf9):
    spec = TowerSpec("gs96", gf9, 2)
    p = spec.places()[0]
    proj = MonomialFunction((1, 0), w_index=1)
    assert _value_at(proj, p, gf9) == p[0]
    const = MonomialFunction((0, 0), w_index=1)
    assert _value_at(const, p, gf9) == 1
    # g vanishes exactly on the kernel
    g = MonomialFunction((0,), w_index=0, g_roots=(0, 3, 6), g_power=1)
    assert _value_at(g, (3,), gf9) == 0
    assert _value_at(g, (1,), gf9) != 0


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
        mono = MonomialFunction(exps, w_index=m - 1)
        v0 = rng.randrange(f.q)
        zeros = sum(1 for p in places if _value_at(mono, p, f) == v0)
        assert zeros <= pole_degree(mono, spec)


# the table path (q <= TABLE_CAP) and the digit-loop path (GF(37^2), GF(2^12))
ENUMERATION_CASES = [
    ("gs96", (3, 2), 3), ("gs95", (5, 2), 2), ("gs96", (2, 4), 3),
    ("gs96", (37, 2), 1), ("gs96", (37, 2), 2), ("gs95", (37, 2), 1), ("gs95", (37, 2), 2),
    ("gs96", (2, 12), 1), ("gs95", (2, 12), 1),
]


@pytest.mark.parametrize("variant,pk,m", ENUMERATION_CASES)
def test_enumeration_on_both_arithmetic_paths(variant, pk, m):
    """The closed-form count of rows, strictly increasing in lexicographic
    order, a sample of them accepted by check_place, and one read-only
    array however often it is asked for."""
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
        assert check_place(spec, row) == (True, "ok")
    assert spec.places() is places and not places.flags.writeable
    with pytest.raises(ValueError):
        places[0, 0] = 0


@functools.cache
def _field(pk):
    return FiniteField(*pk)


def _scalar_value(f, row, fld):
    """The monomial at one coordinate row by scalar field ops, with
    g(w) = prod (w - root) multiplied out."""
    value = 1
    for a, e in zip(row, f.exponents):
        value = fld.mul(value, fld.pow(a, e))
    w, g = row[f.w_index], 1
    for root in f.g_roots:
        g = fld.mul(g, fld.sub(w, root))
    return fld.mul(fld.mul(value, fld.pow(g, f.g_power)), fld.pow(w, f.w_power))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(data=st.data())
def test_evaluation_matrix_matches_scalar_oracle(data):
    """On GF(9), GF(25) and GF(37^2) (the digit-loop path), random monomials
    with and without g-factors, at random coordinate rows, take the values
    of a scalar pow/mul/sub evaluation."""
    fld = _field(data.draw(st.sampled_from([(3, 2), (5, 2), (37, 2)])))
    m, n = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 6))
    elem = st.integers(0, fld.q - 1)
    coords = np.array(data.draw(st.lists(st.lists(elem, min_size=m, max_size=m), min_size=n, max_size=n)))
    monomial = st.builds(
        MonomialFunction, exponents=st.tuples(*[st.integers(0, 7)] * m), w_index=st.integers(0, m - 1),
        w_power=st.integers(0, 4), g_roots=st.lists(elem, max_size=4, unique=True).map(tuple),
        g_power=st.integers(0, 3))
    functions = data.draw(st.lists(monomial, max_size=8))
    got = evaluation_matrix(functions, coords, fld)
    assert got.dtype == fld.dtype and got.shape == (len(functions), n)
    assert got.tolist() == [[_scalar_value(f, row, fld) for row in coords.tolist()] for f in functions]
