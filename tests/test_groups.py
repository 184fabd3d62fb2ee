import dataclasses
import itertools
import re

import numpy as np
import pytest

from lrctower import (
    FiniteField,
    RecoveryGroup,
    TowerSpec,
    artin_schreier_kernel,
    build_recovery_group,
    combine,
    construct_lrc,
    norm_one_group,
    orbit,
    subfield_units,
)
from lrctower.errors import (
    IllegalOrder,
    LrcError,
    NontrivialIntersection,
    NotASubgroup,
    UnsupportedDepth,
    VariantMismatch,
)
from lrctower import groups
from lrctower.groups import _additive_closure

from conftest import compose, elements, inverse


def test_builders_gf9(gf9):
    spec = TowerSpec("gs96", gf9, 2)
    h1 = build_recovery_group(spec, "additive", shifts="kernel")
    assert h1.shifts == (0, 3, 6) and h1.order == 3 and h1.r == 2
    h2 = build_recovery_group(spec, "multiplicative", order=2)
    assert h2.scalars == (1, 2) and h2.r == 1
    assert h1.w_index == 1 and h2.w_index == 1


def test_builder_gf25_norm_one(gf25):
    spec = TowerSpec("gs95", gf25, 2)
    h = build_recovery_group(spec, "multiplicative", order=3)
    assert h.order == 3
    for c in h.scalars:
        assert gf25.pow(c, gf25.ell + 1) == 1
    assert h.w_index == 0


@pytest.mark.parametrize("variant, m, kind, want", [
    ("gs96", 1, "additive", 0), ("gs96", 1, "multiplicative", 0),
    ("gs96", 2, "additive", 1), ("gs96", 2, "multiplicative", 1),
    ("gs96", 3, "additive", 2), ("gs96", 3, "multiplicative", 2),
    ("gs95", 2, "multiplicative", 0), ("gs95", 2, "additive", 1),
])
def test_w_index_follows_from_kind_and_tower(gf9, gf25, variant, m, kind, want):
    """The repair variable is x_1 under xz-tower scalars and the last
    generator otherwise; the group derives it and stores nothing."""
    spec = TowerSpec(variant, gf9 if variant == "gs96" else gf25, m)
    h = build_recovery_group(spec, kind, shifts="kernel", order=2 if variant == "gs96" else 3)
    assert h.w_index == want
    assert [f.name for f in dataclasses.fields(h)] == ["kind", "spec", "scalars", "shifts"]


def test_builder_errors(gf9, gf25):
    spec = TowerSpec("gs96", gf9, 2)
    with pytest.raises(IllegalOrder):
        build_recovery_group(spec, "multiplicative", order=3)  # 3 does not divide l-1=2
    with pytest.raises(NotASubgroup):
        build_recovery_group(spec, "additive", shifts=[1])  # 1 is not in the kernel
    h = TowerSpec("gs95", gf25, 2)
    with pytest.raises(IllegalOrder):
        build_recovery_group(h, "multiplicative", order=4)  # 4 does not divide l+1=6
    with pytest.raises(UnsupportedDepth):
        build_recovery_group(TowerSpec("gs95", gf25, 1), "additive", shifts="kernel")


def test_additive_closure_from_generators(gf16):
    spec = TowerSpec("gs96", gf16, 2)
    ker = artin_schreier_kernel(gf16)
    nz = [a for a in ker if a]
    h = build_recovery_group(spec, "additive", shifts=nz[:1])
    assert h.order == 2 and 0 in h.shifts
    h2 = build_recovery_group(spec, "additive", shifts=nz[:2])
    assert h2.order == 4


@pytest.mark.parametrize("p, k", [(2, 2), (3, 2), (2, 4), (5, 2), (2, 6)])
def test_additive_closure_is_span_over_prime_field(p, k):
    """For every set of at most two kernel elements, the closure is the set
    of all GF(p)-combinations of the set."""
    f = FiniteField(p, k)
    ker = artin_schreier_kernel(f)
    for r in range(3):
        for gens in itertools.combinations(ker, r):
            span = {0}
            for coeffs in itertools.product(range(p), repeat=r):
                acc = 0
                for c, g in zip(coeffs, gens):
                    acc = f.add(acc, f.mul(c, g))
                span.add(acc)
            assert _additive_closure(f, gens) == sorted(span), gens


def test_apply_worked_example(gf9):
    """sigma = (2, 3) scales both coordinates, then shifts the last one."""
    spec = TowerSpec("gs96", gf9, 2)
    places = spec.places().tolist()
    j = next(j for j, x in enumerate(places) if x[0] == 1)
    table = orbit(RecoveryGroup("multiplicative", spec, (1, 2), (0, 3)))  # the identity, then sigma
    assert places[table[1, j]] == [2, gf9.add(gf9.mul(2, places[j][1]), 3)]
    assert table[0, j] == j


def test_apply_preserves_membership(gf9, gf25):
    """Every element permutes the places: each table row holds every index once."""
    for spec, kinds in ((TowerSpec("gs96", gf9, 2), {"shifts": "kernel", "order": 2}),
                        (TowerSpec("gs95", gf25, 2), {"shifts": "kernel", "order": 3})):
        n = len(spec.places())
        for h in (build_recovery_group(spec, "additive", shifts=kinds["shifts"]),
                  build_recovery_group(spec, "multiplicative", order=kinds["order"])):
            table = orbit(h)
            assert table.shape == (h.order, n)
            assert (np.sort(table, axis=1) == np.arange(n)).all()


def test_group_axioms_and_composition(gf9):
    """G = H1*H2 as place permutations, read off the orbit tables: the
    |H1|*|H2| products (s, then t) are distinct, hold the identity, and are
    closed under composition and inversion."""
    spec = TowerSpec("gs96", gf9, 2)
    h1 = build_recovery_group(spec, "additive", shifts="kernel")
    h2 = build_recovery_group(spec, "multiplicative", order=2)
    assert combine(h1, h2) == "semidirect"
    t1, t2 = orbit(h1), orbit(h2)
    perms = {tuple(t[s].tolist()) for s in t1 for t in t2}
    assert len(perms) == h1.order * h2.order == 6
    assert tuple(range(t1.shape[1])) in perms
    for a in map(np.array, perms):
        assert tuple(np.argsort(a).tolist()) in perms
        for b in map(np.array, perms):
            assert tuple(a[b].tolist()) in perms


def test_semidirect_conjugation_identity(gf9):
    """t^-1 s t, read off the tables as t(s(t^-1(P))), is the row of the H1
    element that shifts by c_t * a_s."""
    spec = TowerSpec("gs96", gf9, 2)
    h1 = build_recovery_group(spec, "additive", shifts="kernel")
    h2 = build_recovery_group(spec, "multiplicative", order=2)
    assert combine(h1, h2) == "semidirect"
    t1, t2 = orbit(h1), orbit(h2)
    row_of_shift = dict(zip(h1.shifts, t1.tolist()))
    for a_s, srow in zip(h1.shifts, t1):
        for c_t, trow in zip(h2.scalars, t2):
            conj = trow[srow[np.argsort(trow)]]
            assert conj.tolist() == row_of_shift[gf9.mul(c_t, a_s)]


def test_combine_rejects_overlap(gf9):
    spec = TowerSpec("gs96", gf9, 2)
    h1 = build_recovery_group(spec, "additive", shifts="kernel")
    with pytest.raises(NontrivialIntersection):
        combine(h1, h1)


def test_combine_rejects_non_normalizing_scalars(gf16):
    # {0, a} is not stable under the order-3 scalar group (c*a leaves the set)
    spec = TowerSpec("gs96", gf16, 1)
    ker = [a for a in artin_schreier_kernel(gf16) if a]
    h1 = build_recovery_group(spec, "additive", shifts=ker[:1])
    h2 = build_recovery_group(spec, "multiplicative", order=3)
    with pytest.raises(NotASubgroup):
        combine(h1, h2)


def test_combine_direct_product_gf64_additive_pair():
    f64 = FiniteField(2, 6)
    spec = TowerSpec("gs95", f64, 2)
    ker = [a for a in artin_schreier_kernel(f64) if a]
    w1 = build_recovery_group(spec, "additive", shifts=ker[:2])
    leftover = [a for a in ker if a not in w1.shifts]
    w2 = build_recovery_group(spec, "additive", shifts=leftover[:1])
    assert combine(w1, w2) == "direct"
    assert len({tuple(t[s].tolist()) for s in orbit(w1) for t in orbit(w2)}) == 8


def test_combine_refuses_groups_on_different_specs(gf9):
    h1, h2 = (build_recovery_group(TowerSpec("gs96", gf9, m), "additive", shifts="kernel") for m in (1, 2))
    with pytest.raises(VariantMismatch, match="recovery groups built for different towers"):
        combine(h1, h2)


def _closure_combine(h1, h2):
    """Reference for ``combine``: sweep all |G|^2 products of G = H1*H2 for
    closure, then survey t^-1 s t over s in H1, t in H2, all by the
    reference group law; returns the structure."""
    spec = h1.spec
    s1 = set(elements(h1))
    if s1 & set(elements(h2)) != {(1, 0)}:
        raise NontrivialIntersection("the groups share more than the identity")
    products = {compose(spec, a, b) for a in elements(h1) for b in elements(h2)}
    if len(products) != h1.order * h2.order:
        raise NontrivialIntersection("product set is smaller than |H1|*|H2|")
    for x in products:
        for y in products:
            if compose(spec, x, y) not in products:
                raise NotASubgroup("H1*H2 is not closed under composition")
    all_fixed = True
    for s in elements(h1):
        for t in elements(h2):
            conj = compose(spec, compose(spec, inverse(spec, t), s), t)
            if conj not in s1:
                raise NotASubgroup("H2 does not normalize H1")
            all_fixed = all_fixed and conj == s
    return "direct" if all_fixed else "semidirect"


def _canonical_subgroups(spec):
    """Every additive closure of a set of kernel elements, and the scalar
    (y-tower) or norm-one (xz-tower) subgroup of every order."""
    kernel = [a for a in artin_schreier_kernel(spec.field) if a]
    groups = {}
    for size in range(len(kernel) + 1):
        for gens in itertools.combinations(kernel, size):
            h = build_recovery_group(spec, "additive", shifts=gens)
            groups.setdefault(h.shifts, h)
    ambient = spec.ell - 1 if spec.variant == "gs96" else spec.ell + 1
    return list(groups.values()) + [build_recovery_group(spec, "multiplicative", order=d)
                                    for d in range(1, ambient + 1) if ambient % d == 0]


SWEEP_FIELDS = [(3, 2), (2, 4), (5, 2), (2, 6)]
SWEEP = [*itertools.product(["gs96"], SWEEP_FIELDS, [1, 2]), *itertools.product(["gs95"], SWEEP_FIELDS, [2])]


def _outcome(combiner, h1, h2):
    try:
        return combiner(h1, h2)
    except LrcError as exc:
        return type(exc)


def test_combine_matches_closure_sweep():
    """On every ordered pair of canonical subgroups, ``combine`` raises the
    class the closure sweep raises, or reports the same structure."""
    seen = set()
    for variant, (p, e), m in SWEEP:
        subgroups = _canonical_subgroups(TowerSpec(variant, FiniteField(p, e), m))
        for h1, h2 in itertools.product(subgroups, repeat=2):
            want = _outcome(_closure_combine, h1, h2)
            assert _outcome(combine, h1, h2) == want, (variant, p, e, m, h1, h2)
            seen.add(want)
    assert seen == {NontrivialIntersection, NotASubgroup, "direct", "semidirect"}


def test_orbit_sizes_and_w_separation(gf9):
    spec = TowerSpec("gs96", gf9, 2)
    h1 = build_recovery_group(spec, "additive", shifts="kernel")
    h2 = build_recovery_group(spec, "multiplicative", order=2)
    places = spec.places()
    t1, t2 = orbit(h1), orbit(h2)
    for j in range(len(places)):
        for h, t in ((h1, t1), (h2, t2)):
            assert len(set(t[:, j])) == h.order
            wvals = places[t[:, j], h.w_index].tolist()
            assert len(set(wvals)) == len(wvals)
        assert set(t1[:, j]) & set(t2[:, j]) == {j}


def test_orbits_disjoint_hermitian(gf25):
    spec = TowerSpec("gs95", gf25, 2)
    h1 = build_recovery_group(spec, "multiplicative", order=2)
    h2 = build_recovery_group(spec, "multiplicative", order=3)
    assert combine(h1, h2) == "direct"
    t1, t2 = orbit(h1), orbit(h2)
    for j in range(len(spec.places())):
        assert set(t1[:, j]) & set(t2[:, j]) == {j}


def test_orbit_worked_example(gf9):
    spec = TowerSpec("gs96", gf9, 2)
    h1 = build_recovery_group(spec, "additive", shifts="kernel")
    places = spec.places().tolist()
    j = next(j for j, x in enumerate(places) if x[0] == 4)  # 1 + t
    orb = {tuple(places[i]) for i in orbit(h1)[:, j]}
    a2 = places[j][1]
    assert orb == {(4, a2), (4, gf9.add(a2, 3)), (4, gf9.add(a2, 6))}


def _image(spec, g, coords):
    """g(P) for the pair g = (c, a), by the closed form of the module
    docstring, one place at a time."""
    f = spec.field
    c, a = g
    if spec.variant == "gs96":
        return tuple(f.mul(c, x) for x in coords[:-1]) + (f.add(f.mul(c, coords[-1]), a),)
    if len(coords) == 1:
        return (f.mul(c, coords[0]),)
    return (f.mul(c, coords[0]), *coords[1:-1], f.add(coords[-1], a))


def test_every_other_automorphism_moves_every_place():
    """Why ``combine`` may know an element by its image of place 0: on the
    sweep grid and on gs96 at m = 3, every (c, a) but (1, 0) in the full
    scalar pool x kernel moves every place, by the closed form."""
    for variant, (p, e), m in [*SWEEP, *itertools.product(["gs96"], SWEEP_FIELDS, [3])]:
        spec = TowerSpec(variant, FiniteField(p, e), m)
        f = spec.field
        pool = subfield_units(f) if variant == "gs96" else norm_one_group(f)
        places = [tuple(x) for x in spec.places().tolist()]
        for c, a in itertools.product(pool, artin_schreier_kernel(f)):
            if (c, a) != (1, 0):
                assert all(_image(spec, (c, a), x) != x for x in places), (spec, c, a)


def test_orbit_matches_closed_form_action():
    """On every canonical subgroup of the sweep grid and of gs96 at m = 3,
    entry [e, j] of the orbit table indexes the e-th element's image of
    place j, and every column is a free orbit: |H| distinct places, j among
    them."""
    checked = 0
    for variant, (p, e), m in [*SWEEP, *itertools.product(["gs96"], SWEEP_FIELDS, [3])]:
        spec = TowerSpec(variant, FiniteField(p, e), m)
        places = [tuple(x) for x in spec.places().tolist()]
        index = {x: j for j, x in enumerate(places)}
        for h in _canonical_subgroups(spec):
            table = orbit(h)
            assert table.shape == (h.order, len(places))
            for g, row in zip(elements(h), table.tolist()):
                assert row == [index[_image(spec, g, x)] for x in places], (spec, h, g)
            for j, col in enumerate(table.T.tolist()):
                assert len(set(col)) == h.order and j in col
            checked += 1
    assert checked == 139


def test_orbit_refuses_off_tower_images_and_collapsed_orbits(gf9, gf25):
    """An element that maps a place off the tower, or two elements that map
    one place to the same image, raise NotASubgroup naming the elements."""
    y1, y2 = TowerSpec("gs96", gf9, 1), TowerSpec("gs96", gf9, 2)
    off = [(y1, (3, 0), "Aut(gs96, c=3, a=0) maps place ("),  # 3 is in the kernel, not in GF(3)*
           (y2, (4, 0), "Aut(gs96, c=4, a=0) maps place ("),  # 4 is outside GF(3)*: y_2 leaves the recursion
           (y1, (1, 1), "Aut(gs96, c=1, a=1) maps place (")]  # 1 is outside the kernel
    for spec, (c, a), message in off:
        with pytest.raises(NotASubgroup, match=re.escape(message)):
            orbit(RecoveryGroup("multiplicative", spec, (1, c), (0, a)))
    collapsed = "collapsed: Aut(gs96, c=1, a=0) and Aut(gs96, c=1, a=0) map it"
    with pytest.raises(NotASubgroup, match=re.escape(collapsed)):
        orbit(RecoveryGroup("multiplicative", y1, (1, 1), (0, 0)))
    spec = TowerSpec("gs95", gf25, 2)
    s = next(c for c in build_recovery_group(spec, "multiplicative", order=3).scalars if c != 1)
    collapsed = f"collapsed: Aut(gs95, c={s}, a=0) and Aut(gs95, c={s}, a=0) map it"
    with pytest.raises(NotASubgroup, match=re.escape(collapsed)):
        orbit(RecoveryGroup("multiplicative", spec, (s, s), (0, 0)))


def test_recovery_group_refuses_unequal_lengths(gf9):
    """Element e is (scalars[e], shifts[e]): fewer or more shifts than
    scalars are refused where the group is made, naming both lengths, not
    broadcast by ``orbit`` or left to a raw IndexError."""
    spec = TowerSpec("gs96", gf9, 1)
    for shifts in ((0,), (0, 0, 0)):
        message = f"scalars has 2 entries and shifts has {len(shifts)}; element e is (scalars[e], shifts[e])"
        with pytest.raises(NotASubgroup, match=re.escape(message)):
            RecoveryGroup("multiplicative", spec, (1, 2), shifts)


@pytest.mark.parametrize("variant, ell, m, kinds, d", [
    ("gs96", 3, 2, ({"shifts": "kernel"}, {"order": 2}), 6),
    ("gs95", 5, 2, ({"order": 2}, {"order": 3}), 100),
])
def test_orbit_table_is_built_once_per_group(monkeypatch, variant, ell, m, kinds, d):
    """combine and the recovery sets of construct_lrc read one kept table
    per group: 2 actions per construction; the table is read-only."""
    calls = []
    act = groups._orbit_table

    def spy(h):
        calls.append(h)
        return act(h)

    monkeypatch.setattr(groups, "_orbit_table", spy)
    spec = TowerSpec(variant, FiniteField(ell, 2), m)
    h1, h2 = (build_recovery_group(spec, "additive" if "shifts" in kw else "multiplicative", **kw)
              for kw in kinds)
    construct_lrc(spec, h1, h2, d)
    assert calls == [h1, h2]
    assert orbit(h1) is orbit(h1)
    for h in (h1, h2):
        with pytest.raises(ValueError, match="read-only"):
            orbit(h)[0, 0] = 1
    construct_lrc(spec, h1, h2, d)
    assert len(calls) == 2
