import dataclasses
import itertools

import pytest

from lrctower import (
    FiniteField,
    TowerSpec,
    artin_schreier_kernel,
    build_recovery_group,
    combine,
    orbit,
    orbits_disjoint,
)
from lrctower.errors import IllegalOrder, LrcError, NontrivialIntersection, NotASubgroup, UnsupportedDepth
from lrctower.groups import Automorphism, apply, compose, inverse


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
    assert [f.name for f in dataclasses.fields(h)] == ["kind", "spec", "elements"]


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


def test_apply_worked_example(gf9):
    spec = TowerSpec("gs96", gf9, 2)
    places = spec.places()
    p = next(x for x in places if x.coords[0] == 1)
    sigma = Automorphism("gs96", 2, 3, gf9)
    img = apply(sigma, p)
    assert img.coords == (2, gf9.add(gf9.mul(2, p.coords[1]), 3))
    assert apply(Automorphism("gs96", 1, 0, gf9), p) == p


def test_apply_preserves_membership(gf9, gf25):
    spec = TowerSpec("gs96", gf9, 2)
    h1 = build_recovery_group(spec, "additive", shifts="kernel")
    h2 = build_recovery_group(spec, "multiplicative", order=2)
    for p in spec.places():
        for g in h1.elements + h2.elements:
            apply(g, p)  # place_index lookup raises if the image left the set


def test_group_axioms_and_composition(gf9):
    spec = TowerSpec("gs96", gf9, 2)
    h1 = build_recovery_group(spec, "additive", shifts="kernel")
    h2 = build_recovery_group(spec, "multiplicative", order=2)
    elems = combine(h1, h2).elements
    keyset = {(g.scalar, g.shift) for g in elems}
    for a in elems:
        assert (inverse(a).scalar, inverse(a).shift) in keyset
        for b in elems:
            c = compose(a, b)
            assert (c.scalar, c.shift) in keyset
    ident = Automorphism("gs96", 1, 0, gf9)
    for a in elems:
        assert compose(a, ident) == a == compose(ident, a)
        inv = inverse(a)
        assert compose(a, inv).is_identity() and compose(inv, a).is_identity()


def test_semidirect_conjugation_identity(gf9):
    spec = TowerSpec("gs96", gf9, 2)
    h1 = build_recovery_group(spec, "additive", shifts="kernel")
    h2 = build_recovery_group(spec, "multiplicative", order=2)
    g = combine(h1, h2)
    assert g.order == 6 and g.structure == "semidirect"
    for s in h1.elements:
        for t in h2.elements:
            conj = compose(compose(inverse(t), s), t)
            assert conj.scalar == 1
            assert conj.shift == gf9.mul(t.scalar, s.shift)


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
    g = combine(w1, w2)
    assert g.order == 8 and g.structure == "direct"


def _closure_combine(h1, h2):
    """Reference for ``combine``: sweep all |G|^2 products of G = H1*H2 for
    closure, then survey t^-1 s t over s in H1, t in H2."""
    s1 = {(e.scalar, e.shift) for e in h1.elements}
    if s1 & {(e.scalar, e.shift) for e in h2.elements} != {(1, 0)}:
        raise NontrivialIntersection("the groups share more than the identity")
    products = {}
    for a in h1.elements:
        for b in h2.elements:
            g = compose(a, b)
            products[(g.scalar, g.shift)] = g
    if len(products) != h1.order * h2.order:
        raise NontrivialIntersection("product set is smaller than |H1|*|H2|")
    for x in products.values():
        for y in products.values():
            g = compose(x, y)
            if (g.scalar, g.shift) not in products:
                raise NotASubgroup("H1*H2 is not closed under composition")
    all_fixed = True
    for s in h1.elements:
        for t in h2.elements:
            conj = compose(compose(inverse(t), s), t)
            if (conj.scalar, conj.shift) not in s1:
                raise NotASubgroup("H2 does not normalize H1")
            all_fixed = all_fixed and (conj.scalar, conj.shift) == (s.scalar, s.shift)
    return tuple(products[k] for k in sorted(products)), "direct" if all_fixed else "semidirect"


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


def _outcome(combiner, h1, h2):
    try:
        g = combiner(h1, h2)
    except LrcError as exc:
        return type(exc)
    return g if isinstance(g, tuple) else (g.elements, g.structure)


def test_combine_matches_closure_sweep():
    """On every ordered pair of canonical subgroups, ``combine`` raises the
    class the closure sweep raises, or forms the same G with the same
    structure."""
    seen = set()
    for variant, (p, e), m in [*itertools.product(["gs96"], [(3, 2), (2, 4), (5, 2), (2, 6)], [1, 2]),
                               *itertools.product(["gs95"], [(3, 2), (2, 4), (5, 2), (2, 6)], [2])]:
        subgroups = _canonical_subgroups(TowerSpec(variant, FiniteField(p, e), m))
        for h1, h2 in itertools.product(subgroups, repeat=2):
            want = _outcome(_closure_combine, h1, h2)
            assert _outcome(combine, h1, h2) == want, (variant, p, e, m, h1, h2)
            seen.add(want if isinstance(want, type) else want[1])
    assert seen == {NontrivialIntersection, NotASubgroup, "direct", "semidirect"}


def test_orbit_sizes_and_w_separation(gf9):
    spec = TowerSpec("gs96", gf9, 2)
    h1 = build_recovery_group(spec, "additive", shifts="kernel")
    h2 = build_recovery_group(spec, "multiplicative", order=2)
    for p in spec.places():
        for h in (h1, h2):
            orb = orbit(h, p)
            assert len({x.coords for x in orb}) == h.order
            wvals = [x.coords[h.w_index] for x in orb]
            assert len(set(wvals)) == len(wvals)
        assert orbits_disjoint(h1, h2, p)


def test_orbits_disjoint_hermitian(gf25):
    spec = TowerSpec("gs95", gf25, 2)
    h1 = build_recovery_group(spec, "multiplicative", order=2)
    h2 = build_recovery_group(spec, "multiplicative", order=3)
    assert combine(h1, h2).structure == "direct"
    for p in spec.places():
        assert orbits_disjoint(h1, h2, p)


def test_orbit_worked_example(gf9):
    spec = TowerSpec("gs96", gf9, 2)
    h1 = build_recovery_group(spec, "additive", shifts="kernel")
    p = next(x for x in spec.places() if x.coords[0] == 4)  # 1 + t
    orb = {x.coords for x in orbit(h1, p)}
    a2 = p.coords[1]
    assert orb == {(4, a2), (4, gf9.add(a2, 3)), (4, gf9.add(a2, 6))}
