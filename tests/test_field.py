import random
from itertools import product

import numpy as np
import pytest

from lrctower import artin_schreier_kernel, make_field, norm_one_group, subfield_units
from lrctower.errors import FieldTooLarge, NonPrimeCharacteristic, NotASquareField
from lrctower.field import field_from_json, field_to_json


def naive_irreducible(poly, p):
    """Independent check: no root-free factorization into smaller monics."""
    k = len(poly) - 1
    for d in range(1, k // 2 + 1):
        for low in product(range(p), repeat=d):
            div = tuple(low) + (1,)
            # long division
            rem = list(poly)
            for i in range(len(rem) - 1, d - 1, -1):
                c = rem[i] % p
                if c == 0:
                    continue
                for j in range(d + 1):
                    rem[i - d + j] = (rem[i - d + j] - c * div[j]) % p
            if not any(x % p for x in rem):
                return False
    return True


def test_gf9_modulus_is_first_lex_irreducible():
    f = make_field(3, 2)
    assert f.modulus == (1, 0, 1)  # t^2 + 1
    # exhaustive scan over all nine monic quadratics in lex order
    first = None
    for c0, c1 in product(range(3), repeat=2):
        if naive_irreducible((c0, c1, 1), 3):
            first = (c0, c1, 1)
            break
    assert first == f.modulus


def test_prime_field_uses_identity_modulus():
    f = make_field(2, 1)
    assert f.modulus == (0, 1)
    assert f.add(1, 1) == 0
    assert f.mul(1, 1) == 1


def test_gf25_frobenius_additivity():
    f = make_field(5, 2)
    rng = random.Random(0)
    for _ in range(100):
        a, b = rng.randrange(25), rng.randrange(25)
        assert f.pow(f.add(a, b), 5) == f.add(f.pow(a, 5), f.pow(b, 5))


@pytest.mark.parametrize("p,k", [(2, 2), (3, 2), (2, 4), (5, 2), (7, 2)])
def test_field_axioms_on_random_triples(p, k):
    f = make_field(p, k)
    rng = random.Random(p * 100 + k)
    for _ in range(50):
        a, b, c = (rng.randrange(f.q) for _ in range(3))
        assert f.mul(a, f.mul(b, c)) == f.mul(f.mul(a, b), c)
        assert f.add(a, f.add(b, c)) == f.add(f.add(a, b), c)
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        if a:
            assert f.mul(a, f.inv(a)) == 1
            assert f.pow(a, f.q - 1) == 1
        assert f.pow(a, f.q) == a


def test_element_wrapper_operations():
    f = make_field(3, 2)
    t = 3
    assert f.mul(t, t) == 2  # t^2 = -1
    assert f.add(t, t) == 6
    assert f.neg(t) == 6
    assert f.mul(t, f.inv(t)) == 1
    assert f.pow(t, 4) == 1


def test_kernel_gf9_and_gf4():
    f9 = make_field(3, 2)
    assert artin_schreier_kernel(f9) == [0, 3, 6]
    f4 = make_field(2, 2)
    assert artin_schreier_kernel(f4) == [0, 1]


@pytest.mark.parametrize("p,k", [(2, 2), (3, 2), (2, 4), (5, 2)])
def test_kernel_is_additive_group_of_size_ell(p, k):
    f = make_field(p, k)
    ker = set(artin_schreier_kernel(f))
    assert len(ker) == f.ell
    for a in ker:
        for b in ker:
            assert f.add(a, b) in ker
    # stable under scaling by the subfield
    for c in subfield_units(f):
        for a in ker:
            assert f.mul(c, a) in ker


def test_subfield_units():
    assert subfield_units(make_field(3, 2)) == [1, 2]
    assert subfield_units(make_field(2, 2)) == [1]
    f25 = make_field(5, 2)
    units = set(subfield_units(f25))
    assert len(units) == 4
    for a in units:
        for b in units:
            assert f25.mul(a, b) in units


@pytest.mark.parametrize("p,k,size", [(3, 2, 4), (5, 2, 6), (2, 4, 5)])
def test_norm_one_group(p, k, size):
    f = make_field(p, k)
    grp = set(norm_one_group(f))
    assert len(grp) == f.ell + 1 == size
    assert 1 in grp
    for a in grp:
        assert f.inv(a) in grp
        for b in grp:
            assert f.mul(a, b) in grp


def test_square_field_required():
    f8 = make_field(2, 3)
    with pytest.raises(NotASquareField):
        artin_schreier_kernel(f8)
    with pytest.raises(NotASquareField):
        norm_one_group(f8)


def test_construction_errors():
    with pytest.raises(NonPrimeCharacteristic):
        make_field(6, 2)
    with pytest.raises(FieldTooLarge):
        make_field(2, 17)


def test_json_round_trip():
    f = make_field(3, 2)
    blob = field_to_json(f)
    assert blob == {"p": 3, "k": 2, "modulus": [1, 0, 1]}
    g = field_from_json(blob)
    assert g == f and g.mul(3, 3) == 2


def test_vectorized_paths_match_scalar():
    import numpy as np

    f = make_field(5, 2)
    rng = np.random.default_rng(7)
    a = rng.integers(0, 25, 300)
    b = rng.integers(0, 25, 300)
    va, vm = f.vec_add(a, b), f.vec_mul(a, b)
    for i in range(300):
        assert int(va[i]) == f.add(int(a[i]), int(b[i]))
        assert int(vm[i]) == f.mul(int(a[i]), int(b[i]))
    # digitwise fallback agrees with the table path
    table = f.add_table
    try:
        f.add_table = None
        assert (f.vec_add(a, b) == va).all()
    finally:
        f.add_table = table


@pytest.mark.parametrize("p, k, dtype", [(3, 2, np.uint8), (2, 8, np.uint8),
                                         (257, 1, np.uint16), (1031, 1, np.uint16)])
def test_vector_results_use_narrowest_dtype(p, k, dtype):
    # q <= 1024 goes through the add/mul tables, q = 1031 through the digit loop
    f = make_field(p, k)
    assert f.dtype == dtype
    assert (f.add_table is None) == (f.q > 1024)
    rng = np.random.default_rng(p)
    a = rng.integers(0, f.q, 200)
    b = rng.integers(0, f.q, 200)
    va, vm = f.vec_add(a, b), f.vec_mul(a, b)
    for out in (va, vm, f.vec_neg(a), f.vec_sub(a, b), f.vec_pow(a, 0), f.vec_pow(a, 5)):
        assert out.dtype == dtype
    for i in range(200):
        x, y = int(a[i]), int(b[i])
        assert int(va[i]) == f.add(x, y)
        assert int(vm[i]) == f.mul(x, y)


@pytest.mark.parametrize("p, k", [(2, 2), (7, 2), (2, 8), (257, 1), (1031, 1)])
def test_vec_axpy_matches_add_of_mul(p, k):
    """y + a*x against vec_add(y, vec_mul(a, x)) and the scalar ops, with
    a*x broadcast to y's shape: GF(4), GF(49), GF(256) index the flat tables
    in uint16, GF(257) in uint32, GF(1031) takes the digit loop."""
    f = make_field(p, k)
    rng = np.random.default_rng(p * 10 + k)
    shapes = [((5, 7), (5, 1), (7,)), ((5, 7), (5, 1), (1, 7)), ((5, 7), (1, 7), (5, 1)),
              ((5, 7), (5, 7), (5, 7)), ((5, 7), (), (7,)), ((7,), (), ()), ((1, 1), (1,), (1,))]
    for ys, as_, xs in shapes:
        y, a, x = (rng.integers(0, f.q, s) for s in (ys, as_, xs))
        y.flat[0], x.flat[-1] = f.q - 1, f.q - 1  # the largest flat index
        a = np.asarray(a)
        a.flat[0] = f.q - 1
        for cast in (np.int64, f.dtype):
            out = f.vec_axpy(y.astype(cast), a.astype(cast), x.astype(cast))
            expect = f.vec_add(y, f.vec_mul(a, x))
            assert out.dtype == f.dtype
            assert out.shape == expect.shape == np.broadcast_shapes(ys, as_, xs)
            assert (out == expect).all()
        yb, ab, xb = np.broadcast_arrays(y, a, x)
        for idx in np.ndindex(out.shape):
            assert int(out[idx]) == f.add(int(yb[idx]), f.mul(int(ab[idx]), int(xb[idx])))
