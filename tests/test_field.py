import copy
import hashlib
import math
import pickle
import random
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lrctower import FiniteField, artin_schreier_kernel, norm_one_group, subfield_units
from lrctower.descriptor import code_from_descriptor, code_to_descriptor
from lrctower.repair import ErasurePattern, repair, repair_roundtrip_counts
from lrctower.errors import FieldTooLarge, NonPrimeCharacteristic, NotASquareField
from lrctower.field import _first_irreducible, prime_factors, shared_field

from conftest import field_mul, primes_upto, rational_code


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
    f = FiniteField(3, 2)
    assert f.modulus == (1, 0, 1)  # t^2 + 1
    # exhaustive scan over all nine monic quadratics in lex order
    first = None
    for c0, c1 in product(range(3), repeat=2):
        if naive_irreducible((c0, c1, 1), 3):
            first = (c0, c1, 1)
            break
    assert first == f.modulus


@pytest.mark.parametrize("p, k, modulus", [
    (2, 10, (1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1)),
    (2, 16, (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 1, 1)),
    (3, 6, (1, 0, 0, 0, 1, 1, 1)),
    (5, 4, (1, 0, 1, 1, 1)),
])
def test_extension_moduli_pinned(p, k, modulus):
    """Every element code depends on the modulus the search picks, so these
    must never move."""
    assert _first_irreducible(p, k) == modulus
    assert naive_irreducible(modulus, p)


@pytest.mark.parametrize("p, k", [(p, k) for p in primes_upto(64) for k in range(2, 13) if p**k <= 4096])
def test_first_irreducible_matches_first_in_order_scan(p, k):
    """The search starts at c_0 = 1, since t divides every candidate with
    c_0 = 0; the modulus is still the first irreducible of the whole
    lexicographic order, c_0 = 0 included."""
    candidates = (tuple(low) + (1,) for low in product(range(p), repeat=k))
    first = next(poly for poly in candidates if naive_irreducible(poly, p))
    assert _first_irreducible(p, k) == first


def test_prime_field_uses_identity_modulus():
    f = FiniteField(2, 1)
    assert f.modulus == (0, 1)
    assert f.add(1, 1) == 0
    assert f.mul(1, 1) == 1


def test_gf25_frobenius_additivity():
    f = FiniteField(5, 2)
    rng = random.Random(0)
    for _ in range(100):
        a, b = rng.randrange(25), rng.randrange(25)
        assert f.pow(f.add(a, b), 5) == f.add(f.pow(a, 5), f.pow(b, 5))


@pytest.mark.parametrize("p,k", [(2, 2), (3, 2), (2, 4), (5, 2), (7, 2)])
def test_field_axioms_on_random_triples(p, k):
    f = FiniteField(p, k)
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
    f = FiniteField(3, 2)
    t = 3
    assert f.mul(t, t) == 2  # t^2 = -1
    assert f.add(t, t) == 6
    assert f.neg(t) == 6
    assert f.mul(t, f.inv(t)) == 1
    assert f.pow(t, 4) == 1


def test_kernel_gf9_and_gf4():
    f9 = FiniteField(3, 2)
    assert artin_schreier_kernel(f9) == [0, 3, 6]
    f4 = FiniteField(2, 2)
    assert artin_schreier_kernel(f4) == [0, 1]


@pytest.mark.parametrize("p,k", [(2, 2), (3, 2), (2, 4), (5, 2)])
def test_kernel_is_additive_group_of_size_ell(p, k):
    f = FiniteField(p, k)
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
    assert subfield_units(FiniteField(3, 2)) == [1, 2]
    assert subfield_units(FiniteField(2, 2)) == [1]
    f25 = FiniteField(5, 2)
    units = set(subfield_units(f25))
    assert len(units) == 4
    for a in units:
        for b in units:
            assert f25.mul(a, b) in units


@pytest.mark.parametrize("p,k,size", [(3, 2, 4), (5, 2, 6), (2, 4, 5)])
def test_norm_one_group(p, k, size):
    f = FiniteField(p, k)
    grp = set(norm_one_group(f))
    assert len(grp) == f.ell + 1 == size
    assert 1 in grp
    for a in grp:
        assert f.inv(a) in grp
        for b in grp:
            assert f.mul(a, b) in grp


def test_square_field_required():
    f8 = FiniteField(2, 3)
    with pytest.raises(NotASquareField):
        artin_schreier_kernel(f8)
    with pytest.raises(NotASquareField):
        norm_one_group(f8)


def test_construction_errors():
    with pytest.raises(NonPrimeCharacteristic):
        FiniteField(6, 2)
    with pytest.raises(FieldTooLarge):
        FiniteField(2, 17)
    with pytest.raises(TypeError):  # the modulus is derived, never given
        FiniteField(3, 2, (2, 1, 1))


def test_prime_factors_against_sieve():
    """Ascending prime factors whose product is n, and [] below 2."""
    primes = set(primes_upto(10**4))
    for n in range(-5, 10**4 + 1):
        f = prime_factors(n)
        assert f == sorted(f) and all(x in primes for x in f), n
        assert math.prod(f) == n if n >= 2 else f == [], n


def test_composite_characteristic_is_refused():
    primes = set(primes_upto(2000))
    for p in [-1, 0, 1] + [n for n in range(4, 2001) if n not in primes]:
        with pytest.raises(NonPrimeCharacteristic, match=f"^{p} is not prime$"):
            FiniteField(p, 1)


FIELDS_UPTO_256 = [(p, k) for p in primes_upto(256) for k in range(1, 9) if p**k <= 256]


@pytest.mark.parametrize("p, k", FIELDS_UPTO_256)
def test_generator_is_smallest_primitive_code(p, k):
    """exp_table[1] is the smallest code g >= 2 whose powers, multiplied out
    as polynomials, visit all q - 1 units."""
    f = FiniteField(p, k)

    def order(g):
        x, n = g, 1
        while x != 1:
            x, n = field_mul(f, x, g), n + 1
        return n

    if f.q == 2:
        assert f.exp_table.tolist() == [1]
        return
    g = next(g for g in range(2, f.q) if order(g) == f.q - 1)
    assert f.exp_table[1] == g


def _powers_by_products(f):
    """Oracle: g^0, ..., g^(q-2), one polynomial product per unit, where g
    is the least code >= 2 with g^((q-1)/r) != 1 for every prime r | q - 1,
    its powers taken by square-and-multiply on the same products."""
    n = f.q - 1

    def power(x, e):
        acc = 1
        while e:
            if e & 1:
                acc = field_mul(f, acc, x)
            x, e = field_mul(f, x, x), e >> 1
        return acc

    rs = [r for r in primes_upto(n) if n % r == 0]
    g = next((g for g in range(2, f.q) if all(power(g, n // r) != 1 for r in rs)), 1)
    out, x = [], 1
    for _ in range(max(n, 1)):
        out.append(x)
        x = field_mul(f, x, g)
    return out


def _assert_tables_match_products(f):
    exp = _powers_by_products(f)
    log = [-1] * f.q
    for i, x in enumerate(exp):
        log[x] = i
    assert f.exp_table.tolist() == exp, f
    assert f.log_table.tolist() == log, f


def test_exp_table_in_blocks_matches_products_up_to_5000():
    """The exp table, built in blocks of powers, is the per-unit product
    loop's on every field of order <= 5000."""
    for p in primes_upto(5000):
        for k in range(1, 13):
            if p**k <= 5000:
                _assert_tables_match_products(FiniteField(p, k))


@pytest.mark.parametrize("p, k", [(2, 13), (3, 8), (5, 6), (13, 4), (251, 2), (4099, 1), (65521, 1)])
def test_exp_table_in_blocks_matches_products_on_large_fields(p, k):
    _assert_tables_match_products(FiniteField(p, k))


@pytest.mark.parametrize("p, k, g, digest", [
    (2, 16, 6, "aeb296a85af891df55353f4cc00c33dbeb17572b64415a1e54871009630d8d89"),
    (3, 10, 34, "f208c6ab3070f7ed3aeb9d1cabea5dc233a25d2e0d6003f29cb622bc4086cfc6"),
    (251, 2, 256, "22a397e70915d10fb0335a30f9e52f65f579ccb5ec35b345d8f2af53deb2a58f"),
    (65521, 1, 17, "f7186c42afffc92d2c05e50b1344095bad862b98f2380aa89151dc08505090f3"),
    (5, 6, 6, "943938b0a841487f38187805042af6742ff1f3509a0d4255bef52ed32a1467df"),
])
def test_exp_table_pinned_above_5000(p, k, g, digest):
    """Above the exhaustive check's cap, the generator and the sha256 of
    the exp table as little-endian uint32 are pinned."""
    f = FiniteField(p, k)
    assert f.exp_table[1] == g
    assert hashlib.sha256(np.asarray(f.exp_table, dtype="<u4").tobytes()).hexdigest() == digest


@pytest.mark.parametrize("p, k", [(3, 2), (2, 11)])
def test_shared_field_is_one_read_only_field_per_order(p, k):
    """shared_field keeps one field per (p, k); FiniteField builds its own.
    The tables are read-only, so no caller can change another's field."""
    f = shared_field(p, k)
    assert shared_field(p, k) is f and FiniteField(p, k) is not f and FiniteField(p, k) == f
    tables = [f.exp_table, f.log_table, f.neg_table] + [t for t in (f.add_table, f.mul_table) if t is not None]
    for table in tables:
        with pytest.raises(ValueError, match="read-only"):
            table[(0,) * table.ndim] = 1
    assert f.mul(2, f.inv(2)) == 1


@pytest.mark.parametrize("p, k", [(3, 2), (1031, 1)])
def test_field_pickles_and_copies(p, k):
    """The scalar ops' memoryviews do not pickle; a field still does, and
    copies, as an equal field with working tables of its own."""
    f = FiniteField(p, k)
    for g in (pickle.loads(pickle.dumps(f)), copy.deepcopy(f), copy.copy(f)):
        assert g == f and g is not f and g.exp_table is not f.exp_table
        assert g.mul(3, g.inv(3)) == 1 and g.add(f.q - 1, 1) == f.add(f.q - 1, 1)
        assert hash(g) == hash(f) and g.modulus == f.modulus
    assert f.__reduce__() == (FiniteField, (p, k))  # (p, k) name the field


@pytest.mark.parametrize("p, k", [(2, 1), (3, 2), (7, 2), (2, 8), (3, 5), (5, 4), (31, 2), (1021, 1),
                                  (2, 9), (3, 6), (2, 10), (1031, 1), (37, 2)])
def test_lane_tables_spread_digits_and_reduce_mod_p(p, k):
    """Exactly GF(512), GF(729), GF(1024) and the fields above TABLE_CAP
    have no lane tables.  Elsewhere digit i of ``products[a, b]`` is digit i
    of a*b, in bits [L i, L (i + 1)) with L = 16 // k, and ``reduce`` takes
    a sum of up to ``lane_capacity`` spread codes back to their field sum
    (checked on sums of up to 64 random codes, and of ``lane_capacity``
    copies of q - 1)."""
    f = FiniteField(p, k)
    bits, q = 16 // k, f.q
    assert f.lane_capacity == (2**bits - 1) // (p - 1)
    if q > 1024 or q in (512, 729, 1024):
        assert f.lane_tables is None
        return
    products, reduce = f.lane_tables
    assert products.shape == (q, q) and products.dtype == np.uint16
    assert reduce.shape == (1 << 16,) and reduce.dtype == f.dtype
    for table in (products, reduce):
        with pytest.raises(ValueError, match="read-only"):
            table[(0,) * table.ndim] = 0
    rng = np.random.default_rng(q)
    for a, b in rng.integers(0, q, size=(200, 2)).tolist() + [(q - 1, 1), (1, q - 1)]:
        got = int(products[a, b])
        assert [got >> bits * i & (1 << bits) - 1 for i in range(k)] == [f.mul(a, b) // p**i % p for i in range(k)]
        assert reduce[got] == f.mul(a, b)
    for _ in range(20):
        codes = rng.integers(0, q, size=min(f.lane_capacity, 64)).tolist()
        want = 0
        for c in codes:
            want = f.add(want, c)
        assert reduce[products[1, codes].sum(dtype=np.uint16)] == want
    assert reduce[products[1, q - 1] * np.uint16(f.lane_capacity)] == f.mul(q - 1, f.lane_capacity % p)


def test_lane_tables_are_built_on_the_first_bulk_rebuild():
    """Neither ``FiniteField(p, k)`` nor construction, encoding or a
    single-symbol repair builds the lane tables; the first bulk rebuild
    does, once, and the field keeps them."""
    code = rational_code(FiniteField(3, 2), 2)
    f = code.field
    word = tuple(int(x) for x in code.encode([1, 2]))
    assert repair(code, ErasurePattern(word, 0, 1)) == word[0]
    assert "lane_tables" not in vars(f)
    assert repair_roundtrip_counts(code, code.generator_matrix) == 0
    tables = vars(f)["lane_tables"]
    assert repair_roundtrip_counts(code, [word]) == 0 and f.lane_tables is tables


def test_lane_tables_build_lean():
    """GF(49)'s lane tables are built in uint16 a lane at a time: the build
    peaks under 1 MB, where int64 temporaries of 2^16 x k entries would
    take 1 MB each."""
    f = FiniteField(7, 2)
    tracemalloc.start()
    try:
        tables = f.lane_tables
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tables is not None and peak < 1 << 20


def test_json_round_trip(golden_code):
    # the field block of a code descriptor, over GF(9)
    f = FiniteField(3, 2)
    desc = code_to_descriptor(golden_code)
    assert desc["field"] == {"p": 3, "k": 2, "modulus": [1, 0, 1]}
    g = code_from_descriptor(desc).field
    assert g == f and g.mul(3, 3) == 2


def test_vectorized_paths_match_scalar():
    import numpy as np

    f = FiniteField(5, 2)
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
    f = FiniteField(p, k)
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
    f = FiniteField(p, k)
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


@pytest.mark.parametrize("p, k", [(2, 2), (7, 2), (2, 8), (257, 1), (1031, 1)])
def test_vec_inv_matches_scalar_inv(p, k):
    """Every nonzero element of GF(4), GF(49), GF(256), GF(257) and GF(1031)
    (the digit-loop path), as int64 and as ``dtype``; a zero raises."""
    f = FiniteField(p, k)
    a = np.arange(1, f.q)
    for cast in (np.int64, f.dtype):
        out = f.vec_inv(a.astype(cast))
        assert out.dtype == f.dtype and out.shape == a.shape
        assert out.tolist() == [f.inv(int(x)) for x in a]
    assert f.vec_inv(np.array([[1, f.q - 1]])).tolist() == [[1, f.inv(f.q - 1)]]
    for zero in (np.array([3, 0, 1]), np.zeros((2, 2), dtype=f.dtype), 0):
        with pytest.raises(ZeroDivisionError):
            f.vec_inv(zero)


@pytest.mark.parametrize("p, k", [(1031, 1), (3, 7), (65521, 1)])
def test_scalar_add_sub_on_numpy_scalars(p, k):
    """Above TABLE_CAP, add and add(a, neg(b)) on numpy ``dtype`` scalars
    equal the Python-int results and vec_add/vec_sub: on GF(65521) a sum near q must
    not wrap in uint16 (65000 + 1000 is 479, not 464)."""
    f = FiniteField(p, k)
    assert f.add_table is None
    rng = np.random.default_rng(p + k)
    a = rng.integers(0, f.q, 100).astype(f.dtype)
    b = rng.integers(0, f.q, 100).astype(f.dtype)
    a[0] = b[0] = a[1] = f.q - 1
    va, vs = f.vec_add(a, b), f.vec_sub(a, b)
    for x, y, s, d in zip(a, b, va, vs):
        assert f.add(x, y) == f.add(int(x), int(y)) == int(s)
        assert f.add(x, f.neg(y)) == f.add(int(x), f.neg(int(y))) == int(d)
    if f.q == 65521:
        assert f.add(np.uint16(65000), np.uint16(1000)) == 479


# GF(9), GF(49), GF(256), GF(1024) index the q x q tables; GF(1031) and
# GF(2^11) are above TABLE_CAP and take the digit loop and log/exp tables
SCALAR_FIELDS = [(3, 2), (7, 2), (2, 8), (2, 10), (1031, 1), (2, 11)]


def _vec(op, *args):
    """One element through the vectorized op, back as a Python int."""
    return int(op(*(np.array([x]) for x in args))[0])


@pytest.mark.parametrize("p, k", SCALAR_FIELDS)
@settings(derandomize=True, deadline=None, max_examples=150)
@given(data=st.data())
def test_scalar_ops_match_vector_ops_and_axioms(p, k, data):
    """add, neg, mul, inv and pow return Python ints equal to vec_add,
    vec_neg, vec_mul, vec_inv and vec_pow (and add(a, neg(b)) to vec_sub), whether the codes come as Python
    ints or as numpy ``dtype`` scalars (uint8 or uint16, which must not
    wrap), and satisfy the field axioms."""
    f = shared_field(p, k)
    q = f.q
    codes = st.one_of(st.integers(0, q - 1), st.sampled_from([0, 1, q - 2, q - 1]))
    a, b, c = (data.draw(codes) for _ in range(3))
    e, e2 = data.draw(st.integers(-3 * q, 3 * q)), data.draw(st.integers(0, 3 * q))
    cast = data.draw(st.sampled_from([int, f.dtype.type]))
    x, y, z = cast(a), cast(b), cast(c)
    results = [f.add(x, y), f.neg(x), f.add(x, f.neg(y)), f.mul(x, y), f.pow(x, e)]
    assert all(type(r) is int for r in results)
    assert results == [_vec(f.vec_add, a, b), _vec(f.vec_neg, a), _vec(f.vec_sub, a, b),
                       _vec(f.vec_mul, a, b), int(f.vec_pow(np.array([a]), e)[0])]
    if a:
        assert f.inv(x) == _vec(f.vec_inv, a) and type(f.inv(x)) is int
        assert f.mul(x, f.inv(x)) == 1 and f.pow(x, -1) == f.inv(x)
    else:
        with pytest.raises(ZeroDivisionError):
            f.inv(x)
    # axioms, on the same mix of Python ints and numpy scalars
    assert f.add(x, y) == f.add(y, x) and f.mul(x, y) == f.mul(y, x)
    assert f.add(x, f.add(y, z)) == f.add(f.add(x, y), z)
    assert f.mul(x, f.mul(y, z)) == f.mul(f.mul(x, y), z)
    assert f.mul(x, f.add(y, z)) == f.add(f.mul(x, y), f.mul(x, z))
    assert f.add(x, 0) == f.mul(x, 1) == a and f.mul(x, 0) == 0
    assert f.add(x, f.neg(x)) == 0 and f.add(f.add(x, f.neg(y)), y) == a
    assert f.pow(x, q) == a and f.pow(x, 0) == 1
    assert f.pow(x, e2 + 5) == f.mul(f.pow(x, e2), f.pow(x, 5))


@pytest.mark.parametrize("p, k", SCALAR_FIELDS)
def test_scalar_ops_reject_codes_past_q(p, k):
    """A code >= q is an IndexError, never a wrapped or invented element: on
    the table path for every op, as a Python int or a numpy uint16 scalar;
    above TABLE_CAP the log and neg tables still refuse it in neg, inv and
    pow (add and mul take the digit loop and its zero test there)."""
    f = shared_field(p, k)
    q = f.q
    bad = [q, q + 1, 2 * q - 1] + ([np.uint16(q)] if f.dtype == np.uint16 else [])
    ops = [lambda v: f.neg(v), lambda v: f.inv(v), lambda v: f.pow(v, 2)]
    if f.add_table is not None:
        ops += [lambda v: f.add(v, 1), lambda v: f.add(0, v), lambda v: f.mul(v, 0),
                lambda v: f.mul(1, v)]
    for v in bad:
        for op in ops:
            with pytest.raises(IndexError):
                op(v)
