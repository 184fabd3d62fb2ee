"""Exact arithmetic in GF(p^k) with canonical integer encoding.

Elements are encoded as integers in [0, q): the polynomial
c_0 + c_1*t + ... + c_{k-1}*t^{k-1} maps to c_0 + c_1*p + ... + c_{k-1}*p^{k-1}.
The modulus is not a parameter: it is always the first monic irreducible
polynomial of degree k in lexicographic order of coefficient vectors
(constant term first), t itself when k = 1.  So a field is named by (p, k)
alone, and the encoding is reproducible everywhere.

Multiplication runs on dense log/antilog tables.  They are built on one
linear map: multiplication by a code a is the k x k GF(p) matrix
sum_i a_i C^i, C the modulus's companion matrix.  The generator search
powers these matrices, and the antilog table is built in blocks of about
sqrt(q - 1) powers of the generator, each block g^B's matrix times the one
before.  Every table is read-only, and ``shared_field(p, k)`` keeps one
field per (p, k) for the whole process.  For small fields (q <= TABLE_CAP)
full q x q add/mul tables back the vectorized numpy paths used by the
linear-algebra and enumeration layers.  Every table of element
codes, and so every vectorized result, is stored in ``FiniteField.dtype``:
the narrowest unsigned type that holds q - 1 (uint8 up to q = 256, uint16
above).  The fused row update ``vec_axpy`` reads the same two tables raveled,
through a flat index a*q + b held in the narrowest unsigned type that holds
q^2 - 1 (uint16 up to q = 256, uint32 above); elimination's table step in
``gflinalg`` reads both raveled tables the same way.

The scalar ops (``add``, ``neg``, ``mul``, ``inv``, ``pow``) read the same
tables through ``memoryview``s, 2-D for the add/mul tables: indexing a view
returns a Python int and checks bounds as numpy does (an out-of-range code
raises IndexError), but builds no numpy scalar.

``vec_dot``, the sum of products under bulk rebuilds, adds in packed
lanes.  A code is spread into a uint16 with its digit i in bits
[L i, L (i + 1)), L = 16 // k, so a plain uint16 sum adds digit by digit
with no carry while no lane holds more than G = (2^L - 1) // (p - 1) digits
(``lane_capacity``), and one lookup in a 2^16-entry table takes every lane
mod p back to a code.  The lanes apply where q <= TABLE_CAP and G >= 2, so
that a lane holds two products: every such field but GF(512), GF(729) and
GF(1024).  Their two tables (``lane_tables``: the mul table spread into
lanes, and the reduction) are built on the first ``vec_dot``, never by the
constructor; elsewhere ``vec_dot`` runs one ``vec_axpy`` per term.
"""

from __future__ import annotations

from functools import cache, cached_property
from math import isqrt

import numpy as np

from .errors import FieldTooLarge, NonPrimeCharacteristic, NotASquareField

MAX_ORDER = 1 << 16
TABLE_CAP = 1024


def prime_factors(n: int) -> list[int]:
    """Prime factors of n with multiplicity, ascending, by trial division;
    [] for n < 2."""
    out, f = [], 2
    while f * f <= n:
        while n % f == 0:
            out.append(f)
            n //= f
        f += 1
    return out + [n] if n > 1 else out


# ---------------------------------------------------------------------------
# polynomial long division over GF(p); coefficient tuples, constant term first
# ---------------------------------------------------------------------------

def _poly_modred(a, mod, p):
    # mod is monic; the remainder of a, as deg(mod) coefficients
    a = list(a)
    dm = len(mod) - 1
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i] % p
        if c == 0:
            continue
        for j in range(dm + 1):
            a[i - dm + j] = (a[i - dm + j] - c * mod[j]) % p
    return tuple(x % p for x in a[:dm])


def _is_irreducible(poly: tuple[int, ...], p: int) -> bool:
    """Trial division by every monic polynomial of degree <= deg/2."""
    k = len(poly) - 1
    if k < 1:
        return False
    if k == 1:
        return True
    from itertools import product

    for d in range(1, k // 2 + 1):
        for low in product(range(p), repeat=d):
            if not any(_poly_modred(poly, tuple(low) + (1,), p)):
                return False
    return True


def _first_irreducible(p: int, k: int) -> tuple[int, ...]:
    """First monic irreducible of degree k >= 2, lexicographic on (c_0,...,c_{k-1}), skipping t's multiples (c_0 = 0)."""
    from itertools import product

    for low in product(range(1, p), *[range(p)] * (k - 1)):
        poly = tuple(low) + (1,)
        if _is_irreducible(poly, p):
            return poly
    raise AssertionError("no irreducible polynomial found")  # unreachable


def _matrix_pow(m: np.ndarray, e: int, p: int) -> np.ndarray:
    """m^e mod p by square-and-multiply, on int64 matrices stacked on any
    leading axes."""
    out = np.broadcast_to(np.eye(m.shape[-1], dtype=np.int64), m.shape)
    while e:
        if e & 1:
            out = out @ m % p
        m = m @ m % p
        e >>= 1
    return out


# ---------------------------------------------------------------------------


class FiniteField:
    """GF(p^k) with log/antilog tables, named by (p, k); immutable after construction."""

    def __init__(self, p: int, k: int):
        if p > MAX_ORDER:  # before trial division, which would not end for a huge p
            raise FieldTooLarge(f"characteristic {p} exceeds cap {MAX_ORDER}")
        if prime_factors(p) != [p]:
            raise NonPrimeCharacteristic(f"{p} is not prime")
        if k < 1:
            raise ValueError("extension degree must be >= 1")
        if k >= MAX_ORDER.bit_length() or p**k > MAX_ORDER:  # p >= 2: a huge k forms no p^k
            raise FieldTooLarge(f"order {p}^{k} exceeds cap {MAX_ORDER}")
        q = p**k
        self.p = p
        self.k = k
        self.q = q
        # l = p^(k/2) when the order is a square, as in every tower setting
        self.ell = p ** (k // 2) if k % 2 == 0 else None
        self.modulus = (0, 1) if k == 1 else _first_irreducible(p, k)
        self.dtype = np.dtype(np.uint8 if q <= 256 else np.uint16)
        # digits of at most p - 1 that one 16 // k-bit lane sums without overflow
        self.lane_capacity = (2 ** (16 // k) - 1) // (p - 1)
        self._build_tables()

    # -- table construction -------------------------------------------------

    def _generator_powers(self, digits: np.ndarray) -> np.ndarray:
        """g^0, ..., g^(q-2) as int64 coefficient columns (k, q - 1), g the
        generator.

        Multiplication by a code a is GF(p)-linear on coefficient vectors:
        its k x k matrix is sum_i a_i C^i, where C is the modulus's
        companion matrix and a_i = digits[i, a].  g is the least code >= 2
        with g^((q-1)/r) != 1 for every prime r | q - 1, the powers taken
        by square-and-multiply on the matrices of a batch of candidates at
        once.  The first block of B ~ sqrt(q - 1) powers applies g's matrix
        to 1 again and again; each later block is the previous one, as a
        (k, B) array of coefficient columns, times the matrix of g^B.  Every
        product is exact in int64 while k*(p-1)^2 < 2^63, which holds for
        every q <= MAX_ORDER."""
        p, k, q = self.p, self.k, self.q
        n = max(q - 1, 1)
        companion = np.eye(k, k, -1, dtype=np.int64)  # column j: t * t^j
        companion[:, -1] = np.negative(self.modulus[:k]) % p
        basis = [np.eye(k, dtype=np.int64)]
        for _ in range(k - 1):
            basis.append(companion @ basis[-1] % p)
        exponents = [n // r for r in set(prime_factors(n))]
        g, first = basis[0], 2  # q = 2: the generator is 1
        while first < q:  # candidates in batches [c, 2c)
            mats = np.tensordot(digits[:, first:2 * first].T, basis, axes=1) % p
            primitive = np.ones(len(mats), dtype=bool)
            for e in exponents:
                primitive &= (_matrix_pow(mats, e, p) != basis[0]).any(axis=(1, 2))
            if primitive.any():
                g = mats[primitive.argmax()]
                break
            first *= 2
        b = isqrt(n - 1) + 1  # ceil(sqrt(n))
        block = [digits[:, 1]]
        for _ in range(b - 1):
            block.append(g @ block[-1] % p)
        blocks = [np.array(block).T]
        step = _matrix_pow(g, b, p)
        for _ in range(-(-n // b) - 1):
            blocks.append(step @ blocks[-1] % p)
        return np.hstack(blocks)[:, :n]

    def _build_tables(self):
        p, k, q = self.p, self.k, self.q
        # digits[i, a] = a // p**i % p, the t^i coefficient of code a, read off the index grid
        digits = np.indices((p,) * k, dtype=self.dtype).reshape(k, q)[::-1]
        weights = p ** np.arange(k, dtype=np.int64)
        exp = weights @ self._generator_powers(digits)
        log = np.full(q, -1, dtype=np.int64)
        log[exp] = np.arange(len(exp))
        self.exp_table = exp.astype(self.dtype)
        self.log_table = log
        self.neg_table = (weights @ ((p - digits) % p)).astype(self.dtype)  # digitwise p-complement
        self.add_table = self.mul_table = None
        if q <= TABLE_CAP:
            codes = np.arange(q, dtype=np.int64)
            self.add_table = self._digit_add(codes[:, None], codes[None, :]).astype(self.dtype)
            lg = np.where(log < 0, 0, log)
            mul = exp[(lg[:, None] + lg[None, :]) % (q - 1)] if q > 2 else np.array([[0, 0], [0, 1]])
            mul = np.where((codes[:, None] == 0) | (codes[None, :] == 0), 0, mul)
            self.mul_table = mul.astype(self.dtype)
        # read-only before any view is taken: one field may serve a whole process (shared_field)
        for table in (self.exp_table, log, self.neg_table, self.add_table, self.mul_table):
            if table is not None:
                table.flags.writeable = False
        self._exp, self._log, self._neg = map(memoryview, (self.exp_table, log, self.neg_table))
        self._add = self._mul = None  # 2-D views of add_table / mul_table on the table path
        if self.add_table is not None:
            self._add_flat = self.add_table.ravel()
            self._mul_flat = self.mul_table.ravel()
            self._flat_index = np.dtype(np.uint16 if q <= 256 else np.uint32)
            # q as an index-typed numpy scalar: a Python int costs every call a scalar conversion
            self._flat_q = self._flat_index.type(q)
            self._add, self._mul = memoryview(self.add_table), memoryview(self.mul_table)

    @cached_property
    def lane_tables(self) -> tuple[np.ndarray, np.ndarray] | None:
        """``(products, reduce)``, read-only, built on first use; None unless
        q <= TABLE_CAP and ``lane_capacity`` >= 2.  ``products`` (q x q,
        uint16) is the mul table spread into lanes, row 1 the codes
        themselves; ``reduce`` (2^16 entries, ``dtype``) takes every lane
        mod p back to a code.  Built in uint16 a lane at a time, with no
        int64 temporary."""
        if self.q > TABLE_CAP or self.lane_capacity < 2:
            return None
        p, bits = np.uint16(self.p), 16 // self.k
        codes = np.arange(self.q, dtype=np.uint16)
        spread = np.zeros(self.q, dtype=np.uint16)
        packed = np.arange(1 << 16, dtype=np.uint16)
        reduce = np.zeros(1 << 16, dtype=np.uint16)
        for i in range(self.k):
            spread |= codes // np.uint16(self.p**i) % p << np.uint16(bits * i)
            lane = packed >> np.uint16(bits * i)
            lane &= np.uint16((1 << bits) - 1)
            lane %= p
            lane *= np.uint16(self.p**i)
            reduce += lane
        products, reduce = spread[self.mul_table], reduce.astype(self.dtype)
        products.flags.writeable = reduce.flags.writeable = False
        return products, reduce

    def _digit_add(self, a, b):
        """Digit-wise sum mod p of codes: Python ints, or int64 arrays that
        broadcast."""
        out, p = 0, self.p
        for i in range(self.k):
            pi = p**i
            out = out + ((a // pi + b // pi) % p) * pi
        return out

    # -- scalar arithmetic on integer codes ---------------------------------

    def add(self, a: int, b: int) -> int:
        if self._add is not None:
            return self._add[a, b]
        return self._digit_add(int(a), int(b))  # numpy scalars would wrap

    def neg(self, a: int) -> int:
        return self._neg[a]

    def mul(self, a: int, b: int) -> int:
        if self._mul is not None:
            return self._mul[a, b]
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("zero has no inverse")
        return self._exp[-self._log[a] % (self.q - 1)]

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            return 1 if e == 0 else 0
        if e < 0:
            return self.pow(self.inv(a), -e)
        return self._exp[self._log[a] * e % (self.q - 1)]

    # -- vectorized arithmetic on numpy arrays of codes ----------------------

    def vec_add(self, a, b):
        a = np.asarray(a)
        b = np.asarray(b)
        if self.add_table is not None:
            return self.add_table[a, b]
        return self._digit_add(a.astype(np.int64, copy=False), b.astype(np.int64, copy=False)).astype(self.dtype)

    def vec_neg(self, a):
        return self.neg_table[np.asarray(a)]

    def vec_sub(self, a, b):
        return self.vec_add(a, self.vec_neg(b))

    def vec_mul(self, a, b):
        a = np.asarray(a)
        b = np.asarray(b)
        if self.mul_table is not None:
            return self.mul_table[a, b]
        a = a.astype(np.int64, copy=False)
        b = b.astype(np.int64, copy=False)
        la = self.log_table[a]
        lb = self.log_table[b]
        out = self.exp_table[(np.maximum(la, 0) + np.maximum(lb, 0)) % (self.q - 1)]
        return np.where((a == 0) | (b == 0), 0, out)

    def vec_inv(self, a):
        """Elementwise inverse, in ``dtype``; a zero anywhere raises
        ZeroDivisionError, as ``inv`` does."""
        a = np.asarray(a)
        if not a.all():
            raise ZeroDivisionError("zero has no inverse")
        return self.exp_table[(-self.log_table[a]) % (self.q - 1)]

    def vec_axpy(self, y, a, x):
        """y + a*x elementwise, in ``dtype``; a*x broadcasts to y's shape.

        On the table path this is two gathers on the raveled q x q tables,
        indexed by a*q + x and then y*q + (a*x) in a narrow unsigned type,
        the second index built in place; for q > TABLE_CAP it is
        ``vec_add(y, vec_mul(a, x))``.
        """
        if self.mul_table is None:
            return self.vec_add(y, self.vec_mul(a, x))
        idx, q = self._flat_index, self._flat_q
        prod = self._mul_flat.take(np.asarray(a).astype(idx) * q + x)
        flat = np.asarray(y).astype(idx)
        flat *= q
        flat += prod
        return self._add_flat.take(flat)

    def vec_dot(self, a, xs, shape):
        """sum_h a[h] * x_h, in ``dtype``, over the code arrays x_h (in
        ``dtype``) that ``xs`` yields, one per weight a[h] of the sequence
        ``a``; each product broadcasts to ``shape``.  With ``lane_tables`` a
        product is one gather in row a[h] of the lanes' product table, and the
        lanes are reduced once at the end, and whenever one would pass
        ``lane_capacity`` values (the reduced carry then counts as one);
        without, each term is one ``vec_axpy``."""
        lanes = self.lane_tables
        if lanes is None:
            out = np.zeros(shape, dtype=self.dtype)
            # each weight as a (1,) array: numpy < 2 would narrow a 0-d one's flat index to x's type
            for a_h, x in zip(np.asarray(a)[:, None], xs):
                out = self.vec_axpy(out, a_h, x)
            return out
        products, reduce = lanes
        acc, held = np.zeros(shape, dtype=np.uint16), 0
        for a_h, x in zip(a, xs):
            if held == self.lane_capacity:
                acc, held = products[1].take(reduce.take(acc)), 1
            acc += products[a_h].take(x)
            held += 1
        return reduce.take(acc)

    def vec_pow(self, a, e: int):
        a = np.asarray(a, dtype=np.int64)
        if e == 0:
            return np.ones(a.shape, dtype=self.dtype)
        out = self.exp_table[(np.maximum(self.log_table[a], 0) * e) % (self.q - 1)]
        return np.where(a == 0, 0, out)

    # -- misc ---------------------------------------------------------------

    def require_square(self):
        if self.ell is None:
            raise NotASquareField(f"GF({self.q}) is not of the form GF(l^2)")

    def __eq__(self, other):
        return isinstance(other, FiniteField) and (self.p, self.k) == (other.p, other.k)

    def __hash__(self):
        return hash((self.p, self.k))

    def __reduce__(self):
        # memoryviews neither pickle nor copy: rebuild the tables from (p, k)
        return FiniteField, (self.p, self.k)

    def __repr__(self):
        return f"GF({self.q})"


@cache
def shared_field(p: int, k: int) -> FiniteField:
    """The process's one FiniteField for (p, k), built on first use and
    kept; its tables are read-only.  ``FiniteField(p, k)`` itself always
    builds tables of its own."""
    return FiniteField(p, k)


def _square_scan(field: FiniteField, predicate) -> list[int]:
    field.require_square()
    return [v for v in range(field.q) if predicate(v)]


def artin_schreier_kernel(field: FiniteField) -> list[int]:
    """{a in GF(l^2) : a^l + a = 0}; additive group of exactly l shifts."""
    return _square_scan(field, lambda v: field.add(field.pow(v, field.ell), v) == 0)


def subfield_units(field: FiniteField) -> list[int]:
    """Nonzero elements of the subfield GF(l) inside GF(l^2)."""
    return _square_scan(field, lambda v: v != 0 and field.pow(v, field.ell) == v)


def norm_one_group(field: FiniteField) -> list[int]:
    """{a in GF(l^2)* : a^(l+1) = 1}; cyclic of order l + 1."""
    return _square_scan(field, lambda v: v != 0 and field.pow(v, field.ell + 1) == 1)
