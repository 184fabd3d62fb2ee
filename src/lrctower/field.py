"""Exact arithmetic in GF(p^k) with canonical integer encoding.

Elements are encoded as integers in [0, q): the polynomial
c_0 + c_1*t + ... + c_{k-1}*t^{k-1} maps to c_0 + c_1*p + ... + c_{k-1}*p^{k-1}.
The modulus is the first monic irreducible polynomial of degree k in
lexicographic order of coefficient vectors (constant term first), so the
encoding is reproducible everywhere.

Multiplication runs on dense log/antilog tables.  For small fields
(q <= TABLE_CAP) full q x q add/mul tables back the vectorized numpy paths
used by the linear-algebra and enumeration layers.  Every table of element
codes, and so every vectorized result, is stored in ``FiniteField.dtype``:
the narrowest unsigned type that holds q - 1 (uint8 up to q = 256, uint16
above).  The fused row update ``vec_axpy`` reads the same two tables raveled,
through a flat index a*q + b held in the narrowest unsigned type that holds
q^2 - 1 (uint16 up to q = 256, uint32 above).
"""

from __future__ import annotations

import numpy as np

from .errors import FieldTooLarge, NonPrimeCharacteristic, NotASquareField

MAX_ORDER = 1 << 16
TABLE_CAP = 1024


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


# ---------------------------------------------------------------------------
# polynomial helpers over GF(p); coefficient tuples, constant term first
# ---------------------------------------------------------------------------

def _poly_trim(a: tuple[int, ...]) -> tuple[int, ...]:
    i = len(a)
    while i > 0 and a[i - 1] == 0:
        i -= 1
    return a[:i]


def _poly_mulmod(a, b, mod, p):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_modred(tuple(out), mod, p)


def _poly_modred(a, mod, p):
    # mod is monic; reduce a in place
    a = list(a)
    dm = len(mod) - 1
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i] % p
        if c == 0:
            continue
        for j in range(dm + 1):
            a[i - dm + j] = (a[i - dm + j] - c * mod[j]) % p
    return _poly_trim(tuple(x % p for x in a))


def _poly_divmod(a, b, p):
    # b monic is not required; leading coefficient inverted mod p
    a = list(a)
    db, da = len(b) - 1, len(a) - 1
    if da < db:
        return (), _poly_trim(tuple(a))
    inv_lead = pow(b[-1], p - 2, p)
    quot = [0] * (da - db + 1)
    for i in range(da, db - 1, -1):
        c = (a[i] * inv_lead) % p
        quot[i - db] = c
        if c:
            for j in range(db + 1):
                a[i - db + j] = (a[i - db + j] - c * b[j]) % p
    return _poly_trim(tuple(quot)), _poly_trim(tuple(a))


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
            div = tuple(low) + (1,)
            _, rem = _poly_divmod(poly, div, p)
            if not rem:
                return False
    return True


def _first_irreducible(p: int, k: int) -> tuple[int, ...]:
    """First monic irreducible of degree k, lexicographic on (c_0,...,c_{k-1})."""
    from itertools import product

    for low in product(range(p), repeat=k):
        poly = tuple(low) + (1,)
        if _is_irreducible(poly, p):
            return poly
    raise AssertionError("no irreducible polynomial found")  # unreachable


# ---------------------------------------------------------------------------


class FiniteField:
    """GF(p^k) with log/antilog tables; immutable after construction."""

    def __init__(self, p: int, k: int, modulus: tuple[int, ...] | None = None):
        if not is_prime(p):
            raise NonPrimeCharacteristic(f"{p} is not prime")
        if k < 1:
            raise ValueError("extension degree must be >= 1")
        q = p**k
        if q > MAX_ORDER:
            raise FieldTooLarge(f"order {q} exceeds cap {MAX_ORDER}")
        self.p = p
        self.k = k
        self.q = q
        # l = p^(k/2) when the order is a square, as in every tower setting
        self.ell = p ** (k // 2) if k % 2 == 0 else None
        if modulus is None:
            modulus = (0, 1) if k == 1 else _first_irreducible(p, k)
        modulus = tuple(int(c) % p for c in modulus)
        if len(modulus) != k + 1 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree k")
        if k > 1 and not _is_irreducible(modulus, p):
            raise ValueError("modulus is reducible")
        self.modulus = modulus
        self.dtype = np.dtype(np.uint8 if q <= 256 else np.uint16)
        self._build_tables()
        self._as_preimages: dict[int, list[int]] | None = None

    # -- encoding ----------------------------------------------------------

    def to_coeffs(self, a: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.k):
            a, r = divmod(a, self.p)
            out.append(r)
        return tuple(out)

    def from_coeffs(self, coeffs) -> int:
        a = 0
        for c in reversed(list(coeffs)):
            a = a * self.p + (c % self.p)
        return a

    # -- table construction -------------------------------------------------

    def _mul_poly(self, a: int, b: int) -> int:
        pa = _poly_trim(self.to_coeffs(a))
        pb = _poly_trim(self.to_coeffs(b))
        if not pa or not pb:
            return 0
        return self.from_coeffs(_poly_mulmod(pa, pb, self.modulus, self.p) + (0,) * self.k)

    def _find_generator(self) -> int:
        n = self.q - 1
        factors = set()
        m, f = n, 2
        while f * f <= m:
            while m % f == 0:
                factors.add(f)
                m //= f
            f += 1
        if m > 1:
            factors.add(m)

        def pow_poly(g, e):
            acc, base = 1, g
            while e:
                if e & 1:
                    acc = self._mul_poly(acc, base)
                base = self._mul_poly(base, base)
                e >>= 1
            return acc

        for g in range(2, self.q):
            if all(pow_poly(g, n // f) != 1 for f in factors):
                return g
        return 1  # q == 2

    def _build_tables(self):
        q = self.q
        g = self._find_generator()
        exp = np.zeros(max(q - 1, 1), dtype=np.int64)
        log = np.full(q, -1, dtype=np.int64)
        x = 1
        for i in range(q - 1):
            exp[i] = x
            log[x] = i
            x = self._mul_poly(x, g)
        self.exp_table = exp.astype(self.dtype)
        self.log_table = log
        # negation: digitwise p-complement
        codes = np.arange(q, dtype=np.int64)
        neg = np.zeros(q, dtype=np.int64)
        for i in range(self.k):
            d = (codes // self.p**i) % self.p
            neg += ((self.p - d) % self.p) * self.p**i
        self.neg_table = neg.astype(self.dtype)
        if q <= TABLE_CAP:
            add = np.zeros((q, q), dtype=np.int64)
            for i in range(self.k):
                da = (codes // self.p**i) % self.p
                add += ((da[:, None] + da[None, :]) % self.p) * self.p**i
            self.add_table = add.astype(self.dtype)
            lg = np.where(log < 0, 0, log)
            mul = exp[(lg[:, None] + lg[None, :]) % (q - 1)] if q > 2 else np.array([[0, 0], [0, 1]])
            mul = np.where((codes[:, None] == 0) | (codes[None, :] == 0), 0, mul)
            self.mul_table = mul.astype(self.dtype)
            self._add_flat = self.add_table.ravel()
            self._mul_flat = self.mul_table.ravel()
            self._flat_index = np.dtype(np.uint16 if q <= 256 else np.uint32)
            # q as an index-typed numpy scalar: a Python int costs every call a scalar conversion
            self._flat_q = self._flat_index.type(q)
        else:
            self.add_table = None
            self.mul_table = None

    # -- scalar arithmetic on integer codes ---------------------------------

    def add(self, a: int, b: int) -> int:
        if self.add_table is not None:
            return int(self.add_table[a, b])
        out, p = 0, self.p
        for i in range(self.k):
            pi = p**i
            out += ((a // pi + b // pi) % p) * pi
        return out

    def neg(self, a: int) -> int:
        return int(self.neg_table[a])

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return int(self.exp_table[(self.log_table[a] + self.log_table[b]) % (self.q - 1)])

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("zero has no inverse")
        return int(self.exp_table[(-self.log_table[a]) % (self.q - 1)])

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            return 1 if e == 0 else 0
        if e < 0:
            return self.pow(self.inv(a), -e)
        return int(self.exp_table[(self.log_table[a] * e) % (self.q - 1)])

    # -- vectorized arithmetic on numpy arrays of codes ----------------------

    def vec_add(self, a, b):
        a = np.asarray(a)
        b = np.asarray(b)
        if self.add_table is not None:
            return self.add_table[a, b]
        a = a.astype(np.int64, copy=False)
        b = b.astype(np.int64, copy=False)
        out = np.zeros(np.broadcast(a, b).shape, dtype=np.int64)
        for i in range(self.k):
            pi = self.p**i
            out += ((a // pi + b // pi) % self.p) * pi
        return out.astype(self.dtype)

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

    def as_preimages(self) -> dict[int, list[int]]:
        """Solutions of x^l + x = beta, keyed by beta (l = sqrt(q))."""
        self.require_square()
        if self._as_preimages is None:
            table: dict[int, list[int]] = {}
            for x in range(self.q):
                beta = self.add(self.pow(x, self.ell), x)
                table.setdefault(beta, []).append(x)
            self._as_preimages = table
        return self._as_preimages

    def __eq__(self, other):
        return (
            isinstance(other, FiniteField)
            and (self.p, self.k, self.modulus) == (other.p, other.k, other.modulus)
        )

    def __hash__(self):
        return hash((self.p, self.k, self.modulus))

    def __repr__(self):
        return f"GF({self.q})"


def make_field(p: int, k: int) -> FiniteField:
    """Build GF(p^k) with the deterministic first-in-lex modulus."""
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


def field_to_json(field: FiniteField) -> dict:
    return {"p": field.p, "k": field.k, "modulus": list(field.modulus)}


def field_from_json(obj: dict) -> FiniteField:
    return FiniteField(int(obj["p"]), int(obj["k"]), tuple(obj["modulus"]))
