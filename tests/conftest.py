from math import prod

import numpy as np
import pytest

from lrctower import FiniteField, TowerSpec, build_recovery_group, construct_lrc
from lrctower.errors import TooLarge
from lrctower.repair import span_parts

DIGIT_LOOP_BUDGET = 60  # keeps a q = 1369 (digit-loop) build under about a second


def all_codewords(code, cap: int = 10**4) -> np.ndarray:
    """Every codeword, the all-zero one first; a test oracle for the round
    trips that ``verify_code`` runs on the generator rows alone."""
    fld = code.field
    q, k = fld.q, code.generator_matrix.shape[0]
    if q**k > cap:
        raise TooLarge(f"q^k = {q**k} exceeds cap {cap}")
    prefix, suffixes = span_parts(fld, code.generator_matrix)  # (n, B), one word per column
    next(suffixes)  # the zero shift: the prefix block itself
    return np.hstack([prefix, *(fld.vec_add(prefix, s[:, None]) for s in suffixes)]).T


def elements(h) -> list[tuple[int, int]]:
    """The (scalar, shift) pairs of a recovery group, in orbit-table order."""
    return list(zip(h.scalars, h.shifts))


def compose(spec, s, t):
    """Reference group law on (scalar, shift) pairs, as field maps:
    (s o t)(z) = s(t(z)).  On the shifted generator t(z) = c_t z + a_t, with
    c_t = 1 where scalars leave it alone (the xz-tower scales x_1 only), so
    s o t shifts by c_t a_s + a_t."""
    f = spec.field
    (cs, a_s), (ct, a_t) = s, t
    lift = ct if spec.variant == "gs96" else 1
    return f.mul(cs, ct), f.add(f.mul(lift, a_s), a_t)


def inverse(spec, s):
    """Reference inverse under ``compose``."""
    f = spec.field
    ci = f.inv(s[0])
    lift = ci if spec.variant == "gs96" else 1
    return ci, f.neg(f.mul(lift, s[1]))


def bound_formulas(n: int, k: int, rs: list[int]) -> dict[str, int]:
    """The six rows of ``lrctower bounds``, each written out in its closed
    form: singleton, tb, wz and rpdv at r = max(rs), bt on the localities in
    ascending order, bmq on rs as given.  An oracle that shares no code with
    ``bounds``."""
    t, r, asc = len(rs), max(rs), sorted(rs)
    return {
        "singleton": n - k - -(-k // r) + 2,
        "tb": n - sum((k - 1) // r**i for i in range(t + 1)),
        "wz": n - k - -(-((k - 1) * t + 1) // ((r - 1) * t + 1)) + 2,
        "rpdv": n - k - -(-k * t // r) + t + 1,
        "bt": n - k + 1 - sum((k - 1) // prod(asc[t - i:]) for i in range(1, t + 1)),
        "bmq": n - k - -(-((k - 1) * t + 1) // (1 + sum(x - 1 for x in rs))) + 2,
    }


def field_mul(f, a: int, b: int) -> int:
    """a*b in f: the schoolbook product of the two coefficient tuples
    (constant term first), then long division by the monic ``f.modulus``.
    An oracle that shares no code with ``field``."""
    p, k = f.p, f.k
    da, db = ([x // p**i % p for i in range(k)] for x in (a, b))
    prod = [0] * (2 * k - 1)
    for i, x in enumerate(da):
        for j, y in enumerate(db):
            prod[i + j] = (prod[i + j] + x * y) % p
    for i in range(2 * k - 2, k - 1, -1):
        c = prod[i]
        for j, m in enumerate(f.modulus):
            prod[i - k + j] = (prod[i - k + j] - c * m) % p
    return sum(c * p**i for i, c in enumerate(prod[:k]))


def primes_upto(n: int) -> list[int]:
    """Every prime <= n, by the sieve of Eratosthenes: an oracle that does
    not trial-divide."""
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for d in range(2, int(n**0.5) + 1):
        if sieve[d]:
            sieve[d * d::d] = bytes(len(range(d * d, n + 1, d)))
    return [i for i, flag in enumerate(sieve) if flag]


@pytest.fixture(scope="session")
def gf4():
    return FiniteField(2, 2)


@pytest.fixture(scope="session")
def gf9():
    return FiniteField(3, 2)


@pytest.fixture(scope="session")
def gf16():
    return FiniteField(2, 4)


@pytest.fixture(scope="session")
def gf25():
    return FiniteField(5, 2)


@pytest.fixture(scope="session")
def golden_code(gf9):
    """[6, 2] code at the rational level: additive kernel + scalar pair."""
    spec = TowerSpec("gs96", gf9, 1)
    h1 = build_recovery_group(spec, "additive", shifts="kernel")
    h2 = build_recovery_group(spec, "multiplicative", order=2)
    return construct_lrc(spec, (h1, h2), 2)


@pytest.fixture(scope="session")
def tower_code(gf9):
    """Level-2 y-tower code on 18 places, same group pair."""
    spec = TowerSpec("gs96", gf9, 2)
    h1 = build_recovery_group(spec, "additive", shifts="kernel")
    h2 = build_recovery_group(spec, "multiplicative", order=2)
    return construct_lrc(spec, (h1, h2), 6)


@pytest.fixture(scope="session")
def hermitian_code(gf25):
    """Level-2 xz-tower code on 120 places with norm-one groups (2, 3)."""
    spec = TowerSpec("gs95", gf25, 2)
    h1 = build_recovery_group(spec, "multiplicative", order=2)
    h2 = build_recovery_group(spec, "multiplicative", order=3)
    return construct_lrc(spec, (h1, h2), 100)
