"""Dense linear algebra over GF(q) on integer-coded numpy matrices.

Gaussian elimination uses first-nonzero pivoting, so echelon forms, ranks
and intersection bases are identical across runs and platforms.
"""

from __future__ import annotations

import numpy as np

from .field import FiniteField


def as_matrix(field: FiniteField, rows) -> np.ndarray:
    m = np.asarray(rows, dtype=np.int64)
    if m.ndim == 1:
        m = m.reshape(1, -1)
    if m.size and (m.min() < 0 or m.max() >= field.q):
        raise ValueError("matrix entries outside field range")
    return m


def rref(field: FiniteField, mat) -> tuple[np.ndarray, list[int]]:
    """Reduced row-echelon form.

    Returns (R, pivot_cols). Pivot search scans columns left to right and
    takes the first nonzero entry at or below the current row.
    """
    m = as_matrix(field, mat).copy()
    rows, cols = m.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            m[[r, pr]] = m[[pr, r]]
        m[r] = field.vec_mul(m[r], field.inv(int(m[r, c])))
        others = [i for i in range(rows) if i != r and m[i, c] != 0]
        if others:
            # -(f * x) = (-f) * x: negate the factors, not the product
            neg_factors = field.vec_neg(m[others, c])
            m[others] = field.vec_add(m[others], field.vec_mul(neg_factors[:, None], m[r][None, :]))
        pivots.append(c)
        r += 1
    return m, pivots


def rank(field: FiniteField, mat) -> int:
    return len(rref(field, mat)[1])


def row_basis(field: FiniteField, mat) -> np.ndarray:
    """Canonical (RREF) basis of the row space, zero rows dropped."""
    r, pivots = rref(field, mat)
    return r[: len(pivots)]


def in_span(field: FiniteField, mat, rows) -> bool:
    """True iff every row of ``rows`` lies in the row space of ``mat``."""
    m = as_matrix(field, mat)
    return rank(field, m) == rank(field, np.vstack([m, as_matrix(field, rows)]))


def rowspace_intersection(field: FiniteField, mat_a, mat_b) -> np.ndarray:
    """Basis of rowspace(A) ∩ rowspace(B) via the doubled-block elimination.

    Stack [[A A], [B 0]] and row-reduce.  The rows pivoting right of column n
    have a zero left half, and their right halves already are the RREF basis
    of the intersection, so the basis is canonical.
    """
    a = as_matrix(field, mat_a)
    b = as_matrix(field, mat_b)
    if a.shape[1] != b.shape[1]:
        raise ValueError("column counts differ")
    n = a.shape[1]
    top = np.hstack([a, a])
    bot = np.hstack([b, np.zeros_like(b)])
    reduced, pivots = rref(field, np.vstack([top, bot]))
    split = sum(c < n for c in pivots)
    return reduced[split:len(pivots), n:].copy()


def matmul(field: FiniteField, a, b) -> np.ndarray:
    """Matrix product over GF(q); inner dimension is looped (it is small here)."""
    a = as_matrix(field, a)
    b = as_matrix(field, b)
    if a.shape[1] != b.shape[0]:
        raise ValueError("shape mismatch")
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    for h in range(a.shape[1]):
        out = field.vec_add(out, field.vec_mul(a[:, h][:, None], b[h][None, :]))
    return out

