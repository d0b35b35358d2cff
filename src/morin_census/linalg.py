"""Exact determinants, ranks, and unimodular matrices for scalar problems.

Everything here operates on plain Python numbers (int / Fraction / complex),
not on polynomials: resultant matrices, differentials at a point, and the
random integer coordinate changes used for certificates and invariance tests.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

import numpy as np

__all__ = [
    "bareiss_det",
    "exact_det",
    "integer_rows",
    "exact_rank",
    "det_is_nonzero",
    "random_unimodular_matrix",
]


def bareiss_det(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant of an integer matrix by fraction-free elimination."""
    n = len(rows)
    if n == 0:
        return 1
    m = [list(map(int, r)) for r in rows]
    if any(len(r) != n for r in m):
        raise ValueError("determinant of a non-square matrix")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                # Bareiss update: every division is exact
                m[i][j] = (m[i][j] * pivot - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def integer_rows(rows: Sequence[Sequence]) -> tuple[list[list[int]], int]:
    """Each row times the lcm of its denominators, plus the product of those lcms.

    det(rows) = det(integer rows) / product; row scaling cannot create or
    destroy a zero determinant.
    """
    out = []
    product = 1
    for r in rows:
        fr = [Fraction(v) for v in r]
        lcm = math.lcm(*(v.denominator for v in fr))
        product *= lcm
        out.append([int(v * lcm) for v in fr])
    return out, product


def exact_det(rows: Sequence[Sequence]) -> Fraction:
    """Exact determinant of a Fraction/int matrix (denominators cleared per row)."""
    ints, product = integer_rows(rows)
    return Fraction(bareiss_det(ints), product)


def exact_rank(rows: Sequence[Sequence]) -> int:
    """Rank of a matrix over the rationals by Gaussian elimination."""
    m = [[Fraction(v) for v in r] for r in rows]
    if not m:
        return 0
    n_rows, n_cols = len(m), len(m[0])
    rank = 0
    row = 0
    for col in range(n_cols):
        pivot = None
        for i in range(row, n_rows):
            if m[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        inv = 1 / m[row][col]
        m[row] = [v * inv for v in m[row]]
        for i in range(n_rows):
            if i != row and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[row])]
        rank += 1
        row += 1
        if row == n_rows:
            break
    return rank


_CERTIFICATE_PRIMES = (33_554_467, 33_554_473, 33_554_503)  # ~2^25, products fit int64


def _det_mod_p(matrix: np.ndarray, p: int) -> int:
    """det mod p by elimination; entries and p must keep products inside int64."""
    m = np.mod(matrix, p).astype(np.int64)
    n = m.shape[0]
    det = 1
    for k in range(n):
        pivot_rows = np.nonzero(m[k:, k])[0]
        if pivot_rows.size == 0:
            return 0
        i = k + int(pivot_rows[0])
        if i != k:
            m[[k, i]] = m[[i, k]]
            det = -det
        pivot = int(m[k, k])
        det = det * pivot % p
        inv = pow(pivot, -1, p)
        if k + 1 < n:
            factors = m[k + 1:, k] * inv % p
            m[k + 1:, k:] = (m[k + 1:, k:] - factors[:, None] * m[k, k:]) % p
    return det % p


def det_is_nonzero(rows: Sequence[Sequence[int]]) -> bool:
    """Exact zero test for an integer determinant.

    A nonzero determinant mod any prime certifies det != 0 over the integers,
    so modular elimination (fast, numpy) is tried first; only when every prime
    yields zero does the exact Bareiss determinant decide.
    """
    ints = [[int(v) for v in r] for r in rows]
    if len(ints) == 0:
        return True
    for p in _CERTIFICATE_PRIMES:
        arr = np.array([[v % p for v in r] for r in ints], dtype=np.int64)
        if _det_mod_p(arr, p) != 0:
            return True
    return bareiss_det(ints) != 0


def random_unimodular_matrix(n: int, rng: np.random.Generator, steps: int | None = None) -> list[list[int]]:
    """Random integer matrix with determinant +-1 (product of elementary operations)."""
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    if steps is None:
        steps = 3 * n
    for _ in range(steps):
        op = int(rng.integers(0, 3))
        i, j = map(int, rng.choice(n, size=2, replace=False))
        if op == 0:  # add a small multiple of row j to row i
            f = int(rng.integers(-2, 3))
            m[i] = [a + f * b for a, b in zip(m[i], m[j])]
        elif op == 1:  # swap
            m[i], m[j] = m[j], m[i]
        else:  # negate a row
            m[i] = [-a for a in m[i]]
    return m
