"""Exact determinants, ranks, unimodular matrices, and the one Newton polish.

Everything here operates on numbers, not on polynomials: resultant matrices,
differentials at a point, the random integer coordinate changes used by the
invariance tests, and ``newton_polish``, the loop every float solver ends in.
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
    "newton_polish",
]

POLISH_STEPS = 20         # the slicers' and the properness witness's Newton budget


def _eliminate(m: list[list[int]]) -> tuple[int, int]:
    """Fraction-free (Bareiss) elimination of an integer matrix, in place.

    Returns the rank and the last pivot signed by the row swaps.  After step k
    every entry below the pivot rows is a (k+1)-minor, which makes each
    division exact; on a nonsingular square matrix the signed last pivot is
    the determinant.
    """
    rank, prev, sign = 0, 1, 1
    for col in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        if pivot != rank:
            m[rank], m[pivot] = m[pivot], m[rank]
            sign = -sign
        p = m[rank][col]
        for i in range(rank + 1, len(m)):
            f = m[i][col]
            m[i][col:] = [(a * p - f * b) // prev
                          for a, b in zip(m[i][col:], m[rank][col:])]
        prev = p
        rank += 1
        if rank == len(m):
            break
    return rank, sign * prev


def bareiss_det(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant of an integer matrix by fraction-free elimination."""
    m = [list(map(int, r)) for r in rows]
    if any(len(r) != len(m) for r in m):
        raise ValueError("determinant of a non-square matrix")
    rank, pivot = _eliminate(m)
    return pivot if rank == len(m) else 0


def integer_rows(rows: Sequence[Sequence]) -> tuple[list[list[int]], int]:
    """Each row times the lcm of its denominators, plus the product of those lcms.

    det(rows) = det(integer rows) / product; row scaling cannot create or
    destroy a zero determinant.
    """
    out = []
    product = 1
    for r in rows:
        fr = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in r]
        lcm = math.lcm(*(v.denominator for v in fr))
        product *= lcm
        out.append([v.numerator * (lcm // v.denominator) for v in fr])
    return out, product


def exact_det(rows: Sequence[Sequence]) -> Fraction:
    """Exact determinant of a Fraction/int matrix (denominators cleared per row)."""
    ints, product = integer_rows(rows)
    return Fraction(bareiss_det(ints), product)


def exact_rank(rows: Sequence[Sequence]) -> int:
    """Rank of a matrix over the rationals by fraction-free elimination.

    Row scaling keeps the rank, so denominators are cleared first.
    """
    return _eliminate(integer_rows(rows)[0])[0]


_CERTIFICATE_PRIMES = (33_554_467, 33_554_473, 33_554_503)  # ~2^25, products fit int64


def _rank_mod_p(matrix: np.ndarray, p: int) -> int:
    """Rank mod p by elimination; entries and p must keep products inside int64."""
    m = np.mod(matrix, p).astype(np.int64)
    rank = 0
    for k in range(m.shape[1]):
        if rank == m.shape[0]:
            break
        pivot_rows = np.nonzero(m[rank:, k])[0]
        if pivot_rows.size == 0:
            continue
        i = rank + int(pivot_rows[0])
        if i != rank:
            m[[rank, i]] = m[[i, rank]]
        inv = pow(int(m[rank, k]), -1, p)
        factors = m[rank + 1:, k] * inv % p
        m[rank + 1:, k:] = (m[rank + 1:, k:] - factors[:, None] * m[rank, k:]) % p
        rank += 1
    return rank


def det_is_nonzero(rows: Sequence[Sequence[int]]) -> bool:
    """Exact test that an integer matrix has full column rank.

    For a square or tall matrix that is a nonzero maximal minor, and on a
    square one det != 0.  Full rank mod any prime certifies full rank over the
    integers, so modular elimination (fast, numpy) is tried first; only when
    every prime loses rank does the exact rank decide.
    """
    if len(rows) == 0:
        return True
    ints = np.array([[int(v) for v in r] for r in rows], dtype=object)
    for p in _CERTIFICATE_PRIMES:
        if _rank_mod_p(ints, p) == ints.shape[1]:
            return True
    return exact_rank(ints.tolist()) == ints.shape[1]


def random_unimodular_matrix(n: int, rng: np.random.Generator) -> list[list[int]]:
    """Random integer matrix with determinant +-1 (a product of 3n elementary operations)."""
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
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


def newton_polish(z, values, step, steps: int):
    """Batched Newton: z_m moves to z_m - step(z, f)_m only where that shrinks max_k |f_k|.

    f = values(z) has one row per item.  An item that does not improve stops;
    a trial that is not finite is dropped before `values` sees it.  The loop
    ends when no item moves, or after `steps`, all under ``np.errstate``, so
    an overflow is a dropped trial, not a warning.  Returns (z, f)."""
    def largest(f):
        return np.abs(f).max(axis=tuple(range(1, f.ndim)))

    with np.errstate(all="ignore"):
        z = np.array(z, dtype=complex)
        f = values(z)
        moving = np.arange(len(z))
        for _ in range(steps):
            trial = z[moving] - step(z[moving], f[moving])
            finite = np.isfinite(trial).all(axis=tuple(range(1, trial.ndim)))
            moving, trial = moving[finite], trial[finite]
            f_trial = values(trial)
            better = largest(f_trial) < largest(f[moving])
            if not better.any():
                break
            moving = moving[better]
            z[moving], f[moving] = trial[better], f_trial[better]
    return z, f
