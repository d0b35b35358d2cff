"""Exact determinants, ranks, unimodular matrices, and the one Newton polish.

Everything here operates on numbers, not on polynomials: resultant matrices,
differentials at a point, the random integer coordinate changes used by the
invariance tests, and ``newton_polish``, the loop every float solver ends in.
Each exact decision is made here once: ``clear_denominators`` turns ints
and Fractions into integers, and ``det_is_nonzero`` proves full column rank
by an integer left inverse checked exactly in float64 (Rump, Acta Numerica
19, 2010), then by the rank mod one prime, then by Bareiss.
``sylvester_matrix`` is the one Sylvester layout.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Collection, Sequence

import numpy as np

__all__ = [
    "bareiss_det",
    "clear_denominators",
    "exact_det",
    "integer_rows",
    "exact_rank",
    "det_is_nonzero",
    "sylvester_matrix",
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


def _as_int(v) -> int:
    """An integer entry as an int; a Fraction or a float, even 2.0, is a ValueError."""
    try:
        return operator.index(v)
    except TypeError:
        raise ValueError(f"integer matrix has the non-integer entry {v!r}") from None


def bareiss_det(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant of an integer matrix by fraction-free elimination."""
    m = [[_as_int(v) for v in r] for r in rows]
    if any(len(r) != len(m) for r in m):
        raise ValueError("determinant of a non-square matrix")
    rank, pivot = _eliminate(m)
    return pivot if rank == len(m) else 0


def clear_denominators(values: Collection) -> tuple[list[int], int]:
    """Ints and Fractions times the lcm of their denominators: (the integers, the lcm)."""
    lcm = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (lcm // v.denominator) for v in values], lcm


def integer_rows(rows: Sequence[Sequence]) -> tuple[list[list[int]], int]:
    """Each row times the lcm of its denominators, plus the product of those lcms.

    det(rows) = det(integer rows) / product; row scaling cannot create or
    destroy a zero determinant.
    """
    cleared = [clear_denominators(r) for r in rows]
    return [ints for ints, _ in cleared], math.prod(lcm for _, lcm in cleared)


def exact_det(rows: Sequence[Sequence]) -> Fraction:
    """Exact determinant of a Fraction/int matrix (denominators cleared per row)."""
    ints, product = integer_rows(rows)
    return Fraction(bareiss_det(ints), product)


def exact_rank(rows: Sequence[Sequence]) -> int:
    """Rank of a matrix over the rationals by fraction-free elimination.

    Row scaling keeps the rank, so denominators are cleared first.
    """
    return _eliminate(integer_rows(rows)[0])[0]


_CERTIFICATE_PRIME = 33_554_467    # ~2^25: products of residues fit int64
_EXACT_FLOAT = 2 ** 53              # every integer below it is a float64


def _rank_mod_p(matrix: np.ndarray, p: int) -> int:
    """Rank mod p by elimination on int64 residues; p < 2^31 keeps products inside int64."""
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


def _left_inverse_proves_rank(m: np.ndarray) -> bool:
    """True when an integer left inverse X of `m` makes R = X m strictly diagonally dominant.

    X is the float left inverse solve(m^T m, m^T), scaled and rounded to
    integers.  With c the largest column abs-sum of m and max|X| c < 2^53,
    every product and partial sum in R is an integer below 2^53, so the
    float64 product is exact whatever the summation order or FMA.  A float
    sum of nonnegative integers is exact below 2^53 and at least 2^53 above
    it, which makes c and the dominance test exact too.  A strictly
    diagonally dominant R is nonsingular (Levy-Desplanques), so m has full
    column rank; any other outcome proves nothing.
    """
    if m.dtype == object and max(m.max(), -m.min()) >= _EXACT_FLOAT:
        return False
    with np.errstate(all="ignore"):
        a = m.astype(np.float64)
        reach = np.abs(a).sum(axis=0).max()
        if not reach < _EXACT_FLOAT:
            return False
        try:
            inverse = np.linalg.solve(a.T @ a, a.T)
        except np.linalg.LinAlgError:
            return False
        x = np.rint(inverse * (_EXACT_FLOAT / 2 / (np.abs(inverse).max() * reach)))
        top = np.abs(x).max()
        if not np.isfinite(top) or int(top) * int(reach) >= _EXACT_FLOAT:
            return False
        r = np.abs(x @ a)
    diagonal = r.diagonal().copy()
    np.fill_diagonal(r, 0)
    return bool((diagonal > r.sum(axis=1)).all())


def det_is_nonzero(rows: Sequence[Sequence[int]] | np.ndarray) -> str | None:
    """Exact test that an integer matrix has full column rank, naming what proved it.

    For a square or tall matrix that is a nonzero maximal minor, and on a
    square one det != 0.  `rows` is a list of rows of integers or an integer
    ndarray (``int64``, or ``object`` holding ints past it), ranked as it is;
    a non-integer entry or dtype is a ValueError.  Three proofs are tried in
    turn.  An integer left inverse X with X m strictly diagonally dominant,
    formed exactly in float64, gives "left inverse"; it needs entries well
    below 2^53 and a matrix not too near rank loss.  Full rank mod one prime
    gives "mod p"; fraction-free elimination then gives "exact rank", or
    None on a rank-deficient matrix.
    """
    if not isinstance(rows, np.ndarray):
        rows = np.array([[_as_int(v) for v in r] for r in rows], dtype=object)
    elif rows.dtype != object and not np.issubdtype(rows.dtype, np.integer):
        raise ValueError(f"integer matrix has dtype {rows.dtype}")
    if len(rows) == 0:
        return "exact rank"
    if rows.size and _left_inverse_proves_rank(rows):
        return "left inverse"
    if _rank_mod_p(rows, _CERTIFICATE_PRIME) == rows.shape[1]:
        return f"mod {_CERTIFICATE_PRIME}"
    return "exact rank" if _eliminate(rows.tolist())[0] == rows.shape[1] else None


def sylvester_matrix(p_coeffs, q_coeffs) -> np.ndarray:
    """Sylvester matrix from descending coefficients on the last axis, q's rows on top.

    Leading axes are a batch; entries are copies in the inputs' dtype
    (``object`` keeps Fractions exact).  With this block order the
    determinant is lc(q)^deg(p) * prod p(beta) over the roots beta of q,
    which makes Res(x - a, x - b) = b - a.
    """
    p, q = np.asarray(p_coeffs), np.asarray(q_coeffs)
    m, l = p.shape[-1] - 1, q.shape[-1] - 1
    if m < 0 or l < 0:
        raise ValueError("zero polynomial has no resultant")
    batch = np.broadcast_shapes(p.shape[:-1], q.shape[:-1])
    s = np.zeros(batch + (m + l, m + l), dtype=np.result_type(p, q))
    for shift in range(m):
        s[..., shift, shift:shift + l + 1] = q
    for shift in range(l):
        s[..., m + shift, shift:shift + m + 1] = p
    return s


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
