"""Closed-form counts of 0-stable singularities for generic maps C^4 -> C^4.

The count of each discrete mono/multi-singularity type (A_1^4, A_1^2 A_2,
A_1 A_3, A_2^2, A_4, I_{2,2}) of a generic map with component degrees
(d_1,d_2,d_3,d_4) is a polynomial in the degrees.  The ingredients:

* the Chern series (1+d_1 a)(1+d_2 a)(1+d_3 a)(1+d_4 a)/(1+a)^4 expanded to
  order 4.  Since (1+a)^-4 = sum_m (-1)^m C(m+3, 3) a^m, its coefficients are
  c_k = sum_{j<=k} (-1)^(k-j) C(k-j+3, 3) e_j, with e_j the j-th elementary
  symmetric sum of the degrees.  One rule gives them as integer
  polynomials in the degree symbols and as plain integers at a degree tuple;
* the s-classes s_0 = d_1 d_2 d_3 d_4, s_1 = c_1 s_0, s_2 = c_1^2 s_0,
  s_3 = c_1^3 s_0, s_01 = c_2 s_0, s_11 = c_1 c_2 s_0, s_001 = c_3 s_0;
* six closed-form combinations with prefactors 1/24 and 1/2.  The source
  writes them in the s-classes; ``_raw_counts`` has those substituted, so
  each is a polynomial in c_1..c_4 and t = s_0 with shared powers.  The
  source's verbatim forms are the reference in ``tests/test_census.py``,
  which checks the two agree as polynomials in the degree symbols.

The prefactors are supposed to divide exactly for maps satisfying the
genericity hypotheses.  ``census`` keeps each count as an integer numerator
over its prefactor's denominator, checks the division with ``divmod``, and
raises IntegralityError when a count comes out fractional rather than
silently rounding.  (Degree tuples with exactly one odd entry do produce a
half-integral #A_2^2; every such tuple also fails the eligibility gate, so
the formulas are never trusted where they break.)  Negative counts are possible for ineligible tuples and
are logged as warnings, not errors.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .maps import EligibilityVerdict, _gate, _require_four
from .polynomials import RATIONAL, Polynomial

__all__ = [
    "TruncatedSeries",
    "CensusReport",
    "IntegralityError",
    "degree_symbols",
    "chern_series",
    "chern_coefficients",
    "chern_values",
    "s_classes_symbolic",
    "s_classes",
    "census",
]

logger = logging.getLogger(__name__)

N_SOURCE = 4      # everything here is specific to source and target dimension 4
ORDER = 4         # truncation order of the series: only a^0..a^4 contribute

COUNT_NAMES = ("A1_4", "A1_2A2", "A1A3", "A2_2", "A4", "I22")
S_NAMES = ("s0", "s1", "s2", "s3", "s01", "s11", "s001")


def degree_symbols() -> tuple[Polynomial, ...]:
    """The four degree symbols d1..d4 as exact polynomial generators."""
    return tuple(Polynomial.variable(i, N_SOURCE, RATIONAL) for i in range(N_SOURCE))


@dataclass(frozen=True)
class TruncatedSeries:
    """Power series in one formal variable a, truncated past a^ORDER.

    Coefficients are exact polynomials in the degree symbols; multiplication
    discards every term of order > ORDER.
    """

    coefficients: tuple[Polynomial, ...]

    def __post_init__(self):
        coeffs = tuple(self.coefficients)
        if len(coeffs) != ORDER + 1:
            raise ValueError(f"need exactly {ORDER + 1} coefficients")
        object.__setattr__(self, "coefficients", coeffs)

    def coefficient(self, k: int) -> Polynomial:
        return self.coefficients[k]

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return TruncatedSeries(tuple(a + b for a, b in
                                     zip(self.coefficients, other.coefficients)))

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        zero = self.coefficients[0].zero_like()
        out = [zero] * (ORDER + 1)
        for i, a in enumerate(self.coefficients):
            if a.is_zero():
                continue
            for j in range(ORDER + 1 - i):
                b = other.coefficients[j]
                if not b.is_zero():
                    out[i + j] = out[i + j] + a * b
        return TruncatedSeries(tuple(out))


def _chern_classes(degrees: Sequence) -> tuple:
    """c1..c4 of prod(1 + d_i a) / (1 + a)^4 from the elementary symmetric sums.

    One pass over the degree pairs gives e1..e4, and the binomial rule
    c_k = sum_j (-1)^(k-j) C(k-j+3, 3) e_j the classes.  Works in any ring
    the degrees live in that adds ints: on ints it gives ints, on the degree
    symbols exact polynomials.
    """
    d1, d2, d3, d4 = degrees
    p, q, u, v = d1 * d2, d3 * d4, d1 + d2, d3 + d4
    e1, e2, e3, e4 = u + v, p + q + u * v, p * v + q * u, p * q
    return (e1 - 4, e2 - 4 * e1 + 10, e3 - 4 * e2 + 10 * e1 - 20,
            e4 - 4 * e3 + 10 * e2 - 20 * e1 + 35)


@functools.cache
def chern_series() -> TruncatedSeries:
    """(1+d1 a)(1+d2 a)(1+d3 a)(1+d4 a) / (1+a)^4, exactly, to order 4.

    The coefficient of a^k is c_k = sum_{j<=k} (-1)^(k-j) C(k-j+3, 3) e_j, the
    e_j being the elementary symmetric polynomials in the degree symbols:
    (1+a)^-4 expands as sum_m (-1)^m C(m+3, 3) a^m.
    """
    one = Polynomial.constant(1, N_SOURCE, RATIONAL)
    return TruncatedSeries((one,) + _chern_classes(degree_symbols()))


def chern_coefficients() -> tuple[Polynomial, Polynomial, Polynomial, Polynomial]:
    """The symbolic coefficients c1..c4 of the Chern series."""
    series = chern_series()
    return tuple(series.coefficient(k) for k in range(1, ORDER + 1))


def chern_values(degrees: Sequence[int]) -> tuple[int, int, int, int]:
    """c1..c4 evaluated at a concrete degree tuple (exact integers)."""
    return _chern_classes(_require_four(degrees))


def s_classes_symbolic() -> dict[str, Polynomial]:
    """The seven s-classes as exact polynomials in the degree symbols."""
    return _s_values(degree_symbols(), chern_coefficients())


def s_classes(degrees: Sequence[int]) -> dict[str, int]:
    """The seven s-classes at a concrete degree tuple (exact integers)."""
    degrees = _require_four(degrees)
    return _s_values(degrees, _chern_classes(degrees))


def _s_values(degrees: Sequence, c: Sequence) -> dict:
    """The seven s-classes from the degrees and their Chern classes c1..c4.

    Like ``_chern_classes`` it works in any ring: ints at a degree tuple,
    exact polynomials on the degree symbols.
    """
    c1, c2, c3, _ = c
    s0 = degrees[0] * degrees[1] * degrees[2] * degrees[3]
    s1, s01 = c1 * s0, c2 * s0
    s2 = c1 * s1
    return {"s0": s0, "s1": s1, "s2": s2, "s3": c1 * s2,
            "s01": s01, "s11": c1 * s01, "s001": c3 * s0}


class IntegralityError(ArithmeticError):
    """A count whose 1/24 or 1/2 prefactor failed to divide exactly."""

    def __init__(self, degrees, name: str, value: Fraction):
        self.degrees = tuple(degrees)
        self.name = name
        self.value = value
        super().__init__(
            f"count {name} at degrees {self.degrees} is not an integer: {value}")


def _raw_counts(c: Sequence, t) -> dict:
    """The six closed forms as (numerator, denominator), before integrality is enforced.

    They are written in c1..c4 and t = s0 (see the module docstring) and,
    like ``_chern_classes``, work in any ring that adds ints.
    """
    c1, c2, c3, c4 = c
    c11 = c1 * c1
    c1111, c112, c22, c13 = c11 * c11, c11 * c2, c2 * c2, c1 * c3
    return {
        "A1_4": (c1111 * (((t - 24) * t + 208) * t - 672) - 4 * c112 * ((3 * t - 68) * t + 444)
                 + 12 * c22 * (t - 24) + 48 * c13 * (2 * t - 33) - 720 * c4, 24),
        "A1_2A2": (c11 * c1 * (t - 6) + c1 * c2 * (t - 12) - 6 * c3, 2),
        "A1A3": (c1111 * (t - 8) + 3 * c112 * (t - 12) + 2 * c13 * (t - 22)
                 - 8 * c22 - 24 * c4, 1),
        "A2_2": (c1111 * (t - 9) + 2 * c112 * (t - 18) + c22 * (t - 12)
                 - 39 * c13 - 24 * c4, 2),
        "A4": (c1111 + 6 * c112 + 2 * c22 + 9 * c13 + 6 * c4, 1),
        "I22": (c22 - c13, 1),
    }


@dataclass(frozen=True)
class CensusReport:
    """Exact counts of the six 0-stable singularity types at one degree tuple."""

    degrees: tuple[int, ...]
    eligibility: EligibilityVerdict
    c: tuple[int, int, int, int]
    s: dict
    counts: dict

    def to_dict(self) -> dict:
        return {
            "degrees": list(self.degrees),
            "eligibility": self.eligibility.to_dict(),
            "c": list(self.c),
            "s": dict(self.s),
            "counts": dict(self.counts),
        }


def census(degrees: Sequence[int]) -> CensusReport:
    """Evaluate all six counts at a degree tuple, exactly.

    Tuples failing the eligibility gate are still computed (the formulas are
    polynomial in the degrees) but the report carries the gate's verdict so
    callers know the genericity hypotheses behind the formulas do not hold.
    Raises IntegralityError when a prefactor fails to divide.
    """
    degrees = _require_four(degrees)
    c = _chern_classes(degrees)
    s = _s_values(degrees, c)
    raw = _raw_counts(c, s["s0"])
    counts = {}
    for name in COUNT_NAMES:
        numerator, denominator = raw[name]
        value, remainder = divmod(numerator, denominator)
        if remainder:
            raise IntegralityError(degrees, name, Fraction(numerator, denominator))
        counts[name] = value
        if value < 0:
            logger.warning("count %s at degrees %s is negative (%s); the closed "
                           "forms are only meaningful for eligible tuples",
                           name, degrees, value)
    return CensusReport(degrees, _gate(degrees), c, s, counts)
