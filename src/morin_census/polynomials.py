"""Sparse multivariate polynomial arithmetic over exact rationals or complex floats.

A polynomial is a finite map from exponent vectors to nonzero coefficients:

    x1^2*x3 - 5/2*x2   (n_vars=3)   ->   {(2,0,1): Fraction(1), (0,1,0): Fraction(-5,2)}

Two coefficient kinds exist and never mix inside one polynomial:

  * ``"rational"`` -- exact ``fractions.Fraction`` values (ints are coerced),
  * ``"complex"``  -- double-precision ``complex`` values.

The zero polynomial is the empty term map.  Terms are kept canonical (no zero
coefficient is ever stored); serialization orders terms graded-lexicographically
(total degree first, then exponents).  Instances are immutable by convention:
no operation mutates its inputs.  The constructor checks and coerces every
term; arithmetic, whose terms are clean by construction, returns through the
unchecked ``Polynomial._trusted``.

``Polynomial.evaluate`` is the one evaluator.  Exact points on a rational
polynomial give exact values, summed on Python ints with every denominator
cleared.  Any other point, or an ``(..., n_vars)`` array of points, goes
through ``_monomials``, the one float monomial kernel (the partials' too), on
the exponent matrix and complex coefficient vector compiled on the first
float evaluation and kept.  ``is_exact_point`` is the one rule for which
points are exact, for the evaluator, the jets, the classifier and the ray counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Mapping, Sequence, Union

import numpy as np

from .linalg import clear_denominators

Exponents = tuple[int, ...]

RATIONAL = "rational"
COMPLEX = "complex"

Scalar = Union[int, Fraction, float, complex]

# A float value at most ROOT_TOL times its own bound (the envelope its evaluation
# rounds at) is zero: the one float zero test of the slicers and ray_multiplicity.
ROOT_TOL = 1e-12


def is_exact_point(point) -> bool:
    """Whether every entry of one point is an int or a Fraction, whatever holds
    them: a tuple, a list or an ``object`` ndarray.  A numeric ndarray, and
    an array or list of points, is not an exact point."""
    if isinstance(point, np.ndarray) and (point.dtype != object or point.ndim != 1):
        return False
    return all(isinstance(v, (int, Fraction)) for v in point)


def _monomials(x: np.ndarray, exps: np.ndarray) -> np.ndarray:
    """x^e at the (..., n) complex points x for each row e of `exps`: shape (..., T)."""
    return np.prod(x[..., None, :] ** exps, axis=-1)


def _radix_weights(base: int, n: int) -> np.ndarray:
    """base^(n-1), ..., base, 1: exps @ weights is the mixed-radix key of each
    exponent vector with entries in [0, base), and key order is lexicographic
    row order.  int64 while every key fits, Python ints (``object``) past 2^63,
    where int64 would wrap silently."""
    return np.array([base ** k for k in range(n - 1, -1, -1)],
                    dtype=np.int64 if base ** n < 2 ** 63 else object)


class _AnyDegree:
    """Degree marker of the zero polynomial (homogeneous of every degree)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "ANY_DEGREE"


ANY_DEGREE = _AnyDegree()


def _coerce(value: Scalar, kind: str):
    """Coerce a scalar into the coefficient domain of `kind`."""
    if kind == RATIONAL:
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        raise ValueError(f"rational polynomial cannot hold {type(value).__name__}")
    if kind == COMPLEX:
        return complex(value)
    raise ValueError(f"unknown coefficient kind {kind!r}")


class Polynomial:
    """Immutable sparse polynomial in ``n_vars`` variables over one coefficient kind."""

    __slots__ = ("n_vars", "kind", "terms", "_compiled")

    def __init__(self, n_vars: int, terms: Mapping[Exponents, Scalar], kind: str = RATIONAL):
        if n_vars < 1:
            raise ValueError("n_vars must be positive")
        if kind not in (RATIONAL, COMPLEX):
            raise ValueError(f"unknown coefficient kind {kind!r}")
        clean: dict[Exponents, Scalar] = {}
        for exps, coeff in terms.items():
            exps = tuple(exps)
            if len(exps) != n_vars:
                raise ValueError(f"exponent vector {exps} has length != n_vars={n_vars}")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            c = _coerce(coeff, kind)
            if c != 0:
                clean[exps] = c
        object.__setattr__(self, "n_vars", n_vars)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _trusted(cls, n_vars: int, terms: dict[Exponents, Scalar], kind: str) -> "Polynomial":
        """A polynomial on terms that are already clean -- nonzero, of the kind's
        type, with exponent vectors of length n_vars -- stored as given, unchecked.
        The arithmetic below returns through it; ``__init__`` checks everything
        built from outside."""
        self = object.__new__(cls)
        object.__setattr__(self, "n_vars", n_vars)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "terms", terms)
        return self

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("Polynomial is immutable")

    # ---------------------------------------------------------------- builders
    @staticmethod
    def zero(n_vars: int, kind: str = RATIONAL) -> "Polynomial":
        return Polynomial(n_vars, {}, kind)

    @staticmethod
    def constant(value: Scalar, n_vars: int, kind: str = RATIONAL) -> "Polynomial":
        return Polynomial(n_vars, {(0,) * n_vars: value}, kind)

    @staticmethod
    def variable(i: int, n_vars: int, kind: str = RATIONAL) -> "Polynomial":
        """The monomial x_{i+1} (0-based index i)."""
        if not 0 <= i < n_vars:
            raise ValueError(f"variable index {i} out of range for n_vars={n_vars}")
        exps = tuple(1 if j == i else 0 for j in range(n_vars))
        return Polynomial(n_vars, {exps: 1}, kind)

    def one_like(self) -> "Polynomial":
        return Polynomial.constant(1, self.n_vars, self.kind)

    def zero_like(self) -> "Polynomial":
        return Polynomial.zero(self.n_vars, self.kind)

    # ---------------------------------------------------------------- queries
    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self):
        """Largest total degree among terms; None for the zero polynomial."""
        if not self.terms:
            return None
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self):
        """Common total degree of all terms, ANY_DEGREE for zero, None if mixed."""
        if not self.terms:
            return ANY_DEGREE
        degrees = {sum(e) for e in self.terms}
        if len(degrees) == 1:
            return degrees.pop()
        return None

    def coefficient(self, exps: Sequence[int]):
        """Coefficient of the given monomial, zero-of-kind if absent."""
        exps = tuple(exps)
        if exps in self.terms:
            return self.terms[exps]
        return Fraction(0) if self.kind == RATIONAL else 0j

    def as_complex(self) -> "Polynomial":
        """Copy with coefficients converted to complex floats."""
        if self.kind == COMPLEX:
            return self
        return Polynomial(self.n_vars, {e: complex(c) for e, c in self.terms.items()}, COMPLEX)

    # ---------------------------------------------------------------- arithmetic
    def _check_compatible(self, other: "Polynomial"):
        if not isinstance(other, Polynomial):
            raise ValueError(f"expected Polynomial, got {type(other).__name__}")
        if self.n_vars != other.n_vars:
            raise ValueError(f"mixed n_vars: {self.n_vars} vs {other.n_vars}")
        if self.kind != other.kind:
            raise ValueError(f"mixed coefficient kinds: {self.kind} vs {other.kind}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction, float, complex)):
            other = Polynomial.constant(other, self.n_vars, self.kind)
        self._check_compatible(other)
        terms = dict(self.terms)
        for exps, c in other.terms.items():
            s = terms.get(exps, 0) + c
            if s == 0:
                terms.pop(exps, None)
            else:
                terms[exps] = s
        return Polynomial._trusted(self.n_vars, terms, self.kind)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._trusted(self.n_vars, {e: -c for e, c in self.terms.items()}, self.kind)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, float, complex)):
            other = Polynomial.constant(other, self.n_vars, self.kind)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        """The one product loop: every pair of terms, or a scalar times each term."""
        if isinstance(other, (int, Fraction, float, complex)):
            c = _coerce(other, self.kind)
            if c == 0:
                return self.zero_like()
            # a complex product can underflow to zero; an exact one cannot
            return Polynomial._trusted(self.n_vars, {e: w for e, v in self.terms.items()
                                                     if (w := v * c) != 0}, self.kind)
        self._check_compatible(other)
        right = list(other.terms.items())
        out: dict[Exponents, Scalar] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in right:
                e = tuple(map(add, e1, e2))
                s = out.get(e, 0) + c1 * c2
                if s == 0:
                    out.pop(e, None)
                else:
                    out[e] = s
        return Polynomial._trusted(self.n_vars, out, self.kind)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        result = self.one_like()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def mul_truncated(self, other: "Polynomial", max_degree: int) -> "Polynomial":
        """The product ``self * other`` with every term of total degree >
        max_degree discarded; the kept terms are the full product's, bit for bit."""
        return Polynomial._trusted(self.n_vars, {e: c for e, c in (self * other).terms.items()
                                                 if sum(e) <= max_degree}, self.kind)

    # ---------------------------------------------------------------- calculus
    def partial(self, i: int) -> "Polynomial":
        """Formal partial derivative with respect to x_{i+1} (0-based i)."""
        if not 0 <= i < self.n_vars:
            raise ValueError(f"variable index {i} out of range for n_vars={self.n_vars}")
        out: dict[Exponents, Scalar] = {}
        for exps, c in self.terms.items():
            e = exps[i]
            if e == 0:
                continue
            # distinct terms lower to distinct monomials, and c * e != 0 for e >= 1
            out[exps[:i] + (e - 1,) + exps[i + 1:]] = c * e
        return Polynomial._trusted(self.n_vars, out, self.kind)

    def gradient(self) -> list["Polynomial"]:
        return [self.partial(i) for i in range(self.n_vars)]

    # ---------------------------------------------------------------- evaluation
    def __call__(self, point: Sequence[Scalar]):
        return self.evaluate(point)

    def evaluate(self, point):
        """Value at one point, or values at an ``(..., n_vars)`` array of points.

        A rational polynomial at an exact point (``is_exact_point``: ints and
        Fractions, also in an ``object`` ndarray) returns the exact Fraction
        sum_e c_e P^e D^(top - |e|) / (L D^top), summed on ints: P = D p is the
        point cleared of its denominators and L the coefficients' lcm.  Every
        other input goes through one numpy kernel over the exponent matrix and
        the complex coefficient vector, built on first use and kept: a single
        point gives a complex, an array of points an array of complex values
        in its leading shape.
        """
        if self.kind == RATIONAL and is_exact_point(point):
            if len(point) != self.n_vars:
                raise ValueError(f"point length {len(point)} != n_vars {self.n_vars}")
            ints, scale = clear_denominators(point)
            coeffs, lcm = clear_denominators(self.terms.values())
            top = self.total_degree() or 0
            total = sum(c * math.prod(map(pow, ints, e)) * scale ** (top - sum(e))
                        for c, e in zip(coeffs, self.terms))
            return Fraction(total, lcm * scale ** top)
        x, monomials, coeffs = self._float_monomials(point)
        values = monomials @ coeffs
        return complex(values) if x.ndim == 1 else values

    def value_and_envelope(self, point):
        """The value at a float point and its envelope sum_e |a_e| |x^e|, the
        scale rounding in ``evaluate`` lives at, from one pass of the kernel.

        One point gives a (complex, float) pair; an ``(..., n_vars)`` array of
        points gives a pair of arrays in its leading shape.
        """
        x, monomials, coeffs = self._float_monomials(point)
        values, envelopes = monomials @ coeffs, np.abs(monomials) @ np.abs(coeffs)
        if x.ndim == 1:
            return complex(values), float(envelopes)
        return values, envelopes

    def _float_monomials(self, point) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The point(s) as complex, checked against n_vars, their monomials, the coefficients."""
        x = np.asarray(point, dtype=complex)
        if x.ndim == 0 or x.shape[-1] != self.n_vars:
            raise ValueError(f"point shape {x.shape} does not end in n_vars {self.n_vars}")
        exps, coeffs = self._kernel()
        return x, _monomials(x, exps), coeffs

    def _kernel(self) -> tuple[np.ndarray, np.ndarray]:
        """The exponent matrix and complex coefficient vector of the float kernel, kept."""
        if not hasattr(self, "_compiled"):      # the slot is filled on first use
            object.__setattr__(self, "_compiled", (
                np.array(list(self.terms), dtype=np.int64).reshape(-1, self.n_vars),
                np.array([complex(c) for c in self.terms.values()], dtype=complex)))
        return self._compiled

    def substitute(self, replacements: Sequence["Polynomial"]) -> "Polynomial":
        """Composition p(q_1, ..., q_n); replacements share n_vars and kind."""
        if len(replacements) != self.n_vars:
            raise ValueError("need one replacement polynomial per variable")
        r0 = replacements[0]
        for r in replacements:
            r0._check_compatible(r)
        out = Polynomial.zero(r0.n_vars, r0.kind)
        # memoized powers of each replacement
        pow_cache: dict[tuple[int, int], Polynomial] = {}

        def rpow(i: int, e: int) -> Polynomial:
            if (i, e) not in pow_cache:
                pow_cache[(i, e)] = replacements[i] ** e
            return pow_cache[(i, e)]

        for exps, c in self.terms.items():
            term = Polynomial.constant(_coerce(c, r0.kind), r0.n_vars, r0.kind)
            for i, e in enumerate(exps):
                if e:
                    term = term * rpow(i, e)
            out = out + term
        return out

    def translate_truncated(self, point: Sequence[Scalar], max_degree: int) -> "Polynomial":
        """Taylor jet at `point`: p(point + x) truncated past total degree max_degree.

        The coefficient of x^a sums c_e * prod_i C(e_i, a_i) point_i^(e_i - a_i)
        over the terms c_e x^e with e >= a, |a| <= max_degree (Neidinger, Math.
        Comp. 74, 2005).  Exact points (``is_exact_point``) on a rational
        polynomial give Fractions; other points on it go through ``as_complex()``.
        """
        if len(point) != self.n_vars:
            raise ValueError(f"point length {len(point)} != n_vars {self.n_vars}")
        kind = self.kind
        if kind == RATIONAL and not is_exact_point(point):
            return self.as_complex().translate_truncated(point, max_degree)
        # a zero coordinate keeps only a_i = e_i, so it needs no number and no powers
        vals = [0 if v == 0 else Fraction(v) if kind == RATIONAL else complex(v) for v in point]
        powers = [[v ** k for k in range(max((e[i] for e in self.terms), default=0) + 1)]
                  if v else ()
                  for i, v in enumerate(vals)]
        out: dict[Exponents, Scalar] = {}
        for exps, c in self.terms.items():
            heads = [((), 0, c)]         # (a_1..a_i, |a|, weight) over the first i variables
            for e, v, pw in zip(exps, vals, powers):
                if not v:                # only a_i = e_i survives, with the factor 1
                    heads = [(head + (e,), d + e, w) for head, d, w in heads
                             if d + e <= max_degree]
                    continue
                choices = [(a, math.comb(e, a) * pw[e - a]) for a in range(e + 1)]
                heads = [(head + (a,), d + a, w * f) for head, d, w in heads
                         for a, f in choices if d + a <= max_degree]
            for a_vec, _, w in heads:
                out[a_vec] = out.get(a_vec, 0) + w
        return Polynomial._trusted(self.n_vars, {a: w for a, w in out.items() if w != 0}, kind)

    # ---------------------------------------------------------------- dunder glue
    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (self.n_vars, self.kind, self.terms) == (other.n_vars, other.kind, other.terms)

    def __hash__(self):
        return hash((self.n_vars, self.kind, frozenset(self.terms.items())))

    def __repr__(self):
        return f"Polynomial({self.to_text()!r}, n_vars={self.n_vars}, kind={self.kind!r})"

    # ---------------------------------------------------------------- text form
    def sorted_terms(self) -> list[tuple[Exponents, Scalar]]:
        """Terms in graded-lexicographic order (degree first, then exponents)."""
        return sorted(self.terms.items(),
                      key=lambda kv: (-sum(kv[0]), tuple(-e for e in kv[0])))

    def to_text(self) -> str:
        """Canonical text form: 'c * x1^a1*...*xn^an' terms joined by ' + '."""
        if not self.terms:
            return "0"
        parts = []
        for exps, c in self.sorted_terms():
            mono = "*".join(f"x{i + 1}^{e}" for i, e in enumerate(exps))
            parts.append(f"{format_coefficient(c, self.kind)} * {mono}")
        return " + ".join(parts)

    @staticmethod
    def from_text(text: str, n_vars: int, kind: str = RATIONAL) -> "Polynomial":
        """Inverse of to_text.  Accepts 'num/den' or plain integers for rationals."""
        text = text.strip()
        if text == "0":
            return Polynomial.zero(n_vars, kind)
        terms: dict[Exponents, Scalar] = {}
        for part in text.split(" + "):
            coeff_text, _, mono = part.partition(" * ")
            coeff = parse_coefficient(coeff_text, kind)
            exps = [0] * n_vars
            if mono:
                for factor in mono.split("*"):
                    name, _, power = factor.partition("^")
                    if not name.startswith("x"):
                        raise ValueError(f"bad monomial factor {factor!r}")
                    idx = int(name[1:]) - 1
                    if not 0 <= idx < n_vars:
                        raise ValueError(f"variable {name} out of range for n_vars={n_vars}")
                    exps[idx] += int(power) if power else 1
            key = tuple(exps)
            terms[key] = terms.get(key, 0) + coeff
        return Polynomial(n_vars, terms, kind)


def format_coefficient(c: Scalar, kind: str) -> str:
    """Text form of one coefficient: 'num/den' (rational) or '(re,im)' (complex)."""
    if kind == RATIONAL:
        f = Fraction(c)
        return f"{f.numerator}/{f.denominator}"
    z = complex(c)
    return f"({z.real!r},{z.imag!r})"


def parse_coefficient(text: str, kind: str) -> Scalar:
    text = text.strip()
    if kind == RATIONAL:
        return Fraction(text)
    if text.startswith("(") and text.endswith(")"):
        re_s, _, im_s = text[1:-1].partition(",")
        return complex(float(re_s), float(im_s))
    return complex(float(text))


# -------------------------------------------------------------------- matrices
@dataclass(frozen=True)
class PolyMatrix:
    """Row-major matrix of polynomials sharing n_vars and coefficient kind."""

    rows: int
    cols: int
    entries: tuple[Polynomial, ...]

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError("matrix dimensions must be positive")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match rows*cols")
        first = self.entries[0]
        for p in self.entries:
            if p.n_vars != first.n_vars or p.kind != first.kind:
                raise ValueError("matrix entries must share n_vars and kind")

    @staticmethod
    def from_rows(rows: Sequence[Sequence[Polynomial]]) -> "PolyMatrix":
        r = len(rows)
        c = len(rows[0])
        if any(len(row) != c for row in rows):
            raise ValueError("ragged rows")
        return PolyMatrix(r, c, tuple(p for row in rows for p in row))

    def entry(self, i: int, j: int) -> Polynomial:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> list[Polynomial]:
        return [self.entry(i, j) for j in range(self.cols)]

    def with_row(self, i: int, new_row: Sequence[Polynomial]) -> "PolyMatrix":
        if len(new_row) != self.cols:
            raise ValueError("replacement row has wrong length")
        rows = [list(self.row(r)) for r in range(self.rows)]
        rows[i] = list(new_row)
        return PolyMatrix.from_rows(rows)

    def det(self) -> Polynomial:
        """Symbolic determinant (cofactor expansion, minors memoized by column set)."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        zero = self.entries[0].zero_like()

        # minor(r, cols) = det of submatrix on rows r..n-1 and the given columns
        cache: dict[tuple[int, frozenset], Polynomial] = {}

        def minor(r: int, cols: frozenset) -> Polynomial:
            if r == n - 1:
                (j,) = cols
                return self.entry(r, j)
            key = (r, cols)
            if key in cache:
                return cache[key]
            total = zero
            sign = 1
            for j in sorted(cols):
                a = self.entry(r, j)
                if not a.is_zero():
                    sub = minor(r + 1, cols - {j})
                    if not sub.is_zero():
                        prod = a * sub
                        total = total + (prod if sign > 0 else -prod)
                sign = -sign
            cache[key] = total
            return total

        return minor(0, frozenset(range(n)))


def det(m: PolyMatrix) -> Polynomial:
    """Exact symbolic determinant of a square polynomial matrix."""
    return m.det()
