"""Properness certificates for homogeneous polynomial maps.

A homogeneous F: C^n -> C^n is proper exactly when F^{-1}(0) = {0}, so the
question reduces to whether the components share a nonzero common root.

* ``sylvester_resultant`` -- the classical two-polynomial eliminant, exact.
* ``macaulay_matrix`` -- the full Macaulay matrix in degree
  nu = sum(d_i - 1) + 1: one row s * f_i for every monomial s of degree
  nu - d_i.  It has full column rank exactly when F^{-1}(0) = {0} (Macaulay,
  1902): a regular sequence's ideal contains every monomial of degree nu,
  and a nonzero common root z puts its monomial vector (z^m) in the null
  space.  Every caller scatters coefficients into an ndarray through one
  index layout per degree tuple (``_MacaulayLayout``), shared by every map.
* ``macaulay_resultant_certificate`` -- decides rational maps by the
  cheapest exact proof.  Denominators are cleared once per component into an
  int64 array, and an integer left inverse X with X M strictly diagonally
  dominant, formed exactly in float64, is PROPER.  Without one, the root
  read off the null space is rounded to a rational point q, and F(q) = 0,
  checked on the cleared integers, is NOT_PROPER.  Only when that fails too
  (an irrational root, or a full-rank matrix too large or too near rank loss
  for the left inverse) does ``det_is_nonzero`` decide, both ways: it tries
  the left inverse once more, then the rank mod a prime and the exact rank.
* ``sphere_falsifier`` -- the same null-space reading in floating point.  A
  root estimate that is already a unit-norm common root is kept; only when
  none is are all of them polished at once by ``newton_polish``.  It gives
  complex maps a witness; finding none certifies nothing.

``properness_verdict`` decides rational maps by the certificate and gives
complex maps a witness or INCONCLUSIVE.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .linalg import (POLISH_STEPS, _left_inverse_proves_rank, clear_denominators,
                     det_is_nonzero, exact_det, newton_polish, sylvester_matrix)
from .maps import HomogeneousMap, _layout, validate_degrees
from .morin import _partials_of
from .polynomials import COMPLEX, RATIONAL, ROOT_TOL, Polynomial, _radix_weights

__all__ = [
    "PROPER",
    "NOT_PROPER",
    "INCONCLUSIVE",
    "PropernessVerdict",
    "sylvester_matrix",
    "sylvester_resultant",
    "macaulay_matrix",
    "macaulay_resultant_certificate",
    "sphere_falsifier",
    "properness_verdict",
]

PROPER = "proper"
NOT_PROPER = "not_proper"
INCONCLUSIVE = "inconclusive"

MACAULAY_SIDE_CAP = 3000  # refuse matrices with more columns than this
NULL_TOL = 1e-9           # singular values below this share of the largest span the null space
# Largest denominator a witness ratio is rounded to.  Two fractions with
# denominators up to B lie at least 1/B^2 apart, so a float ratio within
# 1/(2 B^2) = 5e-9 of such a fraction rounds to it.  Rounding only proposes
# a point q; F(q) = 0 is then checked exactly, so no bound can give a wrong verdict.
ROOT_DENOMINATOR = 10_000


@dataclass(frozen=True)
class PropernessVerdict:
    """Outcome of a properness test, with the evidence that produced it."""

    verdict: str                       # PROPER | NOT_PROPER | INCONCLUSIVE
    certificate: str
    witness: tuple | None = None       # unit-norm common root backing a NOT_PROPER verdict

    @property
    def is_proper(self) -> bool:
        return self.verdict == PROPER

    def to_dict(self) -> dict:
        out = {"verdict": self.verdict, "certificate": self.certificate}
        if self.witness is not None:
            out["witness"] = [[complex(v).real, complex(v).imag] for v in self.witness]
        return out


# ---------------------------------------------------------------- Sylvester
def _descending_coeffs(p: Polynomial) -> list:
    """Coefficients in x1 of a univariate polynomial or a binary form, highest power first."""
    if p.n_vars == 2 and p.is_homogeneous() is None:
        raise ValueError("binary input to the resultant must be homogeneous")
    d = p.total_degree()
    return [p.coefficient((e, d - e)[:p.n_vars]) for e in range(d, -1, -1)]


def sylvester_resultant(p: Polynomial, q: Polynomial):
    """Resultant of two univariate polynomials or two binary homogeneous forms.

    Zero exactly when the pair has a common root (a common projective root in
    the binary-form case).  Exact over the rational kind; the complex kind
    falls back to a floating determinant.
    """
    if p.is_zero() or q.is_zero():
        raise ValueError("zero polynomial has no resultant")
    if p.n_vars != q.n_vars or p.kind != q.kind:
        raise ValueError("resultant operands must share n_vars and kind")
    if p.n_vars > 2:
        raise ValueError("resultant needs univariate or binary inputs")
    # two constants give the 0 x 0 matrix, whose determinant is 1 in either kind
    rows = sylvester_matrix(_descending_coeffs(p), _descending_coeffs(q))
    if p.kind == RATIONAL:
        return exact_det(rows)
    return complex(np.linalg.det(rows))


# ---------------------------------------------------------------- Macaulay
@functools.cache
def _monomials_of_degree(n: int, degree: int) -> tuple[tuple[int, ...], ...]:
    """All exponent tuples of the given total degree, descending lex order (one shared table)."""
    return tuple(sorted(_layout(degree, n), reverse=True))


class _MacaulayLayout:
    """Where every coefficient of every f_i sits in the Macaulay matrix of `degrees`.

    Built once per degree tuple (``_macaulay_layout``) and shared by every
    map; its arrays are read-only.  blocks[i] = (rows, cols): rows[r, 0] is
    the row of s_r * f_i and cols[r, t] the column of s_r + terms[i][t], in
    the dense term order terms[i] = ``_layout(d_i, n)``.  A degree-nu monomial
    has every exponent at most nu, so its mixed-radix key in base nu + 1
    orders the columns, and one ``searchsorted`` over the keys finds every
    column.  shifted[j] and pure[j] are the columns of x_j * m (deg m = nu - 1)
    and of x_j^nu, which ``_null_space_witness`` reads.
    """

    def __init__(self, degrees: tuple[int, ...]):
        n = len(degrees)
        nu = sum(d - 1 for d in degrees) + 1
        side = math.comb(nu + n - 1, n - 1)      # the count of degree-nu monomials
        if side > MACAULAY_SIDE_CAP:
            raise ValueError(f"Macaulay matrix side {side} exceeds the cap {MACAULAY_SIDE_CAP}")
        self.monomials = _monomials_of_degree(n, nu)
        # descending lex is descending key order; keys past int64 stay Python ints
        weights = _radix_weights(nu + 1, n)
        keys = (np.array(self.monomials) @ weights)[::-1]

        def columns(exps: np.ndarray) -> np.ndarray:
            return side - 1 - np.searchsorted(keys, exps @ weights)

        self.terms = tuple(_layout(d, n) for d in degrees)
        shifts = [np.array(_monomials_of_degree(n, nu - d)) for d in degrees]
        tops = np.cumsum([0] + [len(s) for s in shifts])
        self.blocks = tuple((top + np.arange(len(s))[:, None], columns(s[:, None] + np.array(t)))
                            for top, s, t in zip(tops, shifts, self.terms))
        self.n_rows = int(tops[-1])
        unit = np.eye(n, dtype=np.int64)
        lower = np.array(_monomials_of_degree(n, nu - 1))
        self.shifted = tuple(columns(lower + e) for e in unit)
        self.pure = columns(nu * unit)
        for a in (*(a for block in self.blocks for a in block), *self.shifted, self.pure):
            a.flags.writeable = False

    def gather(self, F: HomogeneousMap, zero) -> list[list]:
        """Each f_i's coefficients in the dense term order, `zero` at every absent term."""
        return [[f.terms.get(e, zero) for e in terms]
                for f, terms in zip(F.components, self.terms)]

    def scatter(self, values, fill, dtype) -> np.ndarray:
        """The matrix with values[i] (f_i's coefficients in terms[i] order) in every row of f_i."""
        m = np.full((self.n_rows, len(self.monomials)), fill, dtype=dtype)
        for (rows, cols), v in zip(self.blocks, values):
            m[rows, cols] = v
        return m


_macaulay_layout = functools.cache(_MacaulayLayout)   # one layout per degree tuple


def macaulay_matrix(F: HomogeneousMap):
    """Full Macaulay matrix in degree nu = sum(d_i - 1) + 1, plus its row bookkeeping.

    Returns (rows, monomials, assignment): one row for each component f_i and
    each monomial s of degree nu - d_i, holding the coefficients of s * f_i in
    the degree-nu monomial basis `monomials`; assignment[r] = i.  For n = 2
    this is the Sylvester matrix.
    """
    layout = _macaulay_layout(F.degrees)
    zero = Fraction(0) if F.kind == RATIONAL else complex(0)
    coeffs = [np.array(row, dtype=object) for row in layout.gather(F, zero)]
    assignment = [i for i, (rows, _) in enumerate(layout.blocks) for _ in rows]
    return layout.scatter(coeffs, zero, object).tolist(), list(layout.monomials), assignment


def _integer_matrix(F: HomogeneousMap, layout: _MacaulayLayout) -> np.ndarray:
    """F's Macaulay matrix with each f_i's denominators cleared, as an integer ndarray.

    Every row of f_i carries all of f_i's coefficients in dense term order,
    so one lcm per component is the per-row lcm; row scaling keeps the rank,
    and ``_rational_root`` reads the cleared coefficients back.  The array
    is ``int64``, or ``object`` when a cleared coefficient does not fit.
    """
    ints = [clear_denominators(row)[0] for row in layout.gather(F, 0)]
    dtype = np.int64 if all(abs(v) < 2 ** 63 for row in ints for v in row) else object
    return layout.scatter([np.array(row, dtype=dtype) for row in ints], 0, dtype)


def macaulay_resultant_certificate(F: HomogeneousMap) -> PropernessVerdict:
    """PROPER iff the Macaulay matrix has full column rank, else NOT_PROPER.

    The certificate names what decided it: the left inverse or the prime
    that showed full rank, the rational common root q with F(q) = 0
    exactly, or the exact rank.  The left inverse is tried first, then the
    rational root, then ``det_is_nonzero``.  A NOT_PROPER verdict carries
    the unit-norm common root read off the null space, or no witness if the
    polish misses it.
    """
    if F.kind != RATIONAL:
        raise ValueError("the Macaulay certificate needs the exact rational kind")
    layout = _macaulay_layout(F.degrees)
    where = f"Macaulay matrix in degree {sum(layout.monomials[0])}"
    ints = _integer_matrix(F, layout)
    proof = "left inverse" if _left_inverse_proves_rank(ints) else None
    if not proof:
        witness = _null_space_witness(F, layout, at_least=1)
        root = _rational_root(layout, ints, witness)
        if root is not None:
            return PropernessVerdict(NOT_PROPER, f"F(q) = 0 exactly at q = {root}, "
                                     f"read off the null space of the {where}", witness)
        proof = det_is_nonzero(ints)
    if proof:
        return PropernessVerdict(
            PROPER, f"{where} has full rank {len(layout.monomials)} ({proof})")
    return PropernessVerdict(
        NOT_PROPER, f"{where} is rank-deficient: {_witness_note(F, witness)}", witness)


def _rational_root(layout: _MacaulayLayout, ints: np.ndarray, witness) -> str | None:
    """The witness divided by its largest coordinate and rounded to a rational
    point q, written out, when F(q) = 0 exactly; else None.  The test is on
    integers: f_i(D q) = D^{d_i} f_i(q) for D the lcm of q's denominators,
    with f_i's cleared coefficients read off its first row in `ints`."""
    if witness is None:
        return None
    top = max(witness, key=abs)
    q = tuple(Fraction((v / top).real).limit_denominator(ROOT_DENOMINATOR) for v in witness)
    point = clear_denominators(q)[0]
    for (rows, cols), terms in zip(layout.blocks, layout.terms):
        coeffs = ints[rows[0, 0], cols[0]].tolist()
        if sum(c * math.prod(map(pow, point, e)) for c, e in zip(coeffs, terms) if c):
            return None
    return f"({', '.join(map(str, q))})"


# ---------------------------------------------------------------- falsifier
def _witness_note(F: HomogeneousMap, witness: tuple | None) -> str:
    if witness is None:
        return "a nonzero common root exists; the null space gave no witness"
    residual = float(np.linalg.norm(F.evaluate(witness)))
    return f"nonzero common root read off the null space (residual {residual:.2e})"


def _polished(F: HomogeneousMap, starts: np.ndarray) -> np.ndarray:
    """The (N, n) `starts` after one batched ``newton_polish`` toward common roots of F.

    Newton on the full homogeneous system is a pure rescaling (Euler's
    identity gives dF(x) x = diag(d_i) F(x)), so each step pins the dominant
    coordinate of its point and moves in that affine chart instead.
    Components crossing the zero cone with even multiplicity make the plain
    step converge only linearly; doubling it wherever that leaves the smaller
    residual ||F|| restores fast convergence.
    """
    partials = _partials_of(F)

    def evaluate(points: np.ndarray) -> np.ndarray:
        return np.stack(F.evaluate(points), axis=-1)

    def chart_step(x: np.ndarray, fx: np.ndarray) -> np.ndarray:
        jac = partials.at(x, 1)
        jac[np.arange(len(x)), :, np.argmax(np.abs(x), axis=1)] = 0.0    # the pinned column
        step = (np.linalg.pinv(jac) @ fx[..., None])[..., 0]
        plain, doubled = np.linalg.norm(evaluate(np.stack([x - step, x - 2.0 * step])), axis=-1)
        return np.where((doubled < plain)[:, None], 2.0 * step, step)

    return newton_polish(starts, evaluate, chart_step, POLISH_STEPS)[0]


def _first_witness(F: HomogeneousMap, points: np.ndarray):
    """The first of `points` whose unit rescaling x is a common root, or None.

    f_i(x) vanishes when |f_i(x)| <= ROOT_TOL * sum_e |a_e|, the bound of its
    envelope sum_e |a_e| |x^e| on the unit sphere (the envelope at x itself
    shrinks with x's distance to a root on a coordinate axis).
    """
    cuts = ROOT_TOL * np.array([np.abs(f._kernel()[1]).sum() for f in F.components])
    for root in points:
        scaled = root / np.linalg.norm(root)
        if np.all(np.abs(F.evaluate(scaled)) <= cuts):
            return tuple(complex(v) for v in scaled)
    return None


def _null_space_witness(F: HomogeneousMap, layout: _MacaulayLayout, at_least: int = 0):
    """A null-space root estimate, polished only if none is a common root, or None.

    Each root z puts (z^m) in the null space N, and the rows S_j of N at the
    monomials x_j * m (deg m = nu - 1) shift it by z_j.  So A_j = lstsq(S_k, S_j)
    share eigenvectors W with eigenvalues z_j / z_k (Dreesen, Batselier and
    De Moor, 2012).  `at_least` keeps that many vectors in N when the exact
    rank is known to be deficient.  The estimates are tried as they are
    first; ``_polished`` runs only when none of them is a witness yet.
    """
    matrix = layout.scatter(layout.gather(F, 0), 0, complex)
    _, sigma, vh = np.linalg.svd(matrix, full_matrices=False)
    nullity = max(at_least, int(np.count_nonzero(sigma <= NULL_TOL * sigma[0])))
    if nullity == 0:
        return None
    null = vh[len(sigma) - nullity:].conj().T
    shifted = [null[cols] for cols in layout.shifted]
    k = max(range(F.n), key=lambda j: np.linalg.norm(null[layout.pure[j]]))
    mults = [np.linalg.lstsq(shifted[k], s, rcond=None)[0] for s in shifted]
    _, vecs = np.linalg.eig(sum(w * a for w, a in zip(np.sqrt(np.arange(2, F.n + 2)), mults)))
    inv = np.linalg.pinv(vecs)
    estimates = np.array([np.diag(inv @ a @ vecs) for a in mults]).T
    # a root of multiplicity r is a defective cluster of r eigenvalues whose
    # mean, trace(A_j) / r, stays accurate
    estimates = np.vstack([estimates, estimates.mean(axis=0)])
    starts = estimates[np.isfinite(estimates).all(axis=1) & estimates.any(axis=1)]
    return _first_witness(F, starts) or _first_witness(F, _polished(F, starts))


def sphere_falsifier(F: HomogeneousMap) -> tuple | None:
    """A unit-norm common root read off the Macaulay null space, or None.

    None is NOT a certificate: it only reports that the float null space,
    cut at NULL_TOL, gave no root that the Newton polish could confirm.
    """
    return _null_space_witness(F, _macaulay_layout(F.degrees))


# ---------------------------------------------------------------- combined driver
def properness_verdict(F: HomogeneousMap) -> PropernessVerdict:
    """The exact certificate for rational maps; a null-space witness for complex ones.

    Rational maps are always decided.  A complex map is NOT_PROPER with a
    witness, or INCONCLUSIVE when the null space gives none.
    """
    if F.kind == RATIONAL:
        return macaulay_resultant_certificate(F)
    witness = sphere_falsifier(F)
    if witness is not None:
        return PropernessVerdict(NOT_PROPER, _witness_note(F, witness), witness)
    return PropernessVerdict(
        INCONCLUSIVE, "no exact certificate for the complex kind; "
        "the Macaulay null space gave no witness")
