"""Properness certificates for homogeneous polynomial maps.

A homogeneous F: C^n -> C^n is proper exactly when F^{-1}(0) = {0}, so the
question reduces to whether the components share a nonzero common root.

* ``sylvester_resultant`` -- the classical two-polynomial eliminant, exact.
* ``macaulay_matrix`` -- the full Macaulay matrix in degree
  nu = sum(d_i - 1) + 1: one row s * f_i for every monomial s of degree
  nu - d_i.  It has full column rank exactly when F^{-1}(0) = {0} (Macaulay,
  1902): a regular sequence's ideal contains every monomial of degree nu,
  and a nonzero common root z puts its monomial vector (z^m) in the null
  space.
* ``macaulay_resultant_certificate`` -- the exact rank of that matrix decides
  rational maps both ways; a rank deficiency comes with the root read off
  the null space as a witness.
* ``sphere_falsifier`` -- the same null-space reading in floating point, all
  estimates polished at once by ``newton_polish`` to unit-norm common roots.
  It gives complex maps a witness; finding none certifies nothing.

``properness_verdict`` decides rational maps by the certificate and gives
complex maps a witness or INCONCLUSIVE.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Sequence

import numpy as np

from .linalg import POLISH_STEPS, det_is_nonzero, exact_det, integer_rows, newton_polish
from .maps import HomogeneousMap, jacobian, validate_degrees
from .morin import _evaluated
from .polynomials import COMPLEX, RATIONAL, Polynomial

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
WITNESS_TOL = 1e-12
NULL_TOL = 1e-9           # singular values below this share of the largest span the null space


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
def sylvester_matrix(p_coeffs: Sequence, q_coeffs: Sequence) -> list[list]:
    """Sylvester matrix from descending coefficient lists, q's rows on top.

    With this block order the determinant is lc(q)^deg(p) * prod p(beta) over
    the roots beta of q, which makes Res(x - a, x - b) = b - a.
    """
    m = len(p_coeffs) - 1
    l = len(q_coeffs) - 1
    if m < 0 or l < 0:
        raise ValueError("zero polynomial has no resultant")
    size = m + l
    zero = 0 * (p_coeffs[0] if p_coeffs else q_coeffs[0])
    rows = []
    for shift in range(m):
        rows.append([zero] * shift + list(q_coeffs) + [zero] * (size - shift - l - 1))
    for shift in range(l):
        rows.append([zero] * shift + list(p_coeffs) + [zero] * (size - shift - m - 1))
    return rows


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
    rows = sylvester_matrix(_descending_coeffs(p), _descending_coeffs(q))
    if not rows:
        return Fraction(1) if p.kind == RATIONAL else complex(1)
    if p.kind == RATIONAL:
        return exact_det(rows)
    return complex(np.linalg.det(np.array(rows, dtype=complex)))


# ---------------------------------------------------------------- Macaulay
def _monomials_of_degree(n: int, degree: int) -> list[tuple[int, ...]]:
    """All exponent tuples of the given total degree, descending lex order."""
    out = []
    for combo in combinations_with_replacement(range(n), degree):
        e = [0] * n
        for i in combo:
            e[i] += 1
        out.append(tuple(e))
    out.sort(reverse=True)
    return out


def macaulay_matrix(F: HomogeneousMap):
    """Full Macaulay matrix in degree nu = sum(d_i - 1) + 1, plus its row bookkeeping.

    Returns (rows, monomials, assignment): one row for each component f_i and
    each monomial s of degree nu - d_i, holding the coefficients of s * f_i in
    the degree-nu monomial basis `monomials`; assignment[r] = i.  For n = 2
    this is the Sylvester matrix.
    """
    n = F.n
    nu = sum(d - 1 for d in F.degrees) + 1
    monomials = _monomials_of_degree(n, nu)
    if len(monomials) > MACAULAY_SIDE_CAP:
        raise ValueError(
            f"Macaulay matrix side {len(monomials)} exceeds the cap {MACAULAY_SIDE_CAP}")
    col = {m: j for j, m in enumerate(monomials)}
    zero = Fraction(0) if F.kind == RATIONAL else complex(0)
    rows = []
    assignment = []
    for i, (d, f) in enumerate(zip(F.degrees, F.components)):
        for shift in _monomials_of_degree(n, nu - d):
            row = [zero] * len(monomials)
            for exps, c in f.terms.items():
                row[col[tuple(e + s for e, s in zip(exps, shift))]] = c
            rows.append(row)
            assignment.append(i)
    return rows, monomials, assignment


def macaulay_resultant_certificate(F: HomogeneousMap) -> PropernessVerdict:
    """PROPER iff the Macaulay matrix has full column rank, else NOT_PROPER.

    The exact rank decides both ways.  A NOT_PROPER verdict carries the
    common root read off the null space, or no witness if the polish misses it.
    """
    if F.kind != RATIONAL:
        raise ValueError("the Macaulay certificate needs the exact rational kind")
    rows, monomials, _ = macaulay_matrix(F)
    where = f"Macaulay matrix in degree {sum(monomials[0])}"
    if det_is_nonzero(integer_rows(rows)[0]):
        return PropernessVerdict(PROPER, f"{where} has full rank {len(monomials)}")
    witness = _null_space_witness(F, rows, monomials, at_least=1)
    return PropernessVerdict(
        NOT_PROPER, f"{where} is rank-deficient: {_witness_note(F, witness)}", witness)


# ---------------------------------------------------------------- falsifier
def _witness_threshold(F: HomogeneousMap, x: np.ndarray) -> float:
    return WITNESS_TOL * (1.0 + float(np.linalg.norm(x)) ** max(F.degrees))


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
    dF = jacobian(F)

    def evaluate(points: np.ndarray) -> np.ndarray:
        return np.stack(F.evaluate(points), axis=-1)

    def chart_step(x: np.ndarray, fx: np.ndarray) -> np.ndarray:
        jac = _evaluated(dF, x)
        jac[np.arange(len(x)), :, np.argmax(np.abs(x), axis=1)] = 0.0    # the pinned column
        step = (np.linalg.pinv(jac) @ fx[..., None])[..., 0]
        plain, doubled = np.linalg.norm(evaluate(np.stack([x - step, x - 2.0 * step])), axis=-1)
        return np.where((doubled < plain)[:, None], 2.0 * step, step)

    return newton_polish(starts, evaluate, chart_step, POLISH_STEPS)[0]


def _null_space_witness(F: HomogeneousMap, rows, monomials, at_least: int = 0):
    """The first polished null-space root whose unit point clears the threshold, or None.

    Each root z puts (z^m) in the null space N, and the rows S_j of N at the
    monomials x_j * m (deg m = nu - 1) shift it by z_j.  So A_j = lstsq(S_k, S_j)
    share eigenvectors W with eigenvalues z_j / z_k (Dreesen, Batselier and
    De Moor, 2012).  `at_least` keeps that many vectors in N when the exact
    rank is known to be deficient.
    """
    _, sigma, vh = np.linalg.svd(np.array(rows, dtype=complex), full_matrices=False)
    nullity = max(at_least, int(np.count_nonzero(sigma <= NULL_TOL * sigma[0])))
    if nullity == 0:
        return None
    null = vh[len(sigma) - nullity:].conj().T
    n, nu = F.n, sum(monomials[0])
    col = {m: j for j, m in enumerate(monomials)}
    lower = _monomials_of_degree(n, nu - 1)
    shifted = [null[[col[m[:j] + (m[j] + 1,) + m[j + 1:]] for m in lower]]
               for j in range(n)]
    pure = [col[tuple(nu * int(i == j) for i in range(n))] for j in range(n)]
    k = max(range(n), key=lambda j: np.linalg.norm(null[pure[j]]))
    mults = [np.linalg.lstsq(shifted[k], s, rcond=None)[0] for s in shifted]
    _, vecs = np.linalg.eig(sum(w * a for w, a in zip(np.sqrt(np.arange(2, n + 2)), mults)))
    inv = np.linalg.pinv(vecs)
    estimates = np.array([np.diag(inv @ a @ vecs) for a in mults]).T
    # a root of multiplicity r is a defective cluster of r eigenvalues whose
    # mean, trace(A_j) / r, stays accurate
    estimates = np.vstack([estimates, estimates.mean(axis=0)])
    starts = estimates[np.isfinite(estimates).all(axis=1) & estimates.any(axis=1)]
    for root in _polished(F, starts):
        scaled = root / np.linalg.norm(root)
        if np.linalg.norm(F.evaluate(scaled)) < _witness_threshold(F, scaled):
            return tuple(complex(v) for v in scaled)
    return None


def sphere_falsifier(F: HomogeneousMap) -> tuple | None:
    """A unit-norm common root read off the Macaulay null space, or None.

    None is NOT a certificate: it only reports that the float null space,
    cut at NULL_TOL, gave no root that the Newton polish could confirm.
    """
    rows, monomials, _ = macaulay_matrix(F)
    return _null_space_witness(F, rows, monomials)


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
