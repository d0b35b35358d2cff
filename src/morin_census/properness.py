"""Properness certificates for homogeneous polynomial maps.

A homogeneous F: C^n -> C^n is proper exactly when F^{-1}(0) = {0}, so the
question reduces to whether the components share a nonzero common root.  Three
tools attack it from both sides:

* ``sylvester_resultant`` -- the classical two-polynomial eliminant, exact.
* ``macaulay_resultant_certificate`` -- builds the Macaulay matrix in degree
  nu = sum(d_i - 1) + 1; its determinant equals the multivariate resultant
  times an extraneous minor, so a nonzero determinant proves Res != 0 and
  hence F^{-1}(0) = {0}.  A vanishing determinant proves nothing (the minor
  may be the culprit), so the test retries under random unimodular coordinate
  changes before giving up as inconclusive.
* ``sphere_falsifier`` -- numeric search for a nonzero common root on the
  unit sphere, polished by Newton steps.  A polished root is a properness
  counterexample; finding none certifies nothing.

``properness_verdict`` combines them: exact certificate first, falsifier as
the negative-direction escalation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Sequence

import numpy as np

from .linalg import det_is_nonzero, exact_det, integer_rows, random_unimodular_matrix
from .maps import HomogeneousMap, validate_degrees
from .morin import linear_conjugate
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

MACAULAY_SIDE_CAP = 3000  # refuse matrices past this side length
NEWTON_MAX_ITERS = 20
WITNESS_TOL = 1e-12


@dataclass(frozen=True)
class PropernessVerdict:
    """Outcome of a properness test, with the evidence that produced it."""

    verdict: str                       # PROPER | NOT_PROPER | INCONCLUSIVE
    certificate: str
    witness: tuple | None = None       # nonzero common root, when verdict is NOT_PROPER

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


def _descending_coeffs(p: Polynomial, formal_degree: int) -> list:
    """Coefficients of a univariate polynomial, highest power first."""
    zero = Fraction(0) if p.kind == RATIONAL else complex(0)
    coeffs = [zero] * (formal_degree + 1)
    for exps, c in p.terms.items():
        e = exps[0]
        if e > formal_degree:
            raise ValueError(f"degree {e} exceeds formal degree {formal_degree}")
        coeffs[formal_degree - e] = coeffs[formal_degree - e] + c
    return coeffs


def _dehomogenize(p: Polynomial):
    """Binary form -> univariate polynomial in x1 with formal degree = total degree."""
    d = p.is_homogeneous()
    if d is None:
        raise ValueError("binary input to the resultant must be homogeneous")
    terms = {(e[0],): c for e, c in p.terms.items()}
    return Polynomial(1, terms, p.kind), p.total_degree()


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
    if p.n_vars == 1:
        pc = _descending_coeffs(p, p.total_degree())
        qc = _descending_coeffs(q, q.total_degree())
    elif p.n_vars == 2:
        p1, dp = _dehomogenize(p)
        q1, dq = _dehomogenize(q)
        pc = _descending_coeffs(p1, dp)
        qc = _descending_coeffs(q1, dq)
    else:
        raise ValueError("resultant needs univariate or binary inputs")
    rows = sylvester_matrix(pc, qc)
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
    """Macaulay matrix in degree nu = sum(d_i - 1) + 1, plus its row bookkeeping.

    Returns (rows, monomials, assignment): row r is the coefficient vector of
    (monomials[r] / x_i^{d_i}) * f_i in the degree-nu monomial basis, where i
    = assignment[r] is the first index with x_i^{d_i} dividing monomials[r].
    Every degree-nu monomial admits such an i, so the matrix is square.
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
    for m in monomials:
        i = next(k for k in range(n) if m[k] >= F.degrees[k])
        shift = tuple(m[k] - (F.degrees[k] if k == i else 0) for k in range(n))
        row = [zero] * len(monomials)
        for exps, c in F.components[i].terms.items():
            target = tuple(e + s for e, s in zip(exps, shift))
            row[col[target]] = row[col[target]] + c
        rows.append(row)
        assignment.append(i)
    return rows, monomials, assignment


def macaulay_resultant_certificate(F: HomogeneousMap, retries: int = 3,
                                   seed: int = 0) -> PropernessVerdict:
    """ProperCertified iff some Macaulay determinant is provably nonzero.

    The determinant is Res(f_1,...,f_n) times an extraneous minor, so nonzero
    certifies F^{-1}(0) = {0}.  A zero determinant may just mean the minor
    vanished; each retry composes F with a fresh random unimodular coordinate
    change (which preserves F^{-1}(0) = {0}) and tries again.
    """
    if F.kind != RATIONAL:
        raise ValueError("the Macaulay certificate needs the exact rational kind")
    nu = sum(d - 1 for d in F.degrees) + 1
    rng = np.random.default_rng(seed)
    identity = [[int(i == j) for j in range(F.n)] for i in range(F.n)]
    current = F
    for attempt in range(retries + 1):
        rows, _, _ = macaulay_matrix(current)
        if det_is_nonzero(integer_rows(rows)[0]):
            suffix = "" if attempt == 0 else f" after {attempt} coordinate change(s)"
            return PropernessVerdict(
                PROPER, f"Macaulay determinant nonzero in degree {nu}{suffix}")
        if attempt < retries:
            change = random_unimodular_matrix(F.n, rng)
            current = HomogeneousMap(
                F.degrees, tuple(linear_conjugate(F.components, identity, change)))
    return PropernessVerdict(
        INCONCLUSIVE,
        f"Macaulay determinant vanished in degree {nu} "
        f"after {retries} random coordinate changes")


# ---------------------------------------------------------------- falsifier
def _batch_evaluator(F: HomogeneousMap):
    """Vectorized x -> F(x) over a batch of complex points (rows of a matrix)."""
    tables = []
    for f in F.as_complex().components:
        items = sorted(f.terms.items())
        exps = np.array([e for e, _ in items], dtype=np.int64).reshape(len(items), F.n)
        coeffs = np.array([c for _, c in items], dtype=complex)
        tables.append((exps, coeffs))

    def evaluate(points: np.ndarray) -> np.ndarray:
        cols = []
        for exps, coeffs in tables:
            if len(coeffs) == 0:
                cols.append(np.zeros(points.shape[0], dtype=complex))
                continue
            monos = np.prod(points[:, None, :] ** exps[None, :, :], axis=2)
            cols.append(monos @ coeffs)
        return np.stack(cols, axis=1)

    return evaluate


def _witness_threshold(F: HomogeneousMap, x: np.ndarray) -> float:
    return WITNESS_TOL * (1.0 + float(np.linalg.norm(x)) ** max(F.degrees))


def sphere_falsifier(F: HomogeneousMap, samples: int = 10_000,
                     seed: int = 0) -> tuple | None:
    """Search the unit sphere for a nonzero common root of the components.

    Returns a polished witness point (properness is then falsified) or None.
    None is NOT a certificate -- it only reports that `samples` random unit
    vectors, with Newton polish on the most promising ones, found nothing.
    """
    Fc = F.as_complex()
    evaluate = _batch_evaluator(Fc)
    partials = [[f.partial(j) for j in range(F.n)] for f in Fc.components]
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((samples, F.n)) + 1j * rng.standard_normal((samples, F.n))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    residuals = np.linalg.norm(evaluate(pts), axis=1)
    order = np.argsort(residuals)[: min(10, samples)]
    def polished(start: np.ndarray):
        # Newton on the full homogeneous system is a pure rescaling (Euler's
        # identity gives dF(x) x = diag(d_i) F(x)), so the polish pins the
        # dominant coordinate and iterates in that affine chart instead.
        # Components crossing the zero cone with even multiplicity make the
        # plain step converge only linearly; trying the doubled step as well
        # and keeping the smaller residual restores fast convergence.
        x = start.copy()
        resid = float(np.linalg.norm(evaluate(x[None, :])[0]))
        for _ in range(NEWTON_MAX_ITERS):
            scaled = x / np.linalg.norm(x)
            if (np.linalg.norm(evaluate(scaled[None, :])[0])
                    < _witness_threshold(F, scaled)):
                return scaled
            pivot = int(np.argmax(np.abs(x)))
            keep = [j for j in range(F.n) if j != pivot]
            fx = evaluate(x[None, :])[0]
            jac = np.array([[partials[i][j].evaluate(x) for j in keep]
                            for i in range(F.n)], dtype=complex)
            step, *_ = np.linalg.lstsq(jac, -fx, rcond=None)
            best = None
            for factor in (1.0, 2.0):
                cand = x.copy()
                cand[keep] = cand[keep] + factor * step
                r = float(np.linalg.norm(evaluate(cand[None, :])[0]))
                if best is None or r < best[0]:
                    best = (r, cand)
            if best[0] >= resid:
                break
            resid, x = best
        scaled = x / np.linalg.norm(x)
        if np.linalg.norm(evaluate(scaled[None, :])[0]) < _witness_threshold(F, scaled):
            return scaled
        return None

    for idx in order:
        result = polished(pts[idx])
        if result is not None:
            return tuple(complex(v) for v in result)
    return None


# ---------------------------------------------------------------- combined driver
def properness_verdict(F: HomogeneousMap, samples: int = 2000, seed: int = 0,
                       retries: int = 3) -> PropernessVerdict:
    """Certificate first, falsifier second.

    Rational maps try the exact Macaulay certificate; if it certifies, done.
    Otherwise (and always for the complex kind) the sphere falsifier hunts for
    an explicit nonzero common root, which settles NOT_PROPER with a witness.
    Neither side deciding leaves INCONCLUSIVE.
    """
    notes = []
    if F.kind == RATIONAL:
        cert = macaulay_resultant_certificate(F, retries=retries, seed=seed)
        if cert.is_proper:
            return cert
        notes.append(cert.certificate)
    else:
        notes.append("no exact certificate for the complex kind")
    witness = sphere_falsifier(F, samples=samples, seed=seed)
    if witness is not None:
        values = _batch_evaluator(F)(np.array([witness]))[0]
        residual = float(np.linalg.norm(values))
        return PropernessVerdict(
            NOT_PROPER,
            f"nonzero common root found on the unit sphere (residual {residual:.2e})",
            witness=witness)
    notes.append(f"sphere search found no witness over {samples} samples")
    return PropernessVerdict(INCONCLUSIVE, "; ".join(notes))
