"""Monte-Carlo machinery for probing the singularities of random maps.

The critical set of a homogeneous map is a cone of (projective) dimension
n - 2, so random affine lines hit it in deg J = sum(d_i - 1) isolated points.
This module locates those points (interpolate J on a line from det dF at
deg J + 1 nodes, solve one univariate polynomial), hunts the codimension-2
cusp stratum with bivariate resultant elimination on random affine 2-planes
(one batched Newton polish per plane, one classification pass per hunt),
classifies everything with the Morin classifier, and aggregates survey
statistics: the expected picture for a generic map is that every off-origin
singular point is A_1, A_2 or A_3, with random line samples almost surely
landing on the A_1 stratum.

All numerics are deterministic for a fixed seed: polynomial restriction uses
roots-of-unity interpolation (an inverse FFT), root finding takes the
eigenvalues of the companion matrix and checks them against the evaluation
envelope (the slicers keep estimates that miss it, and their residual tests
decide), and the survey derives per-map sub-seeds from a SeedSequence and
runs the maps in order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .maps import HomogeneousMap, jacobian, random_map, ray_multiplicity, validate_degrees
from .morin import DEFAULT_KMAX, DEFAULT_TOL, _chain, _classify_at, _evaluated
from .polynomials import COMPLEX, Polynomial, PolyMatrix
from .properness import sylvester_matrix

__all__ = [
    "RootConvergenceError",
    "LineSection",
    "SectionSolution",
    "univariate_roots",
    "restrict_to_line",
    "critical_points_on_lines",
    "plane_section_solutions",
    "cusp_points",
    "SurveyReport",
    "survey",
]

ROOT_TOL = 1e-12
LINE_RESIDUAL_TOL = 1e-8
CUSP_RESIDUAL_TOL = 1e-9
MENU = ("A1", "A2", "A3")


class RootConvergenceError(RuntimeError):
    """Some root misses the evaluation envelope; carries the root estimates."""

    def __init__(self, message: str, roots):
        super().__init__(message)
        self.roots = tuple(complex(z) for z in roots)


def _ascending_coeffs(p) -> np.ndarray:
    if isinstance(p, Polynomial):
        if p.n_vars != 1:
            raise ValueError("univariate_roots needs a univariate polynomial")
        degree = p.total_degree()
        if degree is None:
            raise ValueError("zero polynomial has no roots to find")
        out = np.zeros(degree + 1, dtype=complex)
        for exps, c in p.terms.items():
            out[exps[0]] = complex(c)
        return out
    return np.asarray(list(p), dtype=complex)


def univariate_roots(p) -> list[complex]:
    """All complex roots of a univariate polynomial, with multiplicity.

    Accepts a univariate Polynomial or an ascending coefficient sequence.
    Leading coefficients at or below ROOT_TOL of the largest are trimmed.
    Low-order coefficients that are exactly zero are stripped and come back
    as roots at 0, first in the list.  The other roots are the eigenvalues
    of the companion matrix of the monic polynomial (``np.roots``, backward
    stable), polished by three Newton steps each kept only when it shrinks
    the residual.  There is no iteration budget: the roots are accepted only
    when every residual clears the evaluation envelope,
    |p(z)| <= ROOT_TOL * sum_k |a_k| |z|^k (on the reversed polynomial at 1/z
    where |z| > 1), the scale floating-point evaluation itself lives at --
    and otherwise RootConvergenceError carries the polished estimates, the
    roots at 0 included.  Multiple roots come back as a cluster whose radius
    grows like eps^(1/m) -- accuracy, not validity, degrades there.
    """
    coeffs = _ascending_coeffs(p)
    scale = float(np.max(np.abs(coeffs))) if coeffs.size else 0.0
    if scale == 0.0:
        raise ValueError("zero polynomial has no roots to find")
    while coeffs.size > 1 and abs(coeffs[-1]) <= ROOT_TOL * scale:
        coeffs = coeffs[:-1]
    if coeffs.size < 2:
        raise ValueError("degree must be >= 1 after trimming the leading coefficient")
    at_origin = [0j] * int(np.argmax(coeffs != 0))
    coeffs = coeffs[len(at_origin):]
    degree = coeffs.size - 1
    if degree == 0:
        return at_origin
    desc = (coeffs / coeffs[-1])[::-1]       # monic, descending for np.polyval
    z = np.roots(desc)
    dp = np.polyder(desc)
    # far out a slope or a stepped value may overflow to inf/nan: no step then
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(3):
            vals = np.polyval(desc, z)
            slopes = np.polyval(dp, z)
            safe = np.abs(slopes) > 1e-30
            step = np.where(safe, vals / np.where(safe, slopes, 1.0), 0.0)
            candidate = z - step
            better = np.abs(np.polyval(desc, candidate)) < np.abs(vals)
            z = np.where(better, candidate, z)
    # where |z| > 1 test the reversed polynomial at 1/z: both sides shrink by
    # |z|^degree, so nothing overflows; a NaN counts as outside (negated <=)
    inner = np.abs(z) <= 1.0
    w = np.where(inner, z, 1.0 / np.where(inner, 1.0, z))
    clears = [np.abs(np.polyval(c, w)) <= ROOT_TOL * np.polyval(np.abs(c), np.abs(w))
              for c in (desc, desc[::-1])]
    outside = ~np.where(inner, *clears)
    if np.any(outside):
        raise RootConvergenceError(
            f"{int(np.sum(outside))} of {degree} roots miss the evaluation envelope",
            at_origin + list(z))
    return at_origin + [complex(v) for v in z]


def _roots(coeffs) -> np.ndarray:
    """The slicers' roots of ascending `coeffs`: estimates that miss the envelope
    are kept for the caller's residual test, and nothing left to solve gives none."""
    try:
        return np.asarray(univariate_roots(coeffs), dtype=complex)
    except RootConvergenceError as err:
        return np.asarray(err.roots, dtype=complex)
    except ValueError:
        return np.empty(0, dtype=complex)


# ---------------------------------------------------------------- line slicing
@dataclass(frozen=True)
class LineSection:
    """A polynomial restricted to the affine line t -> q1 + t*q2."""

    q1: tuple
    q2: tuple
    coefficients: tuple          # ascending in t

    def point(self, t: complex) -> tuple:
        return tuple(a + t * b for a, b in zip(self.q1, self.q2))


def _line_nodes(q1: np.ndarray, q2: np.ndarray, degree: int) -> np.ndarray:
    """The degree + 1 points q1 + w*q2, w the roots of unity, that interpolate on the line."""
    count = degree + 1
    return q1 + np.exp(2j * np.pi * np.arange(count) / count)[:, None] * q2


def _interpolate(values: np.ndarray) -> np.ndarray:
    """Ascending coefficients in t from the values at ``_line_nodes``."""
    # sampling at exp(+2*pi*i*j/N) makes the forward DFT the interpolator
    return np.fft.fft(values) / len(values)


def _restrict_coeffs(P: Polynomial, q1: np.ndarray, q2: np.ndarray) -> np.ndarray:
    """Coefficients of t -> P(q1 + t*q2) by interpolation at roots of unity."""
    degree = P.total_degree()
    if degree is None:
        return np.zeros(1, dtype=complex)
    return _interpolate(P.evaluate(_line_nodes(q1, q2, degree)))

def restrict_to_line(P: Polynomial, q1: Sequence, q2: Sequence) -> LineSection:
    """Restrict P to the line through q1 with direction q2.

    The spanning data must be linearly independent; the restricted polynomial
    is recovered exactly (up to rounding) from deg(P) + 1 samples on the line
    via the inverse FFT, since the sample nodes are roots of unity.
    """
    a = np.asarray(q1, dtype=complex)
    b = np.asarray(q2, dtype=complex)
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0 or nb == 0 or np.linalg.norm(a / na - (a @ b.conj()) / (na * nb ** 2) * b) < 1e-10:
        raise ValueError("line spanning points must be linearly independent")
    coeffs = _restrict_coeffs(P, a, b)
    return LineSection(tuple(a), tuple(b), tuple(complex(c) for c in coeffs))


def _jacobian_dets(jac, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """J = det dF at the points, and the Hadamard bound prod_i ||row i of dF|| on |J|.

    The rows are scaled to unit norm before the elimination, so their very
    different scales (row i grows like ||x||^(d_i - 1)) cost no accuracy.
    """
    differentials = _evaluated(jac, points)
    norms = np.linalg.norm(differentials, axis=-1)
    norms = np.where(norms > 0.0, norms, 1.0)       # a zero row: J = 0 all the same
    hadamard = np.prod(norms, axis=-1)
    return np.linalg.det(differentials / norms[..., None]) * hadamard, hadamard


def _phase_normalized(p: np.ndarray) -> tuple:
    """Unit norm and canonical phase: the largest coordinate is real positive."""
    p = p / np.linalg.norm(p)
    pivot = p[int(np.argmax(np.abs(p)))]
    p = p * (pivot.conjugate() / abs(pivot))
    return tuple(complex(v) for v in p)


def critical_points_on_lines(F: HomogeneousMap, lines: int, seed: int) -> list[tuple]:
    """Critical points of F found by slicing C(F) = {J = 0} with random lines.

    Each line contributes the roots of J restricted to it -- generically
    deg J = sum(d_i - 1) points, with multiplicity.  J on the line is
    interpolated from its values det dF at deg J + 1 nodes, with each entry
    of ``jacobian(F)`` evaluated on all the nodes at once; the symbolic
    ``jdet(F)`` is never built.  J counts as identically zero, a ValueError,
    when every node value on a line is within rounding of zero: at most
    n * eps times the product of the row norms of dF, the Hadamard bound on
    |det dF|.  Each root is then polished by Newton steps on det dF itself,
    each kept only where it shrinks |J|, until no root's |J| shrinks (at most
    20 steps).  Points are returned at unit norm with
    canonical phase (C(F) is a cone, so rays are what matter) and only when
    they pass the residual check |J(p)| <= 1e-8 * (1 + ||p||)^deg J.
    """
    jac = jacobian(F)
    deg = sum(d - 1 for d in F.degrees)      # deg J, unless J is identically zero
    rng = np.random.default_rng(seed)
    points: list[tuple] = []
    for _ in range(lines):
        while True:
            a = rng.standard_normal(F.n) + 1j * rng.standard_normal(F.n)
            b = rng.standard_normal(F.n) + 1j * rng.standard_normal(F.n)
            cross = abs(complex(a @ b.conj())) / (np.linalg.norm(a) * np.linalg.norm(b))
            if cross < 1.0 - 1e-12:
                break
        values, hadamard = _jacobian_dets(jac, _line_nodes(a, b, deg))
        if np.all(np.abs(values) <= F.n * np.finfo(float).eps * hadamard):
            raise ValueError("jdet(F) is identically zero; no critical cone to sample")
        coeffs = _interpolate(values)
        roots = _roots(coeffs)
        # Newton on J itself, with the interpolant's slope: the interpolant
        # carries noise of eps * max |J| on the nodes, which near the origin
        # (where some lines pass) is far above J and moves its roots
        j = _jacobian_dets(jac, a + roots[:, None] * b)[0]
        slopes = np.polyder(coeffs[::-1])
        for _ in range(20):
            slope = np.polyval(slopes, roots)
            stepped = roots - j / np.where(slope != 0, slope, 1.0)
            j_stepped = _jacobian_dets(jac, a + stepped[:, None] * b)[0]
            better = np.abs(j_stepped) < np.abs(j)
            if not better.any():
                break
            roots, j = np.where(better, stepped, roots), np.where(better, j_stepped, j)
        x = a + roots[:, None] * b
        norms = np.linalg.norm(x, axis=1)
        # J is homogeneous: |J(x / ||x||)| = |J(x)| / ||x||^deg
        kept = (norms >= 1e-12) & (np.abs(j) <= LINE_RESIDUAL_TOL * 2.0 ** deg * norms ** deg)
        points += [_phase_normalized(p) for p in x[kept]]
    return points


# ---------------------------------------------------------------- plane slicing
@dataclass(frozen=True)
class SectionSolution:
    """A polished common zero of two polynomials found on an affine 2-plane."""

    point: tuple                  # unit norm, canonical phase
    residuals: tuple              # (|P1(point)|, |P2(point)|)


def plane_section_solutions(P1: Polynomial, P2: Polynomial, planes: int,
                            seed: int) -> list[SectionSolution]:
    """Common zeros of {P1, P2} on random affine 2-planes, polished by Newton.

    Per plane: restrict both polynomials to x = q0 + u*q1 + v*q2, eliminate v
    with per-sample Sylvester determinants interpolated into the resultant
    R(u) (degree <= deg P1 * deg P2 by Bezout), solve R, solve for v at each
    root u, and polish all the (u, v) pairs at once with up to 20 Newton
    steps on the restricted 2x2 system.  Survivors are reported at unit norm
    with both absolute residuals |P_k(point)|; anything above 1e-9 is dropped.
    """
    n = P1.n_vars
    d1, d2 = P1.total_degree(), P2.total_degree()
    if d1 is None or d2 is None or d1 < 1 or d2 < 1:
        raise ValueError("plane sections need two nonconstant polynomials")
    system = PolyMatrix.from_rows([[P] + P.gradient() for P in (P1, P2)])
    # a candidate stops once |P_k| <= 1e-15 * max|coefficient of P_k| * (1 + ||x||)^d_k
    scales = 1e-15 * np.array([max(abs(c) for c in P.terms.values()) for P in (P1, P2)])
    u_nodes = np.exp(2j * np.pi * np.arange(d1 * d2 + 1) / (d1 * d2 + 1))

    def restricted(base, direction):      # ascending coefficients of P1 and P2 on the line
        return [_interpolate(P.evaluate(_line_nodes(base, direction, d)))
                for P, d in ((P1, d1), (P2, d2))]

    rng = np.random.default_rng(seed)
    out: list[SectionSolution] = []
    rays = np.empty((0, n), dtype=complex)
    for _ in range(planes):
        for _attempt in range(20):
            q0, q1, q2 = (rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(3))
            # leading v-coefficients are the top forms at q2: constant in u
            if all(abs(c[-1]) > 1e-8 for c in restricted(q0, q2)):
                break
        else:
            continue
        dets = []
        for u in u_nodes:
            c1, c2 = restricted(q0 + u * q1, q2)
            rows = sylvester_matrix(list(c1[::-1]), list(c2[::-1]))
            dets.append(np.linalg.det(np.array(rows, dtype=complex)))
        det_scale = float(np.max(np.abs(dets)))
        if det_scale == 0.0:
            continue        # the two curves look non-transverse on this plane
        pairs = []
        # constant rescaling keeps the roots and tames the huge determinant
        # magnitudes a product of d1 + d2 sample values can reach
        for u in _roots(_interpolate(np.array(dets) / det_scale)):
            c1, c2 = restricted(q0 + u * q1, q2)
            v = _roots(c2)
            # spurious pairings from the elimination fail this test by a wide
            # relative margin; true pairs sit near the rounding floor of the
            # evaluation envelope sum_k |c_k| |v|^k
            paired = (np.abs(np.polyval(c1[::-1], v))
                      <= 1e-6 * np.polyval(np.abs(c1[::-1]), np.abs(v)))
            pairs += [(u, root) for root in v[paired]]
        uv = np.array(pairs, dtype=complex).reshape(-1, 2)
        plane = np.array([q1, q2])                    # dx / d(u, v)
        moving = np.arange(len(uv))
        for _ in range(20):
            x = q0 + uv[moving] @ plane
            values = _evaluated(system, x)            # row k: P_k and its gradient
            f, jac = values[:, :, 0], values[:, :, 1:] @ plane.T
            bound = scales * (1.0 + np.linalg.norm(x, axis=1))[:, None] ** [d1, d2]
            # a candidate also stops on a singular system
            keep = ~np.all(np.abs(f) <= bound, axis=1) & (np.linalg.det(jac) != 0.0)
            moving, f, jac = moving[keep], f[keep], jac[keep]
            if not moving.size:
                break
            uv[moving] += np.linalg.solve(jac, -f[..., None])[..., 0]
        x = q0 + uv @ plane
        points = np.array([_phase_normalized(p) for p in x[np.linalg.norm(x, axis=1) >= 1e-8]],
                          dtype=complex).reshape(-1, n)
        residuals = np.abs([P1.evaluate(points), P2.evaluate(points)]).T
        small = np.max(residuals, axis=1) < CUSP_RESIDUAL_TOL
        for p, res in zip(points[small], residuals[small]):
            if np.any(np.abs(1.0 - np.abs(rays.conj() @ p)) < 1e-8):
                continue     # projective duplicate of an earlier solution
            rays = np.vstack([rays, p])
            out.append(SectionSolution(tuple(complex(c) for c in p), tuple(map(float, res))))
    return out


def cusp_points(F: HomogeneousMap, planes: int, seed: int) -> list[SectionSolution]:
    """Cusp (A_2) points of F located by plane sections of {J = 0, J_{1,i*} = 0}.

    i* is the first index whose level-1 tower polynomial is not identically
    zero; the Morin chains are pulled one at a time, stopping at i*.  The
    variety {J = J_{1,i*} = 0} also contains fold points where the left-kernel
    covector of dF has vanishing i*-th coordinate (there J_{1,i} vanishes for
    the wrong reason), so the polished candidates are classified, all in one
    pass over F's partials, and only genuine A_2 points (at DEFAULT_TOL) are
    returned; rejects are discarded, and an all-rejected plane budget simply
    yields an empty list.
    """
    if F.n != 4:
        raise ValueError("cusp hunting is implemented for n = 4")
    Fc = F.as_complex()
    jac = jacobian(Fc)
    J = jac.det()
    level1 = next((L for i in range(F.n) for L in _chain(jac, J, i, 1) if not L.is_zero()),
                  None)
    if level1 is None:
        return []
    solutions = plane_section_solutions(J, level1, planes, seed)
    verdicts = _classify_at(Fc, [s.point for s in solutions], (DEFAULT_TOL,), DEFAULT_KMAX)
    return [s for s, (verdict,) in zip(solutions, verdicts) if verdict.is_morin(2)]


# ---------------------------------------------------------------- survey
@dataclass(frozen=True)
class SurveyReport:
    """Aggregated classification statistics over random maps and lines."""

    degrees: tuple
    seed: int
    maps: int
    lines: int
    points_found: int
    histogram: dict
    outside_menu: int | None       # None when n != 4 (menu check disabled)
    fraction_a1: float
    unstable: int
    points: tuple

    def to_dict(self) -> dict:
        return {
            "degrees": list(self.degrees),
            "seed": self.seed,
            "maps": self.maps,
            "lines": self.lines,
            "points_found": self.points_found,
            "histogram": {k: self.histogram[k] for k in sorted(self.histogram)},
            "outside_menu": self.outside_menu,
            "fraction_a1": self.fraction_a1,
            "unstable": self.unstable,
            "points": list(self.points),
        }


def _complex_pairs(p) -> list[list[float]]:
    return [[complex(v).real, complex(v).imag] for v in p]


def _survey_one_map(degrees, map_seed: int, line_seed: int, lines: int,
                    tol: float) -> list[dict]:
    F = random_map(degrees, seed=map_seed, kind=COMPLEX)
    deg_j = sum(d - 1 for d in degrees)
    points = critical_points_on_lines(F, lines, line_seed)
    verdicts = _classify_at(F, points, (tol, tol * 10.0, tol / 10.0), DEFAULT_KMAX)
    records = []
    for p, (main, *others) in zip(points, verdicts):
        stable = all(v.label == main.label for v in others)
        mult = ray_multiplicity(F, p)
        records.append({
            "point": _complex_pairs(p),
            "class": main.to_dict(),
            "ray_multiplicity": None if math.isinf(mult) else int(mult),
            "residuals": {"jdet": main.diagnostics["abs_jdet"],
                          "threshold": LINE_RESIDUAL_TOL * 2.0 ** deg_j},
            "stable": stable,
        })
    return records


def survey(degrees: Sequence[int], maps: int, lines: int, seed: int,
           tol: float = DEFAULT_TOL) -> SurveyReport:
    """Classify line-sampled critical points of `maps` random maps.

    Each point is decided at tol, tol*10 and tol/10 on one set of tower
    values (points whose verdict moves are counted as unstable), annotated
    with its ray multiplicity, and rolled into a histogram; a map's partials
    are evaluated once, on all of its points.  For n = 4 the report carries
    the count of off-origin points outside the expected {A_1, A_2, A_3} menu;
    all sampled points sit at unit norm, so the off-origin filter (norm >
    1e-6) is vacuous-by-construction but kept explicit.  Identical arguments
    give bit-identical reports: each map's sub-seeds come from a SeedSequence
    keyed on `seed`, and the maps run in order.
    """
    degrees = validate_degrees(degrees)
    state = np.random.SeedSequence(seed).generate_state(2 * max(maps, 1), dtype=np.uint64)
    points = [rec for m in range(maps)
              for rec in _survey_one_map(degrees, int(state[2 * m]), int(state[2 * m + 1]),
                                         lines, tol)]
    histogram: dict[str, int] = {}
    unstable = 0
    outside = 0
    a1 = 0
    for rec in points:
        label = rec["class"]["class"]
        histogram[label] = histogram.get(label, 0) + 1
        if not rec["stable"]:
            unstable += 1
        norm = math.sqrt(sum(re * re + im * im for re, im in rec["point"]))
        if norm > 1e-6 and label not in MENU:
            outside += 1
        if label == "A1":
            a1 += 1
    fraction_a1 = a1 / len(points) if points else 0.0
    return SurveyReport(
        degrees=degrees,
        seed=seed,
        maps=maps,
        lines=lines,
        points_found=len(points),
        histogram=histogram,
        outside_menu=outside if len(degrees) == 4 else None,
        fraction_a1=fraction_a1,
        unstable=unstable,
        points=tuple(points),
    )
