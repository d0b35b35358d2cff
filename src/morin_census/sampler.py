"""Monte-Carlo machinery for probing the singularities of random maps.

The critical set of a homogeneous map is a cone of (projective) dimension
n - 2, so random affine lines hit it in deg J = sum(d_i - 1) isolated points.
This module locates those points (restrict J to a line, solve one univariate
polynomial), hunts the codimension-2 cusp stratum with bivariate resultant
elimination on random affine 2-planes, classifies everything with the jet
classifier, and aggregates survey statistics: the expected picture for a
generic map is that every off-origin singular point is A_1, A_2 or A_3, with
random line samples almost surely landing on the A_1 stratum.

All numerics are deterministic for a fixed seed: polynomial restriction uses
roots-of-unity interpolation (an inverse FFT), root finding is Durand-Kerner
simultaneous iteration from a fixed starting configuration, and the survey
derives per-map sub-seeds from a SeedSequence and runs the maps in order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .maps import HomogeneousMap, jdet, random_map, ray_multiplicity
from .morin import DEFAULT_TOL, classify, morin_tower
from .polynomials import COMPLEX, Polynomial
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
MAX_SWEEPS = 200
LINE_RESIDUAL_TOL = 1e-8
CUSP_RESIDUAL_TOL = 1e-9
MENU = ("A1", "A2", "A3")


class RootConvergenceError(RuntimeError):
    """Durand-Kerner failed to converge; carries the partial root estimates."""

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


def _initial_configuration(monic: np.ndarray) -> np.ndarray:
    """Starting points on annuli read off the Newton polygon of |coefficients|.

    The upper convex hull of (k, log|a_k|) estimates how the root moduli are
    distributed (Bini's initialization): each hull segment from index i to j
    contributes j - i roots of modulus |a_i / a_j|^(1/(j-i)).  This keeps the
    start close to the true annuli even when coefficient magnitudes span
    hundreds of orders, where a single Cauchy/Fujiwara circle stalls the
    iteration for hundreds of sweeps.
    """
    degree = monic.size - 1
    with np.errstate(divide="ignore"):
        logs = np.log(np.abs(monic))
    finite = [k for k in range(degree + 1) if np.isfinite(logs[k])]
    hull = []                      # indices of the upper convex hull
    for k in finite:
        while len(hull) >= 2:
            i, j = hull[-2], hull[-1]
            if (logs[j] - logs[i]) * (k - i) <= (logs[k] - logs[i]) * (j - i):
                hull.pop()
            else:
                break
        hull.append(k)
    radii = np.empty(degree)
    radii[: hull[0]] = 1e-3       # vanished low-order coefficients: roots at 0
    for i, j in zip(hull, hull[1:]):
        radii[i:j] = np.exp((logs[i] - logs[j]) / (j - i))
    angles = 2.0 * np.pi * (np.arange(degree) + 0.5) / degree + 0.4
    return radii * np.exp(1j * angles)


def univariate_roots(p, tol: float = ROOT_TOL, max_sweeps: int = MAX_SWEEPS) -> list[complex]:
    """All complex roots of a univariate polynomial, with multiplicity.

    Accepts a univariate Polynomial or an ascending coefficient sequence.
    Roots come from Durand-Kerner simultaneous iteration (deterministic
    Newton-polygon starting configuration, at most ``max_sweeps`` sweeps),
    declared converged when every residual clears the evaluation envelope,
    |p(z)| <= tol * sum_k |a_k| |z|^k -- the scale floating-point evaluation
    itself lives at -- or when the iterates stall at rounding level; roots
    are then polished by Newton steps kept only when they shrink the
    residual.  Non-convergence raises RootConvergenceError carrying the
    partial roots.  Multiple roots converge to a cluster whose radius grows
    like eps^(1/m) -- accuracy, not validity, degrades there, and the
    residual test still passes.
    """
    coeffs = _ascending_coeffs(p)
    scale = float(np.max(np.abs(coeffs))) if coeffs.size else 0.0
    if scale == 0.0:
        raise ValueError("zero polynomial has no roots to find")
    while coeffs.size > 1 and abs(coeffs[-1]) <= ROOT_TOL * scale:
        coeffs = coeffs[:-1]
    degree = coeffs.size - 1
    if degree < 1:
        raise ValueError("degree must be >= 1 after trimming the leading coefficient")
    monic = coeffs / coeffs[-1]
    desc = monic[::-1]                       # np.polyval wants descending
    absdesc = np.abs(desc)
    z = _initial_configuration(monic)

    def residuals_ok(zs: np.ndarray) -> bool:
        # two complementary acceptance scales: the evaluation envelope
        # sum |a_k||z|^k handles badly scaled coefficients, while the
        # geometric bound (1+|z|)^deg handles roots at the origin, where
        # the envelope ratio cannot shrink (e.g. p = x^m)
        vals = np.abs(np.polyval(desc, zs))
        envelope = np.polyval(absdesc, np.abs(zs))
        geometric = (1.0 + np.abs(zs)) ** degree
        return bool(np.all(vals <= tol * np.maximum(envelope, geometric)))

    converged = False
    for _ in range(max_sweeps):
        diffs = z[:, None] - z[None, :]
        np.fill_diagonal(diffs, 1.0)
        denom = np.prod(diffs, axis=1)
        denom = np.where(np.abs(denom) < 1e-300, 1e-300, denom)
        delta = np.polyval(desc, z) / denom
        # clamp each step to a fraction of the point's magnitude: at high
        # degree an outlying point can otherwise be thrown so far out that
        # the next evaluation overflows
        cap = 0.3 * (1.0 + np.abs(z))
        mag = np.abs(delta)
        delta = np.where(mag > cap, delta * (cap / np.where(mag > cap, mag, 1.0)), delta)
        z = z - delta
        if residuals_ok(z):
            converged = True
            break
        if np.all(np.abs(delta) <= 1e-15 * (1.0 + np.abs(z))):
            converged = residuals_ok(z)
            break
    if not converged and not residuals_ok(z):
        raise RootConvergenceError(
            f"Durand-Kerner did not converge in {max_sweeps} sweeps", z)
    dp = np.polyder(desc)
    for _ in range(3):
        vals = np.polyval(desc, z)
        slopes = np.polyval(dp, z)
        safe = np.abs(slopes) > 1e-30
        step = np.where(safe, vals / np.where(safe, slopes, 1.0), 0.0)
        candidate = z - step
        better = np.abs(np.polyval(desc, candidate)) < np.abs(vals)
        z = np.where(better, candidate, z)
    return [complex(v) for v in z]


# ---------------------------------------------------------------- line slicing
@dataclass(frozen=True)
class LineSection:
    """A polynomial restricted to the affine line t -> q1 + t*q2."""

    q1: tuple
    q2: tuple
    coefficients: tuple          # ascending in t

    def point(self, t: complex) -> tuple:
        return tuple(a + t * b for a, b in zip(self.q1, self.q2))


def _restrict_coeffs(P: Polynomial, q1: np.ndarray, q2: np.ndarray) -> np.ndarray:
    """Coefficients of t -> P(q1 + t*q2) by interpolation at roots of unity."""
    degree = P.total_degree()
    if degree is None:
        return np.zeros(1, dtype=complex)
    count = degree + 1
    nodes = np.exp(2j * np.pi * np.arange(count) / count)
    values = np.array([P.evaluate(q1 + t * q2) for t in nodes], dtype=complex)
    # sampling at exp(+2*pi*i*j/N) makes the forward DFT the interpolator
    return np.fft.fft(values) / count

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
    coeffs = _restrict_coeffs(P.as_complex(), a, b)
    return LineSection(tuple(a), tuple(b), tuple(complex(c) for c in coeffs))


def _phase_normalized(p: np.ndarray) -> tuple:
    """Unit norm and canonical phase: the largest coordinate is real positive."""
    p = p / np.linalg.norm(p)
    pivot = p[int(np.argmax(np.abs(p)))]
    p = p * (pivot.conjugate() / abs(pivot))
    return tuple(complex(v) for v in p)


def critical_points_on_lines(F: HomogeneousMap, lines: int, seed: int) -> list[tuple]:
    """Critical points of F found by slicing C(F) = {J = 0} with random lines.

    Each line contributes the roots of J restricted to it -- generically
    deg J = sum(d_i - 1) points, with multiplicity.  Points are returned at
    unit norm with canonical phase (C(F) is a cone, so rays are what matter)
    and only when they pass the residual check
    |J(p)| <= 1e-8 * (1 + ||p||)^deg J.
    """
    J = jdet(F).as_complex()
    if J.is_zero():
        raise ValueError("jdet(F) is identically zero; no critical cone to sample")
    deg = J.total_degree()
    rng = np.random.default_rng(seed)
    points: list[tuple] = []
    for _ in range(lines):
        while True:
            a = rng.standard_normal(F.n) + 1j * rng.standard_normal(F.n)
            b = rng.standard_normal(F.n) + 1j * rng.standard_normal(F.n)
            cross = abs(complex(a @ b.conj())) / (np.linalg.norm(a) * np.linalg.norm(b))
            if cross < 1.0 - 1e-12:
                break
        coeffs = _restrict_coeffs(J, a, b)
        try:
            roots = univariate_roots(coeffs)
        except RootConvergenceError as err:
            roots = err.roots
        for t in roots:
            p = np.asarray(a + t * b, dtype=complex)
            norm = np.linalg.norm(p)
            if norm < 1e-12:
                continue
            candidate = _phase_normalized(p)
            residual = abs(J.evaluate(candidate))
            if residual <= LINE_RESIDUAL_TOL * 2.0 ** deg:
                points.append(candidate)
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
    R(u) (degree <= deg P1 * deg P2 by Bezout), solve R, back-substitute for
    v, then polish each (u, v) candidate with Newton on the restricted 2x2
    system.  Survivors are reported at unit norm with both absolute residuals
    |P_k(point)|; anything above 1e-9 is dropped.
    """
    P1 = P1.as_complex()
    P2 = P2.as_complex()
    n = P1.n_vars
    d1, d2 = P1.total_degree(), P2.total_degree()
    if d1 is None or d2 is None or d1 < 1 or d2 < 1:
        raise ValueError("plane sections need two nonconstant polynomials")
    grads1 = P1.gradient()
    grads2 = P2.gradient()
    rng = np.random.default_rng(seed)
    out: list[SectionSolution] = []
    for _ in range(planes):
        for _attempt in range(20):
            q0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            q1 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            q2 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            # leading v-coefficients are the top forms at q2: constant in u
            lead1 = _restrict_coeffs(P1, q0, q2)[-1]
            lead2 = _restrict_coeffs(P2, q0, q2)[-1]
            if abs(lead1) > 1e-8 and abs(lead2) > 1e-8:
                break
        else:
            continue
        bezout = d1 * d2
        u_nodes = np.exp(2j * np.pi * np.arange(bezout + 1) / (bezout + 1))
        dets = []
        for u in u_nodes:
            c1 = _restrict_coeffs(P1, q0 + u * q1, q2)[::-1]
            c2 = _restrict_coeffs(P2, q0 + u * q1, q2)[::-1]
            rows = sylvester_matrix(list(c1), list(c2))
            dets.append(np.linalg.det(np.array(rows, dtype=complex)))
        dets = np.array(dets, dtype=complex)
        det_scale = float(np.max(np.abs(dets)))
        if det_scale == 0.0:
            continue        # the two curves look non-transverse on this plane
        # constant rescaling keeps the roots and tames the huge determinant
        # magnitudes a product of d1 + d2 sample values can reach
        r_coeffs = np.fft.fft(dets / det_scale) / len(dets)
        if float(np.max(np.abs(r_coeffs))) < 1e-13:
            continue
        try:
            u_roots = univariate_roots(r_coeffs)
        except (RootConvergenceError, ValueError):
            continue
        coeff_scale1 = max(abs(c) for c in P1.terms.values())
        coeff_scale2 = max(abs(c) for c in P2.terms.values())
        for u in u_roots:
            c1u = _restrict_coeffs(P1, q0 + u * q1, q2)
            c2u = _restrict_coeffs(P2, q0 + u * q1, q2)
            env1 = np.abs(c1u)[::-1]
            try:
                v_roots = univariate_roots(c2u)
            except (RootConvergenceError, ValueError):
                continue
            for v in v_roots:
                # spurious pairings from the elimination fail this test by a
                # wide relative margin; true pairs sit near the rounding floor
                # of the evaluation envelope sum_k |c_k| |v|^k
                if abs(np.polyval(np.asarray(c1u)[::-1], v)) > \
                        1e-6 * np.polyval(env1, abs(v)):
                    continue
                uu, vv = u, v
                for _ in range(20):
                    x = q0 + uu * q1 + vv * q2
                    f = np.array([P1.evaluate(x), P2.evaluate(x)], dtype=complex)
                    grow = (1.0 + float(np.linalg.norm(x)))
                    if abs(f[0]) <= 1e-15 * coeff_scale1 * grow ** d1 and \
                            abs(f[1]) <= 1e-15 * coeff_scale2 * grow ** d2:
                        break
                    jac = np.array(
                        [[sum(g.evaluate(x) * w for g, w in zip(grads1, q1)),
                          sum(g.evaluate(x) * w for g, w in zip(grads1, q2))],
                         [sum(g.evaluate(x) * w for g, w in zip(grads2, q1)),
                          sum(g.evaluate(x) * w for g, w in zip(grads2, q2))]],
                        dtype=complex)
                    try:
                        step = np.linalg.solve(jac, -f)
                    except np.linalg.LinAlgError:
                        break
                    uu, vv = uu + step[0], vv + step[1]
                x = np.asarray(q0 + uu * q1 + vv * q2, dtype=complex)
                if np.linalg.norm(x) < 1e-8:
                    continue
                candidate = _phase_normalized(x)
                res = (abs(P1.evaluate(candidate)), abs(P2.evaluate(candidate)))
                if max(res) >= CUSP_RESIDUAL_TOL:
                    continue
                if any(abs(1.0 - abs(np.vdot(np.asarray(candidate), np.asarray(s.point))))
                       < 1e-8 for s in out):
                    continue     # projective duplicate of an earlier solution
                out.append(SectionSolution(candidate, res))
    return out


def cusp_points(F: HomogeneousMap, planes: int, seed: int,
                tol: float = DEFAULT_TOL) -> list[SectionSolution]:
    """Cusp (A_2) points of F located by plane sections of {J = 0, J_{1,i*} = 0}.

    i* is the first index whose level-1 tower polynomial is not identically
    zero.  The variety {J = J_{1,i*} = 0} also contains fold points where the
    left-kernel covector of dF has vanishing i*-th coordinate (there J_{1,i}
    vanishes for the wrong reason), so every polished candidate is classified
    and only genuine A_2 points are returned; rejects are discarded, and an
    all-rejected plane budget simply yields an empty list.
    """
    if F.n != 4:
        raise ValueError("cusp hunting is implemented for n = 4")
    Fc = F.as_complex()
    tower = morin_tower(Fc, k_max=1)
    star = next((i for i in range(F.n) if not tower.level(1, i).is_zero()), None)
    if star is None:
        return []
    solutions = plane_section_solutions(tower.base, tower.level(1, star),
                                        planes, seed)
    kept = []
    for sol in solutions:
        if classify(Fc, sol.point, tol=tol).is_morin(2):
            kept.append(sol)
    return kept


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
    records = []
    for p in critical_points_on_lines(F, lines, line_seed):
        main, *others = [classify(F, p, tol=t) for t in (tol, tol * 10.0, tol / 10.0)]
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

    Every point is classified at tol and at tol*10, tol/10 (points whose
    verdict moves are counted as unstable), annotated with its ray
    multiplicity, and rolled into a histogram.  For n = 4 the report carries
    the count of off-origin points outside the expected {A_1, A_2, A_3} menu;
    all sampled points sit at unit norm, so the off-origin filter (norm >
    1e-6) is vacuous-by-construction but kept explicit.  Identical arguments
    give bit-identical reports: each map's sub-seeds come from a SeedSequence
    keyed on `seed`, and the maps run in order.
    """
    degrees = tuple(int(d) for d in degrees)
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
