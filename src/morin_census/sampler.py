"""Monte-Carlo machinery for probing the singularities of random maps.

The critical set of a homogeneous map is a cone of (projective) dimension
n - 2, so random affine lines hit it in deg J = sum(d_i - 1) isolated points.
This module locates those points (interpolate J on a line from det dF at
deg J + 1 nodes, solve one univariate polynomial), hunts the codimension-2
cusp stratum of maps with n >= 3 on random affine 2-planes with orthonormal
frames (J and J_{1,i*} evaluated on one grid per plane, v eliminated into
the resultant R(u), v read off the kernel of the Sylvester matrix at each
root u, one classification pass per hunt), classifies everything with the Morin
classifier, and aggregates survey statistics: the expected picture for a
generic map is that every off-origin singular point is A_1, A_2 or A_3, with
random line samples almost surely landing on the A_1 stratum.  No path here
builds a determinant polynomial: J, the first tower level and the cusp
candidates' second are read off F's evaluated partials (the one
``morin.Partials`` each map keeps) by the classifier's rules, J(p) included.

All numerics are deterministic for a fixed seed: restriction to a line or a
plane is roots-of-unity interpolation of values (an FFT, 2-D on planes), root
finding takes the eigenvalues of one companion matrix (a line's J, a plane's
R(u)), a plane's v-values come from one batched linear solve, and the survey
derives per-map sub-seeds from a SeedSequence and runs the maps in order.
Roots, line points and plane pairs are all polished by
``linalg.newton_polish``.  A float value is zero when it is at most ROOT_TOL
times its own bound (a root's evaluation envelope, the Hadamard bound on
det dF, a plane function's coefficient envelope), so a constant factor on F
changes no answer.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .linalg import POLISH_STEPS, newton_polish, sylvester_matrix
from .maps import (HomogeneousMap, UsageError, random_map, ray_multiplicity, validate_count,
                   validate_degrees)
from .morin import (DEFAULT_KMAX, DEFAULT_TOL, _adjugate_norms, _classify_at, _jacobian_dets,
                    _level_one, _partials_of, _survives, validate_tol)
from .polynomials import COMPLEX, ROOT_TOL, Polynomial

__all__ = [
    "RootConvergenceError",
    "SectionSolution",
    "univariate_roots",
    "critical_points_on_lines",
    "plane_section_solutions",
    "cusp_points",
    "SurveyReport",
    "survey",
]

MENU = ("A1", "A2", "A3")


class RootConvergenceError(RuntimeError):
    """Some root misses the evaluation envelope; carries the root estimates."""

    def __init__(self, message: str, roots):
        super().__init__(message)
        self.roots = tuple(complex(z) for z in roots)


def univariate_roots(p) -> list[complex]:
    """All complex roots of a univariate polynomial, with multiplicity.

    Accepts a univariate Polynomial or an ascending coefficient sequence; a
    coefficient that is not finite is a ValueError that names it.  Only
    leading coefficients that are exactly zero are trimmed: a tiny nonzero
    one stands for huge roots, and they come back like the others.
    Low-order coefficients that are exactly zero are stripped and come back
    as roots at 0, first in the list.  The other roots are the eigenvalues
    of the monic polynomial's companion matrix, laid out as ``np.roots``
    lays it out (one ``np.linalg.eigvals`` call, backward stable), polished
    by three steps of ``newton_polish`` (a start at a zero slope gets a
    non-finite step and stays).  The step count decides nothing: the roots
    are accepted only when every residual clears the envelope
    |p(z)| <= ROOT_TOL * sum_k |a_k| |z|^k (on the reversed polynomial at 1/z
    where |z| > 1), the one float zero rule the slicers' points pass too --
    and otherwise RootConvergenceError carries the polished estimates, the
    roots at 0 included.  Multiple roots come back as a cluster whose radius
    grows like eps^(1/m) -- accuracy, not validity, degrades there.
    """
    if isinstance(p, Polynomial):
        if p.n_vars != 1:
            raise ValueError("univariate_roots needs a univariate polynomial")
        p = [p.coefficient((k,)) for k in range((p.total_degree() or 0) + 1)]
    coeffs = np.asarray(list(p), dtype=complex)
    bad = np.flatnonzero(~np.isfinite(coeffs))
    if bad.size:
        raise ValueError(f"coefficients of degree {bad.tolist()} are not finite: "
                         f"{coeffs[bad].tolist()}")
    if not np.any(coeffs):
        raise ValueError("zero polynomial has no roots to find")
    coeffs = coeffs[:int(np.flatnonzero(coeffs)[-1]) + 1]
    if coeffs.size < 2:
        raise ValueError("degree must be >= 1 after trimming the zero leading coefficients")
    at_origin = [0j] * int(np.argmax(coeffs != 0))
    coeffs = coeffs[len(at_origin):]
    degree = coeffs.size - 1
    if degree == 0:
        return at_origin
    desc = (coeffs / coeffs[-1])[::-1]       # monic, descending for np.polyval
    companion = np.diag(np.ones(degree - 1, dtype=complex), -1)
    companion[0] = -desc[1:]                 # ``np.roots``' layout
    slope = np.polyder(desc)
    z, _ = newton_polish(np.linalg.eigvals(companion), lambda z: np.polyval(desc, z),
                         lambda z, vals: vals / np.polyval(slope, z), steps=3)
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
    are kept for the caller's test after Newton, and nothing left to solve gives none."""
    try:
        return np.asarray(univariate_roots(coeffs), dtype=complex)
    except RootConvergenceError as err:
        return np.asarray(err.roots, dtype=complex)
    except ValueError:
        return np.empty(0, dtype=complex)


# ---------------------------------------------------------------- line slicing
def _line_nodes(q1: np.ndarray, q2: np.ndarray, degree: int) -> np.ndarray:
    """The degree + 1 points q1 + w*q2, w the roots of unity, that interpolate on the line."""
    count = degree + 1
    return q1 + np.exp(2j * np.pi * np.arange(count) / count)[:, None] * q2


def _interpolate(values: np.ndarray) -> np.ndarray:
    """Ascending coefficients in t from the values at ``_line_nodes``."""
    # sampling at exp(+2*pi*i*j/N) makes the forward DFT the interpolator
    return np.fft.fft(values) / len(values)


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
    of dF evaluated on all the nodes at once (from the ``morin.Partials``
    that F keeps); the symbolic ``jdet(F)`` is never built.  J counts as
    identically zero, a ValueError, when every node value on a line is
    within rounding of zero: at most n * eps times the product of the row
    norms of dF, the Hadamard bound on |det dF|.  The roots are polished by ``newton_polish`` on det dF itself
    with the interpolant's slope (at most POLISH_STEPS = 20 steps), and a
    root is a point when |J| <= ROOT_TOL times the Hadamard bound there, a
    test no constant factor on F moves.  Points are returned at unit norm
    with canonical phase (C(F) is a cone, so rays are what matter).
    `lines` < 0 is a ValueError.
    """
    validate_count(lines, "lines")
    partials = _partials_of(F)
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
        values, hadamard = _jacobian_dets(partials.at(_line_nodes(a, b, deg), 1))
        if np.all(np.abs(values) <= F.n * np.finfo(float).eps * hadamard):
            raise ValueError("jdet(F) is identically zero; no critical cone to sample")
        coeffs = _interpolate(values)
        # Newton on J itself, with the interpolant's slope: the interpolant
        # carries noise of eps * max |J| on the nodes, which near the origin
        # (where some lines pass) is far above J and moves its roots
        slopes = np.polyder(coeffs[::-1])
        roots, _ = newton_polish(
            _roots(coeffs), lambda t: _jacobian_dets(partials.at(a + t[:, None] * b, 1))[0],
            lambda t, j: j / np.polyval(slopes, t), POLISH_STEPS)
        x = a + roots[:, None] * b
        j, hadamard = _jacobian_dets(partials.at(x, 1))
        norms = np.linalg.norm(x, axis=1)
        kept = (norms >= 1e-12) & (np.abs(j) <= ROOT_TOL * hadamard)
        points += [_phase_normalized(p) for p in x[kept]]
    return points


# ---------------------------------------------------------------- plane slicing
@dataclass(frozen=True)
class SectionSolution:
    """A polished common zero of two functions found on an affine 2-plane."""

    point: tuple                  # unit norm, canonical phase
    residuals: tuple              # |values(point)|: the two functions' moduli there


def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with a x = b for a stack of square `a` and vectors `b`, NaN where a member's
    determinant is 0 or NaN: one exactly singular member would make
    ``np.linalg.solve`` raise for the whole stack."""
    with np.errstate(invalid="ignore"):         # a non-finite member has a NaN det
        singular = ~(np.abs(np.linalg.det(a)) > 0.0)
    a = np.where(singular[..., None, None], np.nan, a)
    return np.linalg.solve(a, b[..., None])[..., 0]


def plane_section_solutions(values, degrees: Sequence[int], n: int, planes: int,
                            seed: int) -> list[SectionSolution]:
    """Common zeros of two functions on random affine 2-planes, polished by Newton.

    `values` maps (N, n) points to (N, 2) values of two polynomials of total
    degrees at most `degrees` = (d1, d2).  Each plane x = q0 + u*q1 + v*q2
    has an orthonormal frame (the QR of a Gaussian n x 3 frame).  The
    functions are evaluated once, on the grid of u, v among the (d+1)-th
    roots of unity (d = max(d1, d2)), and one 2-D FFT gives C[a, b, k], the
    coefficient of u^a v^b in function k.  Each function's C is divided by
    its largest modulus (a plane where a top-form coefficient is within
    ROOT_TOL of it is redrawn), and v is eliminated by the Sylvester
    matrices S(u) in v: their determinants at d1*d2 + 1 u-nodes interpolate
    R(u) (degree <= d1 * d2 by Bezout).  At a root u, S(u) w = 0 for the
    descending Vandermonde vector w = (..., v, 1) of the common root v, so v
    is read off S(u)'s kernel: S(u) without its first row is square in w's
    other entries, and one batched linear solve per plane gives every v (a
    root u whose system is singular or not finite gives none).  Every pair
    (u, v) is polished by ``newton_polish`` on the true values with the
    interpolant's slopes (a singular 2x2 system gives a NaN step; at most
    POLISH_STEPS = 20 steps); no cut pairs the roots before that.  A pair is
    a solution when each |f_k| is at most ROOT_TOL times the plane's own
    evaluation envelope sum_ab |C[a, b, k]| |u|^a |v|^b there, so a constant
    factor on either function changes nothing.  Solutions are reported at
    unit norm with both absolute residuals, one per ray.  `planes` < 0 is a
    ValueError, and so is n < 3: the frame needs three orthonormal vectors.
    """
    validate_count(planes, "planes")
    if n < 3:
        raise ValueError(f"plane sections need n >= 3 variables, got n = {n}")
    d1, d2 = degrees
    if d1 < 1 or d2 < 1:
        raise ValueError("plane sections need two nonconstant polynomials")
    d = max(d1, d2)
    powers = np.arange(d + 1)
    grid = np.exp(2j * np.pi * powers / (d + 1))
    # monomials u^a v^b of function k have a + b <= d_k: the rest is rounding
    support = np.add.outer(powers, powers)[..., None] <= np.array([d1, d2])
    u_nodes = np.exp(2j * np.pi * np.arange(d1 * d2 + 1) / (d1 * d2 + 1))
    rng = np.random.default_rng(seed)
    out: list[SectionSolution] = []
    rays = np.empty((0, n), dtype=complex)
    for _ in range(planes):
        for _attempt in range(20):
            frame = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
            q0, q1, q2 = np.linalg.qr(frame)[0].T
            x = q0 + grid[:, None, None] * q1 + grid[:, None] * q2
            coeffs = np.fft.fft2(values(x.reshape(-1, n)).reshape(d + 1, d + 1, 2),
                                 axes=(0, 1)) / (d + 1) ** 2
            coeffs = np.where(support, coeffs, 0.0)
            # unit-scale blocks change R(u) by a constant factor, and the pivoting
            # loses no digits to the gap between the functions' magnitudes (a
            # function that vanishes on the grid stays 0 and fails the check below)
            balanced = coeffs / np.max(np.abs(coeffs), axis=(0, 1), initial=np.finfo(float).tiny)
            # leading v-coefficients are the top forms at q2: constant in u
            if np.all(np.abs(balanced[0, [d1, d2], [0, 1]]) > ROOT_TOL):
                break
        else:
            continue

        def sylvester(u):
            """S(u) in v at each u, the second function's d1 rows on top, descending in v."""
            c = np.einsum("ua,abk->ubk", np.power.outer(u, powers), balanced)
            return sylvester_matrix(c[:, d1::-1, 0], c[:, d2::-1, 1])

        dets = np.linalg.det(sylvester(u_nodes))
        det_scale = float(np.max(np.abs(dets)))
        if det_scale == 0.0:
            continue        # the two curves look non-transverse on this plane
        # constant rescaling keeps the roots and tames the huge determinant
        # magnitudes a product of d1 + d2 coefficients can reach
        u = _roots(_interpolate(dets / det_scale))
        kernel = sylvester(u)[:, 1:]
        v = _solve(kernel[..., :-1], -kernel[..., -1])[:, -1]
        pairs = np.stack([u, v], axis=-1)[np.isfinite(v)]
        plane = np.array([q1, q2])                    # dx / d(u, v)
        slopes = [np.polynomial.polynomial.polyder(coeffs, axis=axis) for axis in (0, 1)]

        def newton_step(uv, f):
            # jac[m, k, j]: d f_k / d(u, v)_j from the interpolant
            jac = np.stack([np.polynomial.polynomial.polyval2d(*uv.T, s) for s in slopes],
                           axis=-1).transpose(1, 0, 2)
            return _solve(jac, f)

        uv, f = newton_polish(pairs, lambda uv: values(q0 + uv @ plane), newton_step,
                              POLISH_STEPS)
        x = q0 + uv @ plane
        envelope = np.polynomial.polynomial.polyval2d(*np.abs(uv).T, np.abs(coeffs)).T
        kept = np.all(np.abs(f) <= ROOT_TOL * envelope, axis=1)
        points = np.array([_phase_normalized(p) for p in x[kept]], dtype=complex).reshape(-1, n)
        for p, res in zip(points, np.abs(values(points))):
            if np.any(np.abs(1.0 - np.abs(rays.conj() @ p)) < 1e-8):
                continue     # projective duplicate of an earlier solution
            rays = np.vstack([rays, p])
            out.append(SectionSolution(tuple(complex(c) for c in p), tuple(map(float, res))))
    return out


def cusp_points(F: HomogeneousMap, planes: int, seed: int) -> list[SectionSolution]:
    """Cusp (A_2) points of F located by plane sections of {J = 0, J_{1,i*} = 0}.

    J and J_{1,i} come from F's evaluated partials (``morin._level_one``; the
    one ``morin.Partials`` the map keeps serves the probe, the planes and the
    classifier), and i* is the first i whose J_{1,i} does not vanish, by the
    classifier's rule, at one seeded random point; deg J_{1,i} = 2 deg J -
    d_i.  A generic plane meets the cusp locus (at n = 3, all its rays) in
    Tp(A_2) = c1^2 + c2 points (Ronga), and the plane system has d1 * d2
    solutions in all: the rest are fold points where the left-kernel
    covector of dF has vanishing i*-th coordinate (there J_{1,i} vanishes for
    the wrong reason).  Every pair the slicer reads off its Sylvester kernels
    is polished, and the polished candidates are classified, all in one pass
    over F's partials (level 2 too: the hunt builds no jet and no determinant
    polynomial); only genuine A_2 points (at DEFAULT_TOL) are returned.  A
    plane can give fewer than Tp(A_2) of them, where Newton does not reach a
    solution from its start; rejects are discarded, and an all-rejected plane
    budget simply yields an empty list.  The slicer's envelope test keeps no
    scale of F in the residual cut; the step test of ``newton_polish``, max_k
    |f_k|, still mixes the scales of J and J_{1,i*}.  `planes` < 0 is a
    ValueError, and n < 3 a UsageError: a generic map of C^2 has no cusp ray.
    """
    if F.n < 3:
        raise UsageError(f"a generic map of C^{F.n} has no cusp ray: cusp hunting needs n >= 3")
    validate_count(planes, "planes")
    partials = _partials_of(F)
    rng = np.random.default_rng(seed)
    point = rng.standard_normal((1, F.n)) + 1j * rng.standard_normal((1, F.n))
    probe = _level_one(partials, point)
    v = probe.values[0]
    live = np.flatnonzero(_survives(np.hypot(v.real, v.imag), np.linalg.norm(probe.grad, axis=-1),
                                    _adjugate_norms(probe.s), DEFAULT_TOL))
    if not live.size:
        return []           # level 1 vanishes identically, J = 0 included
    i = int(live[0])

    def values(x):
        one = _level_one(partials, x)
        return np.stack([_jacobian_dets(one.differentials)[0], one.values[:, i]], axis=-1)

    deg = sum(d - 1 for d in F.degrees)
    solutions = plane_section_solutions(values, (deg, 2 * deg - F.degrees[i]), F.n, planes,
                                        seed)
    verdicts = _classify_at(F, [s.point for s in solutions], (DEFAULT_TOL,), DEFAULT_KMAX)
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


def _survey_one_map(degrees, map_seed: int, line_seed: int, lines: int,
                    tol: float) -> list[dict]:
    F = random_map(degrees, seed=map_seed, kind=COMPLEX)
    points = critical_points_on_lines(F, lines, line_seed)
    if not points:
        return []
    verdicts = _classify_at(F, points, (tol, tol * 10.0, tol / 10.0), DEFAULT_KMAX)
    mults = ray_multiplicity(F, np.asarray(points))
    records = []
    for p, (main, *others), mult in zip(points, verdicts, mults):
        stable = all(v.label == main.label for v in others)
        diag = main.diagnostics
        records.append({
            "point": [[v.real, v.imag] for v in p],
            "class": main.to_dict(),
            "ray_multiplicity": None if math.isinf(mult) else int(mult),
            # each point's own bound on |J|, the one the line slicer tests
            "residuals": {"jdet": diag["abs_jdet"], "threshold": ROOT_TOL * diag["jdet_bound"]},
            "stable": stable,
        })
    return records


def survey(degrees: Sequence[int], maps: int, lines: int, seed: int,
           tol: float = DEFAULT_TOL) -> SurveyReport:
    """Classify line-sampled critical points of `maps` random maps.

    Each point is decided at tol, tol*10 and tol/10 on one set of tower
    values, in one batched decision per map (points whose verdict moves are
    counted as unstable), annotated with its ray multiplicity, and rolled
    into a histogram; a map's partials are built once and evaluated in
    batches over all of its points.  For n = 4 the report carries the count
    of points outside the expected {A_1, A_2, A_3} menu (every sampled point
    sits at unit norm, off the origin).  Each point records |J(p)| and its
    threshold, the point's own bound ROOT_TOL * prod_i ||row i of dF(p)||,
    both from the classifier's one evaluation of dF(p) (the diagnostics
    `abs_jdet` and `jdet_bound`).  Identical arguments give bit-identical
    reports: each map's sub-seeds come from a SeedSequence keyed on `seed`,
    and the maps run in order.  Negative `maps` or `lines`, and `tol`
    outside (0, 1), are a ValueError.
    """
    degrees, tol = validate_degrees(degrees), validate_tol(tol)
    maps, lines = validate_count(maps, "maps"), validate_count(lines, "lines")
    state = np.random.SeedSequence(seed).generate_state(2 * max(maps, 1), dtype=np.uint64)
    points = [rec for m in range(maps)
              for rec in _survey_one_map(degrees, int(state[2 * m]), int(state[2 * m + 1]),
                                         lines, tol)]
    histogram = dict(Counter(rec["class"]["class"] for rec in points))
    return SurveyReport(
        degrees=degrees,
        seed=seed,
        maps=maps,
        lines=lines,
        points_found=len(points),
        histogram=histogram,
        outside_menu=(sum(count for label, count in histogram.items() if label not in MENU)
                      if len(degrees) == 4 else None),
        fraction_a1=histogram.get("A1", 0) / len(points) if points else 0.0,
        unstable=sum(not rec["stable"] for rec in points),
        points=tuple(points),
    )
