"""Root finding, line/plane slicing, cusp hunting, and the Monte-Carlo survey."""

import itertools
import json
import math
import sys

import numpy as np
import pytest

from morin_census import (
    HomogeneousMap,
    Polynomial,
    RootConvergenceError,
    classify,
    critical_points_on_lines,
    cusp_points,
    plane_section_solutions,
    chern_values,
    random_map,
    survey,
    univariate_roots,
)
from morin_census.maps import UsageError, jdet
from morin_census import morin, properness, sampler
from morin_census.morin import DEFAULT_TOL, Partials
from morin_census.polynomials import ROOT_TOL, PolyMatrix
from morin_census.sampler import _interpolate, _line_nodes


def _restrict_coeffs(P, q1, q2):
    """Coefficients of t -> P(q1 + t*q2), interpolated as the line slicer does."""
    return _interpolate(P.evaluate(_line_nodes(q1, q2, P.total_degree())))


# ------------------------------------------------------------- root finder
def test_roots_of_factored_cubic():
    """(x-1)(x-2)(x-3) resolves to {1,2,3} at full precision."""
    roots = sorted(univariate_roots([-6, 11, -6, 1]), key=lambda z: z.real)
    assert np.allclose(roots, [1, 2, 3], atol=1e-9)


def test_roots_accept_polynomial_objects():
    """A univariate Polynomial can be passed directly."""
    p = Polynomial(1, {(2,): 1, (0,): -4})
    roots = sorted(univariate_roots(p), key=lambda z: z.real)
    assert np.allclose(roots, [-2, 2], atol=1e-9)


def test_triple_root_cluster_within_tolerance():
    """(x-1)^3 converges to a cluster of radius ~eps^(1/3) around 1."""
    roots = univariate_roots([-1, 3, -3, 1])
    assert len(roots) == 3
    assert max(abs(z - 1) for z in roots) < 1e-4


def test_roots_at_origin():
    """x^3 reports three roots at 0 despite the vanishing envelope."""
    roots = univariate_roots([0, 0, 0, 1])
    assert max(abs(z) for z in roots) < 1e-4


def test_roots_scale_invariant():
    """Scaling all coefficients by 1e30 does not move the roots."""
    roots = sorted(univariate_roots([2e30, -3e30, 1e30]), key=lambda z: z.real)
    assert np.allclose(roots, [1, 2], atol=1e-9)


def _line_polynomial():
    """J of a (2,3,5,7) map restricted to a fixed line: degree 13."""
    J = jdet(random_map((2, 3, 5, 7), seed=5, kind="complex"))
    rng = np.random.default_rng(0)
    a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    b = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    return _restrict_coeffs(J, a, b)


def _random_coeffs(degree, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)


def test_roots_clear_the_envelope():
    """A recorded line polynomial and random degree-25 and degree-104
    polynomials: all roots come back and each clears the evaluation envelope."""
    inputs = [_line_polynomial()] + [_random_coeffs(degree, seed) for degree, seed
                                     in ((25, 7), (104, 0), (104, 1), (104, 2))]
    for c in inputs:
        mine = np.array(univariate_roots(c))
        assert len(mine) == len(c) - 1
        desc = c[::-1]
        envelope = np.polyval(np.abs(desc), np.abs(mine))
        assert np.all(np.abs(np.polyval(desc, mine)) <= 1e-8 * envelope)


def test_roots_match_mpmath_reference():
    """The degree-25 roots agree with 40-digit mpmath roots."""
    mpmath = pytest.importorskip("mpmath")
    c = _random_coeffs(25, 7)
    mine = np.array(univariate_roots(c))
    with mpmath.workdps(40):
        ref = np.array([complex(z) for z in mpmath.polyroots(
            list(c[::-1]), maxsteps=200, extraprec=80)])
    gaps = np.abs(mine[:, None] - ref[None, :])
    assert gaps.min(axis=1).max() < 1e-9 and gaps.min(axis=0).max() < 1e-9


def test_roots_reject_constant():
    """Degree-zero input raises ValueError."""
    with pytest.raises(ValueError):
        univariate_roots([5.0])
    with pytest.raises(ValueError):
        univariate_roots([0.0])


def test_nonconvergence_carries_partial_roots(monkeypatch):
    """Eigenvalues all 10 off the roots 1..8 stay off them after three Newton
    steps, so every root misses the envelope; the error still exposes every
    estimate, the two exact zeros at the origin included."""
    original = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: original(a) + 10.0)
    with pytest.raises(RootConvergenceError, match="8 of 8") as exc:
        univariate_roots([0.0, 0.0, *np.poly(range(1, 9))[::-1]])
    assert len(exc.value.roots) == 10 and exc.value.roots[:2] == (0j, 0j)


@pytest.mark.filterwarnings("error")
def test_start_at_a_zero_slope_takes_no_step(monkeypatch):
    """z^2 - 1 started twice at 0, where its slope is exactly 0: the Newton
    step there is not finite, so neither start moves, both miss the envelope,
    and the error carries them unchanged, with no floating-point warning."""
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: np.zeros(a.shape[:-1], dtype=complex))
    with pytest.raises(RootConvergenceError, match="2 of 2") as exc:
        univariate_roots([-1.0, 0.0, 1.0])
    assert exc.value.roots == (0j, 0j)


@pytest.mark.filterwarnings("error")
def test_envelope_of_a_huge_root_does_not_overflow():
    """1 + z^103 + 1.01e-12 z^104 has a root near -1/1.01e-12: |z|^104
    overflows a double, so the envelope is tested on the reversed polynomial
    at 1/z there, and the root clears it without a floating-point warning."""
    c = np.zeros(105)
    c[0], c[103], c[104] = 1.0, 1.0, 1.01e-12
    roots = np.array(univariate_roots(c))
    assert len(roots) == 104
    big = roots[np.argmax(np.abs(roots))]
    assert abs(big + 1 / 1.01e-12) < 1e-6 * abs(big)
    assert np.all(np.abs(np.delete(roots, np.argmax(np.abs(roots)))) < 1.1)


def test_wilkinson_polynomial_keeps_every_root():
    """prod_{k=1}^{20} (x - k): its leading coefficient is 1 against a largest
    coefficient near 1.4e19, and only an exactly zero leading coefficient is
    trimmed, so all 20 roots come back, each near its integer."""
    roots = univariate_roots(np.poly(range(1, 21))[::-1])
    assert len(roots) == 20
    assert np.allclose(sorted(z.real for z in roots), range(1, 21), atol=0.1)


def test_tiny_leading_coefficient_keeps_its_huge_roots():
    """A degree-104 polynomial whose leading coefficient is 1e-16 of the rest
    still has 104 roots, and all of them come back."""
    c = _random_coeffs(104, 3)
    c[-1] = 1e-16
    assert len(univariate_roots(c)) == 104


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_roots_name_non_finite_coefficients(bad):
    """A NaN or infinite coefficient is a ValueError that names it, raised
    before any arithmetic, so no floating-point warning escapes; the slicers'
    ``_roots`` turns it into no roots."""
    with pytest.raises(ValueError, match=r"degree \[1\] are not finite"):
        univariate_roots([1.0, bad, 1.0])
    assert sampler._roots([1.0, bad, 1.0]).size == 0


def test_plane_slicer_solves_each_plane_in_one_stacked_call(monkeypatch):
    """One cusp-hunt plane makes one ``univariate_roots`` call, for R(u), and
    no other root solve: the one eigensolve is R(u)'s companion matrix, and
    every v is read off the Sylvester kernels by one batched linear solve."""
    calls = []

    def counting(name, original):
        def counted(*args):
            calls.append((name, sys._getframe(1).f_code.co_name))
            return original(*args)
        return counted

    monkeypatch.setattr(sampler, "univariate_roots",
                        counting("univariate_roots", sampler.univariate_roots))
    monkeypatch.setattr(np.linalg, "eigvals", counting("eigvals", np.linalg.eigvals))
    monkeypatch.setattr(np, "roots", counting("roots", np.roots))
    F = random_map((2, 2, 2, 2), seed=1, kind="complex")
    assert len(cusp_points(F, planes=2, seed=6)) == 2 * 18
    assert calls == 2 * [("univariate_roots", "_roots"), ("eigvals", "univariate_roots")]


# ------------------------------------------------------------- line slicing
def test_critical_points_land_on_the_cone():
    """Sampled points satisfy J = 0 to scaled tolerance and have unit norm."""
    F = random_map((2, 2, 2, 2), seed=3, kind="complex")
    J = jdet(F)
    pts = critical_points_on_lines(F, lines=10, seed=11)
    assert len(pts) == 10 * J.total_degree()   # all roots of each restriction
    for p in pts:
        arr = np.asarray(p)
        assert abs(np.linalg.norm(arr) - 1) < 1e-9
        assert abs(J.evaluate(arr)) < 1e-7


@pytest.mark.parametrize("degrees, map_seed", [((2, 2, 2, 2), 3), ((2, 3, 5, 7), 5)])
def test_critical_points_match_the_jdet_oracle(monkeypatch, degrees, map_seed):
    """On the same lines, the points interpolated from det dF are the roots of
    the symbolic jdet(F) restricted to each line: as many of them, each within
    1e-9 of an oracle root's ray, and each passing the residual rule on jdet."""
    lines = []
    original = sampler._line_nodes

    def recorded(q1, q2, degree):
        lines.append((q1, q2))
        return original(q1, q2, degree)

    monkeypatch.setattr(sampler, "_line_nodes", recorded)
    F = random_map(degrees, seed=map_seed, kind="complex")
    pts = critical_points_on_lines(F, lines=3, seed=7)
    monkeypatch.undo()
    J = jdet(F)
    assert len(lines) == 3
    rays = []
    for a, b in lines:
        for t in univariate_roots(_restrict_coeffs(J, a, b)):
            q = a + t * b
            rays.append(q / np.linalg.norm(q))
    assert len(pts) == len(rays) == 3 * J.total_degree()
    for p in pts:
        p = np.asarray(p)
        gap = min(np.linalg.norm(p - q * np.vdot(q, p)) for q in rays)
        assert gap <= 1e-9
        assert abs(J.evaluate(p)) <= 1e-8 * 2.0 ** J.total_degree()


@pytest.mark.parametrize("scale", [1e-3, 1e3, 1e6])
def test_line_points_do_not_depend_on_the_scale_of_F(scale):
    """|J| is tested against its own Hadamard bound, which scales with J, so
    c*F has F's critical rays for c from 1e-3 to 1e6."""
    F = random_map((2, 3, 5, 7), seed=5, kind="complex")
    G = HomogeneousMap(F.degrees, tuple(f * scale for f in F.components))
    rays = np.array(critical_points_on_lines(F, lines=2, seed=3))
    scaled = np.array(critical_points_on_lines(G, lines=2, seed=3))
    assert len(rays) == len(scaled) == 26
    for p in scaled:
        assert np.min(np.linalg.norm(rays - p, axis=1)) <= 1e-12


def test_critical_points_reject_identically_zero_jdet():
    """A map whose second component repeats its first has J = 0 everywhere:
    slicing its critical cone is an error, not a list of every node."""
    F = random_map((2, 2, 2, 2), seed=3, kind="complex")
    f1, _, f3, f4 = F.components
    G = HomogeneousMap((2, 2, 2, 2), (f1, f1, f3, f4))
    with pytest.raises(ValueError, match="identically zero"):
        critical_points_on_lines(G, lines=2, seed=11)


def test_critical_points_deterministic():
    """Same seed, same points, bitwise."""
    F = random_map((2, 2, 2, 2), seed=3, kind="complex")
    a = critical_points_on_lines(F, lines=3, seed=5)
    b = critical_points_on_lines(F, lines=3, seed=5)
    assert a == b


# ------------------------------------------------------------- plane slicing
def _four_known_rays_found(sols) -> int:
    """How many of the four rays of {x1^2 - x2 x3, x2^2 - x1 x3} are among `sols`."""
    omega = np.exp(2j * np.pi / 3)
    expected = [np.array([0, 0, 1.0])]
    for k in range(3):
        v = np.array([1.0, omega ** k, omega ** (2 * k)])
        expected.append(v / np.linalg.norm(v))
    return sum(any(abs(abs(np.vdot(e, np.asarray(s.point))) - 1) < 1e-6 for s in sols)
               for e in expected)


_P1 = Polynomial(3, {(2, 0, 0): 1, (0, 1, 1): -1}, kind="complex")
_P2 = Polynomial(3, {(0, 2, 0): 1, (1, 0, 1): -1}, kind="complex")


def _pair_values(x):
    return np.stack([_P1.evaluate(x), _P2.evaluate(x)], -1)


def test_plane_sections_need_three_variables():
    """A plane's frame is three orthonormal vectors, so n = 2 is a ValueError
    naming n, raised before any frame is drawn."""
    with pytest.raises(ValueError, match="n = 2"):
        plane_section_solutions(_pair_values, (2, 2), 2, 1, 0)


def test_plane_sections_need_two_nonconstant_functions():
    """A constant function (degree 0) has no curve to meet: a ValueError."""
    with pytest.raises(ValueError, match="two nonconstant polynomials"):
        plane_section_solutions(_pair_values, (0, 2), 3, 1, 0)


def test_plane_sections_recover_known_projective_zeros():
    """{x1^2 - x2 x3, x2^2 - x1 x3} has four rays; slicing finds them all."""
    sols = plane_section_solutions(_pair_values, (2, 2), 3, planes=3, seed=1)
    assert _four_known_rays_found(sols) == 4
    assert all(max(s.residuals) < 1e-9 for s in sols)


def test_plane_sections_keep_roots_that_miss_the_envelope(monkeypatch):
    """A root solve that raises RootConvergenceError still hands its estimates
    on, and the residual test decides: with the u-solve raising on the true
    roots, the four rays are still found.  (The u-solve is the slicer's only
    root solve: every v is read off a Sylvester kernel by a linear solve.)"""
    original = sampler.univariate_roots

    def raising(coeffs):
        raise RootConvergenceError("forced", original(coeffs))

    monkeypatch.setattr(sampler, "univariate_roots", raising)
    sols = plane_section_solutions(_pair_values, (2, 2), 3, planes=3, seed=1)
    assert _four_known_rays_found(sols) == 4
    assert all(max(s.residuals) < 1e-9 for s in sols)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_plane_sections_skip_a_root_u_whose_v_polynomial_overflows(monkeypatch):
    """A root u of R(u) so large that u^d overflows leaves its Sylvester
    matrix S(u) non-finite: that root gives no v, and the batched kernel
    solve of the others still finds the four rays."""
    original = sampler._roots
    monkeypatch.setattr(sampler, "_roots", lambda coeffs: np.append(original(coeffs), 1e300))
    sols = plane_section_solutions(_pair_values, (2, 2), 3, planes=3, seed=1)
    assert _four_known_rays_found(sols) == 4


def test_plane_sections_drop_only_the_root_whose_kernel_is_singular(monkeypatch):
    """An exactly singular member of the stacked kernel solve would make
    ``np.linalg.solve`` raise for the whole stack: with the first root's
    S(u) system zeroed, that root alone gets a NaN v and is dropped, every
    other root keeps its v, and the four rays are still found."""
    original, solved = sampler._solve, []

    def singular_first(a, b):
        if not solved:                  # the first call is the plane's kernel solve
            a = a.copy()
            a[0] = 0.0
            solved.append(original(a, b))
            return solved[-1]
        return original(a, b)

    monkeypatch.setattr(sampler, "_solve", singular_first)
    sols = plane_section_solutions(_pair_values, (2, 2), 3, planes=3, seed=1)
    v = solved[0][:, -1]
    assert np.isnan(v[0]) and np.all(np.isfinite(v[1:]))
    assert _four_known_rays_found(sols) == 4


def test_cusp_points_all_classify_a2(monkeypatch):
    """Every returned cusp candidate on a cubic map re-classifies as A2, and
    the hunt classifies all its candidates in one pass over F's partials.
    Only the classifier's pass is counted: the plane slicer's values go
    through the name ``sampler._level_one``, which is not wrapped here."""
    calls = []
    original = morin._level_one

    def counted(components, points):
        calls.append(len(points))
        return original(components, points)

    monkeypatch.setattr(morin, "_level_one", counted)
    F = random_map((3, 3, 3, 3), seed=2, kind="complex")
    sols = cusp_points(F, planes=2, seed=9)
    monkeypatch.undo()
    assert len(calls) == 1 and calls[0] >= len(sols)
    assert sols, "expected at least one cusp point"
    for s in sols:
        assert max(s.residuals) < 1e-9
        assert classify(F, np.asarray(s.point)).label == "A2"


def test_cusp_points_builds_level_one_lazily(monkeypatch):
    """J and J_{1,i*} come from F's evaluated partials, on the planes' grids
    and at the Newton iterates, and the candidates' level 2 from the third
    partials: the hunt builds no determinant polynomial and no Taylor jet,
    with no plane or with two."""
    calls = []
    det, translate = PolyMatrix.det, Polynomial.translate_truncated

    def counted_det(self):
        calls.append("det")
        return det(self)

    def counted_translate(self, point, max_degree):
        calls.append("translate_truncated")
        return translate(self, point, max_degree)

    monkeypatch.setattr(PolyMatrix, "det", counted_det)
    monkeypatch.setattr(Polynomial, "translate_truncated", counted_translate)
    F = random_map((3, 3, 3, 3), seed=2, kind="complex")
    assert cusp_points(F, planes=0, seed=9) == []
    assert cusp_points(F, planes=2, seed=9)
    assert calls == []


def test_survey_folds_make_no_level_two_call(monkeypatch):
    """Survey points are folds: level 1 survives at every tolerance, so the
    classifier makes no ``_level_two`` call on them."""
    calls = []
    original = morin._level_two

    def counted(partials, points, one):
        calls.append(len(points))
        return original(partials, points, one)

    monkeypatch.setattr(morin, "_level_two", counted)
    rep = survey((2, 3, 5, 7), maps=1, lines=1, seed=1)
    assert rep.histogram == {"A1": 13}
    assert calls == []


@pytest.mark.parametrize("map_seed", [1, 2])
def test_cusp_recall_meets_the_census_count(map_seed):
    """A generic 2-plane meets the cusp cone of a (2,2,2,2) map in
    Tp(A2) = c1^2 + c2 = 18 rays.  Plane seeds 6 and 7 each find every one
    of them on map seeds 1 and 2, all distinct and all A2."""
    c1, c2 = chern_values((2, 2, 2, 2))[:2]
    assert c1 ** 2 + c2 == 18
    F = random_map((2, 2, 2, 2), seed=map_seed, kind="complex")
    for seed in (6, 7):
        sols = cusp_points(F, planes=1, seed=seed)
        assert len(sols) == c1 ** 2 + c2
        rays = np.array([s.point for s in sols])
        assert np.all(np.abs(np.abs(rays.conj() @ rays.T) - np.eye(len(rays))) < 1 - 1e-8)
        assert all(classify(F, np.asarray(s.point)).label == "A2" for s in sols)


def _cusps_per_plane(F, planes: int, seed: int) -> np.ndarray:
    """The cusps each plane of a hunt adds: a hunt of k planes draws the
    first k planes of a longer one with the same seed."""
    return np.diff([len(cusp_points(F, planes=k, seed=seed)) for k in range(planes + 1)])


def test_cusp_hunt_meets_the_census_count_on_every_plane():
    """On a (2,2,2,3) map every plane of plane seed 5 meets the cusp curve in
    exactly Tp(A2) = c1^2 + c2 = 29 distinct A2 rays."""
    c1, c2 = chern_values((2, 2, 2, 3))[:2]
    assert c1 ** 2 + c2 == 29
    F = random_map((2, 2, 2, 3), seed=3, kind="complex")
    assert list(_cusps_per_plane(F, 4, 5)) == [29] * 4
    sols = cusp_points(F, planes=4, seed=5)
    assert all(classify(F, np.asarray(s.point)).label == "A2" for s in sols)


@pytest.mark.parametrize("degrees, map_seed", [((3, 3, 3, 3), 2), ((2, 3, 3, 3), 4)])
def test_no_plane_finds_more_cusps_than_the_census_allows(degrees, map_seed):
    """Tp(A2) = c1^2 + c2 bounds the cusp rays of one plane: 80 on (3,3,3,3)
    and 60 on (2,3,3,3); each plane finds some and none finds more."""
    c1, c2 = chern_values(degrees)[:2]
    counts = _cusps_per_plane(random_map(degrees, seed=map_seed, kind="complex"), 2, 9)
    assert np.all(counts > 0) and np.all(counts <= c1 ** 2 + c2)


def test_cusp_points_on_a_high_degree_map_stay_finite():
    """On a (2,3,5,7) map J_{1,0} has degree 24 and its plane coefficients span
    about 17 orders of magnitude: with each function's Sylvester block
    balanced, the degree-312 resultant's determinants stay finite (no
    overflow warning) and the hunt returns A2 points."""
    F = random_map((2, 3, 5, 7), seed=2, kind="complex")
    sols = cusp_points(F, planes=1, seed=0)
    assert sols
    for s in sols:
        assert max(s.residuals) < 1e-9
        assert classify(F, np.asarray(s.point)).label == "A2"


def _numpy_derivatives(F, p):
    """dF(p) and D^2F(p)[i, j, k] = d^2 f_i / dx_j dx_k (p) from F's coefficients,
    with numpy alone."""
    eye = np.eye(F.n, dtype=np.int64)

    def monomials(e):       # p^e per row of e, zero where an exponent is negative
        return np.where((e >= 0).all(axis=1), np.prod(p ** np.maximum(e, 0), axis=1), 0.0)

    first = np.zeros((F.n, F.n), dtype=complex)
    second = np.zeros((F.n, F.n, F.n), dtype=complex)
    for i, f in enumerate(F.components):
        e = np.array(list(f.terms), dtype=np.int64)
        c = np.array([complex(v) for v in f.terms.values()])
        for j in range(F.n):
            first[i, j] = (c * e[:, j]) @ monomials(e - eye[j])
            for k in range(F.n):
                second[i, j, k] = ((c * e[:, j] * (e[:, k] - eye[j, k]))
                                   @ monomials(e - eye[j] - eye[k]))
    return first, second


def test_cusp_points_on_a_rational_map():
    """On the library's default rational (3,3,3,3) map, whose |J| is ~1e4 on
    the unit sphere, the residuals of genuine A2 rays sit far above any fixed
    cut such as 1e-9; the plane envelope keeps them.  Each passes an
    independent check: |det dF| within 1e-8 * 2^deg J, and a vanishing
    cokernel pairing w^T D^2F(v, v)."""
    F = random_map((3, 3, 3, 3), seed=2)
    sols = cusp_points(F, planes=2, seed=9)
    assert sols
    for s in sols:
        first, second = _numpy_derivatives(F, np.asarray(s.point))
        assert abs(np.linalg.det(first)) <= 1e-8 * 2.0 ** 8
        u, _, vh = np.linalg.svd(first)
        v, w = vh[-1].conj(), u[:, -1].conj()
        pairing = abs(np.einsum("i,ijk,j,k->", w, second, v, v))
        assert pairing <= 1e-6 * np.linalg.norm(second)


@pytest.mark.parametrize("call", [
    lambda: survey((2, 2, 2, 2), maps=-1, lines=2, seed=0),
    lambda: survey((2, 2, 2, 2), maps=1, lines=-3, seed=0),
    lambda: critical_points_on_lines(random_map((2, 2, 2, 2), seed=0, kind="complex"),
                                     lines=-1, seed=0),
    lambda: cusp_points(random_map((2, 2, 2, 2), seed=0, kind="complex"), planes=-1, seed=0),
    lambda: plane_section_solutions(_pair_values, (2, 2), 3, planes=-1, seed=1),
], ids=["survey-maps", "survey-lines", "line-lines", "cusp-planes", "plane-planes"])
def test_negative_sampling_counts_are_rejected(call):
    """A negative count of maps, lines or planes is a ValueError, not an empty answer."""
    with pytest.raises(ValueError, match="must be >= 0"):
        call()


def test_cusp_points_requires_n4():
    """Cusp hunting needs n >= 3: a generic map of C^2 has no cusp ray, so
    n = 2 is a UsageError (a ValueError, the CLI's exit code 1) that says so."""
    F = random_map((2, 2), seed=0, kind="complex")
    with pytest.raises(ValueError):
        cusp_points(F, planes=1, seed=0)
    for kind in ("complex", "rational"):
        with pytest.raises(UsageError, match="C\\^2 has no cusp ray"):
            cusp_points(random_map((2, 3), seed=1, kind=kind), planes=1, seed=0)


def test_cusp_points_of_a_map_with_vanishing_jacobian_are_none():
    """(x1^2, x1^2, x3^2, x4^2) has J = 0 everywhere, so level 1 vanishes at
    the probe point and the hunt returns no point."""
    F = HomogeneousMap((2, 2, 2, 2), tuple(
        Polynomial(4, {e: 1}) for e in ((2, 0, 0, 0), (2, 0, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2))))
    assert cusp_points(F, planes=1, seed=0) == []


def _tp_a2(degrees) -> int:
    """Tp(A2) = c1^2 + c2 for c = prod(1 + d_i a) / (1 + a)^n, whose classes are
    c_k = sum_j (-1)^(k-j) C(k-j+n-1, n-1) e_j, e_j the elementary symmetric
    sums of the degrees (Ronga)."""
    n = len(degrees)
    e = [sum(math.prod(s) for s in itertools.combinations(degrees, j)) for j in range(3)]
    c1, c2 = (sum((-1) ** (k - j) * math.comb(k - j + n - 1, n - 1) * e[j]
                  for j in range(k + 1)) for k in (1, 2))
    return c1 ** 2 + c2


def test_tp_a2_oracle_matches_the_census_classes():
    """The n-general oracle gives the tabulated 9, 42 and 30 at n = 3 and 5,
    and c1^2 + c2 from ``chern_values`` at n = 4."""
    assert [_tp_a2(d) for d in ((2, 2, 2), (3, 3, 3), (2, 2, 2, 2, 2))] == [9, 42, 30]
    for degrees in ((2, 2, 2, 2), (2, 2, 2, 3), (3, 3, 3, 3), (2, 3, 5, 7)):
        c1, c2 = chern_values(degrees)[:2]
        assert _tp_a2(degrees) == c1 ** 2 + c2


@pytest.mark.parametrize("degrees", [(2, 2, 2), (2, 2, 3)])
def test_cusp_hunt_at_n3_finds_every_cusp_ray(degrees):
    """At n = 3 a plane is an affine chart of all of P^2, so it meets every
    cusp ray: map seeds 1-3 give exactly Tp(A2) distinct rays (9 on (2,2,2),
    17 on (2,2,3)) on each of plane seeds 1-4."""
    expected = _tp_a2(degrees)
    for map_seed, seed in itertools.product((1, 2, 3), (1, 2, 3, 4)):
        sols = cusp_points(random_map(degrees, seed=map_seed, kind="complex"), planes=1,
                           seed=seed)
        assert len(sols) == expected, (map_seed, seed)
        rays = np.array([s.point for s in sols])
        assert np.all(np.abs(np.abs(rays.conj() @ rays.T) - np.eye(len(rays))) < 1 - 1e-8)


@pytest.mark.parametrize("degrees", [(3, 3, 3), (2, 2, 2, 2, 2)])
def test_no_plane_finds_more_cusps_than_tp_a2_off_n4(degrees):
    """At n = 3 and n = 5 no plane finds more than Tp(A2) cusp rays (42 on
    (3,3,3), 30 on (2,2,2,2,2)), on map seeds 1-3 and plane seeds 1-4."""
    counts = [len(cusp_points(random_map(degrees, seed=map_seed, kind="complex"), planes=1,
                              seed=seed))
              for map_seed, seed in itertools.product((1, 2, 3), (1, 2, 3, 4))]
    assert 0 < min(counts) and max(counts) <= _tp_a2(degrees)


# ------------------------------------------------------------- survey
def test_survey_quadratic_degrees_all_folds():
    """Small all-quadratic survey: all A1, nothing outside the menu."""
    rep = survey((2, 2, 2, 2), maps=2, lines=5, seed=21)
    d = rep.to_dict()
    assert d["histogram"] == {"A1": d["points_found"]}
    assert d["outside_menu"] == 0
    assert d["fraction_a1"] == 1.0
    assert d["unstable"] == 0
    assert {p["ray_multiplicity"] for p in d["points"]} == {2}


def test_survey_point_record_schema():
    """Each survey point carries coordinates, class, ray data, residuals."""
    rep = survey((2, 2, 2, 2), maps=1, lines=2, seed=3)
    point = rep.to_dict()["points"][0]
    assert sorted(point) == ["class", "point", "ray_multiplicity",
                             "residuals", "stable"]
    assert len(point["point"]) == 4 and len(point["point"][0]) == 2
    assert point["class"]["class"] == "A1"
    assert point["residuals"]["jdet"] <= point["residuals"]["threshold"]


def test_survey_bit_deterministic():
    """The same arguments give identical serialized reports."""
    first, second = (json.dumps(survey((2, 2, 2, 2), maps=2, lines=3, seed=7).to_dict(),
                                sort_keys=True) for _ in range(2))
    assert first == second


def test_survey_nonsquare_dimension_skips_menu():
    """Away from four dimensions the outside-menu tally is undefined (None)."""
    rep = survey((2, 2), maps=1, lines=3, seed=1)
    assert rep.to_dict()["outside_menu"] is None


def test_survey_decides_each_tolerance_like_classify():
    """Each record's class and stable flag are what separate classify calls
    at tol, 10*tol and tol/10 give on the map the documented seeds rebuild."""
    rep = survey((2, 3, 5, 7), maps=1, lines=1, seed=3)
    map_seed = int(np.random.SeedSequence(3).generate_state(2, dtype=np.uint64)[0])
    F = random_map((2, 3, 5, 7), seed=map_seed, kind="complex")
    assert rep.points
    for rec in rep.points:
        p = [complex(re, im) for re, im in rec["point"]]
        main, *others = [classify(F, p, tol=t)
                         for t in (DEFAULT_TOL, DEFAULT_TOL * 10.0, DEFAULT_TOL / 10.0)]
        assert rec["class"]["class"] == main.to_dict()["class"]
        assert rec["class"].get("k") == main.k
        assert rec["stable"] == all(v.label == main.label for v in others)


def test_survey_rejects_fractional_degrees():
    """A fractional degree is an error, not a truncated tuple."""
    with pytest.raises(ValueError, match="2.5"):
        survey((2.5, 3, 5, 7), maps=1, lines=1, seed=3)


def test_survey_of_folds_builds_no_determinant_polynomial(monkeypatch):
    """J on the lines and level 1 at float points come from evaluated partials:
    a survey whose points all stop at level 1 (seed 1: 13 A1 points) calls
    PolyMatrix.det not at all, where the symbolic path made jdet plus five
    level-1 jet determinants per point."""
    calls = []
    original = PolyMatrix.det

    def counted(self):
        calls.append("det")
        return original(self)

    monkeypatch.setattr(PolyMatrix, "det", counted)
    rep = survey((2, 3, 5, 7), maps=1, lines=1, seed=1)
    assert rep.histogram == {"A1": 13} and rep.unstable == 0
    assert calls == []


def test_survey_builds_each_jet_once(monkeypatch):
    """A survey point builds its jets once for all three tolerances: fewer
    than 2n translate_truncated calls per point."""
    calls = []
    original = Polynomial.translate_truncated

    def counted(self, point, max_degree):
        calls.append(max_degree)
        return original(self, point, max_degree)

    monkeypatch.setattr(Polynomial, "translate_truncated", counted)
    rep = survey((2, 3, 5, 7), maps=1, lines=1, seed=3)
    assert rep.points
    assert len(calls) < 2 * 4 * len(rep.points)


@pytest.mark.parametrize("bench_seed, round_index",
                         [(101, 4), (1201, 21), (1208, 34), (1702, 192), (1706, 212), (1701, 0)])
def test_benchmark_survey_rounds(bench_seed, round_index):
    """Survey rounds of the benchmark that once gave wrong labels: a fold
    called A2 (101, 4), corank-1 points left indeterminate, and at (1701, 0)
    line points polished too little to be corank 1, labelled A1 at corank 0.
    The survey seed is derived as the benchmark's survey workload derives it."""
    rng = np.random.default_rng(np.random.SeedSequence((bench_seed, round_index, 1)))
    rep = survey((2, 3, 5, 7), maps=2, lines=1, seed=int(rng.integers(2 ** 31)))
    if (bench_seed, round_index) == (1701, 0):
        # an ill-conditioned line: trimming its small t^13 coefficient once
        # lost 4 roots and reported one ray twice
        assert len(rep.points) == 26
        rays = np.array([[complex(re, im) for re, im in rec["point"]] for rec in rep.points])
        overlaps = np.abs(rays.conj() @ rays.T) - np.eye(len(rays))
        assert np.all(overlaps < 1 - 1e-8)
        for rec in rep.points:
            assert rec["class"]["diagnostics"]["corank"] == 1
            assert rec["residuals"]["jdet"] <= 1e-12
    else:
        assert rep.histogram == {"A1": 26}
        assert rep.unstable == 0


def _survey_points(rep) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in rec["point"]] for rec in rep.points])


def test_survey_evaluates_df_once_at_its_points(monkeypatch):
    """The classifier's dF(p) also gives each point's threshold: a survey map
    asks ``Partials.at`` for first partials at its classified points once."""
    calls = []
    original = Partials.at

    def recorded(self, points, r):
        calls.append((np.array(points, dtype=complex), r))
        return original(self, points, r)

    monkeypatch.setattr(Partials, "at", recorded)
    rep = survey((2, 3, 5, 7), maps=1, lines=1, seed=3)
    points = _survey_points(rep)
    assert len(points) == 13
    assert [r for x, r in calls if x.shape == points.shape and np.array_equal(x, points)] == [1, 2]


def test_survey_thresholds_are_the_hadamard_bound_of_partials():
    """Every threshold is ROOT_TOL times prod_i ||row i of dF(p)||, recomputed
    here from ``Partials.at`` on the map's points; the bound itself is the
    verdict's `jdet_bound`.  |J(p)| is the line slicer's J, ``_jacobian_dets``
    of the same dF(p), in `residuals.jdet` and `abs_jdet` alike."""
    rep = survey((2, 3, 5, 7), maps=1, lines=1, seed=3)
    state = np.random.SeedSequence(3).generate_state(2, dtype=np.uint64)
    F = random_map((2, 3, 5, 7), seed=int(state[0]), kind="complex")
    points = _survey_points(rep)
    differentials = Partials(F.components).at(points, 1)
    bounds = np.prod(np.linalg.norm(differentials, axis=-1), axis=-1)
    assert [rec["residuals"]["threshold"] for rec in rep.points] == (ROOT_TOL * bounds).tolist()
    assert [rec["class"]["diagnostics"]["jdet_bound"] for rec in rep.points] == bounds.tolist()
    dets = morin._jacobian_dets(differentials)[0]
    moduli = np.hypot(dets.real, dets.imag).tolist()
    assert [rec["residuals"]["jdet"] for rec in rep.points] == moduli
    assert [rec["class"]["diagnostics"]["abs_jdet"] for rec in rep.points] == moduli
