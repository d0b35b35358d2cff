"""Root finding, line/plane slicing, cusp hunting, and the Monte-Carlo survey."""

import json
import math

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
    random_map,
    restrict_to_line,
    survey,
    univariate_roots,
)
from morin_census.maps import jdet


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


def test_roots_match_numpy_reference():
    """Random degree-25 polynomial agrees with the companion-matrix roots."""
    rng = np.random.default_rng(7)
    c = rng.standard_normal(26) + 1j * rng.standard_normal(26)
    mine = np.sort_complex(np.array(univariate_roots(c)))
    ref = np.sort_complex(np.roots(c[::-1]))
    assert np.max(np.abs(mine - ref)) < 1e-9


def test_roots_reject_constant():
    """Degree-zero input raises ValueError."""
    with pytest.raises(ValueError):
        univariate_roots([5.0])
    with pytest.raises(ValueError):
        univariate_roots([0.0])


def test_nonconvergence_carries_partial_roots():
    """With a starved sweep budget the error still exposes the iterates."""
    rng = np.random.default_rng(1)
    c = rng.standard_normal(40)
    with pytest.raises(RootConvergenceError) as exc:
        univariate_roots(c, max_sweeps=1)
    assert len(exc.value.roots) == 39


# ------------------------------------------------------------- line slicing
def test_restrict_to_line_matches_direct_evaluation():
    """The restricted coefficients reproduce P(q1 + t*q2) pointwise."""
    P = random_map((3, 3), seed=2, kind="complex").components[0]
    rng = np.random.default_rng(0)
    q1 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    q2 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    section = restrict_to_line(P, q1, q2)
    for t in (0.3, -1.2 + 0.5j, 2.0):
        direct = P.evaluate(q1 + t * q2)
        via = sum(c * t ** k for k, c in enumerate(section.coefficients))
        assert abs(direct - via) < 1e-9 * (1 + abs(direct))


def test_restrict_to_line_rejects_dependent_directions():
    """Parallel q1, q2 do not span a line of directions."""
    P = random_map((2, 2), seed=0, kind="complex").components[0]
    with pytest.raises(ValueError):
        restrict_to_line(P, [1.0, 2.0], [2.0, 4.0])


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


def test_critical_points_deterministic():
    """Same seed, same points, bitwise."""
    F = random_map((2, 2, 2, 2), seed=3, kind="complex")
    a = critical_points_on_lines(F, lines=3, seed=5)
    b = critical_points_on_lines(F, lines=3, seed=5)
    assert a == b


# ------------------------------------------------------------- plane slicing
def test_plane_sections_recover_known_projective_zeros():
    """{x1^2 - x2 x3, x2^2 - x1 x3} has four rays; slicing finds them all."""
    P1 = Polynomial(3, {(2, 0, 0): 1, (0, 1, 1): -1}, kind="complex")
    P2 = Polynomial(3, {(0, 2, 0): 1, (1, 0, 1): -1}, kind="complex")
    sols = plane_section_solutions(P1, P2, planes=3, seed=1)
    omega = np.exp(2j * np.pi / 3)
    expected = [np.array([0, 0, 1.0])]
    for k in range(3):
        v = np.array([1.0, omega ** k, omega ** (2 * k)])
        expected.append(v / np.linalg.norm(v))
    found = 0
    for e in expected:
        for s in sols:
            if abs(abs(np.vdot(e, np.asarray(s.point))) - 1) < 1e-6:
                found += 1
                break
    assert found == 4
    assert all(max(s.residuals) < 1e-9 for s in sols)


def test_cusp_points_all_classify_a2():
    """Every returned cusp candidate on a cubic map re-classifies as A2."""
    F = random_map((3, 3, 3, 3), seed=2, kind="complex")
    sols = cusp_points(F, planes=2, seed=9)
    assert sols, "expected at least one cusp point"
    for s in sols:
        assert max(s.residuals) < 1e-9
        assert classify(F, np.asarray(s.point)).label == "A2"


def test_cusp_points_requires_n4():
    """Cusp hunting is defined for four source dimensions."""
    F = random_map((2, 2), seed=0, kind="complex")
    with pytest.raises(ValueError):
        cusp_points(F, planes=1, seed=0)


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
