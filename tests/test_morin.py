"""Iterated-determinant tower and singularity classification."""

import collections
import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from morin_census import (
    GeneralMap,
    HomogeneousMap,
    PolyMatrix,
    Polynomial,
    classify,
    classify_from_values,
    corank_at,
    critical_points_on_lines,
    cusp_points,
    jet_tower_values,
    linear_conjugate,
    morin_tower,
    random_map,
    ray_multiplicity,
    survey,
)
from morin_census.linalg import exact_rank, random_unimodular_matrix
from morin_census import morin
from morin_census.morin import (Partials, SingularityClass, _adjugate_derivative, _classify_at,
                                 _decide, _jet_tower, _level_one, _level_two, _linear_rows)

X1, X2, X3, X4 = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
ORIGIN = np.zeros(4)


def _poly4(terms):
    return Polynomial(4, terms)


def fold_form():
    return GeneralMap((_poly4({X1: 1}), _poly4({X2: 1}), _poly4({X3: 1}),
                       _poly4({(0, 0, 0, 2): 1})))


def cusp_form():
    return GeneralMap((_poly4({X1: 1}), _poly4({X2: 1}), _poly4({X3: 1}),
                       _poly4({(0, 0, 0, 3): 1, (1, 0, 0, 1): 1})))


def swallowtail_form():
    return GeneralMap((_poly4({X1: 1}), _poly4({X2: 1}), _poly4({X3: 1}),
                       _poly4({(0, 0, 0, 4): 1, (1, 0, 0, 2): 1, (0, 1, 0, 1): 1})))


def corank2_form():
    return GeneralMap((_poly4({X1: 1}), _poly4({X2: 1}),
                       _poly4({(0, 0, 2, 0): 1}), _poly4({(0, 0, 0, 2): 1})))


# ------------------------------------------------------------- tower algebra
def test_tower_base_is_jacobian_determinant():
    """Level zero of the tower is J itself: 2*x4 for the fold form."""
    t = morin_tower(fold_form(), k_max=1)
    assert t.base == _poly4({(0, 0, 0, 1): 2})


def test_tower_levels_fold():
    """J_{1,4} of the fold form is the constant 2."""
    t = morin_tower(fold_form(), k_max=1)
    assert t.level(1, 3) == _poly4({(0, 0, 0, 0): 2})


def test_tower_levels_cusp():
    """Hand-computed tower for the cusp form."""
    t = morin_tower(cusp_form(), k_max=2)
    assert t.base == _poly4({(0, 0, 0, 2): 3, X1: 1})
    assert t.level(1, 3) == _poly4({(0, 0, 0, 1): 6})
    assert t.level(2, 3) == _poly4({(0, 0, 0, 0): 6})
    # replacing a different row picks up the unfolding direction
    assert t.level(1, 0) == _poly4({X1: 1, (0, 0, 0, 2): -3})


def test_tower_swallowtail_top_level_constant():
    """The swallowtail form bottoms out at J_{3,4} = 24."""
    t = morin_tower(swallowtail_form(), k_max=3)
    assert t.level(3, 3) == _poly4({(0, 0, 0, 0): 24})


def test_graph_form_tower_is_iterated_partial():
    """For F = (x1,x2,x3,g), J_{r,4} equals the (r+1)-st x4-derivative of g."""
    rng = np.random.default_rng(12)
    for _ in range(5):
        terms = {}
        for _ in range(6):
            exps = tuple(int(e) for e in rng.integers(0, 3, size=4))
            terms[exps] = Fraction(int(rng.integers(-4, 5)))
        g = Polynomial(4, terms)
        F = GeneralMap((_poly4({X1: 1}), _poly4({X2: 1}), _poly4({X3: 1}), g))
        t = morin_tower(F, k_max=3)
        deriv = g.partial(3)
        assert t.base == deriv
        for r in range(1, 4):
            deriv = deriv.partial(3)
            assert t.level(r, 3) == deriv


def test_tower_k_max_guard():
    """Unreasonably deep towers are refused."""
    with pytest.raises(ValueError):
        morin_tower(fold_form(), k_max=7)


# ------------------------------------------------------------- classification
def test_normal_forms_classify_exactly():
    """The four reference germs classify to their textbook classes at 0."""
    assert classify(fold_form(), ORIGIN).label == "A1"
    assert classify(cusp_form(), ORIGIN).label == "A2"
    assert classify(swallowtail_form(), ORIGIN).label == "A3"
    assert classify(corank2_form(), ORIGIN).label == "corank_ge_2"


def test_regular_point_classification():
    """Nonvanishing Jacobian determinant short-circuits to 'regular'."""
    v = classify(fold_form(), np.array([0.0, 0.0, 0.0, 1.0]))
    assert v.label == "regular"
    assert v.to_dict()["class"] == "regular"


def test_indeterminate_when_tower_exhausts():
    """A germ deeper than k_max reports 'indeterminate'."""
    F = GeneralMap((_poly4({X1: 1}), _poly4({X2: 1}), _poly4({X3: 1}),
                    _poly4({(0, 0, 0, 6): 1})))
    v = classify(F, ORIGIN, k_max=4)
    assert v.label == "indeterminate"


def test_morin_class_serialization():
    """Morin verdicts serialize with class label, k, and diagnostics."""
    d = classify(cusp_form(), ORIGIN).to_dict()
    assert d["class"] == "A2" and d["k"] == 2
    assert d["diagnostics"]["corank"] == 1


def test_unimodular_conjugation_preserves_class():
    """Left-right composition with exact unimodular matrices keeps the class."""
    rng = np.random.default_rng(5)
    for form, label in ((fold_form(), "A1"), (cusp_form(), "A2")):
        for _ in range(5):
            M = random_unimodular_matrix(4, rng)
            L = random_unimodular_matrix(4, rng)
            G = GeneralMap(tuple(linear_conjugate(form.components, M, L)))
            assert classify(G, ORIGIN).label == label


def test_jet_values_match_symbolic_tower():
    """Jet-based tower values equal symbolic tower evaluation."""
    F = random_map((2, 2, 2, 2), seed=8, kind="complex")
    G = GeneralMap(F.components)
    p = np.array([0.3 - 0.1j, -0.7 + 0.2j, 0.5j, 1.1])
    base, levels = jet_tower_values(G, p, k_max=2)
    t = morin_tower(G, k_max=2)
    assert abs(base - t.base.evaluate(p)) < 1e-8 * (1 + abs(base))
    for k in range(1, 3):
        for i in range(4):
            ref = t.level(k, i).evaluate(p)
            assert abs(levels[k - 1][i] - ref) < 1e-6 * (1 + abs(ref))


def _chained_partials(components, points, r: int) -> np.ndarray:
    """d^r F at the points, dense, each entry a chain of ``Polynomial.partial`` calls."""
    n = len(components)
    out = np.empty((len(points),) + (n,) * (r + 1), dtype=complex)
    for i, *a in itertools.product(range(n), repeat=r + 1):
        f = components[i]
        for j in a:
            f = f.partial(j)
        out[(slice(None), i, *a)] = f.evaluate(points)
    return out


def _mixed_degree_map(seed: int) -> GeneralMap:
    """A rational square map whose components mix degrees 0 to 4."""
    rng = np.random.default_rng(seed)
    exponents = [e for e in itertools.product(range(5), repeat=4) if sum(e) <= 4]
    return GeneralMap(tuple(
        _poly4({exponents[k]: int(rng.integers(-9, 10)) or 1
                for k in rng.choice(len(exponents), size=12, replace=False)})
        for _ in range(4)))


@pytest.mark.parametrize("components", [
    random_map((2, 3, 5, 7), seed=5, kind="complex").components,
    _mixed_degree_map(3).components,
], ids=["homogeneous_2357", "mixed_degree"])
def test_partials_match_the_chain_of_polynomial_partials(components):
    """For r = 1, 2, 3 the coefficient table gives d^r F within 1e-12 of the
    largest entry of the chained ``Polynomial.partial`` values, on a
    (2,3,5,7) map and on a non-homogeneous rational map."""
    rng = np.random.default_rng(21)
    points = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
    partials = Partials(components)
    for r in (1, 2, 3):
        got, want = partials.at(points, r), _chained_partials(components, points, r)
        assert got.shape == (6,) + (4,) * (r + 1)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), r


@pytest.mark.parametrize("components", [
    tuple(Polynomial(4, {e: 1 + k for k, e in enumerate(terms)}, "complex") for terms in (
        [(65536, 0, 0, 0), (1, 1, 0, 0)], [(0, 3, 0, 0), (0, 0, 1, 1)],
        [(0, 0, 2, 0), (1, 0, 0, 1)], [(0, 0, 0, 5), (2, 1, 0, 0)])),
    tuple(Polynomial(10, {tuple(100 * (j == i) for j in range(10)): 1,
                          tuple(int(j in (i, (i + 1) % 10)) for j in range(10)): 2j}, "complex")
          for i in range(10)),
], ids=["x1_power_65536", "ten_variables_degree_100"])
def test_partials_with_monomial_keys_past_int64_match_the_chained_partials(components):
    """Mixed-radix keys in base 65536 over 4 variables (2^64), or 100 over 10,
    do not fit int64 and become Python ints; the order-1 and order-2 tables
    still give d^r F, at unit-modulus points where x1^65536 stays finite."""
    n = len(components)
    rng = np.random.default_rng(8)
    points = np.exp(2j * np.pi * rng.random((3, n)))
    partials = Partials(components)
    for r in (1, 2):
        monomials = partials._order(r)[0]
        assert (int(monomials.max()) + 1) ** n >= 2 ** 63, r
        got, want = partials.at(points, r), _chained_partials(components, points, r)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), r


def test_third_partials_of_a_quadratic_map_are_zero():
    """Every third partial of a quadratic map vanishes: the order-3 table is
    empty, and ``at`` still gives zeros of the dense shape (N, n, n, n, n)."""
    points = np.random.default_rng(4).standard_normal((3, 4)) + 0j
    third = Partials(random_map((2, 2, 2, 2), seed=1, kind="complex").components).at(points, 3)
    assert third.shape == (3, 4, 4, 4, 4) and not np.any(third)


def test_survey_and_cusp_hunt_differentiate_no_polynomial(monkeypatch):
    """F's partials come from the coefficient tables alone: a survey map and
    a cusp hunt make no ``Polynomial.partial`` call."""
    F = random_map((3, 3, 3, 3), seed=2, kind="complex")
    calls = []
    partial = Polynomial.partial

    def counted(self, i):
        calls.append(i)
        return partial(self, i)

    monkeypatch.setattr(Polynomial, "partial", counted)
    assert survey((2, 3, 5, 7), maps=1, lines=1, seed=1).points_found
    assert cusp_points(F, planes=1, seed=9)
    assert calls == []


def test_float_level_one_matches_the_jet_tower():
    """The float level-1 kernel (Jacobi's formula on evaluated partials) gives
    the row [J_{1,i}(p)] of the order-2 jet tower to 1e-12 relative: on the
    four normal forms at a float origin, before and after 5 unimodular
    conjugations each, and on 20 line-sampled critical points of a (2,3,5,7)
    map.  The scale is the row's size, or 1 where the jet row is exactly 0
    (integer germs whose level 1 vanishes).  The kernel's ||grad J(p)|| must
    match the jet tower's level-1 norms, read off the linear terms of J in
    all n variables, to 1e-12 of the larger of that norm and 1, and its
    singular values those of the jets' dF(p) to 1e-12 of the largest."""
    rng = np.random.default_rng(2024)
    cases = []
    for form in (fold_form(), cusp_form(), swallowtail_form(), corank2_form()):
        cases.append((form.components, [ORIGIN]))
        for _ in range(5):
            M = random_unimodular_matrix(4, rng)
            L = random_unimodular_matrix(4, rng)
            cases.append((linear_conjugate(form.components, M, L), [ORIGIN]))
    F = random_map((2, 3, 5, 7), seed=4, kind="complex")
    points = critical_points_on_lines(F, lines=2, seed=1)[:20]
    assert len(points) == 20
    cases.append((F.components, points))
    checked = 0
    for components, pts in cases:
        one = _level_one(Partials(components), pts)
        grad_norms = np.linalg.norm(one.grad, axis=-1)
        for p, row, grad_norm, sv in zip(pts, one.values, grad_norms, one.s):
            jets = [f.translate_truncated(p, 2) for f in components]
            ref_sv = np.linalg.svd(np.array(_linear_rows(jets), dtype=complex), compute_uv=False)
            assert np.max(np.abs(sv - ref_sv)) <= 1e-12 * max(ref_sv[0], 1.0), (p, sv, ref_sv)
            _, (values, norms) = _jet_tower(jets, 1)
            ref = np.array(values, dtype=complex)
            scale = max(float(np.max(np.abs(ref))), 1.0)
            assert np.max(np.abs(row - ref)) <= 1e-12 * scale, (p, row, ref)
            assert norms == [norms[0]] * 4, norms
            assert abs(grad_norm - norms[0]) <= 1e-12 * max(norms[0], 1.0), (p, grad_norm)
            checked += 1
    assert checked == 24 + 20


def _jet_level_two(components, p):
    """[J_{2,i}(p)] and [||grad J_{1,i}(p)||] from the order-3 jets at p."""
    _, _, (values, norms) = _jet_tower([f.translate_truncated(p, 3) for f in components], 2)
    return np.array(values, dtype=complex), np.array(norms)


def test_float_level_two_matches_the_jet_tower():
    """``_level_two`` (third partials, the SVD adjugate and its derivative)
    gives the jet tower's level 2 and its norms ||grad J_{1,i}(p)|| to 1e-10
    of the row's largest: at 5 random complex points each of a (3,3,3,3) and
    a (2,3,5,7) map, and at the cusp hunt's candidates on the (3,3,3,3) map,
    where level 1 vanishes and level 2 does not."""
    rng = np.random.default_rng(19)
    cases = []
    for degrees, seed in (((3, 3, 3, 3), 2), ((2, 3, 5, 7), 5)):
        F = random_map(degrees, seed=seed, kind="complex")
        cases.append((F, rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))))
    cusps = cusp_points(cases[0][0], planes=2, seed=9)
    assert cusps
    cases.append((cases[0][0], np.array([s.point for s in cusps])))
    checked = 0
    for F, points in cases:
        partials = Partials(F.components)
        values, norms = _level_two(partials, points, _level_one(partials, points))
        for p, row, norm in zip(points, values, norms):
            ref, ref_norm = _jet_level_two(F.components, p)
            assert np.max(np.abs(row - ref)) <= 1e-10 * np.max(np.abs(ref)), (p, row, ref)
            assert np.max(np.abs(norm - ref_norm)) <= 1e-10 * np.max(ref_norm), (p, norm)
            checked += 1
    assert checked == 10 + len(cusps)


def test_adjugate_derivative_matches_the_inverse_formula():
    """At invertible A, D adj(A)[E] = (tr(adj A E) adj A - adj A E adj A) / det A;
    the SVD form gives it to 1e-12 of its largest entry with no inverse."""
    rng = np.random.default_rng(7)
    a = rng.standard_normal((6, 4, 4)) + 1j * rng.standard_normal((6, 4, 4))
    e = rng.standard_normal((6, 3, 4, 4)) + 1j * rng.standard_normal((6, 3, 4, 4))
    det = np.linalg.det(a)[:, None, None, None]
    adj = (det[:, 0] * np.linalg.inv(a))[:, None]
    ref = (np.trace(adj @ e, axis1=-2, axis2=-1)[..., None, None] * adj - adj @ e @ adj) / det
    got = _adjugate_derivative(*np.linalg.svd(a), e)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_float_normal_forms_keep_their_class(monkeypatch):
    """Criterion 04's germs as complex maps, each under 5 unimodular changes,
    keep their class at the float origin.  Level 2 comes from one
    ``_level_two`` call exactly where level 1 vanishes at corank 1 (A2, A3);
    the A3 germs' level 2 vanishes there and level 3 comes from the jets."""
    calls = []
    original = morin._level_two

    def counted(partials, points, one):
        calls.append(len(points))
        return original(partials, points, one)

    monkeypatch.setattr(morin, "_level_two", counted)
    rng = np.random.default_rng(2024)
    forms = ((fold_form(), "A1"), (cusp_form(), "A2"), (swallowtail_form(), "A3"),
             (corank2_form(), "corank_ge_2"))
    for form, label in forms:
        for _ in range(5):
            M = random_unimodular_matrix(4, rng)
            L = random_unimodular_matrix(4, rng)
            G = GeneralMap(tuple(f.as_complex() for f in linear_conjugate(form.components, M, L)))
            calls.clear()
            verdict = classify(G, ORIGIN)
            assert verdict.label == label, (label, M, L)
            assert calls == ([1] if label in ("A2", "A3") else []), (label, calls)
            if label == "A3":
                assert set(verdict.diagnostics["levels"]) == {"1", "2", "3"}


def test_classify_from_values_round_trip():
    """Precomputed jet values and staged classify reach the same decision."""
    forms = ((fold_form(), "A1"), (cusp_form(), "A2"),
             (swallowtail_form(), "A3"), (corank2_form(), "corank_ge_2"))
    for F, label in forms:
        for origin in (ORIGIN, (0, 0, 0, 0)):
            base, levels = jet_tower_values(F, origin, k_max=4)
            v = classify_from_values(F, origin, base, levels)
            assert v.label == classify(F, origin).label == label
    F = random_map((2, 2, 2, 2), seed=8, kind="complex")
    points = critical_points_on_lines(F, lines=2, seed=0)
    assert points
    for p in points:
        base, levels = jet_tower_values(F, p, k_max=4)
        for tol in (1e-7, 1e-6, 1e-8):
            staged = classify(F, p, tol=tol)
            bulk = classify_from_values(F, p, base, levels, tol=tol)
            assert staged.label == bulk.label == "A1"
            assert staged.diagnostics["corank"] == bulk.diagnostics["corank"] == 1


def _count_jet_work(monkeypatch):
    """Count Polynomial.translate_truncated calls per jet order and PolyMatrix.det calls."""
    calls = collections.Counter()

    def translate(self, point, max_degree, _original=Polynomial.translate_truncated):
        calls[f"order {max_degree}"] += 1
        return _original(self, point, max_degree)

    def det(self, *args, _original=PolyMatrix.det, **kwargs):
        calls["det"] += 1
        return _original(self, *args, **kwargs)

    monkeypatch.setattr(Polynomial, "translate_truncated", translate)
    monkeypatch.setattr(PolyMatrix, "det", det)
    return calls


def test_k_max_below_one_is_rejected(monkeypatch):
    """Every classifying entry point refuses an empty tower instead of
    answering indeterminate, and a non-integer k_max is a ValueError that
    names it, both before the first Taylor jet is built."""
    calls = _count_jet_work(monkeypatch)
    with pytest.raises(ValueError, match="k_max must be >= 1"):
        classify(fold_form(), ORIGIN, k_max=0)
    with pytest.raises(ValueError, match="k_max must be >= 1"):
        classify(fold_form(), np.array([0.0, 0.0, 0.0, 1.0]), k_max=-1)
    with pytest.raises(ValueError, match="k_max must be >= 1"):
        classify_from_values(fold_form(), ORIGIN, 0.0, [])
    for bad, message in ((2.5, "k_max must be an integer, got 2.5"), (0, "k_max must be >= 1")):
        for call in (lambda: classify(fold_form(), (0, 0, 0, 0), k_max=bad),
                     lambda: morin_tower(fold_form(), bad)):
            with pytest.raises(ValueError, match=message):
                call()
    assert not calls
    assert classify(fold_form(), (0, 0, 0, 0), k_max=np.int64(2)).label == "A1"
    assert jet_tower_values(fold_form(), (0, 0, 0, 0), 0) == (0, [])


@pytest.mark.parametrize("form, depth", [(fold_form, 1), (cusp_form, 2), (swallowtail_form, 3)])
def test_one_jet_tower_per_point(monkeypatch, form, depth):
    """An exact A_r germ at the origin translates its n order-(k_max+1) jets
    once, reads dF(p) off them, and pulls r levels off one tower that builds
    no determinant polynomial: J and the adjugate of dF come from one set of
    cofactors on the jets' truncated series, and each level from n^2 products
    with it, so no level, however deep, calls ``PolyMatrix.det``."""
    calls = _count_jet_work(monkeypatch)
    assert classify(form(), (0, 0, 0, 0), k_max=4).label == f"A{depth}"
    assert calls == {"order 5": 4}


def test_points_off_the_jet_tower_build_no_determinant(monkeypatch):
    """An exact point that is regular or of corank 2, on or off the origin,
    never asks for a level: it builds its one set of order-(k_max+1) jets
    and no determinant.  A float A1 or A2 point gets its levels from F's
    partials and never pulls its tower, so it translates nothing."""
    calls = _count_jet_work(monkeypatch)
    off = (Fraction(1, 3), Fraction(-2, 7), 1, Fraction(5, 2))
    for form, p, label in ((corank2_form(), (0, 0, 0, 0), "corank_ge_2"),
                           (corank2_form(), off[:2] + (0, 0), "corank_ge_2"),
                           (fold_form(), off, "regular"), (swallowtail_form(), off, "regular")):
        assert classify(form, p).label == label
    assert calls == {"order 5": 16}
    for form, label in ((fold_form(), "A1"), (cusp_form(), "A2")):
        assert classify(form, ORIGIN).label == label
    assert calls == {"order 5": 16}


@pytest.mark.parametrize("tol", [-1.0, 0.0, 1.0, 2.0, float("nan")])
def test_tolerance_outside_the_unit_interval_is_rejected(tol):
    """The float rule's tolerance lies in (0, 1): a negative one would call
    every point regular and NaN every point corank >= 2, so every entry point
    refuses it, survey included."""
    p = np.array([0.0, 0.0, 0.0, 1.0])
    with pytest.raises(ValueError, match="tol must lie in"):
        classify(fold_form(), p, tol=tol)
    with pytest.raises(ValueError, match="tol must lie in"):
        corank_at(fold_form(), p, tol=tol)
    base, levels = jet_tower_values(fold_form(), p, k_max=2)
    with pytest.raises(ValueError, match="tol must lie in"):
        classify_from_values(fold_form(), p, base, levels, tol=tol)
    with pytest.raises(ValueError, match="tol must lie in"):
        survey((2, 2, 2, 2), maps=1, lines=1, seed=0, tol=tol)


def test_classification_scale_invariant():
    """Scaling the point along the fold cone, or F itself, does not change the
    verdict: the 13 line points of a (2,3,5,7) map stay A1 with F times 1e-2
    and 1e2, and the float cusp normal form times 1e-3 stays A2 at 0."""
    F = random_map((2, 2, 2, 2), seed=8, kind="complex")
    G = GeneralMap(F.components)
    p = np.asarray(critical_points_on_lines(F, lines=1, seed=0)[0])
    for scale in (1.0, 10.0, 1000.0):
        assert classify(G, scale * p).label == "A1"
    F = random_map((2, 3, 5, 7), seed=5, kind="complex")
    points = critical_points_on_lines(F, lines=1, seed=0)
    assert len(points) == 13
    for scale in (1e-2, 1.0, 1e2):
        G = GeneralMap(tuple(f * scale for f in F.components))
        assert [classify(G, p).label for p in points] == ["A1"] * 13, scale
    cusp = GeneralMap(tuple(f.as_complex() * 1e-3 for f in cusp_form().components))
    assert classify(cusp, ORIGIN).label == "A2"


def test_corank_at_exact_and_float():
    """corank is 1 on the fold form and 2 on the doubled form, both kinds."""
    assert corank_at(fold_form(), ORIGIN) == 1
    assert corank_at(corank2_form(), ORIGIN) == 2
    Fc = GeneralMap(tuple(c.as_complex() for c in corank2_form().components))
    assert corank_at(Fc, ORIGIN) == 2


@pytest.mark.parametrize("container", [tuple, list, lambda p: np.array(p, dtype=object)],
                         ids=["tuple", "list", "object-ndarray"])
def test_every_caller_takes_ints_and_fractions_as_an_exact_point(container):
    """F = (125 x1^3 - x2^3, x1^2 + x2^2): f1 vanishes at p = (1/5, 1), where a
    float evaluation leaves 2.2e-16, and J vanishes at q = (1/5, -25).  In a
    tuple, a list or an object ndarray, the Fractions are an exact point for
    the evaluator, the jets, the ray multiplicity and the classifier alike."""
    F = HomogeneousMap((3, 2), (Polynomial(2, {(3, 0): 125, (0, 3): -1}),
                                Polynomial(2, {(2, 0): 1, (0, 2): 1})))
    p, q = container((Fraction(1, 5), 1)), container((Fraction(1, 5), -25))
    f1 = F.components[0]
    assert f1.evaluate(p) == 0 and isinstance(f1.evaluate(p), Fraction)
    assert f1.translate_truncated(p, 2) == f1.translate_truncated((Fraction(1, 5), 1), 2)
    assert f1.translate_truncated(p, 2).kind == "rational"
    assert ray_multiplicity(F, p) == 2          # gcd(3, 2) = 1 if f1(p) were not 0
    assert corank_at(F, q) == 1
    verdict = classify(F, q)
    assert verdict.diagnostics["tol"] is None and verdict.diagnostics["abs_jdet"] == 0
    assert verdict == classify(F, (Fraction(1, 5), -25))


def _fraction_map(zero_row=None):
    """A map with Fraction coefficients, denominators up to 7; component
    `zero_row`, if given, is the zero polynomial."""
    comps = [_poly4({X1: Fraction(2, 3), (0, 1, 1, 0): Fraction(-1, 5)}),
             _poly4({X2: Fraction(5, 7), (1, 0, 0, 1): Fraction(3, 2), (0, 0, 2, 0): Fraction(1, 4)}),
             _poly4({X3: 1, (0, 0, 0, 2): Fraction(-4, 7), (1, 1, 0, 0): Fraction(1, 6)}),
             _poly4({(0, 0, 0, 3): Fraction(1, 3), (1, 0, 0, 1): Fraction(-2, 5),
                     (0, 2, 0, 1): Fraction(6, 7), (0, 0, 1, 1): Fraction(1, 2)})]
    if zero_row is not None:
        comps[zero_row] = Polynomial.zero(4)
    return GeneralMap(tuple(comps))


@pytest.mark.parametrize("zero_row", [None, 2])
def test_exact_jet_tower_divides_its_scaling_back_exactly(zero_row):
    """The jet tower at a Fraction point clears each jet's denominators and
    runs on ints; what it returns is exactly the symbolic tower at the point,
    as Fractions: J, the levels and the norms ||grad J_{r-1,i}(p)||.  A zero
    component (a jet whose lcm is over no terms) gives an exact zero tower."""
    G = _fraction_map(zero_row)
    p = (Fraction(1, 3), Fraction(-2, 7), 1, Fraction(5, 2))
    tower = morin_tower(G, 2)
    base, levels = jet_tower_values(G, p, k_max=3)
    assert all(type(c) is Fraction for L in (tower.base, *tower.levels[0], *tower.levels[1])
               for c in L.terms.values())
    assert type(base) is Fraction and base == tower.base.evaluate(p)
    assert all(type(v) is Fraction for row in levels for v in row)
    assert levels[:2] == [[tower.level(r, i).evaluate(p) for i in range(4)] for r in (1, 2)]
    _, *pulled = _jet_tower([f.translate_truncated(p, 3) for f in G.components], 2)
    norms = [norms for _, norms in pulled]
    chains = [[tower.base, tower.level(1, i)] for i in range(4)]
    assert norms == [[math.hypot(*map(abs, (g.evaluate(p) for g in chain[r].gradient())))
                      for chain in chains] for r in (0, 1)]
    if zero_row is not None:
        assert base == 0 and not any(v for row in levels for v in row)
    else:
        assert base != 0 and all(levels[0])


def _rational_map(n: int, seed: int) -> GeneralMap:
    """A non-homogeneous rational map in n variables: four terms of degree 0
    to 2 with Fraction coefficients per component, and in the first one the
    term x_n^4 as well, of degree k_max + 1 = 4 at k_max = 3: the largest
    exponent the jet tower's monomial keys hold."""
    rng = np.random.default_rng(seed)
    exponents = [e for e in itertools.product(range(3), repeat=n) if sum(e) <= 2]
    comps = [{exponents[k]: Fraction(int(rng.integers(1, 7)) * int(rng.choice([-1, 1])),
                                     int(rng.integers(1, 5)))
              for k in rng.choice(len(exponents), size=4, replace=False)} for _ in range(n)]
    comps[0][(0,) * (n - 1) + (4,)] = Fraction(3, 2)
    return GeneralMap(tuple(Polynomial(n, terms) for terms in comps))


def _exact_points(n: int):
    """Two rational points off the origin, the first with a zero coordinate."""
    return [(0,) + tuple(Fraction(k + 2, 3) for k in range(n - 1)),
            tuple(Fraction((-1) ** k * (2 * k + 1), k + 2) for k in range(n))]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_jet_tower_equals_the_symbolic_tower_exactly(n):
    """At rational points off the origin the jet tower gives exactly what the
    symbolic tower (``morin_tower``, one ``PolyMatrix.det`` per level and
    row) gives there: J(p), every J_{r,i}(p) for r <= 3 and every norm
    ||grad J_{r-1,i}(p)||, on two non-homogeneous rational maps per n."""
    for seed in (n, n + 10):
        F = _rational_map(n, seed)
        tower = morin_tower(F, 3)
        for p in _exact_points(n):
            base, *pulled = _jet_tower([f.translate_truncated(p, 4) for f in F.components], 3)
            assert base == tower.base.evaluate(p) != 0
            assert [values for values, _ in pulled] == [
                [tower.level(r, i).evaluate(p) for i in range(n)] for r in (1, 2, 3)]
            below = [[tower.base] * n] + [list(level) for level in tower.levels[:2]]
            assert [norms for _, norms in pulled] == [
                [math.hypot(*(abs(g.evaluate(p)) for g in L.gradient())) for L in row]
                for row in below]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_jet_tower_on_a_graph_form_is_the_iterated_partial(n):
    """Criterion 05's identity at exact points, with no ``PolyMatrix`` in the
    oracle: on F = (x_1, ..., x_{n-1}, g), J(p) = d_n g(p) and J_{r,n}(p) =
    d_n^{r+1} g(p) for r <= 3, at the two rational points off the origin."""
    g = _rational_map(n, 7 * n).components[0]
    F = GeneralMap(tuple(Polynomial.variable(j, n) for j in range(n - 1)) + (g,))
    for p in _exact_points(n):
        base, levels = jet_tower_values(F, p, k_max=3)
        partials = [g.partial(n - 1)]
        for _ in range(3):
            partials.append(partials[-1].partial(n - 1))
        assert [base] + [row[n - 1] for row in levels] == [d.evaluate(p) for d in partials]


def test_float_jet_tower_matches_the_exact_one_at_a_dyadic_point():
    """At a dyadic point, which floats hold exactly, the float jet tower's
    level-3 values agree with the exact tower's to 1e-12 of the row's largest,
    on the non-homogeneous maps for n = 2, 3, 4."""
    for n in (2, 3, 4):
        F = _rational_map(n, n)
        p = tuple(Fraction((-1) ** k * (2 * k + 3), 2 ** (k + 1)) for k in range(n))
        _, exact = jet_tower_values(F, p, k_max=3)
        _, floats = jet_tower_values(F, np.array([float(v) for v in p]), k_max=3)
        ref = np.array(exact[2], dtype=complex)
        assert np.max(np.abs(ref)) > 0
        assert np.max(np.abs(np.array(floats[2]) - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_monomial_key_table_lists_only_the_low_degree_monomials():
    """The jet tower's key table holds the monomials of degree <= k_max + 1
    alone, never every key below radix^n: an n = 8 fold at the origin with
    k_max = 10 (C(19, 8) = 75,582 monomials, where 12^8 keys would be 4.3e8)
    classifies in under 2 s, best of two calls that each build the table."""
    n = 8
    F = GeneralMap(tuple(Polynomial.variable(j, n) for j in range(n - 1))
                   + (Polynomial(n, {(0,) * (n - 1) + (2,): 1}),))
    times = []
    for _ in range(2):
        morin._monomial_keys.cache_clear()
        start = time.perf_counter()
        assert classify(F, (0,) * n, k_max=10).label == "A1"
        times.append(time.perf_counter() - start)
    assert min(times) < 2.0, times
    assert len(morin._monomial_keys(n, 11)[1]) == math.comb(19, 8)
    morin._monomial_keys.cache_clear()      # the n = 8 table holds about 10 MB


@pytest.mark.parametrize("k_max", [1, 2, 4])
def test_one_batch_decides_as_each_point_alone(k_max):
    """``_classify_at`` on a batch, at three tolerances, returns exactly the
    verdicts and diagnostics ``classify`` gives each point alone: the four
    normal forms at the exact and the float origin and at a regular point,
    their complex copies, and the line points of a (2,2,2,2) map with its
    origin.  A germ deeper than k_max is indeterminate: A3 at k_max = 2."""
    tols = (1e-7, 1e-6, 1e-8)
    regular = np.array([0.0, 0.0, 1.0, 1.0])
    cases = []
    for form, label, depth in ((fold_form(), "A1", 1), (cusp_form(), "A2", 2),
                               (swallowtail_form(), "A3", 3), (corank2_form(), "corank_ge_2", 1)):
        label = label if k_max >= depth else "indeterminate"
        complex_copy = GeneralMap(tuple(f.as_complex() for f in form.components))
        cases.append((form, [(0, 0, 0, 0), regular, ORIGIN], [label, "regular", label]))
        cases.append((complex_copy, [ORIGIN, regular], [label, "regular"]))
    F = random_map((2, 2, 2, 2), seed=8, kind="complex")
    points = critical_points_on_lines(F, lines=1, seed=0)
    cases.append((F, [*points, ORIGIN], ["A1"] * len(points) + ["corank_ge_2"]))
    for G, batch, labels in cases:
        got = _classify_at(G, batch, tols, k_max)
        assert got == [[classify(G, p, k_max, tol) for tol in tols] for p in batch]
        assert [v.label for v, *_ in got] == labels, (G, k_max)


@pytest.mark.parametrize("kind", ["rational", "complex"])
def test_bad_points_are_a_clear_value_error(kind):
    """A point of the wrong length, or a float point with a NaN or infinite
    entry, is a ValueError that says so, from classify and corank_at alike."""
    F = fold_form()
    if kind == "complex":
        F = GeneralMap(tuple(f.as_complex() for f in F.components))
    bad = (((0, 0, 0), "point length 3 != n_vars 4"),
           ((0.0, 0.0, 0.0), "point length 3 != n_vars 4"),
           ((0, 0, 0, 0, 1), "point length 5 != n_vars 4"),
           (np.zeros(5), "point length 5 != n_vars 4"),
           ((0.0, 0.0, np.nan, 1.0), "non-finite"),
           ((0.0, np.inf, 0.0, 1.0), "non-finite"))
    for p, message in bad:
        with pytest.raises(ValueError, match=message):
            classify(F, p)
        with pytest.raises(ValueError, match=message):
            corank_at(F, p)


def test_general_map_requires_square():
    """GeneralMap rejects component counts different from n_vars."""
    with pytest.raises(ValueError):
        GeneralMap((_poly4({X1: 1}),))


def _scalar_decide(exact_rows, s, measured, tols, k_max, table):
    """The decision one (point, tolerance) cell at a time, on Python scalars:
    the rule ``_decide`` keeps, with `table[m][r - 1]` = level r at point m."""
    floats = [m for m, rows in enumerate(exact_rows) if rows is None]
    out = []
    for m, rows in enumerate(exact_rows):
        cells = []
        for tol in tols:
            if rows is not None:
                corank, adj_norm = len(rows) - exact_rank(rows), None
            else:
                sv = s[floats.index(m)]
                corank = len(sv) - int(np.sum(sv > tol * sv[0]))
                adj_norm = float(np.prod(sv[:-1]))
            diag = {**measured[m], "tol": None if rows is not None else tol, "levels": {},
                    "corank": corank}
            verdict = SingularityClass("regular" if corank == 0 else "corank_ge_2",
                                       diagnostics=diag)
            if corank == 1:
                verdict = SingularityClass("indeterminate", diagnostics=diag)
                for r in range(1, k_max + 1):
                    values, norms = table[m][r - 1]
                    diag["levels"][str(r)] = float(max(abs(complex(v)) for v in values))
                    if any(v != 0 if rows is not None else abs(complex(v)) > tol * g * adj_norm
                           for v, g in zip(values, norms)):
                        verdict = SingularityClass("morin", k=r, diagnostics=diag)
                        break
            cells.append(verdict)
        out.append(cells)
    return out


def test_batched_decide_matches_the_scalar_rule():
    """``_decide`` on arrays gives exactly the verdicts and diagnostics of the
    cell-by-cell rule on one mixed batch: singular values tied with
    tol * sigma_1, a level value whose np.abs is one ulp above Python's abs
    and whose threshold tol * g * ||adj|| is exactly abs(v), exact and float
    points, corank >= 2 at some tolerances and 1 at others, and exact and
    float cells left indeterminate."""
    rng = np.random.default_rng(28)
    edgy = next(v for v in rng.standard_normal(1000) + 1j * rng.standard_normal(1000)
                if np.abs(v) > abs(v))
    zeros4 = [Fraction(0)] * 4
    k_max, tols = 3, (0.5, 0.25, 0.75)
    corank_one = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0]]
    big = np.array([1.0, 0.0, 0.0, 2.0]) + 0j
    # (exact rows or None, singular values, [(level values, norms)] for r = 1..3)
    points = [
        (None, [1.0, 1.0, 1.0, 0.5],                    # a tie: corank 1 at tol 0.5 only
         [(big * 1e-3, [1.0] * 4), (big, [1.0] * 4), (big, [1.0] * 4)]),
        (corank_one, None, [(zeros4, [1.0] * 4), ([0, Fraction(1, 3), 0, 0], [2.0] * 4),
                            (zeros4, [0.0] * 4)]),
        (None, [1.0, 0.75, 0.5, 0.25], [(big, [1.0] * 4)] * 3),    # corank 2, 1 and 3
        (None, [1.0, 1.0, 1.0, 1e-3], [(np.zeros(4, complex), [1.0] * 4)] * 3),
        ([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], None, []),
        ([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]], None, []),
        (None, [1.0, 1.0, 1.0, 1e-3],                   # abs(edgy) is the tol 0.5 threshold
         [(np.array([edgy, 0, 0, 0]), [2.0 * abs(edgy), 1.0, 1.0, 1.0]),
          (big, [1.0] * 4), (big, [1.0] * 4)]),
        (corank_one, None, [(zeros4, [0.0] * 4)] * 3),
    ]
    exact_rows = [rows for rows, _, _ in points]
    s = np.array([sv for rows, sv, _ in points if rows is None])
    measured = [{"abs_jdet": float(m), "jdet_bound": None} for m in range(len(points))]
    table = [levels for _, _, levels in points]
    floats = [m for m, rows in enumerate(exact_rows) if rows is None]
    asked = []

    def level(r, exact, rows):
        asked.append((r, list(exact), [floats[f] for f in rows]))
        picked = [table[floats[f]][r - 1] for f in rows]
        return ([table[m][r - 1] for m in exact],
                np.array([v for v, _ in picked], dtype=complex).reshape(-1, 4),
                np.array([g for _, g in picked]).reshape(-1, 4))

    got = _decide(exact_rows, s, measured, tols, k_max, level)
    assert got == _scalar_decide(exact_rows, s, measured, tols, k_max, table)
    assert [[v.label for v in cells] for cells in got] == [
        ["A2", "regular", "A2"], ["A2"] * 3, ["corank_ge_2", "A1", "corank_ge_2"],
        ["indeterminate"] * 3, ["regular"] * 3, ["corank_ge_2"] * 3, ["A2", "A1", "A2"],
        ["indeterminate"] * 3]
    # each level is asked for once, at the points with a cell still open
    assert asked == [(1, [1, 7], [0, 2, 3, 6]), (2, [1, 7], [0, 3, 6]), (3, [7], [3])]


def test_exact_points_do_no_array_work(monkeypatch):
    """With numpy out of reach of the classifier, exact points still classify:
    the decision and its level source touch no array for them."""
    monkeypatch.setattr(morin, "np", None)
    for form, label in ((fold_form(), "A1"), (cusp_form(), "A2"),
                        (swallowtail_form(), "A3"), (corank2_form(), "corank_ge_2")):
        verdict = classify(form, (0, 0, 0, 0))
        assert verdict.label == label
        assert verdict.diagnostics["tol"] is None and verdict.diagnostics["jdet_bound"] is None
    assert corank_at(fold_form(), (0, 0, 1, Fraction(1, 2))) == 0


def test_a_map_keeps_one_partials(monkeypatch):
    """classify and corank_at on a HomogeneousMap or a GeneralMap build each
    coefficient table once per map object, and the line slicer, the survey and
    the cusp hunt read the tables the map keeps; equality, hash and repr do
    not see them."""
    builds = []
    original = Partials._order

    def counted(self, r):
        if r not in self._orders:
            builds.append(r)
        return original(self, r)

    monkeypatch.setattr(Partials, "_order", counted)
    F = random_map((2, 2, 2, 2), seed=8, kind="complex")
    G = GeneralMap(F.components)
    points = critical_points_on_lines(F, lines=1, seed=0)
    for H in (F, G):
        for p in points:
            assert classify(H, p).label == "A1"
            assert corank_at(H, p) == 1
    assert builds == [1, 2, 1, 2]
    twin = random_map((2, 2, 2, 2), seed=8, kind="complex")
    for H, other in ((F, twin), (G, GeneralMap(twin.components))):
        assert H == other and hash(H) == hash(other) and repr(H) == repr(other)
    builds.clear()
    survey((2, 3, 5, 7), maps=1, lines=1, seed=1)
    assert builds == [1, 2]
    builds.clear()
    sols = cusp_points(F, planes=1, seed=6)
    assert sols and builds == [3]
    assert all(classify(F, s.point).label == "A2" for s in sols)
    assert builds == [3]
