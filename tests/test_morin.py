"""Iterated-determinant tower and singularity classification."""

from fractions import Fraction

import numpy as np
import pytest

from morin_census import (
    GeneralMap,
    Polynomial,
    classify,
    classify_from_values,
    corank_at,
    critical_points_on_lines,
    jet_tower_values,
    linear_conjugate,
    morin_tower,
    random_map,
    survey,
)
from morin_census.linalg import random_unimodular_matrix
from morin_census.morin import _level_one, _linear_rows, _tower_values_at

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
        _, rows, grad_norms, spectra = _level_one(components, pts)
        for p, row, grad_norm, sv in zip(pts, rows, grad_norms, spectra):
            jets = [f.translate_truncated(p, 2) for f in components]
            ref_sv = np.linalg.svd(np.array(_linear_rows(jets), dtype=complex), compute_uv=False)
            assert np.max(np.abs(sv - ref_sv)) <= 1e-12 * max(ref_sv[0], 1.0), (p, sv, ref_sv)
            _, values, norms = _tower_values_at(jets, 1)
            ref = np.array(values[0], dtype=complex)
            scale = max(float(np.max(np.abs(ref))), 1.0)
            assert np.max(np.abs(row - ref)) <= 1e-12 * scale, (p, row, ref)
            assert norms[0] == [norms[0][0]] * 4, norms
            assert abs(grad_norm - norms[0][0]) <= 1e-12 * max(norms[0][0], 1.0), (p, grad_norm)
            checked += 1
    assert checked == 24 + 20


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


def test_k_max_below_one_is_rejected():
    """Both entry points refuse an empty tower instead of answering indeterminate."""
    with pytest.raises(ValueError, match="k_max must be >= 1"):
        classify(fold_form(), ORIGIN, k_max=0)
    with pytest.raises(ValueError, match="k_max must be >= 1"):
        classify(fold_form(), np.array([0.0, 0.0, 0.0, 1.0]), k_max=-1)
    with pytest.raises(ValueError, match="k_max must be >= 1"):
        classify_from_values(fold_form(), ORIGIN, 0.0, [])


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


def test_general_map_requires_square():
    """GeneralMap rejects component counts different from n_vars."""
    with pytest.raises(ValueError):
        GeneralMap((_poly4({X1: 1}),))
