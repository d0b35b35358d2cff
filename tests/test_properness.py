"""Resultant-based properness certificates and the sphere falsifier."""

import re
import time
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from morin_census import (
    INCONCLUSIVE,
    NOT_PROPER,
    PROPER,
    HomogeneousMap,
    Polynomial,
    linalg,
    macaulay_matrix,
    macaulay_resultant_certificate,
    properness,
    properness_verdict,
    random_map,
    sphere_falsifier,
    sylvester_matrix,
    sylvester_resultant,
)
from morin_census.linalg import _CERTIFICATE_PRIME, exact_rank


def _uni(coeffs_ascending):
    """Univariate polynomial from ascending coefficients."""
    return Polynomial(1, {(i,): c for i, c in enumerate(coeffs_ascending) if c != 0})


def _not_proper_map():
    """(x1^2, x1 x2, x3^2, x4^2): every point of the x2-axis maps to 0."""
    comps = (
        Polynomial(4, {(2, 0, 0, 0): 1}),
        Polynomial(4, {(1, 1, 0, 0): 1}),
        Polynomial(4, {(0, 0, 2, 0): 1}),
        Polynomial(4, {(0, 0, 0, 2): 1}),
    )
    return HomogeneousMap((2, 2, 2, 2), comps)


def _planted_zero_map(seed):
    """A random (2,2,2) map shifted so that all components vanish at a nonzero integer point."""
    rng = np.random.default_rng(seed)
    F = random_map((2, 2, 2), seed=int(rng.integers(2 ** 31)))
    zero = [0, 0, 0]
    while not any(zero):
        zero = [int(v) for v in rng.integers(-3, 4, size=3)]
    k = max(range(3), key=lambda i: abs(zero[i]))
    power = tuple(2 * int(j == k) for j in range(3))
    comps = tuple(f - Polynomial(3, {power: Fraction(f.evaluate(zero)) / zero[k] ** 2})
                  for f in F.components)
    return HomogeneousMap((2, 2, 2), comps)


def _assert_unit_witness(F, witness):
    w = np.asarray(witness)
    assert abs(np.linalg.norm(w) - 1) < 1e-9
    assert np.linalg.norm(F.evaluate(w)) < 1e-10


# ------------------------------------------------------------- sylvester
def test_sylvester_linear_convention():
    """Res(x - a, x - b) = b - a pins the row order."""
    a, b = Fraction(2), Fraction(5)
    p = _uni([-a, 1])
    q = _uni([-b, 1])
    assert sylvester_resultant(p, q) == b - a


def test_sylvester_detects_shared_root():
    """Res(x^2 - 1, x - 1) = 0."""
    assert sylvester_resultant(_uni([-1, 0, 1]), _uni([-1, 1])) == 0


def test_sylvester_matrix_shape():
    """deg p + deg q square matrix with q rows stacked on top; two constants
    give the 0 x 0 matrix, and a resultant of 1 in either kind."""
    m = sylvester_matrix([1, 0, -1], [3, 2])   # descending coefficients
    assert len(m) == 3 and all(len(r) == 3 for r in m)
    assert m[0][0] == 3   # leading coefficient of q in the top-left corner
    assert sylvester_matrix([3], [2]).shape == (0, 0)
    assert sylvester_resultant(_uni([3]), _uni([2])) == 1
    assert sylvester_resultant(_uni([3]).as_complex(), _uni([2]).as_complex()) == 1


def test_sylvester_scale_covariance():
    """Res(c*p, q) = c^deg(q) * Res(p, q)."""
    p = _uni([1, 2, 1])
    q = _uni([-3, 0, 0, 1])
    assert sylvester_resultant(p * 5, q) == 5 ** 3 * sylvester_resultant(p, q)


def test_sylvester_binary_homogeneous_forms():
    """Binary forms are dehomogenized with their total degree as formal degree."""
    # p = x^2 - y^2, q = x - y share the root (1 : 1)
    p = Polynomial(2, {(2, 0): 1, (0, 2): -1})
    q = Polynomial(2, {(1, 0): 1, (0, 1): -1})
    assert sylvester_resultant(p, q) == 0


def test_sylvester_rejects_zero_polynomial():
    """The zero polynomial has no well-defined resultant here."""
    with pytest.raises(ValueError):
        sylvester_resultant(_uni([]), _uni([1, 1]))


# ------------------------------------------------------------- macaulay
def test_macaulay_matrix_dimensions():
    """One row s * f_i per monomial s of degree nu - d_i; columns are the degree-nu monomials."""
    F = random_map((2, 3, 4), seed=0)
    rows, monomials, assignment = macaulay_matrix(F)
    n = F.n
    nu = sum(d - 1 for d in F.degrees) + 1
    assert len(monomials) == comb(nu + n - 1, n - 1)
    assert all(sum(m) == nu for m in monomials)
    per_component = [comb(nu - d + n - 1, n - 1) for d in F.degrees]
    assert len(rows) == sum(per_component)
    assert all(len(r) == len(monomials) for r in rows)
    assert assignment == [i for i, c in enumerate(per_component) for _ in range(c)]


def test_macaulay_certifies_diagonal_power_map():
    """(x1^2, x2^2, x3^2) has only the origin as zero: certified proper."""
    comps = tuple(Polynomial(3, {tuple(2 * int(i == k) for i in range(3)): 1})
                  for k in range(3))
    F = HomogeneousMap((2, 2, 2), comps)
    v = macaulay_resultant_certificate(F)
    assert v.verdict == PROPER
    assert "has full rank" in v.certificate


def test_macaulay_rejects_complex_kind():
    """The exact certificate only applies to rational maps."""
    F = random_map((2, 2), seed=0, kind="complex")
    with pytest.raises(ValueError):
        macaulay_resultant_certificate(F)


def test_macaulay_matches_sylvester_for_two_variables():
    """For n = 2 the Macaulay determinant equals the Sylvester resultant up to sign."""
    for seed in range(5):
        F = random_map((2, 3), seed=seed)
        rows, _, _ = macaulay_matrix(F)
        from morin_census.linalg import exact_det
        mac = exact_det([list(r) for r in rows])
        syl = sylvester_resultant(F.components[0], F.components[1])
        assert mac == syl or mac == -syl


def test_macaulay_certifies_proper_map_whose_square_determinant_vanishes():
    """(2,2,2,2) seed 1000016: f1..f3 lack x1^2, f4 does not, and the map is proper.

    The square Macaulay determinant (one row per degree-nu monomial) is zero here.
    """
    v = macaulay_resultant_certificate(random_map((2, 2, 2, 2), seed=1000016))
    assert v.verdict == PROPER and v.witness is None


@pytest.mark.parametrize("seed", [97, 222, 227, 291, 302, 378, 457, 521, 527, 546,
                                  549, 555, 564, 568])
def test_planted_zero_maps_are_not_proper_with_witness(seed):
    """Planted-zero maps the sampling falsifier used to leave inconclusive."""
    F = _planted_zero_map(seed)
    v = properness_verdict(F)
    assert v.verdict == NOT_PROPER
    assert v.witness is not None
    _assert_unit_witness(F, v.witness)


def test_missing_pure_cubes_give_witness_on_first_axis():
    """(3,3,3) seed 1000016 lacks every x1^3 term, so (1,0,0) is a common zero."""
    F = random_map((3, 3, 3), seed=1000016)
    v = macaulay_resultant_certificate(F)
    assert v.verdict == NOT_PROPER
    _assert_unit_witness(F, v.witness)
    w = np.asarray(v.witness)
    assert abs(abs(w[0]) - 1) < 1e-9 and np.max(np.abs(w[1:])) < 1e-9


def test_fourfold_root_gets_witness():
    """(0,1,0,0) is a fourfold root: its eigenvalues split, and their mean is read off."""
    F = HomogeneousMap((3, 2, 2, 3), (
        Polynomial(4, {(1, 0, 0, 2): -1, (0, 0, 3, 0): 1}),
        Polynomial(4, {(2, 0, 0, 0): 1, (0, 1, 0, 1): -2}),
        Polynomial(4, {(2, 0, 0, 0): 2, (1, 0, 0, 1): 1, (0, 1, 1, 0): -2}),
        Polynomial(4, {(2, 0, 1, 0): -1, (0, 0, 0, 3): 2}),
    ))
    v = macaulay_resultant_certificate(F)
    assert v.verdict == NOT_PROPER
    _assert_unit_witness(F, v.witness)
    assert abs(abs(v.witness[1]) - 1) < 1e-6


def test_zero_component_is_not_proper():
    """A zero component leaves a curve of common zeros: the rank is deficient."""
    F = random_map((2, 2, 3), seed=3)
    Z = HomogeneousMap(F.degrees, (F.components[0], Polynomial(3, {}), F.components[2]))
    assert properness_verdict(Z).verdict == NOT_PROPER


def test_complex_copy_of_planted_map_gets_witness():
    """The float null space finds the planted zero without the exact certificate."""
    F = _planted_zero_map(97).as_complex()
    v = properness_verdict(F)
    assert v.verdict == NOT_PROPER
    _assert_unit_witness(F, v.witness)


def test_complex_map_past_the_cap_is_rejected():
    """The null-space reading builds the Macaulay matrix, so the column cap applies."""
    F = random_map((5, 5, 5, 5, 5), seed=0, kind="complex")
    with pytest.raises(ValueError, match="exceeds the cap"):
        properness_verdict(F)


def test_oversized_macaulay_matrix_is_refused_before_it_is_enumerated(monkeypatch):
    """The cap is checked on the side C(nu + n - 1, n - 1), before any
    degree-nu monomial is listed: (5,)*6 would list 142,506 of them."""
    def enumerate_monomials(n, degree):
        raise AssertionError(f"enumerated the degree-{degree} monomials in {n} variables")

    monkeypatch.setattr(properness, "_monomials_of_degree", enumerate_monomials)
    with pytest.raises(ValueError, match="exceeds the cap"):
        properness_verdict(random_map((5, 5, 5, 5, 5), seed=0, kind="complex"))
    with pytest.raises(ValueError, match="side 142506 exceeds the cap"):
        macaulay_resultant_certificate(random_map((5,) * 6, seed=1))


def _seeded_rational_map(seed, degrees):
    """A random map of `degrees`: integer coefficients, Fractions on odd seeds,
    and on every third seed a planted common zero at a small integer point."""
    rng = np.random.default_rng(seed)
    F = random_map(degrees, seed=seed, bound=5)
    n = len(degrees)
    comps = list(F.components)
    if seed % 2:
        comps = [Polynomial(n, {e: c / int(rng.integers(1, 8)) for e, c in f.terms.items()})
                 for f in comps]
    if seed % 3 == 0:
        zero = [0] * n
        while not any(zero):
            zero = [int(v) for v in rng.integers(-2, 3, size=n)]
        k = max(range(n), key=lambda i: abs(zero[i]))
        comps = [f - Polynomial(n, {tuple(d * int(j == k) for j in range(n)):
                                    Fraction(f.evaluate(zero)) / zero[k] ** d})
                 for d, f in zip(degrees, comps)]
    return HomogeneousMap(degrees, tuple(comps))


def test_certificate_agrees_with_exact_rank_of_macaulay_matrix():
    """On 100 seeded maps the verdict is full exact rank of ``macaulay_matrix``."""
    verdicts = []
    for degrees in ((2, 2, 2), (2, 3, 4), (3, 3, 3), (2, 2, 2, 2)):
        for seed in range(25):
            F = _seeded_rational_map(seed, degrees)
            rows, monomials, _ = macaulay_matrix(F)
            v = macaulay_resultant_certificate(F)
            assert v.is_proper == (exact_rank(rows) == len(monomials)), (degrees, seed)
            verdicts.append(v.verdict)
    assert verdicts.count(NOT_PROPER) >= 30 and verdicts.count(PROPER) >= 30


def test_planted_quartic_cubic_map_is_decided_by_its_rational_root():
    """A planted (3,3,3,3) map is NOT_PROPER in under 1 s (the best of two calls,
    so one stall of a shared host does not decide), with no exact rank: the
    certificate names a rational point q at which F vanishes exactly."""
    F = _seeded_rational_map(3, (3, 3, 3, 3))
    seconds = []
    for _ in range(2):
        start = time.perf_counter()
        v = macaulay_resultant_certificate(F)
        seconds.append(time.perf_counter() - start)
    assert min(seconds) < 1.0
    assert v.verdict == NOT_PROPER
    _assert_unit_witness(F, v.witness)
    q = tuple(map(Fraction, re.search(r"q = \((.*)\), read off", v.certificate)[1].split(", ")))
    assert len(q) == 4 and any(q)
    assert all(value == 0 for value in F.evaluate(q))


def test_irrational_common_roots_fall_back_to_the_exact_rank():
    """(x1^2 - 2 x2^2, x3^2, x1 x3 + 3 x2 x3) vanishes only on the rays (+-sqrt 2, 1, 0):
    no rational point is a root, so the exact rank decides."""
    F = HomogeneousMap((2, 2, 2), (
        Polynomial(3, {(2, 0, 0): 1, (0, 2, 0): -2}),
        Polynomial(3, {(0, 0, 2): 1}),
        Polynomial(3, {(1, 0, 1): 1, (0, 1, 1): 3}),
    ))
    v = macaulay_resultant_certificate(F)
    assert v.verdict == NOT_PROPER
    assert "is rank-deficient: nonzero common root read off the null space" in v.certificate
    _assert_unit_witness(F, v.witness)
    assert abs(abs(v.witness[0] / v.witness[1]) - 2 ** 0.5) < 1e-9


def test_macaulay_matrix_entries_are_shifted_coefficients():
    """Row (i, s) holds f_i's coefficient of m - s at column m, and 0 elsewhere."""
    F = _seeded_rational_map(1, (2, 3, 4))
    rows, monomials, assignment = macaulay_matrix(F)
    nu = sum(monomials[0])
    shifts = [sorted((m for m in _exponents(F.n, nu - d)), reverse=True) for d in F.degrees]
    row_shifts = [s for block in shifts for s in block]
    assert len(row_shifts) == len(rows)
    for row, i, s in zip(rows, assignment, row_shifts):
        for value, m in zip(row, monomials):
            e = tuple(a - b for a, b in zip(m, s))
            expected = F.components[i].terms.get(e, 0) if min(e) >= 0 else 0
            assert value == expected and isinstance(value, Fraction)


def _exponents(n, degree):
    if n == 1:
        return [(degree,)]
    return [(a,) + rest for a in range(degree + 1) for rest in _exponents(n - 1, degree - a)]


def test_certificate_names_the_prime_or_the_exact_rank():
    """Each proof of full rank has a map that only it decides.  A generic map
    is proved by the left inverse, and so is a component that is a multiple
    of the prime.  Coefficients past 2^53 leave a generic map to the prime;
    past 2^53 and 0 mod the prime, they leave it to the exact rank."""
    p = _CERTIFICATE_PRIME
    F = random_map((2, 2, 2), seed=0)
    v = macaulay_resultant_certificate(F)
    assert v.certificate.endswith("has full rank 15 (left inverse)")
    past = HomogeneousMap(F.degrees, tuple(f * 2 ** 55 for f in F.components))
    v = macaulay_resultant_certificate(past)
    assert v.verdict == PROPER and v.certificate.endswith(f"has full rank 15 (mod {p})")

    def diagonal(scale):
        return HomogeneousMap((2, 2, 2), tuple(
            Polynomial(3, {tuple(2 * int(i == k) for i in range(3)): scale if k else 1})
            for k in range(3)))

    v = macaulay_resultant_certificate(diagonal(p))
    assert v.verdict == PROPER and v.certificate.endswith("(left inverse)")
    v = macaulay_resultant_certificate(diagonal(p * 2 ** 30))
    assert v.verdict == PROPER and v.certificate.endswith("(exact rank)")


def test_rank_deficient_map_pays_no_modular_rank(monkeypatch):
    """The left inverse fails on a planted-zero map, and its rational root
    decides it before any rank mod p is taken."""
    calls = []

    def counted(*args):
        calls.append(args)
        return rank_mod_p(*args)

    rank_mod_p = linalg._rank_mod_p
    monkeypatch.setattr(linalg, "_rank_mod_p", counted)
    v = macaulay_resultant_certificate(_planted_zero_map(97))
    assert v.verdict == NOT_PROPER and v.certificate.startswith("F(q) = 0 exactly")
    assert calls == []


@pytest.mark.parametrize("degrees", [(3, 3, 3, 3), (2, 2, 2, 2, 2)])
def test_large_certificates_finish_in_a_few_milliseconds(degrees):
    """336 x 220 and 350 x 210 Macaulay matrices are proved by the left
    inverse in under 25 ms, the best of two calls (a first call can stall)."""
    F = random_map(degrees, seed=3)
    times = []
    for _ in range(2):
        start = time.perf_counter()
        v = macaulay_resultant_certificate(F)
        times.append(time.perf_counter() - start)
    assert v.certificate.endswith("(left inverse)")
    assert min(times) < 0.025


def test_coefficients_past_int64_are_decided_exactly():
    """Cleared coefficients above 2^63 go to an object array and keep the verdict;
    the planted map times 2^70 + 1 keeps its witness ray too."""
    big = 2 ** 70 + 1
    F = _seeded_rational_map(2, (2, 2, 2))
    huge = HomogeneousMap(F.degrees, tuple(f * Fraction(big, 3) + f * Fraction(1, 7)
                                           for f in F.components))
    layout = properness._MacaulayLayout(huge)
    assert properness._integer_matrix(huge, layout).dtype == object
    assert macaulay_resultant_certificate(huge).verdict == PROPER
    planted = _seeded_rational_map(3, (2, 2, 2))
    huge = HomogeneousMap(planted.degrees, tuple(f * big for f in planted.components))
    verdict = macaulay_resultant_certificate(huge)
    assert verdict.verdict == NOT_PROPER
    ray = macaulay_resultant_certificate(planted).witness
    assert ray is not None and verdict.witness is not None
    assert abs(abs(np.vdot(ray, verdict.witness)) - 1.0) < 1e-8


def test_linear_map_in_many_variables_is_its_coefficient_matrix():
    """n = 70 linear forms: column keys past int64 still find every column."""
    n = 70
    rng = np.random.default_rng(5)
    a = rng.integers(-1, 2, size=(n, n)) + 3 * np.eye(n, dtype=int)
    comps = tuple(Polynomial(n, {tuple(int(i == j) for i in range(n)): int(a[k, j])
                                 for j in range(n)}) for k in range(n))
    F = HomogeneousMap((1,) * n, comps)
    rows, monomials, _ = macaulay_matrix(F)
    assert rows == [[Fraction(int(v)) for v in r] for r in a]
    assert monomials[0] == (1,) + (0,) * (n - 1)
    assert macaulay_resultant_certificate(F).is_proper == (exact_rank(a.tolist()) == n)


def test_certificate_makes_no_integer_rows_call(monkeypatch):
    """The certificate clears denominators itself, both ways."""
    def refuse(*args, **kwargs):
        raise AssertionError("integer_rows called")

    monkeypatch.setattr(linalg, "integer_rows", refuse)
    assert macaulay_resultant_certificate(_seeded_rational_map(1, (2, 2, 2, 2))).is_proper
    assert macaulay_resultant_certificate(_planted_zero_map(97)).verdict == NOT_PROPER


# ------------------------------------------------------------- falsifier
def test_sphere_falsifier_finds_known_witness():
    """The shared-zero map yields a unit witness with a tiny residual."""
    w = sphere_falsifier(_not_proper_map())
    assert w is not None
    w = np.asarray(w)
    assert abs(np.linalg.norm(w) - 1) < 1e-9
    # the witness concentrates on the x2-axis
    assert abs(w[1]) > 0.99


def test_sphere_falsifier_passes_diagonal_map():
    """A map with F^{-1}(0) = {0} yields no witness."""
    comps = tuple(Polynomial(3, {tuple(2 * int(i == k) for i in range(3)): 1},
                             kind="complex") for k in range(3))
    F = HomogeneousMap((2, 2, 2), comps)
    assert sphere_falsifier(F) is None


# ------------------------------------------------------------- verdict
def test_verdict_proper_for_random_rational_maps():
    """Generic rational maps are certified proper via Macaulay."""
    for seed in range(5):
        v = properness_verdict(random_map((2, 2, 2), seed=seed))
        assert v.verdict == PROPER and v.is_proper


def test_verdict_not_proper_with_witness():
    """The shared-zero map produces a NOT_PROPER verdict carrying the witness."""
    v = properness_verdict(_not_proper_map())
    assert v.verdict == NOT_PROPER and not v.is_proper
    assert v.witness is not None
    d = v.to_dict()
    assert d["verdict"] == "not_proper"
    assert isinstance(d["witness"], list) and len(d["witness"]) == 4
    assert all(len(pair) == 2 for pair in d["witness"])


def test_verdict_inconclusive_for_generic_complex_map():
    """Complex maps with no witness stay inconclusive (no exact certificate)."""
    F = random_map((2, 2), seed=4, kind="complex")
    v = properness_verdict(F)
    assert v.verdict == INCONCLUSIVE
    assert v.witness is None
