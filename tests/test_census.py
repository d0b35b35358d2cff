"""Series coefficients, class values, and the six closed-form counts."""

import itertools
import math
from fractions import Fraction

import pytest

from morin_census import (
    IntegralityError,
    Polynomial,
    TruncatedSeries,
    census,
    chern_coefficients,
    chern_series,
    chern_values,
    degree_symbols,
    eligibility_gate,
    s_classes,
    s_classes_symbolic,
)
from morin_census.census import COUNT_NAMES, _raw_counts


def _elementary_symmetric():
    """e1..e4 in the four degree symbols, plus the constant one."""
    d1, d2, d3, d4 = degree_symbols()
    e1 = d1 + d2 + d3 + d4
    e2 = d1 * d2 + d1 * d3 + d1 * d4 + d2 * d3 + d2 * d4 + d3 * d4
    e3 = d1 * d2 * d3 + d1 * d2 * d4 + d1 * d3 * d4 + d2 * d3 * d4
    e4 = d1 * d2 * d3 * d4
    one = Polynomial(4, {(0, 0, 0, 0): 1})
    return one, e1, e2, e3, e4


# ------------------------------------------------------------- series
def test_series_constant_term_is_one():
    """The quotient series starts at 1."""
    s = chern_series()
    assert s.coefficients[0] == Polynomial(4, {(0, 0, 0, 0): 1})


def test_series_times_denominator_recovers_numerator():
    """(series) * (1+a)^4 == prod(1 + d_i a) through order 4."""
    one, e1, e2, e3, e4 = _elementary_symmetric()
    s = chern_series()
    binom = TruncatedSeries((one, one * 4, one * 6, one * 4, one))
    numerator = TruncatedSeries((one, e1, e2, e3, e4))
    assert s * binom == numerator


def test_symbolic_coefficients_closed_forms():
    """c_k match their closed forms in the elementary symmetric polynomials."""
    one, e1, e2, e3, e4 = _elementary_symmetric()
    c1, c2, c3, c4 = chern_coefficients()
    assert c1 == e1 - one * 4
    assert c2 == e2 - e1 * 4 + one * 10
    assert c3 == e3 - e2 * 4 + e1 * 10 - one * 20
    assert c4 == e4 - e3 * 4 + e2 * 10 - e1 * 20 + one * 35


def test_truncated_series_ring_ops():
    """Sum and product of truncated series agree with direct convolution."""
    one, e1, e2, *_ = _elementary_symmetric()
    zero = Polynomial(4, {})
    a = TruncatedSeries((one, e1, zero, zero, zero))
    b = TruncatedSeries((one, zero, e2, zero, zero))
    prod = a * b
    assert prod.coefficients[1] == e1
    assert prod.coefficients[2] == e2
    assert prod.coefficients[3] == e1 * e2
    assert (a + b).coefficients[0] == one * 2


# ------------------------------------------------------------- values
def test_chern_values_sample_tuple():
    """Frozen values for degrees (2,3,5,7)."""
    assert chern_values((2, 3, 5, 7)) == (13, 43, -7, -73)


LARGE_TUPLES = ((101, 103, 107, 109), (2, 2, 2, 1000), (97, 2, 1000, 13))


def test_chern_values_match_symbolic_coefficients():
    """The integer path gives the symbolic coefficients' values, exactly."""
    coefficients = chern_coefficients()
    for degrees in itertools.chain(itertools.product(range(1, 6), repeat=4), LARGE_TUPLES):
        values = chern_values(degrees)
        assert values == tuple(c.evaluate(degrees) for c in coefficients)
        assert all(type(v) is int for v in values)


def test_s_classes_build_on_chern_values():
    """The seven s-classes follow their defining products."""
    c1, c2, c3, _ = chern_values((2, 3, 5, 7))
    s = s_classes((2, 3, 5, 7))
    s0 = 2 * 3 * 5 * 7
    assert s["s0"] == s0
    assert s["s1"] == c1 * s0
    assert s["s2"] == c1 ** 2 * s0
    assert s["s3"] == c1 ** 3 * s0
    assert s["s01"] == c2 * s0
    assert s["s11"] == c1 * c2 * s0
    assert s["s001"] == c3 * s0


def test_s_classes_symbolic_structure():
    """Symbolic s-classes are the symbolic products of c's and s0."""
    sym = s_classes_symbolic()
    c1, c2, _, _ = chern_coefficients()
    assert sym["s1"] == c1 * sym["s0"]
    assert sym["s11"] == c1 * c2 * sym["s0"]


# ------------------------------------------------------------- counts
def test_counts_frozen_for_sample_tuples():
    """Cross-checked count values for two degree tuples."""
    rep = census((2, 3, 5, 7))
    assert rep.counts == {
        "A1_4": 9669241152,
        "A1_2A2": 279456,
        "A1A3": 10038664,
        "A2_2": 4451346,
        "A4": 74604,
        "I22": 1940,
    }
    rep2 = census((2, 2, 2, 2))
    assert rep2.counts == {
        "A1_4": 5750,
        "A1_2A2": 348,
        "A1A3": 2520,
        "A2_2": 1116,
        "A4": 330,
        "I22": 20,
    }


def test_degenerate_linear_degrees_all_zero():
    """(1,1,1,1) has no singularities: all classes and counts vanish."""
    rep = census((1, 1, 1, 1))
    assert rep.c == (0, 0, 0, 0)
    assert all(v == 0 for v in rep.counts.values())


def test_integrality_error_on_half_integral_tuple():
    """(1,2,2,2) drives the pair-of-cusps count to 81/2 and raises."""
    with pytest.raises(IntegralityError) as exc:
        census((1, 2, 2, 2))
    assert exc.value.value == Fraction(81, 2)
    assert exc.value.name == "A2_2"


def test_integrality_error_stays_exact():
    """The failing count is reported as an exact Fraction, not a float or a floor."""
    with pytest.raises(IntegralityError) as exc:
        census((2, 2, 2, 1))
    err = exc.value
    assert err.name == "A2_2"
    assert isinstance(err.value, Fraction) and err.value.denominator == 2
    assert err.degrees == (2, 2, 2, 1)
    assert str(err) == "count A2_2 at degrees (2, 2, 2, 1) is not an integer: 81/2"


def test_census_never_evaluates_the_symbolic_coefficients(monkeypatch):
    """The per-tuple census runs on integers: no exact Polynomial evaluation."""
    def forbidden(self, point):
        raise AssertionError("census went through Polynomial.evaluate")

    monkeypatch.setattr(Polynomial, "evaluate", forbidden)
    for degrees in itertools.product((1, 2, 3, 8), repeat=4):
        try:
            census(degrees)
        except IntegralityError:
            pass


def test_census_rejects_fractional_degrees():
    """Non-integral degrees raise instead of being truncated to the tuple below."""
    for degrees in ((2.5, 3, 5, 7), (2.0, 3, 5, 7), (2, 3, Fraction(5), 7)):
        with pytest.raises(ValueError, match="integers"):
            census(degrees)
        with pytest.raises(ValueError, match="integers"):
            chern_values(degrees)


def test_counts_permutation_invariant_sampled():
    """Counts only depend on the multiset of degrees."""
    base = census((2, 3, 5, 7)).counts
    for perm in itertools.islice(itertools.permutations((2, 3, 5, 7)), 6):
        assert census(perm).counts == base


def test_census_requires_four_degrees():
    """Anything but exactly four degrees is rejected."""
    with pytest.raises(ValueError):
        census((2, 2, 2))


def test_census_report_serialization():
    """Reports serialize degrees, eligibility, classes and counts."""
    d = census((2, 3, 5, 7)).to_dict()
    assert d["degrees"] == [2, 3, 5, 7]
    assert d["eligibility"]["tag"] == "eligible_generic"
    assert d["c"] == [13, 43, -7, -73]
    assert d["counts"]["I22"] == 1940
    assert set(d["s"]) == {"s0", "s1", "s2", "s3", "s01", "s11", "s001"}


# ------------------------------------------------------------- the source's forms
def _source_counts(c, s):
    """The six closed forms verbatim from the source, in the s-classes: the
    reference for ``census._raw_counts``, which has the s-classes substituted."""
    c1, c2, c3, c4 = c
    s1, s2, s3 = s["s1"], s["s2"], s["s3"]
    s01, s11, s001 = s["s01"], s["s11"], s["s001"]
    return {
        "A1_4": (
            s1 ** 3 * c1 - 12 * s1 * s2 * c1 + 40 * s3 * c1 - 6 * s1 * s01 * c1
            + 56 * s11 * c1 + 24 * s001 * c1 - 12 * s1 ** 2 * c1 ** 2
            + 48 * s2 * c1 ** 2 + 24 * s01 * c1 ** 2 + 120 * s1 * c1 ** 3
            - 672 * c1 ** 4 - 6 * s1 ** 2 * c2 + 24 * s2 * c2 + 12 * s01 * c2
            + 168 * s1 * c1 * c2 - 1776 * c1 ** 2 * c2 - 288 * c2 ** 2
            + 72 * s1 * c3 - 1584 * c1 * c3 - 720 * c4, 24),
        "A1_2A2": (
            s2 * c1 + s01 * c1 - 6 * c1 ** 3 - 12 * c1 * c2 - 6 * c3, 2),
        "A1A3": (
            s3 * c1 + 3 * s11 * c1 + 2 * s001 * c1 - 8 * c1 ** 4
            - 36 * c1 ** 2 * c2 - 8 * c2 ** 2 - 44 * c1 * c3 - 24 * c4, 1),
        "A2_2": (
            s2 * c1 ** 2 + s01 * c1 ** 2 - 9 * c1 ** 4 + s2 * c2 + s01 * c2
            - 36 * c1 ** 2 * c2 - 12 * c2 ** 2 - 39 * c1 * c3 - 24 * c4, 2),
        "A4": (
            c1 ** 4 + 6 * c1 ** 2 * c2 + 2 * c2 ** 2 + 9 * c1 * c3 + 6 * c4, 1),
        "I22": (c2 ** 2 - c1 * c3, 1),
    }


def _source_chern_values(degrees):
    """c1..c4 by dividing prod(1 + d_i a) by 1 + a four times, on integers."""
    c = [1, 0, 0, 0, 0]
    for d in degrees:
        for j in range(4, 0, -1):
            c[j] += d * c[j - 1]
    for _ in range(4):
        for k in range(1, 5):
            c[k] -= c[k - 1]
    return tuple(c[1:])


def _source_gate(d):
    """The eligibility gate's tag and witness, with combinations drawn on every call."""
    g_all = math.gcd(*d)
    if g_all > 1:
        return "never_finite", f"gcd(d1..d4)={g_all}"
    for a, b, c in itertools.combinations(range(4), 3):
        g = math.gcd(d[a], d[b], d[c])
        if g != 1:
            return "hypothesis_fails", \
                f"gcd(d{a + 1},d{b + 1},d{c + 1})={g} (triple gcd must be 1)"
    for a, b in itertools.combinations(range(4), 2):
        g = math.gcd(d[a], d[b])
        if g > 2:
            return "hypothesis_fails", f"gcd(d{a + 1},d{b + 1})={g} (pairwise gcd must be <= 2)"
    return "eligible_generic", None


def test_counts_equal_the_source_forms_symbolically():
    """With s-classes substituted, the forms are the source's as polynomials in d1..d4."""
    c = chern_coefficients()
    s = s_classes_symbolic()
    assert _raw_counts(c, s["s0"]) == _source_counts(c, s)


def test_census_sweep_matches_the_source_forms():
    """Over {1..9}^4: classes, s-classes, gate verdict, counts and every
    IntegralityError equal those of the source's forms, evaluated directly."""
    errors = 0
    for degrees in itertools.product(range(1, 10), repeat=4):
        gate = eligibility_gate(degrees)
        assert (gate.tag, gate.witness) == _source_gate(degrees), degrees
        c = _source_chern_values(degrees)
        s0 = math.prod(degrees)
        s = {"s0": s0, "s1": c[0] * s0, "s2": c[0] ** 2 * s0, "s3": c[0] ** 3 * s0,
             "s01": c[1] * s0, "s11": c[0] * c[1] * s0, "s001": c[2] * s0}
        raw = _source_counts(c, s)
        fractional = [(name, Fraction(*raw[name])) for name in COUNT_NAMES
                      if raw[name][0] % raw[name][1]]
        if fractional:
            errors += 1
            with pytest.raises(IntegralityError) as exc:
                census(degrees)
            assert (exc.value.name, exc.value.value) == fractional[0], degrees
            continue
        rep = census(degrees)
        assert rep.c == c and rep.s == s and rep.eligibility == gate, degrees
        assert rep.counts == {name: num // den for name, (num, den) in raw.items()}, degrees
    assert errors == 1280
