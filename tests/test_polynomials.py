"""Exact sparse-polynomial arithmetic, calculus, text round-trips, determinants."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morin_census import ANY_DEGREE, PolyMatrix, Polynomial, det
from morin_census.polynomials import format_coefficient, parse_coefficient


def P(n, terms, kind="rational"):
    return Polynomial(n, terms, kind)


# ------------------------------------------------------------- construction
def test_zero_coefficients_are_dropped():
    """Terms with zero coefficient never survive normalization."""
    p = P(2, {(1, 0): 1, (0, 1): 0})
    assert (0, 1) not in p.terms
    assert p.coefficient((0, 1)) == 0


def test_zero_polynomial_degree_sentinel():
    """The zero polynomial reports the ANY_DEGREE sentinel, not a number."""
    z = P(2, {})
    assert z.is_zero()
    assert z.total_degree() is None
    assert z.is_homogeneous() is ANY_DEGREE


def test_mixed_kind_rejected():
    """Adding rational and complex polynomials without converting raises."""
    a = P(1, {(1,): 1})
    b = P(1, {(1,): 1j}, kind="complex")
    with pytest.raises(ValueError):
        a + b


def test_bad_exponent_arity_rejected():
    """Exponent tuples must match n_vars."""
    with pytest.raises(ValueError):
        P(2, {(1,): 1})


# ------------------------------------------------------------- arithmetic
exponents = st.tuples(st.integers(0, 3), st.integers(0, 3))
coeffs = st.fractions(min_value=-5, max_value=5)
polys = st.dictionaries(exponents, coeffs, max_size=4).map(lambda t: P(2, t))


@settings(max_examples=60, deadline=None)
@given(a=polys, b=polys, c=polys)
def test_ring_distributivity(a, b, c):
    """a*(b + c) == a*b + a*c over exact rationals."""
    assert a * (b + c) == a * b + a * c


@settings(max_examples=60, deadline=None)
@given(a=polys, b=polys)
def test_ring_commutativity(a, b):
    """Multiplication and addition commute."""
    assert a * b == b * a
    assert a + b == b + a


@settings(max_examples=60, deadline=None)
@given(a=polys)
def test_additive_inverse(a):
    """a + (-a) is the zero polynomial."""
    assert (a + (-a)).is_zero()


def test_scalar_multiplication():
    """Scalars multiply coefficients exactly."""
    p = P(2, {(1, 1): Fraction(2, 3)})
    assert (p * 3).coefficient((1, 1)) == 2


def test_product_degree_adds():
    """Total degree of a product is the sum of total degrees."""
    a = P(2, {(2, 0): 1, (0, 1): 2})
    b = P(2, {(1, 1): 3})
    assert (a * b).total_degree() == a.total_degree() + b.total_degree()


def test_mul_truncated_drops_high_terms():
    """mul_truncated agrees with full product chopped at the given degree."""
    a = P(2, {(2, 0): 1, (0, 1): 2})
    b = P(2, {(1, 1): 3, (0, 0): 1})
    full = a * b
    cut = a.mul_truncated(b, 2)
    assert cut == Polynomial(2, {e: c for e, c in full.terms.items() if sum(e) <= 2})


# ------------------------------------------------------------- calculus
def test_partial_derivative_product_rule():
    """d(fg) = f dg + g df on a concrete pair."""
    f = P(2, {(2, 1): 1, (0, 0): 5})
    g = P(2, {(1, 1): Fraction(1, 2)})
    for i in range(2):
        assert (f * g).partial(i) == f * g.partial(i) + g * f.partial(i)


def test_gradient_matches_partials():
    """gradient() lists the partials in variable order."""
    f = P(3, {(1, 2, 0): 1})
    assert f.gradient() == [f.partial(i) for i in range(3)]


def test_translate_truncated_drops_cancelled_terms():
    """Coefficients that sum to zero in the jet are not stored, at a point
    with a zero coordinate too, and every stored one is a Fraction."""
    f = P(2, {(2, 1): 1, (1, 1): -2})          # x^2 y - 2xy = ((x - 1)^2 - 1) y
    jet = f.translate_truncated((1, 0), 3)      # ((x^2 - 1) y): the xy terms cancel
    assert jet.terms == {(2, 1): 1, (0, 1): -1}
    assert all(type(c) is Fraction for c in jet.terms.values())
    assert jet == P(2, {(2, 1): 1, (0, 1): -1})
    assert f.translate_truncated((1, 0), 1).terms == {(0, 1): -1}


def test_translate_truncated_is_taylor_jet():
    """translate_truncated(p, m) is the order-m Taylor expansion at p."""
    f = P(2, {(3, 0): 1, (1, 1): 2})   # x^3 + 2xy
    p = (1, -2)
    jet = f.translate_truncated(p, 2)
    # full shift via substitution x -> x+1, y -> y-2
    x_shift = P(2, {(1, 0): 1, (0, 0): 1})
    y_shift = P(2, {(0, 1): 1, (0, 0): -2})
    full = f.substitute([x_shift, y_shift])
    expected = Polynomial(2, {e: c for e, c in full.terms.items() if sum(e) <= 2})
    assert jet == expected
    # constant term is the exact value at p
    assert jet.coefficient((0, 0)) == f.evaluate(p)
    # a zero coordinate, and max_degree at or past the degree: the whole shift
    zero_p = (0, Fraction(3, 2))
    full = f.substitute([P(2, {(1, 0): 1}), P(2, {(0, 1): 1, (0, 0): Fraction(3, 2)})])
    assert f.translate_truncated(zero_p, 2) == Polynomial(
        2, {e: c for e, c in full.terms.items() if sum(e) <= 2})
    for m in (3, 5):
        jet = f.translate_truncated(zero_p, m)
        assert jet == full
        assert all(isinstance(c, Fraction) for c in jet.terms.values())
    # a Fraction point keeps every coefficient a Fraction
    jet = f.translate_truncated((Fraction(1, 3), Fraction(-2, 7)), 2)
    assert jet.terms and all(isinstance(c, Fraction) for c in jet.terms.values())
    # a complex quartic in 4 variables at a complex point, against the substituted shift
    g = _random_quartic("complex")
    rng = np.random.default_rng(7)
    q = [complex(*rng.standard_normal(2)) for _ in range(4)]
    shifted = g.substitute([P(4, {tuple(int(i == j) for i in range(4)): 1, (0,) * 4: q[j]},
                              kind="complex") for j in range(4)])
    scale = max(abs(c) for c in shifted.terms.values())
    for m in (2, 4):
        jet = g.translate_truncated(q, m)
        want = {e: c for e, c in shifted.terms.items() if sum(e) <= m}
        assert set(jet.terms) <= set(want)
        assert max(abs(jet.coefficient(e) - c) for e, c in want.items()) <= 1e-12 * scale


@settings(max_examples=60, deadline=None)
@given(f=polys, point=st.tuples(st.sampled_from([0, 0, 1, -2, Fraction(1, 3)]),
                                st.sampled_from([0, 0, 3, Fraction(-1, 2)])),
       m=st.integers(0, 6))
def test_translate_truncated_at_zero_coordinates_is_the_substituted_shift(f, point, m):
    """A zero coordinate takes no power table, and the jet is still the shift
    f(point + x) cut past degree m; at the origin, in either kind, it is
    f's own terms of degree <= m, coefficient for coefficient."""
    shift = [P(2, {tuple(int(i == j) for i in range(2)): 1, (0, 0): v}) for j, v in
             enumerate(point)]
    full = f.substitute(shift)
    assert f.translate_truncated(point, m) == Polynomial(
        2, {e: c for e, c in full.terms.items() if sum(e) <= m})
    g = f.as_complex()
    assert g.translate_truncated((0, 0.0), m).terms == {
        e: c for e, c in g.terms.items() if sum(e) <= m}


def test_evaluate_complex_matches_horner():
    """Float evaluation agrees with direct monomial summation."""
    f = P(2, {(2, 1): 1 + 1j, (0, 0): -3}, kind="complex")
    z = (0.5 + 0.25j, -2.0)
    direct = (1 + 1j) * z[0] ** 2 * z[1] - 3
    assert abs(f.evaluate(z) - direct) < 1e-12


def _random_quartic(kind):
    rng = np.random.default_rng(5)
    terms = {}
    for _ in range(30):
        exps = tuple(int(e) for e in rng.multinomial(4, [0.25] * 4))
        if kind == "complex":
            terms[exps] = complex(rng.standard_normal(), rng.standard_normal())
        else:
            terms[exps] = Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 5)))
    return P(4, terms, kind)


@pytest.mark.parametrize("kind", ["complex", "rational"])
def test_evaluate_batch_matches_pointwise(kind):
    """An (m, 4) or (a, b, 4) batch gives the per-point values in its shape,
    and those match a plain sum of monomials."""
    f = _random_quartic(kind)
    rng = np.random.default_rng(6)
    for shape in ((7, 4), (3, 5, 4)):
        pts = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        batch = f.evaluate(pts)
        assert batch.shape == shape[:-1]
        for idx in np.ndindex(*shape[:-1]):
            pt = [complex(v) for v in pts[idx]]
            one = f.evaluate(pt)
            direct = sum(complex(c) * math.prod(v ** e for v, e in zip(pt, exps))
                         for exps, c in f.terms.items())
            assert isinstance(one, complex)
            assert abs(batch[idx] - one) <= 1e-12 * abs(one)
            assert abs(one - direct) <= 1e-12 * abs(direct)


def test_evaluate_zero_polynomial_batch():
    """The zero polynomial gives zeros in the shape of the batch."""
    values = Polynomial.zero(4, "complex").evaluate(np.ones((2, 3, 4)))
    assert values.shape == (2, 3)
    assert not values.any()


def test_evaluate_rejects_wrong_trailing_dimension():
    """The last axis of the points has to be n_vars long."""
    f = _random_quartic("complex")
    with pytest.raises(ValueError):
        f.evaluate(np.ones((5, 3)))
    with pytest.raises(ValueError):
        f.evaluate([1.0, 2.0])


def test_evaluate_exact_point_stays_exact():
    """A rational polynomial at a Fraction point returns the exact Fraction."""
    f = P(2, {(2, 1): Fraction(1, 3), (0, 0): -2})
    value = f.evaluate((Fraction(1, 2), 3))
    assert isinstance(value, Fraction)
    assert value == Fraction(1, 4) - 2


exact_entries = st.one_of(st.integers(-7, 7), st.fractions(min_value=-4, max_value=4,
                                                           max_denominator=12))
sparse_polys = st.dictionaries(st.tuples(*[st.integers(0, 4)] * 3),
                               st.one_of(st.integers(-50, 50), st.fractions(max_denominator=30)),
                               max_size=6).map(lambda t: P(3, t))


@settings(max_examples=100, deadline=None)
@given(f=sparse_polys, point=st.tuples(*[exact_entries] * 3), as_array=st.booleans())
def test_exact_evaluate_equals_a_plain_fraction_sum(f, point, as_array):
    """At an exact point -- a tuple or an ``object`` array of ints and
    Fractions, zero and negative entries among them -- a sparse rational
    polynomial, zero or not homogeneous included, evaluates to exactly the
    Fraction sum of c * prod p_i^e_i, and a point of the wrong length is
    still the same ValueError."""
    direct = sum((c * math.prod(Fraction(v) ** e for v, e in zip(point, exps))
                  for exps, c in f.terms.items()), Fraction(0))
    given_point = np.array(point, dtype=object) if as_array else point
    value = f.evaluate(given_point)
    assert isinstance(value, Fraction) and value == direct
    with pytest.raises(ValueError, match="point length 2 != n_vars 3"):
        f.evaluate(given_point[:2])


# ------------------------------------------------------------- text form
def test_text_round_trip_rational():
    """to_text/from_text is the identity on rational polynomials."""
    f = P(3, {(2, 0, 1): Fraction(-7, 3), (0, 0, 0): 4, (1, 1, 1): 1})
    assert Polynomial.from_text(f.to_text(), 3) == f


def test_text_renders_integer_fractions_with_denominator():
    """Whole rationals render with an explicit /1 denominator."""
    f = P(1, {(2,): 3})
    assert "3/1" in f.to_text()


def test_text_graded_lex_order():
    """Terms print in graded lexicographic order, highest degree first."""
    f = P(2, {(0, 0): 1, (2, 0): 1, (1, 1): 1})
    text = f.to_text()
    assert text.index("x1^2") < text.index("x1^1*x2^1") < text.index("x1^0*x2^0")


def test_parse_coefficient_forms():
    """Coefficient parser accepts rationals and complex literals."""
    assert parse_coefficient("3/4", "rational") == Fraction(3, 4)
    val = parse_coefficient(format_coefficient(2 - 1j, "complex"), "complex")
    assert val == 2 - 1j


def test_from_text_rejects_garbage():
    """Malformed monomial text raises ValueError."""
    with pytest.raises(ValueError):
        Polynomial.from_text("3/1 * bogus", 2)


# ------------------------------------------------------------- determinants
def test_det_2x2_exact():
    """Exact symbolic 2x2 determinant ad - bc."""
    a = P(2, {(1, 0): 1})
    b = P(2, {(0, 1): 1})
    c = P(2, {(0, 0): 2})
    d = P(2, {(1, 1): 1})
    m = PolyMatrix.from_rows([[a, b], [c, d]])
    assert det(m) == a * d + (-(b * c))


def test_det_matches_numpy_on_constants():
    """Symbolic determinant of a constant matrix equals the numeric one."""
    rng = np.random.default_rng(3)
    vals = rng.integers(-5, 6, size=(4, 4))
    m = PolyMatrix.from_rows([[P(1, {(0,): int(v)}) for v in row] for row in vals])
    got = det(m).coefficient((0,))
    assert got == round(float(np.linalg.det(vals.astype(float))))


def test_with_row_replaces_single_row():
    """with_row swaps one row and leaves the rest alone."""
    x = P(1, {(1,): 1})
    one = P(1, {(0,): 1})
    m = PolyMatrix.from_rows([[x, one], [one, x]])
    m2 = m.with_row(0, [one, one])
    assert m2.row(0) == [one, one]
    assert m2.row(1) == m.row(1)


# ------------------------------------------------------------- result invariant
def _random_poly(rng, n, kind, terms=6):
    """A seeded random polynomial: Fraction coefficients with denominators up to
    7, or complex ones."""
    out = {}
    for _ in range(terms):
        e = tuple(int(v) for v in rng.integers(0, 4, size=n))
        if kind == "rational":
            out[e] = Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 8)))
        else:
            out[e] = complex(*rng.normal(size=2))
    return P(n, out, kind)


@pytest.mark.parametrize("kind", ["rational", "complex"])
def test_arithmetic_results_keep_the_class_invariant(kind):
    """Every public arithmetic result, though built without re-validation, is
    the polynomial ``__init__`` would build from its terms: no zero coefficient,
    and in the rational kind Fractions only."""
    rng = np.random.default_rng(17)
    n = 3
    scalar = Fraction(-3, 5) if kind == "rational" else 0.5 - 2j
    point = ((Fraction(1, 3), Fraction(-2, 7), 2) if kind == "rational"
             else (0.3 + 0.1j, -1.2, 0.7j))
    results = []
    for _ in range(5):
        a, b = _random_poly(rng, n, kind), _random_poly(rng, n, kind)
        results += [a + b, a - b, -a, a + 2, 3 - a, a - a, a * scalar, scalar * a, a * 0,
                    a * b, a.mul_truncated(b, 3), *a.gradient(),
                    a.translate_truncated(point, 3)]
        one = PolyMatrix.from_rows([[a]])
        three = PolyMatrix.from_rows([[_random_poly(rng, n, kind, 3) for _ in range(3)]
                                      for _ in range(3)])
        results += [one.det(), three.det()]
    if kind == "complex":       # a product that underflows is dropped, not stored as 0
        results.append(P(1, {(1,): 1e-200, (0,): 1.0}, kind) * 1e-200)
        assert results[-1].terms == {(0,): 1e-200}
    for r in results:
        assert r == Polynomial(r.n_vars, r.terms, kind)
        assert all(c != 0 for c in r.terms.values())
        if kind == "rational":
            assert all(type(c) is Fraction for c in r.terms.values())


def test_one_by_one_det_is_its_entry():
    """A 1x1 determinant is its entry."""
    x = P(1, {(1,): 1})
    m = PolyMatrix.from_rows([[x * x * x + x]])
    assert m.det() == x * x * x + x


def test_batched_value_and_envelope_equals_the_single_point_ones():
    """An (..., n) array of points gives the values and envelopes of the
    single-point calls, in its leading shape."""
    f = Polynomial(3, {(2, 0, 1): 1.5 - 2j, (0, 3, 0): -1, (1, 1, 1): 0.25j, (0, 0, 0): 3},
                   "complex")
    rng = np.random.default_rng(5)
    points = rng.standard_normal((2, 4, 3)) + 1j * rng.standard_normal((2, 4, 3))
    values, envelopes = f.value_and_envelope(points)
    assert values.shape == envelopes.shape == (2, 4)
    for index in np.ndindex(2, 4):
        value, envelope = f.value_and_envelope(points[index])
        assert isinstance(value, complex) and isinstance(envelope, float)
        assert np.isclose(values[index], value, rtol=1e-14, atol=0.0)
        assert np.isclose(envelopes[index], envelope, rtol=1e-14, atol=0.0)
