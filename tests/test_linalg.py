"""Exact determinants and denominator clearing on scalar matrices, and the Newton polish."""

import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morin_census import (HomogeneousMap, Polynomial, critical_points_on_lines, cusp_points,
                          linalg, properness, properness_verdict, random_map, sampler,
                          univariate_roots)
from morin_census.linalg import (
    _CERTIFICATE_PRIME,
    _left_inverse_proves_rank,
    bareiss_det,
    det_is_nonzero,
    exact_det,
    exact_rank,
    integer_rows,
    newton_polish,
    sylvester_matrix,
)


def test_exact_det_of_fraction_matrix():
    """det [[1/2, 1/3], [1/5, 1/7]] = 1/14 - 1/15 = 1/210, exactly."""
    rows = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), Fraction(1, 7)]]
    assert exact_det(rows) == Fraction(1, 210)
    assert exact_det([]) == 1
    assert exact_det([[1, 2], [2, 4]]) == 0


def test_integer_rows_clear_each_row():
    """Each row is scaled by the lcm of its denominators."""
    ints, product = integer_rows([[Fraction(1, 2), Fraction(1, 3)], [3, Fraction(-1, 4)]])
    assert ints == [[3, 2], [12, -1]]
    assert product == 24


def test_det_is_nonzero_tests_full_column_rank():
    """A tall matrix passes when its columns are independent, fails when they are not."""
    assert det_is_nonzero([[1, 2], [2, 4], [0, 1]])
    assert not det_is_nonzero([[1, 2], [2, 4], [3, 6]])
    assert det_is_nonzero([[2, 1], [1, 1]])
    assert not det_is_nonzero([[1, 2], [2, 4]])
    assert det_is_nonzero([]) == "exact rank"       # no rows: the empty matrix


def test_det_is_nonzero_falls_back_to_exact_rank():
    """diag(p, 1) loses rank mod the certificate prime p, but not over Q, and
    the left inverse proves it; entries past 2^53 that are all 0 mod p leave
    it to the exact rank: p 2^30 [[1, 1], [1, 1 + 2^-30]] has det p^2 2^30."""
    p = _CERTIFICATE_PRIME
    assert det_is_nonzero([[p, 0], [0, 1]]) == "left inverse"
    assert det_is_nonzero(_EXACT_RANK_ONLY) == "exact rank"
    for dtype in (object, np.int64):
        assert not _left_inverse_proves_rank(np.array(_EXACT_RANK_ONLY, dtype=dtype))


# p 2^30 [[1, 1], [1, 1 + 2^-30]]: entries past 2^53, every one 0 mod p
_EXACT_RANK_ONLY = [[_CERTIFICATE_PRIME * 2 ** 30] * 2,
                    [_CERTIFICATE_PRIME * 2 ** 30, _CERTIFICATE_PRIME * (2 ** 30 + 1)]]


def test_det_is_nonzero_ranks_int64_arrays_and_names_the_prime():
    """An int64 ndarray is ranked as it is, and each proof has an input that
    only it decides: a well-conditioned matrix goes to the left inverse,
    entries past 2^53 to the one prime, a matrix that loses rank there to the
    exact rank, and a rank-deficient one to None."""
    p = _CERTIFICATE_PRIME
    assert det_is_nonzero(np.array([[1, 2], [2, 4], [0, 1]], dtype=np.int64)) == "left inverse"
    assert det_is_nonzero(np.array([[p, 0], [0, 1]], dtype=np.int64)) == "left inverse"
    past = np.array([[2 ** 60, 2 ** 60], [2 ** 60, 2 ** 60 + 1]], dtype=np.int64)
    assert det_is_nonzero(past) == f"mod {p}"
    assert not _left_inverse_proves_rank(past)
    assert not _left_inverse_proves_rank(past.astype(object))
    assert det_is_nonzero(np.array(_EXACT_RANK_ONLY, dtype=np.int64)) == "exact rank"
    assert det_is_nonzero(np.array([[1, 2], [2, 4], [3, 6]], dtype=np.int64)) is None


@st.composite
def _integer_matrices(draw):
    """Rows of a tall integer matrix of one of four kinds: random,
    with a planted integer column dependency, near a rank-deficient one
    (t S + P with S deficient, t up to 2^45, P in {-1, 0, 1}), or with
    entries near 2^53 (a random matrix times 2^k, k in 44..54, plus a small one)."""
    kind = draw(st.sampled_from(["random", "dependent", "near singular", "near 2^53"]))
    cols = draw(st.integers(1, 6))
    rows = cols + draw(st.integers(0, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    m = rng.integers(-50, 51, size=(rows, cols)).astype(object)
    small = rng.integers(-1, 2, size=(rows, cols)).astype(object)
    if kind in ("dependent", "near singular") and cols > 1:
        j = draw(st.integers(0, cols - 1))
        weights = rng.integers(-3, 4, size=cols).astype(object)
        weights[j] = 0
        m[:, j] = m @ weights
    if kind == "near singular":
        m = m * 2 ** draw(st.integers(0, 45)) + small
    elif kind == "near 2^53":
        m = m * 2 ** draw(st.integers(44, 54)) + small
    return [[int(v) for v in r] for r in m]


@settings(max_examples=400, deadline=None)
@given(_integer_matrices())
def test_left_inverse_never_proves_a_rank_deficient_matrix(rows):
    """Every proof agrees with the exact rank, as a list and as an int64
    array, and "left inverse" never names a rank-deficient matrix."""
    full = exact_rank(rows) == len(rows[0])
    for m in (rows, np.array(rows, dtype=np.int64)):
        assert bool(det_is_nonzero(m)) == full
    for dtype in (object, np.int64):
        assert _left_inverse_proves_rank(np.array(rows, dtype=dtype)) in ((True, False) if full
                                                                           else (False,))


def test_left_inverse_is_exact_at_the_2_53_boundary():
    """Entries at 2^53 + 1 round in float64: columns that depend over Z can
    look independent in floats, and the proof then refuses them."""
    big = 2 ** 53
    # column 3 = column 1 + column 2 over Z; in float64 the first row reads
    # (2^53, 1, 2^53 + 2), a nonsingular matrix
    deficient = [[big + 1, 1, big + 2], [0, 1, 1], [1, 0, 1]]
    assert exact_rank(deficient) == 2
    assert det_is_nonzero(deficient) is None
    assert det_is_nonzero(np.array(deficient, dtype=np.int64)) is None
    assert det_is_nonzero([[big + 1, big], [big, big - 1]]) == f"mod {_CERTIFICATE_PRIME}"


def test_exact_integer_routines_refuse_non_integer_entries():
    """A Fraction, a float or a float ndarray is refused by name, not cut to
    an integer: int(1/2) = 0 would make diag(1/2, 1) look rank-deficient."""
    for rows in ([[Fraction(1, 2), 0], [0, 1]], [[0.5, 0], [0, 1]], [[2.0, 0], [0, 1]]):
        with pytest.raises(ValueError, match="non-integer entry"):
            det_is_nonzero(rows)
    with pytest.raises(ValueError, match="non-integer entry 2.7"):
        bareiss_det([[2.7]])
    with pytest.raises(ValueError, match="non-integer entry"):
        bareiss_det([[1, Fraction(1, 3)], [0, 1]])
    with pytest.raises(ValueError, match="dtype float64"):
        det_is_nonzero(np.array([[0.5, 0.0], [0.0, 1.0]]))
    assert det_is_nonzero([[np.int64(2), 0], [0, True]]) == "left inverse"
    assert bareiss_det([[np.int64(2), 1], [1, 1]]) == 1


def test_sylvester_matrix_batches_over_leading_axes():
    """Each matrix of a batch is the one its coefficient rows give alone, and
    Fraction coefficients stay exact."""
    rng = np.random.default_rng(0)
    p = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    q = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    batch = sylvester_matrix(p, q)
    assert batch.shape == (3, 5, 5)
    assert all(np.array_equal(batch[b], sylvester_matrix(p[b], q[b])) for b in range(3))
    half = Fraction(1, 2)
    assert exact_det(sylvester_matrix([1, -half], [1, -3])) == 3 - half   # Res(x - a, x - b) = b - a


def test_bareiss_det_and_exact_rank_share_one_elimination():
    """Row swaps flip the determinant's sign, a skipped pivot column makes it
    0, and the rank counts the pivots."""
    assert bareiss_det([[0, 1], [1, 0]]) == -1
    assert bareiss_det([[0, 2, 1], [3, 1, 4], [1, 0, 2]]) == -5
    singular = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    assert bareiss_det(singular) == 0 and exact_rank(singular) == 2
    assert exact_rank([[0, 0, 0], [0, 0, 5]]) == 1
    assert bareiss_det([]) == 1
    with pytest.raises(ValueError):
        bareiss_det([[1, 2]])


@pytest.mark.filterwarnings("error")
def test_newton_polish_keeps_only_shrinking_finite_steps():
    """Three items: 1 halves at every step, 8 would step to 16 (a larger
    |f|), and 3 gets a NaN step.  Only the first moves, the other two stop at
    once, `values` never sees a non-finite trial, and the halving stops at the
    budget of 4 steps."""
    seen, stepped = [], []

    def values(z):
        seen.append(z.copy())
        return z

    def step(z, f):
        stepped.append(len(z))
        return np.where(np.abs(z) <= 1.0, z / 2.0, np.where(z.real > 5.0, -z, np.nan))

    z, f = newton_polish(np.array([1.0, 8.0, 3.0]), values, step, steps=4)
    assert np.array_equal(z, [1 / 16, 8.0, 3.0]) and np.array_equal(f, z)
    assert stepped == [3, 1, 1, 1]
    assert all(np.isfinite(batch).all() for batch in seen)
    assert np.array_equal(seen[1], [0.5, 16.0])     # the NaN trial is dropped first


def test_every_float_solver_polishes_through_newton_polish(monkeypatch):
    """The root finder ``univariate_roots``, both slicers and the properness
    witness, when no null-space estimate is a witness unpolished, each call
    ``newton_polish``, seen through a counter at each module's import binding."""
    callers = []

    def counted(*args, **kwargs):
        callers.append(sys._getframe(1).f_code.co_name)
        return linalg.newton_polish(*args, **kwargs)

    for module in (sampler, properness):
        monkeypatch.setattr(module, "newton_polish", counted)

    def through(call) -> set:
        callers.clear()
        call()
        return set(callers)

    F = random_map((2, 2, 2, 2), seed=1, kind="complex")
    assert through(lambda: univariate_roots([-6, 11, -6, 1])) == {"univariate_roots"}
    assert through(lambda: critical_points_on_lines(F, lines=1, seed=11)) == {
        "univariate_roots", "critical_points_on_lines"}
    assert through(lambda: cusp_points(F, planes=1, seed=6)) == {
        "univariate_roots", "plane_section_solutions"}
    # (3,3,3), seed 1000016: no component has an x1^3 term, so (1,0,0) is a common
    # zero, and its null-space estimate is a witness before any polish
    planted = random_map((3, 3, 3), seed=1000016)
    assert through(lambda: properness_verdict(planted).witness) == set()
    # a fourfold root at (0,1,0,0): no estimate clears the threshold unpolished
    fourfold = HomogeneousMap((3, 2, 2, 3), (
        Polynomial(4, {(1, 0, 0, 2): -1, (0, 0, 3, 0): 1}),
        Polynomial(4, {(2, 0, 0, 0): 1, (0, 1, 0, 1): -2}),
        Polynomial(4, {(2, 0, 0, 0): 2, (1, 0, 0, 1): 1, (0, 1, 1, 0): -2}),
        Polynomial(4, {(2, 0, 1, 0): -1, (0, 0, 0, 3): 2}),
    ))
    assert through(lambda: properness_verdict(fourfold).witness) == {"_polished"}
