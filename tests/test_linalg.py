"""Exact determinants and denominator clearing on scalar matrices."""

from fractions import Fraction

import pytest

from morin_census.linalg import (
    _CERTIFICATE_PRIMES,
    bareiss_det,
    det_is_nonzero,
    exact_det,
    exact_rank,
    integer_rows,
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


def test_det_is_nonzero_falls_back_to_exact_rank():
    """diag(p1 p2 p3, 1) loses rank mod every certificate prime, but not over Q."""
    p1, p2, p3 = _CERTIFICATE_PRIMES
    assert det_is_nonzero([[p1 * p2 * p3, 0], [0, 1]])


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
