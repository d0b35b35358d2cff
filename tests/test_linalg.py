"""Exact determinants and denominator clearing on scalar matrices."""

from fractions import Fraction

from morin_census.linalg import exact_det, integer_rows


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
