"""Exact determinants and denominator clearing on scalar matrices, and the Newton polish."""

import sys
from fractions import Fraction

import numpy as np
import pytest

from morin_census import (critical_points_on_lines, cusp_points, linalg, properness,
                          properness_verdict, random_map, sampler, univariate_roots)
from morin_census.linalg import (
    _CERTIFICATE_PRIMES,
    bareiss_det,
    det_is_nonzero,
    exact_det,
    exact_rank,
    integer_rows,
    newton_polish,
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
    """The root finder's stacked kernel ``_companion_roots``, both slicers and
    the properness witness each call ``newton_polish``, seen through a counter
    at each module's import binding."""
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
    assert through(lambda: univariate_roots([-6, 11, -6, 1])) == {"_companion_roots"}
    assert through(lambda: critical_points_on_lines(F, lines=1, seed=11)) == {
        "_companion_roots", "critical_points_on_lines"}
    assert through(lambda: cusp_points(F, planes=1, seed=6)) == {
        "_companion_roots", "plane_section_solutions"}
    # (3,3,3), seed 1000016: no component has an x1^3 term, so (1,0,0) is a common zero
    planted = random_map((3, 3, 3), seed=1000016)
    assert through(lambda: properness_verdict(planted).witness) == {"_polished"}
