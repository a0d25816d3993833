"""Differential tests: the one locus engine against the point oracle."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from virkit.classify import (
    MAX_GRID_BOUND,
    _locus,
    _vanishes_at,
    condition_pair_holds,
    enumerate_cases,
    grid_values,
)
from virkit.errors import ParameterError

F = Fraction
HALF = F(1, 2)

# enumerate_cases(0, 4, 4).hits as produced by the earlier per-point s = 0
# scan (the specialised determinant tested on a p/k/m sample cube).
S0_HITS_4_4 = (
    (F(0), F(-4)), (F(0), F(-3)), (F(0), F(-2)), (F(0), F(-3, 2)), (F(0), F(-4, 3)),
    (F(0), F(-1)), (F(0), F(-3, 4)), (F(0), F(-2, 3)), (F(0), F(-1, 2)),
    (F(0), F(-1, 3)), (F(0), F(-1, 4)), (F(0), F(0)), (F(0), F(1, 4)), (F(0), F(1, 3)),
    (F(0), F(1, 2)), (F(0), F(2, 3)), (F(0), F(3, 4)), (F(0), F(1)), (F(0), F(4, 3)),
    (F(0), F(3, 2)), (F(0), F(2)), (F(0), F(3)), (F(0), F(4)), (F(1), F(-4)),
    (F(1), F(-3)), (F(1), F(-2)), (F(1), F(-3, 2)), (F(1), F(-4, 3)), (F(1), F(-1)),
    (F(1), F(-3, 4)), (F(1), F(-2, 3)), (F(1), F(-1, 2)), (F(1), F(-1, 3)),
    (F(1), F(-1, 4)), (F(1), F(0)), (F(1), F(1, 4)), (F(1), F(1, 3)), (F(1), F(1, 2)),
    (F(1), F(2, 3)), (F(1), F(3, 4)), (F(1), F(1)), (F(1), F(4, 3)), (F(1), F(3, 2)),
    (F(1), F(2)), (F(1), F(3)), (F(1), F(4)), (F(2), F(0)), (F(2), F(1)),
)


def _rho_grid(grid):
    return [rho for rho in grid if rho != -1]


# square bounds, and asymmetric ones where numerators and denominators differ
BOUNDS = {"2": (2, 2), "3": (3, 3), "4": (4, 4), "8-3": (8, 3), "3-8": (3, 8)}


@pytest.mark.parametrize("max_num, max_den", list(BOUNDS.values()), ids=list(BOUNDS))
def test_half_scan_hits_equal_brute_force(max_num, max_den):
    grid = grid_values(max_num, max_den)
    expected = tuple(
        (rho, b, bp)
        for rho in _rho_grid(grid)
        for b in grid
        for bp in grid
        if condition_pair_holds(rho, b, bp) == (True, True)
    )
    assert enumerate_cases(HALF, max_num, max_den).hits == expected
    located = {(rho, b, bp) for rho in _rho_grid(grid) for b, bp in _locus(rho, HALF, grid)}
    assert located == set(expected)


@pytest.mark.parametrize("max_num, max_den", list(BOUNDS.values()), ids=list(BOUNDS))
def test_s0_scan_hits_equal_brute_force(max_num, max_den):
    grid = grid_values(max_num, max_den)
    expected = tuple(
        (rho, b) for rho in _rho_grid(grid) for b in grid if _vanishes_at(rho, b, b)
    )
    assert enumerate_cases(0, max_num, max_den).hits == expected
    located = {(rho, b, bp) for rho in _rho_grid(grid) for b, bp in _locus(rho, F(0), grid)}
    assert located == {(rho, b, b) for rho, b in expected}


def test_s0_scan_hits_are_frozen():
    assert enumerate_cases(0, 4, 4).hits == S0_HITS_4_4


quarters = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 4))


@settings(max_examples=60, deadline=None)
@given(rho=quarters, b=quarters, bp=quarters)
def test_staged_membership_equals_point_oracle(rho, b, bp):
    # the s = 1/2 locus keeps a pair only when its swap vanishes as well
    locus = _locus(rho, HALF, sorted({b, bp}))
    assert ((b, bp) in locus, (bp, b) in locus) == (all(condition_pair_holds(rho, b, bp)),) * 2
    assert ((b, b) in _locus(rho, F(0), [b])) == _vanishes_at(rho, b, b)


def test_grid_bound_is_enforced():
    assert len(grid_values(MAX_GRID_BOUND, 1)) == 2 * MAX_GRID_BOUND + 1
    with pytest.raises(ParameterError):
        grid_values(MAX_GRID_BOUND + 1, 1)
    with pytest.raises(ParameterError):
        grid_values(1, MAX_GRID_BOUND + 1)
