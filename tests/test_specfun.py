"""The clamped arctanh against mpmath, and the bisection's bracket check."""

import math

import mpmath
import pytest

from coastharvest import ParameterError, ScaledParams, derive_constants
from coastharvest._specfun import arctanh, bisect_root
from coastharvest.switching import solve_halfwidth


@pytest.mark.parametrize("x", [2e-150, 1e-13, 1e-10, 0.5, 1.0 - 1e-15, -(1.0 - 1e-15)])
def test_arctanh_keeps_full_relative_accuracy(x):
    # 0.5*log((1+x)/(1-x)) rounds 1+x first: no relative accuracy at small |x|
    with mpmath.workdps(40):
        want = float(mpmath.atanh(mpmath.mpf(x)))
    assert arctanh(x) == pytest.approx(want, rel=2e-16)


def test_arctanh_clamps_at_the_branch_points():
    assert arctanh(1.0) == arctanh(1.0 - 1e-15)
    assert arctanh(-2.0) == arctanh(-(1.0 - 1e-15))


@pytest.mark.parametrize(
    "lo, hi", [(math.nan, 1.0), (0.0, math.nan), (1.0, 1.0), (2.0, 1.0)]
)
def test_bisection_refuses_an_empty_or_nan_bracket(lo, hi):
    # a NaN end never closed the bracket, and the loop ran forever
    with pytest.raises(ParameterError, match="bisection needs lo < hi"):
        bisect_root(lambda x: x - 0.5, lo, hi)


def test_halfwidth_at_a_nan_length_is_a_parameter_error():
    dc = derive_constants(ScaledParams(4.0, 2.0, 1.0))
    with pytest.raises(ParameterError, match=r"got \[0.0, nan\]"):
        solve_halfwidth(dc, math.nan)
