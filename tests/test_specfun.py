"""The clamped inverse hyperbolic helpers against mpmath."""

import mpmath
import pytest

from coastharvest._specfun import arctanh


@pytest.mark.parametrize("x", [2e-150, 1e-13, 1e-10, 0.5, 1.0 - 1e-15, -(1.0 - 1e-15)])
def test_arctanh_keeps_full_relative_accuracy(x):
    # 0.5*log((1+x)/(1-x)) rounds 1+x first: no relative accuracy at small |x|
    with mpmath.workdps(40):
        want = float(mpmath.atanh(mpmath.mpf(x)))
    assert arctanh(x) == pytest.approx(want, rel=2e-16)


def test_arctanh_clamps_at_the_branch_points():
    assert arctanh(1.0) == arctanh(1.0 - 1e-15)
    assert arctanh(-2.0) == arctanh(-(1.0 - 1e-15))
