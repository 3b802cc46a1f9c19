"""Piecewise-constant policy construction and evaluation."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from coastharvest import (
    HarvestPolicy,
    ParameterError,
    constant_policy,
    single_reserve_policy,
)
from coastharvest.lab import _average_rates


class TestValidation:
    def test_breakpoints_must_increase(self):
        with pytest.raises(ParameterError):
            HarvestPolicy(breakpoints=(-1.0, 1.0, 0.5), rates=(1.0, 1.0))

    def test_rate_count_must_match(self):
        with pytest.raises(ParameterError):
            HarvestPolicy(breakpoints=(-1.0, 1.0), rates=(1.0, 0.0))

    def test_domain_must_be_symmetric(self):
        with pytest.raises(ParameterError):
            HarvestPolicy(breakpoints=(-1.0, 2.0), rates=(1.0,))

    def test_rates_must_be_nonnegative(self):
        with pytest.raises(ParameterError):
            HarvestPolicy(breakpoints=(-1.0, 1.0), rates=(-0.5,))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_breakpoints_must_be_finite(self, bad):
        with pytest.raises(ParameterError, match="^breakpoints must be finite"):
            HarvestPolicy(breakpoints=(-1.0, bad, 1.0), rates=(1.0, 0.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rates_must_be_finite(self, bad):
        with pytest.raises(ParameterError, match="^rates must be finite"):
            HarvestPolicy(breakpoints=(-1.0, 0.0, 1.0), rates=(1.0, bad))

    def test_needs_two_breakpoints(self):
        with pytest.raises(ParameterError):
            HarvestPolicy(breakpoints=(0.0,), rates=())


class TestRateLookup:
    def test_right_continuity_at_interior_breakpoints(self):
        pol = HarvestPolicy(breakpoints=(-1.0, 0.0, 1.0), rates=(1.0, 0.0))
        assert pol.rate_at(0.0) == 0.0
        assert pol.rate_at(-1e-12) == 1.0

    def test_right_endpoint_uses_the_last_segment(self):
        pol = HarvestPolicy(breakpoints=(-1.0, 0.0, 1.0), rates=(1.0, 0.5))
        assert pol.rate_at(1.0) == 0.5

    def test_out_of_domain_rejected(self):
        pol = constant_policy(2.0, 1.0)
        with pytest.raises(ParameterError):
            pol.rate_at(1.5)

    def test_average_rate(self):
        # the package's one cell average, used by lab.stability_eigenvalues
        pol = HarvestPolicy(breakpoints=(-1.0, 0.0, 1.0), rates=(1.0, 0.0))
        a = np.array([-1.0, -0.5, 0.25])
        b = np.array([1.0, 0.5, 0.75])
        got = _average_rates(pol, a, b)
        assert got[0] == pytest.approx(0.5)
        assert got[1] == pytest.approx(0.5)
        assert got[2] == 0.0


class TestConstructors:
    def test_constant(self):
        pol = constant_policy(4.0, 1.0)
        assert pol.breakpoints == (-2.0, 2.0)
        assert pol.rates == (1.0,)
        assert pol.l == 4.0
        assert pol.max_rate == 1.0

    def test_single_reserve(self):
        pol = single_reserve_policy(4.0, -0.5, 0.5, 1.0)
        assert pol.breakpoints == (-2.0, -0.5, 0.5, 2.0)
        assert pol.rates == (1.0, 0.0, 1.0)

    def test_reserve_clipped_to_the_domain(self):
        pol = single_reserve_policy(4.0, -10.0, 0.0, 1.0)
        assert pol.breakpoints == (-2.0, 0.0, 2.0)
        assert pol.rates == (0.0, 1.0)

    def test_empty_reserve_degenerates_to_constant(self):
        pol = single_reserve_policy(4.0, 1.0, 1.0, 1.0)
        assert pol.rates == (1.0,)
        pol = single_reserve_policy(4.0, 3.0, 5.0, 1.0)
        assert pol.rates == (1.0,)

    def test_whole_domain_reserve(self):
        pol = single_reserve_policy(4.0, -2.0, 2.0, 1.0)
        assert pol.rates == (0.0,)


@given(
    l=st.floats(0.5, 20.0),
    center=st.floats(-5.0, 5.0),
    width=st.floats(0.0, 30.0),
)
def test_single_reserve_average_rate_accounts_for_the_block(l, center, width):
    hbar = 1.0
    pol = single_reserve_policy(l, center - width / 2.0, center + width / 2.0, hbar)
    lo = max(center - width / 2.0, -l / 2.0)
    hi = min(center + width / 2.0, l / 2.0)
    blocked = max(hi - lo, 0.0)
    expected = hbar * (l - blocked) / l
    harvested = sum(r * (x1 - x0) for x0, x1, r in pol.segments()) / l
    assert harvested == pytest.approx(expected, abs=1e-12)
