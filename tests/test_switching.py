"""Switching-line constants, hitting times, and the threshold length."""

import math

import mpmath
import numpy as np
import pytest

import oracles
from coastharvest import (
    ParameterError,
    ScaledParams,
    derive_constants,
    hitting_time,
    min_length,
    optimal_policy,
)

GRID = [
    ScaledParams(l=l, q=q, hbar=hbar)
    for q in (1.5, 2.0, 5.0)
    for hbar in (0.5, 1.0, 4.0)
    for l in (2.0, 4.0, 10.0)
]


def post_switch_leg(lam0, dc):
    """The zero-control leg that hitting_time adds past the switch line, in
    floats: arctanh of the plain Pythagorean intercept over is2.  Near
    lam_starstar that arctanh is ill-conditioned, and hitting_time's own
    leg carries the same rounding, so subtracting this one isolates the
    switch leg."""
    return math.atanh(math.sqrt(lam0 * lam0 - dc.lam_star * dc.lam_star) / dc.is2)


class TestDeriveConstants:
    def test_reference_set_short_coast(self):
        dc = derive_constants(ScaledParams(l=2.0, q=2.0, hbar=1.0))
        assert dc.a1 == 2.0
        assert dc.i1 == pytest.approx(3.0 / (2.0 * math.sqrt(2.0)), rel=1e-15)
        assert dc.is1 == pytest.approx(math.sqrt(2.0) / 4.0, rel=1e-15)
        assert dc.is2 == pytest.approx(0.5, rel=1e-15)
        assert dc.lam_star == pytest.approx(1.0, rel=1e-15)
        assert dc.lam_starstar == pytest.approx(math.sqrt(1.25), rel=1e-15)

    def test_reference_set_long_coast(self):
        dc = derive_constants(ScaledParams(l=4.0, q=2.0, hbar=1.0))
        assert dc.lam_star == pytest.approx(0.5, rel=1e-15)
        assert dc.i1 == pytest.approx(3.0 / (4.0 * math.sqrt(2.0)), rel=1e-15)
        assert dc.is2 == pytest.approx(0.25, rel=1e-15)
        assert dc.lam_starstar == pytest.approx(math.sqrt(0.3125), rel=1e-15)

    def test_matches_the_high_precision_evaluator(self):
        dc = derive_constants(ScaledParams(l=4.0, q=2.0, hbar=1.0))
        want = oracles.constants(4, 2, 1)
        for name in ("i1", "is1", "is2", "lam_star"):
            assert getattr(dc, name) == pytest.approx(float(want[name]), rel=1e-15)
        assert dc.lam_starstar == pytest.approx(float(want["lam_starstar"]), rel=1e-15)

    @pytest.mark.parametrize("sp", GRID, ids=lambda s: f"l{s.l}-q{s.q}-h{s.hbar}")
    def test_ordering_inequalities(self, sp):
        dc = derive_constants(sp)
        assert dc.is1 < dc.is2
        assert 0.0 < dc.lam_star < dc.i1
        assert dc.lam_star < dc.lam_starstar
        assert dc.i1 < dc.lam_starstar

    @pytest.mark.parametrize(
        "q, hbar", [(1.000000000001, 1e8), (1.0 + 1e-10, 1e4), (1.0 + 1e-8, 1e3), (1.0001, 100.0)]
    )
    def test_switch_line_intercept_is_exact_near_unit_weight(self, q, hbar):
        # (sqrt(a1)/l)*(b1/a1 - 1) loses every digit once b1/a1 rounds to 1
        dc = derive_constants(ScaledParams(l=50.0, q=q, hbar=hbar))
        assert dc.is1 > 0.0
        with mpmath.workdps(60):
            want = float(oracles.constants(50.0, q, hbar)["is1"])
        assert dc.is1 == pytest.approx(want, rel=1e-15, abs=0.0)

    def test_overflowing_constants_are_a_parameter_error(self):
        with pytest.raises(ParameterError, match=r"\(l, q, hbar\) = \(1e-12, 1e\+300, 1.0\)"):
            derive_constants(ScaledParams(l=1e-12, q=1e300, hbar=1.0))

    def test_underflowing_constants_are_a_parameter_error(self):
        with pytest.raises(ParameterError, match=r"underflow at \(l, q, hbar\) = \(1e\+300, 1.5"):
            derive_constants(ScaledParams(l=1e300, q=1.5, hbar=1e150))

    def test_rejects_small_weight(self):
        with pytest.raises(ParameterError):
            derive_constants(ScaledParams(l=2.0, q=1.0, hbar=1.0))
        with pytest.raises(ParameterError):
            derive_constants(ScaledParams(l=2.0, q=0.5, hbar=1.0))


class TestHittingTime:
    def test_small_level_limit(self):
        dc = derive_constants(ScaledParams(l=2.0, q=2.0, hbar=1.0))
        assert hitting_time(1e-14, dc) == pytest.approx(0.0, abs=1e-13)

    def test_beyond_the_escape_level_never_hits(self):
        dc = derive_constants(ScaledParams(l=2.0, q=2.0, hbar=1.0))
        assert hitting_time(dc.lam_starstar + 0.1, dc) == math.inf
        assert hitting_time(dc.lam_starstar, dc) == math.inf

    def test_value_at_the_tangency_level(self):
        dc = derive_constants(ScaledParams(l=2.0, q=2.0, hbar=1.0))
        expected = math.atanh(2.0 * math.sqrt(2.0) / 3.0) / math.sqrt(2.0)
        got = hitting_time(dc.lam_star, dc)
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(1.24645, abs=5e-6)
        assert got == pytest.approx(min_length(ScaledParams(l=2.0, q=2.0, hbar=1.0)) / 2.0, abs=1e-13)

    def test_matches_the_high_precision_evaluator_in_every_branch(self):
        dc = derive_constants(ScaledParams(l=4.0, q=2.0, hbar=1.0))
        levels = [
            0.5 * dc.lam_star,
            dc.lam_star,
            0.5 * (dc.lam_star + dc.i1),
            dc.i1,
            0.5 * (dc.i1 + dc.lam_starstar),
            dc.lam_starstar * (1.0 - 1e-6),
        ]
        for lam0 in levels:
            want = float(oracles.hitting_time(lam0, 4, 2, 1))
            assert hitting_time(lam0, dc) == pytest.approx(want, abs=2e-10)

    @pytest.mark.parametrize("sp", GRID, ids=lambda s: f"l{s.l}-q{s.q}-h{s.hbar}")
    def test_branch_continuity_at_the_joins(self, sp):
        dc = derive_constants(sp)
        for join in (dc.lam_star, dc.i1):
            # the joined function is steep (slopes up to a few hundred on
            # this grid), so probe close enough that slope * 2eps stays
            # well under the continuity tolerance
            below = hitting_time(join - 1e-12, dc)
            above = hitting_time(join + 1e-12, dc)
            assert abs(above - below) <= 1e-9

    @pytest.mark.parametrize("sp", GRID, ids=lambda s: f"l{s.l}-q{s.q}-h{s.hbar}")
    def test_is_the_switch_time_plus_the_post_switch_time(self, sp):
        # past tangency the ray meets the switch line, then finishes in
        # the zero-control flow; at tangency the two events coincide, and
        # the switch time, of infinite slope there, meets the direct
        # branch, which the oracle reads just below its own tangency level;
        # its switch branch at that level has an arccosh argument of
        # exactly 1, which rounds to either side of 1 at 40 digits
        dc = derive_constants(sp)
        args = (sp.l, sp.q, sp.hbar)
        lam_star = oracles.constants(*args)["lam_star"]
        want = float(oracles.hitting_time(lam_star * (1 - mpmath.mpf("1e-30")), *args))
        assert hitting_time(dc.lam_star, dc) == pytest.approx(want, abs=1e-12)
        switch = oracles.switch_hit_x(lam_star, *args)
        assert isinstance(switch, mpmath.mpf)
        assert hitting_time(dc.lam_star, dc) == pytest.approx(float(switch), abs=1e-12)
        for lam0 in (0.5 * (dc.lam_star + dc.lam_starstar), dc.lam_starstar * (1.0 - 1e-6)):
            tail = post_switch_leg(lam0, dc)
            want = float(oracles.switch_hit_x(lam0, *args))
            assert math.isfinite(tail)
            assert hitting_time(lam0, dc) - tail == pytest.approx(want, abs=1e-12)

    def test_strictly_increasing(self):
        dc = derive_constants(ScaledParams(l=4.0, q=2.0, hbar=1.0))
        lams = np.linspace(1e-4 * dc.lam_starstar, dc.lam_starstar * (1.0 - 1e-6), 10_000)
        ts = [hitting_time(v, dc) for v in lams]
        assert all(a < b for a, b in zip(ts, ts[1:]))

    def test_rejects_nonpositive_levels(self):
        dc = derive_constants(ScaledParams(l=2.0, q=2.0, hbar=1.0))
        with pytest.raises(ParameterError):
            hitting_time(0.0, dc)

    @pytest.mark.parametrize("l", [1e-155, 1e-200, 1e-300])
    def test_very_short_coasts_match_the_high_precision_evaluator(self, l):
        # the levels are about 1/l, and squaring them used to overflow to
        # an intercept of inf - inf = nan
        dc = derive_constants(ScaledParams(l=l, q=2.0, hbar=1.0))
        for lam0 in (dc.lam_starstar * i / 26.0 for i in range(1, 26)):
            want = float(oracles.hitting_time(lam0, l, 2.0, 1.0))
            assert hitting_time(lam0, dc) == pytest.approx(want, rel=1e-12)


class TestSwitchTime:
    def test_matches_the_literal_three_branch_evaluator(self):
        # the switch part of the hitting time: arccosh below i1, a bare
        # logarithm at i1, arcsinh above, all in the merged form
        dc = derive_constants(ScaledParams(l=4.0, q=2.0, hbar=1.0))
        levels = (0.51, 0.5 * (dc.lam_star + dc.i1), dc.i1, 0.54, dc.lam_starstar * (1.0 - 1e-9))
        for lam0 in levels:
            tail = post_switch_leg(lam0, dc)
            want = float(oracles.switch_hit_x(lam0, 4, 2, 1))
            assert hitting_time(lam0, dc) - tail == pytest.approx(want, abs=1e-12)


class TestSwitchLineIntercept:
    # the ray from (lambda0, 0) meets the switch line at lambda1 =
    # sqrt(lambda0^2 - lam_star^2), which hitting_time computes inline
    def test_zero_at_tangency(self):
        # no post-switch leg: the whole hitting time is the switch leg
        dc = derive_constants(ScaledParams(l=4.0, q=2.0, hbar=1.0))
        want = float(oracles.switch_hit_x(dc.lam_star, 4, 2, 1))
        assert hitting_time(dc.lam_star, dc) == pytest.approx(want, abs=1e-14)

    def test_escape_level_maps_to_the_manifold_intercept(self):
        dc = derive_constants(ScaledParams(l=4.0, q=2.0, hbar=1.0))
        assert hitting_time(dc.lam_starstar, dc) == math.inf
        below = math.nextafter(dc.lam_starstar, 0.0)
        assert math.isfinite(hitting_time(below, dc))

    def test_pythagorean_form(self):
        dc = derive_constants(ScaledParams(l=4.0, q=2.0, hbar=1.0))
        lam0 = math.sqrt(dc.lam_star**2 + 0.01)
        want = oracles.switch_hit_x(lam0, 4, 2, 1) + oracles.after_switch_x(0.1, 4, 2, 1)
        assert hitting_time(lam0, dc) == pytest.approx(float(want), abs=1e-14)

    @pytest.mark.parametrize("sp", GRID, ids=lambda s: f"l{s.l}-q{s.q}-h{s.hbar}")
    def test_is_the_plain_form_bit_for_bit_where_its_squares_are_in_range(self, sp):
        # the binary exponent taken out before squaring is exact
        dc = derive_constants(sp)
        for lam0 in np.linspace(dc.lam_star, dc.lam_starstar, 101).tolist()[:-1]:
            plain = math.sqrt(max(lam0 * lam0 - dc.lam_star * dc.lam_star, 0.0))
            switch = math.log((dc.i1 + lam0) / (dc.is1 + plain)) / math.sqrt(dc.a1)
            assert hitting_time(lam0, dc) == switch + math.atanh(plain / dc.is2)

    @pytest.mark.parametrize("l", [1e-155, 1e-200, 1e-300])
    def test_squares_do_not_overflow_on_very_short_coasts(self, l):
        dc = derive_constants(ScaledParams(l=l, q=2.0, hbar=1.0))
        lam_star = oracles.constants(l, 2.0, 1.0)["lam_star"]
        args = (l, 2.0, 1.0)
        for lam0 in (dc.lam_star, 0.5 * (dc.lam_star + dc.lam_starstar)):
            tilde = mpmath.sqrt(max(mpmath.mpf(lam0) ** 2 - lam_star**2, 0))
            want = oracles.switch_hit_x(lam0, *args) + oracles.after_switch_x(tilde, *args)
            assert hitting_time(lam0, dc) == pytest.approx(float(want), rel=1e-14)
        assert hitting_time(dc.lam_starstar, dc) == math.inf


class TestPostSwitchTime:
    # the zero-control leg from the switch line to the lambda2-axis,
    # arctanh(tilde/is2), read as hitting_time minus the oracle's switch leg
    def test_small_intercept_limit(self):
        # one ulp above tangency the intercept is about 1e-8, the smallest
        # above 0 at this level; the leg vanishes with it
        dc = derive_constants(ScaledParams(l=4.0, q=2.0, hbar=1.0))
        lam0 = math.nextafter(dc.lam_star, math.inf)
        tilde = mpmath.sqrt(mpmath.mpf(lam0) ** 2 - oracles.constants(4, 2, 1)["lam_star"] ** 2)
        leg = hitting_time(lam0, dc) - float(oracles.switch_hit_x(lam0, 4, 2, 1))
        assert 0.0 < leg < 1e-7
        assert leg == pytest.approx(float(oracles.after_switch_x(tilde, 4, 2, 1)), abs=1e-13)

    def test_manifold_intercept_never_returns(self):
        dc = derive_constants(ScaledParams(l=4.0, q=2.0, hbar=1.0))
        assert hitting_time(math.hypot(dc.lam_star, dc.is2), dc) == math.inf

    def test_analytic_inversion(self):
        dc = derive_constants(ScaledParams(l=4.0, q=2.0, hbar=1.0))
        lam0 = math.hypot(dc.lam_star, dc.is2 * math.tanh(1.0))
        leg = hitting_time(lam0, dc) - float(oracles.switch_hit_x(lam0, 4, 2, 1))
        assert leg == pytest.approx(1.0, rel=1e-13)


class TestMinLength:
    def test_reference_value(self):
        got = min_length(ScaledParams(l=1.0, q=2.0, hbar=1.0))
        expected = math.sqrt(2.0) * math.atanh(2.0 * math.sqrt(2.0) / 3.0)
        assert got == pytest.approx(expected, rel=1e-15)
        assert got == pytest.approx(2.4929009605609234, rel=1e-12)
        assert got == pytest.approx(float(oracles.min_length(2, 1)), rel=1e-14)

    # at hbar = 1e8 the oracle's arctanh argument is within (q - 1)^2/hbar^2
    # of 1, below 40 digits from q = 1 + 1e-12 on
    @pytest.mark.parametrize("hbar", [0.5, 1.0, 3.0, 1e8])
    @pytest.mark.parametrize("q", [1.0 + 1e-12, 1.0 + 1e-8, 1.0 + 1e-6, 1.0001])
    def test_exact_as_the_weight_approaches_one(self, q, hbar):
        got = min_length(ScaledParams(l=1.0, q=q, hbar=hbar))
        assert got == pytest.approx(float(oracles.min_length(q, hbar)), rel=1e-14)

    def test_diverges_as_the_weight_approaches_one(self):
        assert min_length(ScaledParams(l=1.0, q=1.0 + 1e-6, hbar=1.0)) > 20.0

    @pytest.mark.parametrize("sp", GRID, ids=lambda s: f"l{s.l}-q{s.q}-h{s.hbar}")
    def test_equals_twice_the_tangency_hitting_time(self, sp):
        dc = derive_constants(sp)
        assert min_length(sp) == pytest.approx(2.0 * hitting_time(dc.lam_star, dc), abs=1e-12)

    def test_independent_of_the_domain_length(self):
        a = min_length(ScaledParams(l=2.0, q=2.0, hbar=1.0))
        b = min_length(ScaledParams(l=10.0, q=2.0, hbar=1.0))
        assert a == b

    def test_rejects_small_weight(self):
        with pytest.raises(ParameterError):
            min_length(ScaledParams(l=2.0, q=0.5, hbar=1.0))

    def test_overflow_is_a_parameter_error(self):
        # (hbar + 1)(hbar + 2q - 1) overflows once hbar is above about 1e154
        assert math.isfinite(min_length(ScaledParams(l=1.0, q=1.5, hbar=1e150)))
        with pytest.raises(ParameterError, match=r"overflows at \(q, hbar\) = \(1.5, 1e\+300\)"):
            min_length(ScaledParams(l=1e8, q=1.5, hbar=1e300))


class TestLambdaBar:
    # optimal_policy's lambda_bar: closed form up to l_min, the root of the
    # half-width bisection above it
    def test_short_coast_root_stays_below_tangency(self):
        sp = ScaledParams(l=2.0, q=2.0, hbar=1.0)  # l < threshold 2.49291
        dc = derive_constants(sp)
        lam_bar = optimal_policy(sp).lambda_bar
        assert lam_bar < dc.lam_star
        assert lam_bar == pytest.approx(float(oracles.lambda_bar(2, 2, 1)), rel=1e-14)

    def test_long_coast_root_lands_between_the_critical_levels(self):
        sp = ScaledParams(l=4.0, q=2.0, hbar=1.0)
        dc = derive_constants(sp)
        lam_bar = optimal_policy(sp).lambda_bar
        assert dc.lam_star < lam_bar < dc.lam_starstar
        assert lam_bar == pytest.approx(float(oracles.lambda_bar(4, 2, 1)), abs=1e-12)

    @pytest.mark.parametrize("sp", GRID, ids=lambda s: f"l{s.l}-q{s.q}-h{s.hbar}")
    def test_residual(self, sp):
        dc = derive_constants(sp)
        lam_bar = optimal_policy(sp).lambda_bar
        # near lam_starstar the hitting time is steep enough that one ulp
        # of root motion moves the residual by ~1e-12
        assert abs(hitting_time(lam_bar, dc) - sp.l / 2.0) <= 1e-11


class TestSwitchLocation:
    # Ts, the distance from the coast end to the reserve edge
    def test_reference_value(self):
        sp = ScaledParams(l=4.0, q=2.0, hbar=1.0)
        ts = optimal_policy(sp).Ts
        assert 0.0 < ts < sp.l / 2.0
        want = oracles.switch_hit_x(oracles.lambda_bar(4, 2, 1), 4, 2, 1)
        assert ts == pytest.approx(float(want), abs=1e-14)

    def test_reserve_width_vanishes_at_the_threshold(self):
        q, hbar = 2.0, 1.0
        lmin = min_length(ScaledParams(l=1.0, q=q, hbar=hbar))
        sp = ScaledParams(l=lmin + 1e-7, q=q, hbar=hbar)
        ts = optimal_policy(sp).Ts
        assert ts == pytest.approx(lmin / 2.0, abs=1e-3)
        assert sp.l / 2.0 - ts < 1e-3

    @pytest.mark.parametrize(
        "sp", [s for s in GRID if s.l > min_length(ScaledParams(l=1.0, q=s.q, hbar=s.hbar))],
        ids=lambda s: f"l{s.l}-q{s.q}-h{s.hbar}",
    )
    def test_decomposition_of_the_hitting_time(self, sp):
        sol = optimal_policy(sp)
        args = (sol.lambda_bar, sp.l, sp.q, sp.hbar)
        tail = float(oracles.hitting_time(*args) - oracles.switch_hit_x(*args))
        assert sol.Ts + tail == pytest.approx(sp.l / 2.0, abs=1e-10)

    def test_no_switch_at_or_below_the_threshold(self):
        lmin = min_length(ScaledParams(l=1.0, q=2.0, hbar=1.0))
        for l in (2.0, lmin):
            assert optimal_policy(ScaledParams(l=l, q=2.0, hbar=1.0)).Ts is None

