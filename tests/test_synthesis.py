"""Optimal-policy construction and the physical-unit cross-check layer."""

import math

import numpy as np
import pytest

import oracles
from coastharvest import (
    IndeterminateError,
    ParameterError,
    ScaledParams,
    UnscaledParams,
    constant_control_objective,
    extend_by_symmetry,
    half_length_domain,
    half_length_function,
    min_length,
    neumann_objective,
    neumann_variant_policy,
    optimal_policy,
    solve_adjoint,
    switch_location,
    to_scaled,
    unscaled_min_length,
    unscaled_reserve_boundary,
)
from coastharvest.bvp import AdjointProfile
from coastharvest.analytic import SegmentSolution
from coastharvest.policy import constant_policy


class TestOptimalPolicy:
    def test_small_weight_keeps_the_constant_cap(self):
        sol = optimal_policy(ScaledParams(l=2.0, q=0.5, hbar=1.0))
        assert sol.policy.rates == (1.0,)
        assert sol.reserve_halfwidth == 0.0
        assert sol.lambda_bar is None
        assert sol.Ts is None
        assert sol.lmin is None

    def test_short_coast_keeps_the_constant_cap(self):
        sol = optimal_policy(ScaledParams(l=2.0, q=2.0, hbar=1.0))
        assert sol.policy.rates == (1.0,)
        assert sol.reserve_halfwidth == 0.0
        # the threshold analysis still reports its numbers
        assert sol.lmin == pytest.approx(2.4929009605609234, rel=1e-10)
        assert sol.lambda_bar is not None
        assert sol.Ts is None

    def test_long_coast_gets_one_centered_reserve(self):
        sp = ScaledParams(l=4.0, q=2.0, hbar=1.0)
        sol = optimal_policy(sp)
        assert sol.policy.rates == (1.0, 0.0, 1.0)
        left, right = sol.policy.breakpoints[1], sol.policy.breakpoints[2]
        assert left + right == 0.0
        assert sol.reserve_halfwidth == pytest.approx(right, rel=1e-15)
        assert sol.Ts == pytest.approx(switch_location(sp), rel=1e-14)
        assert right == pytest.approx(sp.l / 2.0 - sol.Ts, rel=1e-14)
        assert sol.objective_j > constant_control_objective(sp.hbar, sp.q, sp.l)

    def test_diagnostics_are_small_for_optimal_policies(self):
        for sp in (ScaledParams(l=2.0, q=0.5, hbar=1.0), ScaledParams(l=4.0, q=2.0, hbar=1.0)):
            d = optimal_policy(sp).diagnostics
            assert d.boundary_residual <= 1e-10
            assert d.transversality_residual <= 1e-10
            assert d.hamiltonian_deviation <= 1e-8
            assert d.switching_violation <= 1e-8

    @pytest.mark.parametrize(
        "sp",
        [
            ScaledParams(l=20.0, q=0.5, hbar=3.0),
            ScaledParams(l=19.6, q=0.28, hbar=1.71),
            ScaledParams(l=20.0, q=0.5, hbar=2.0),
        ],
        ids=["l20_h3", "l19.6_h1.71", "l20_h2"],
    )
    def test_long_constant_cap_stays_exact_at_the_right_end(self, sp):
        # e^(k*l) is 1e14 to 1e17 here; the right half must be evaluated
        # from its own end, not propagated across the whole half
        sol = optimal_policy(sp)
        d = sol.diagnostics
        assert d.boundary_residual <= 1e-8
        assert d.transversality_residual <= 1e-8
        assert d.hamiltonian_deviation <= 1e-8
        assert d.switching_violation <= 1e-8
        assert sol.objective_j == pytest.approx(
            constant_control_objective(sp.hbar, sp.q, sp.l), rel=1e-10
        )

    def test_policy_flips_exactly_at_the_threshold_length(self):
        q, hbar = 2.0, 1.0
        lmin = min_length(ScaledParams(l=1.0, q=q, hbar=hbar))
        below = optimal_policy(ScaledParams(l=lmin - 1e-6, q=q, hbar=hbar))
        above = optimal_policy(ScaledParams(l=lmin + 1e-6, q=q, hbar=hbar))
        assert below.reserve_halfwidth == 0.0
        assert len(below.policy.rates) == 1
        assert above.reserve_halfwidth > 0.0
        assert above.policy.rates == (hbar, 0.0, hbar)


class TestUnscaledMinLength:
    def test_identity_scaling_matches_the_scaled_threshold(self):
        p = UnscaledParams(D=1.0, R=1.0, mu=1.0, Hbar=1.0, Q=2.0, L=4.0)
        assert unscaled_min_length(p) == pytest.approx(
            min_length(ScaledParams(l=1.0, q=2.0, hbar=1.0)), rel=1e-14
        )

    @pytest.mark.parametrize("ratio", [1.05, 1.1, 1.2, 1.3])
    @pytest.mark.parametrize("D, mu, Hbar, L", [(1.0, 1.0, 1.0, 10.0), (2.0, 0.5, 1.5, 12.0)])
    def test_narrow_domain_near_unit_weight_matches_the_scaled_route(self, ratio, D, mu, Hbar, L):
        # Q/mu near 1 makes the bisection domain narrower than 0.011, where
        # a pad relative to its width is below half an ulp of its upper end
        p = UnscaledParams(D=D, R=1.0, mu=mu, Hbar=Hbar, Q=ratio * mu, L=L)
        want = optimal_policy(to_scaled(p)).reserve_halfwidth * p.length_unit
        assert unscaled_reserve_boundary(p) == pytest.approx(want, rel=1e-12)

    def test_matches_the_high_precision_evaluator(self):
        p = UnscaledParams(D=2.0, R=1.0, mu=1.0, Hbar=1.0, Q=2.0, L=8.0)
        assert unscaled_min_length(p) == pytest.approx(
            float(oracles.unscaled_min_length(2, 1, 1, 2)), rel=1e-13
        )

    def test_requires_a_supercritical_weight(self):
        p = UnscaledParams(D=1.0, R=1.0, mu=1.0, Hbar=1.0, Q=0.5, L=4.0)
        with pytest.raises(ParameterError):
            unscaled_min_length(p)


class TestHalfLengthFunction:
    P = UnscaledParams(D=1.0, R=1.0, mu=1.0, Hbar=1.0, Q=2.0, L=4.0)

    def test_value_at_the_lower_domain_edge(self):
        lo, _ = half_length_domain(self.P)
        s1 = math.sqrt(self.P.D / (self.P.Hbar + self.P.mu))
        assert half_length_function(lo, self.P) == pytest.approx(
            s1 * math.atanh(lo), rel=1e-12
        )
        # the edge value is half the threshold length
        assert half_length_function(lo, self.P) == pytest.approx(
            unscaled_min_length(self.P) / 2.0, rel=1e-12
        )

    def test_strictly_increasing(self):
        lo, hi = half_length_domain(self.P)
        lams = np.linspace(lo, hi - 1e-9 * (hi - lo), 100)
        vals = [half_length_function(v, self.P) for v in lams]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_matches_the_literal_branch_evaluator(self):
        p = UnscaledParams(D=2.0, R=1.0, mu=1.0, Hbar=1.0, Q=2.0, L=8.0)
        lo, hi = half_length_domain(p)
        # stay away from hi, where the function blows up and float64
        # evaluation of any formula loses absolute accuracy
        for lam in (lo, 0.5 * (lo + 1.0), 1.0, 0.5 * (1.0 + hi), lo + 0.9 * (hi - lo)):
            want = float(oracles.half_length(lam, 2, 1, 1, 2))
            assert half_length_function(lam, p) == pytest.approx(want, abs=1e-10)

    def test_domain_errors(self):
        lo, hi = half_length_domain(self.P)
        with pytest.raises(ParameterError):
            half_length_function(lo - 1e-6, self.P)
        with pytest.raises(ParameterError):
            half_length_function(hi, self.P)


class TestUnscaledReserveBoundary:
    def test_absent_for_subcritical_weight(self):
        p = UnscaledParams(D=1.0, R=1.0, mu=1.0, Hbar=1.0, Q=1.0, L=10.0)
        assert unscaled_reserve_boundary(p) is None

    def test_absent_below_the_threshold_length(self):
        p = UnscaledParams(D=1.0, R=1.0, mu=1.0, Hbar=1.0, Q=2.0, L=2.0)
        assert unscaled_reserve_boundary(p) is None

    def test_matches_the_scaled_pipeline(self):
        p = UnscaledParams(D=1.0, R=1.0, mu=1.0, Hbar=1.0, Q=2.0, L=4.0)
        sp = ScaledParams(l=4.0, q=2.0, hbar=1.0)
        expected = math.sqrt(p.D / p.mu) * (sp.l / 2.0 - switch_location(sp))
        got = unscaled_reserve_boundary(p)
        assert got == pytest.approx(expected, rel=1e-8)
        assert 0.0 < got < p.L / 2.0

    @pytest.mark.parametrize("ratio", [1.05, 1.1, 1.2, 1.3])
    @pytest.mark.parametrize("D, mu, Hbar, L", [(1.0, 1.0, 1.0, 10.0), (2.0, 0.5, 1.5, 12.0)])
    def test_narrow_domain_near_unit_weight_matches_the_scaled_route(self, ratio, D, mu, Hbar, L):
        # Q/mu near 1 makes the bisection domain narrower than 0.011, where
        # a pad relative to its width is below half an ulp of its upper end
        p = UnscaledParams(D=D, R=1.0, mu=mu, Hbar=Hbar, Q=ratio * mu, L=L)
        want = optimal_policy(to_scaled(p)).reserve_halfwidth * p.length_unit
        assert unscaled_reserve_boundary(p) == pytest.approx(want, rel=1e-12)

    def test_matches_the_high_precision_evaluator(self):
        p = UnscaledParams(D=2.0, R=1.0, mu=1.0, Hbar=1.0, Q=2.0, L=8.0)
        want = float(oracles.reserve_boundary(2, 1, 1, 2, 8))
        assert unscaled_reserve_boundary(p) == pytest.approx(want, rel=1e-10)

    def test_vanishes_at_the_threshold_length(self):
        base = UnscaledParams(D=1.0, R=1.0, mu=1.0, Hbar=1.0, Q=2.0, L=4.0)
        Lmin = unscaled_min_length(base)
        p = UnscaledParams(D=1.0, R=1.0, mu=1.0, Hbar=1.0, Q=2.0, L=Lmin + 1e-7)
        b = unscaled_reserve_boundary(p)
        assert b is not None
        assert 0.0 < b < 1e-3


class TestExtendBySymmetry:
    def _half_profile(self):
        # the full constant-cap adjoint is symmetric, so its left half
        # (the solver splits segments at 0) is a valid extension input
        pol = constant_policy(2.0, 1.0)
        full = solve_adjoint(pol, 0.5)
        left = tuple(s for s in full.segments if s.x1 <= 0.0)
        half = AdjointProfile(
            segments=left,
            samples=full.samples[: len(full.samples) // 2 + 1],
            lambda0=full.lambda0,
            match_residual=full.match_residual,
        )
        return full, half

    def test_reflection_parity(self):
        _, half = self._half_profile()
        ext = extend_by_symmetry(half)
        for x in np.linspace(0.0, 1.0, 21):
            lam1_p, lam2_p = ext.lambda_at(x)
            lam1_m, lam2_m = ext.lambda_at(-x)
            assert lam1_p == pytest.approx(-lam1_m, abs=1e-12)
            assert lam2_p == pytest.approx(lam2_m, abs=1e-12)

    def test_extension_satisfies_transversality(self):
        _, half = self._half_profile()
        ext = extend_by_symmetry(half)
        assert abs(ext.lambda_at(-1.0)[1]) <= 1e-8
        assert abs(ext.lambda_at(1.0)[1]) <= 1e-8

    def test_extension_matches_the_direct_full_solve(self):
        full, half = self._half_profile()
        ext = extend_by_symmetry(half)
        for x in np.linspace(-1.0, 1.0, 81):
            a = ext.lambda_at(x)
            b = full.lambda_at(x)
            assert abs(a[0] - b[0]) <= 1e-8
            assert abs(a[1] - b[1]) <= 1e-8

    def test_rejects_a_profile_with_nonzero_midpoint_slope(self):
        # lambda2 = sinh(x+1) has lambda1(0) = -cosh(1), far off zero
        seg = SegmentSolution(k=1.0, offset=0.0, A=0.0, B=1.0, x0=-1.0, x1=0.0)
        bad = AdjointProfile(
            segments=(seg,), samples=np.zeros((2, 3)), lambda0=0.0, match_residual=0.0
        )
        with pytest.raises(ParameterError):
            extend_by_symmetry(bad)

    def test_rejects_a_profile_not_ending_at_the_midpoint(self):
        seg = SegmentSolution(k=1.0, offset=0.0, A=0.0, B=1.0, x0=-1.0, x1=0.5)
        bad = AdjointProfile(
            segments=(seg,), samples=np.zeros((2, 3)), lambda0=0.0, match_residual=0.0
        )
        with pytest.raises(ParameterError):
            extend_by_symmetry(bad)


class TestNeumannVariant:
    def test_small_weight_keeps_the_cap(self):
        pol = neumann_variant_policy(ScaledParams(l=3.0, q=0.5, hbar=1.0))
        assert pol.rates == (1.0,)

    def test_large_weight_closes_the_whole_coast(self):
        pol = neumann_variant_policy(ScaledParams(l=3.0, q=2.0, hbar=1.0))
        assert pol.rates == (0.0,)

    def test_unit_weight_is_indeterminate(self):
        with pytest.raises(IndeterminateError):
            neumann_variant_policy(ScaledParams(l=3.0, q=1.0, hbar=1.0))

    def test_flat_objective_closed_form(self):
        assert neumann_objective(0.7, 1.3) == pytest.approx(
            float(oracles.neumann_objective(0.7, 1.3)), rel=1e-15
        )
        # increasing in h exactly when q < 1, flat at q = 1
        assert neumann_objective(1.0, 0.5) > neumann_objective(0.5, 0.5)
        assert neumann_objective(1.0, 2.0) < neumann_objective(0.5, 2.0)
        assert neumann_objective(1.0, 1.0) == neumann_objective(0.2, 1.0) == 1.0

    def test_rejects_negative_rates(self):
        with pytest.raises(ParameterError):
            neumann_objective(-0.1, 2.0)
