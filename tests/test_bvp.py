"""Exact edge-value boundary-value solvers and Pontryagin diagnostics."""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import simpson

from coastharvest import (
    HarvestPolicy,
    ScaledParams,
    SegmentSolution,
    adjoint_constant_hbar,
    constant_control_objective,
    constant_control_steady_state,
    evaluate_objective,
    hamiltonian_diagnostic,
    optimal_policy,
    optimal_shoot_slope,
    shoot_steady_state,
    single_reserve_policy,
    solve_adjoint,
    switch_level,
)
from coastharvest.bvp import Profile
from coastharvest.params import ParameterError

OPTIMAL_SP = ScaledParams(l=4.0, q=2.0, hbar=1.0)


def three_segment_policy():
    return optimal_policy(OPTIMAL_SP).policy


class TestSegmentSolution:
    def test_edge_values_are_kept(self):
        # edge weights are exactly 1 and 0, so a zero boundary value stays 0.0
        seg = SegmentSolution(k=1.3, offset=0.4, u0=0.0, u1=-0.25, x0=-0.7, x1=1.1)
        assert seg.value(seg.x0) == 0.0
        assert seg.value(seg.x1) == pytest.approx(seg.u1, abs=1e-15)

    @pytest.mark.parametrize("h", [0.0, 1.0, 3.0])
    def test_equilibrium_is_fixed(self, h):
        u_eq = 1.0 / (1.0 + h)
        seg = SegmentSolution(math.sqrt(1.0 + h), u_eq, u_eq, u_eq, 0.0, 1.7)
        for x in (0.0, 0.4, 1.7):
            assert seg.value(x) == pytest.approx(u_eq, abs=1e-14)
            assert seg.deriv(x) == pytest.approx(0.0, abs=1e-14)

    def test_restriction_is_the_same_solution(self):
        whole = SegmentSolution(k=1.2, offset=0.5, u0=0.2, u1=0.1, x0=0.0, x1=1.7)
        part = SegmentSolution(1.2, 0.5, whole.value(0.8), 0.1, 0.8, 1.7)
        for x in (0.8, 1.0, 1.5):
            assert part.value(x) == pytest.approx(whole.value(x), abs=1e-12)
            assert part.deriv(x) == pytest.approx(whole.deriv(x), abs=1e-12)

    def test_solves_the_segment_ode(self):
        seg = SegmentSolution(k=0.9, offset=0.3, u0=0.0, u1=0.6, x0=-1.0, x1=2.0)
        x, eps = 0.4, 1e-4
        fd = (seg.value(x + eps) - 2.0 * seg.value(x) + seg.value(x - eps)) / eps**2
        assert fd == pytest.approx(seg.k * seg.k * (seg.value(x) - seg.offset), abs=1e-6)

    def test_integral_matches_quadrature(self):
        seg = SegmentSolution(k=1.4, offset=0.6, u0=0.0, u1=0.2, x0=-0.5, x1=1.5)
        xs = np.linspace(seg.x0, seg.x1, 2001)
        quad = simpson([seg.value(x) for x in xs], x=xs)
        assert seg.integral() == pytest.approx(quad, abs=1e-12)

    def test_long_segments_do_not_overflow(self):
        seg = SegmentSolution(k=1.0, offset=1.0, u0=0.5, u1=0.0, x0=0.0, x1=400.0)
        for x in (0.0, 1.0, 200.0, 399.0, 400.0):
            assert math.isfinite(seg.value(x)) and math.isfinite(seg.deriv(x))
        assert seg.value(200.0) == pytest.approx(1.0, abs=1e-14)
        assert math.isfinite(seg.integral())

    def test_validation(self):
        with pytest.raises(ParameterError):
            SegmentSolution(k=0.0, offset=0.0, u0=0.0, u1=0.0, x0=0.0, x1=1.0)
        with pytest.raises(ParameterError):
            SegmentSolution(k=1.0, offset=0.0, u0=0.0, u1=0.0, x0=1.0, x1=1.0)


class TestShootSteadyState:
    @pytest.mark.parametrize("hhat", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("l", [0.5, 2.0, 8.0])
    def test_matches_the_constant_control_closed_form(self, hhat, l):
        from coastharvest.policy import constant_policy

        prof = shoot_steady_state(constant_policy(l, hhat))
        closed = constant_control_steady_state(hhat, l)
        xs = np.linspace(-l / 2.0, l / 2.0, 501)
        u, _ = prof.eval_many(xs)
        worst = max(abs(ui - closed.value(x)) for x, ui in zip(xs, u))
        assert worst <= 1e-10

    def test_shooting_slope_matches_the_closed_form(self):
        from coastharvest.policy import constant_policy

        hbar, l = 1.0, 2.0
        prof = shoot_steady_state(constant_policy(l, hbar))
        _, du = prof.eval_many([-l / 2.0])
        assert abs(du[0] - optimal_shoot_slope(hbar, l)) <= 1e-10

    def test_boundary_residuals(self):
        pol = three_segment_policy()
        prof = shoot_steady_state(pol)
        l = pol.l
        u, _ = prof.eval_many([-l / 2.0, l / 2.0])
        assert np.max(np.abs(u)) <= 1e-12
        assert prof.match_residual <= 1e-12

    def test_three_segment_profile_is_positive_and_symmetric(self):
        prof = shoot_steady_state(three_segment_policy())
        xs = np.linspace(-1.999, 1.999, 801)
        u, _ = prof.eval_many(xs)
        assert np.all(u > 0.0)
        u_rev, _ = prof.eval_many(-xs)
        assert np.max(np.abs(u - u_rev)) <= 1e-10

    def test_segment_offsets_encode_the_ode_exactly(self):
        # u'' - (1+h)u + 1 = (1+h)(1/(1+h) - offset) per segment, so the
        # residual vanishes identically iff each offset is 1/(1+h)
        pol = three_segment_policy()
        prof = shoot_steady_state(pol)
        for seg in prof.segments:
            h = pol.rate_at(0.5 * (seg.x0 + seg.x1))
            assert seg.offset == pytest.approx(1.0 / (1.0 + h), rel=1e-15)
            u = seg.value(0.5 * (seg.x0 + seg.x1))
            resid = seg.k * seg.k * (u - seg.offset) - (1.0 + h) * u + 1.0
            assert abs(resid) <= 1e-10


class TestLongCoastsAndThinSegments:
    @pytest.mark.parametrize("l", [40.0, 100.0, 1e3, 1e4])
    def test_constant_cap_is_exact_on_long_coasts(self, l):
        sp = ScaledParams(l=l, q=0.5, hbar=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = optimal_policy(sp)
        want = constant_control_objective(sp.hbar, sp.q, l)
        assert sol.objective_j == pytest.approx(want, rel=1e-13)
        assert max(tuple(sol.diagnostics)) <= 1e-8

    def test_sliver_segment_matches_the_edge_at_zero(self):
        # reserve_sweep produces block edges such as 5.55e-17; splitting
        # at 0 then leaves a segment about 1e-16 wide
        sliver = HarvestPolicy((-1.0, -0.6, 5.55e-17, 1.0), (1.0, 0.0, 1.0))
        flush = HarvestPolicy((-1.0, -0.6, 0.0, 1.0), (1.0, 0.0, 1.0))
        prof = shoot_steady_state(sliver)
        assert np.all(np.isfinite(prof.eval_many(np.linspace(-1.0, 1.0, 513))))
        j = evaluate_objective(sliver, prof, 2.0)
        assert abs(j - evaluate_objective(flush, shoot_steady_state(flush), 2.0)) <= 1e-12

    def test_match_residual_measures_the_flux_jump(self):
        segs = list(shoot_steady_state(three_segment_policy()).segments)
        assert Profile(tuple(segs)).match_residual <= 1e-12
        u = segs[1].u1 + 1e-6
        segs[1] = segs[1]._replace(u1=u)
        segs[2] = segs[2]._replace(u0=u)
        assert Profile(tuple(segs)).match_residual > 1e-8


class TestEvaluateObjective:
    def test_zero_profile_gives_zero(self):
        from coastharvest.policy import constant_policy

        pol = constant_policy(2.0, 1.0)
        flat = SegmentSolution(k=1.0, offset=0.0, u0=0.0, u1=0.0, x0=-1.0, x1=1.0)
        prof = Profile((flat,))
        assert evaluate_objective(pol, prof, 2.0) == 0.0

    @pytest.mark.parametrize("hhat", [0.0, 0.5, 1.0])
    def test_matches_the_constant_policy_closed_form(self, hhat):
        from coastharvest.policy import constant_policy

        q, l = 2.0, 4.0
        pol = constant_policy(l, hhat)
        prof = shoot_steady_state(pol)
        assert evaluate_objective(pol, prof, q) == pytest.approx(
            constant_control_objective(hhat, q, l), abs=1e-12
        )

    def test_matches_composite_simpson(self):
        pol = three_segment_policy()
        prof = shoot_steady_state(pol)
        q = OPTIMAL_SP.q
        total = 0.0
        for x0, x1, h in pol.segments():
            xs = np.linspace(x0, x1, 3335)
            u, _ = prof.eval_many(xs)
            total += simpson((q + h) * u, x=xs)
        assert evaluate_objective(pol, prof, q) == pytest.approx(total / pol.l, abs=1e-10)

    def test_invariant_under_sample_refinement(self):
        # the same solution on twice as many pieces, each split at its midpoint
        pol = three_segment_policy()
        prof = shoot_steady_state(pol)
        halves = []
        for s in prof.segments:
            mid = 0.5 * (s.x0 + s.x1)
            u_mid = s.value(mid)
            halves.append(s._replace(u1=u_mid, x1=mid))
            halves.append(s._replace(u0=u_mid, x0=mid))
        a = evaluate_objective(pol, prof, 2.0)
        b = evaluate_objective(pol, Profile(tuple(halves)), 2.0)
        assert abs(a - b) <= 1e-12


class TestSolveAdjoint:
    def test_matches_the_constant_control_closed_form(self):
        from coastharvest.policy import constant_policy

        hbar, q, l = 1.0, 0.5, 2.0
        pol = constant_policy(l, hbar)
        adj = solve_adjoint(pol, q)
        lam_s = switch_level(hbar, q, l)
        lam0 = lam_s * math.tanh(math.sqrt(1.0 + hbar) * l / 2.0)
        _, d0 = adj.eval_many([-l / 2.0])
        assert abs(-d0[0] - lam0) <= 1e-10
        xs = np.linspace(-l / 2.0, l / 2.0, 301)
        lam2, d = adj.eval_many(xs)
        lam1 = -d
        for x, a1, a2 in zip(xs, lam1, lam2):
            c1, c2 = adjoint_constant_hbar(lam0, hbar, q, l, x)
            assert abs(a1 - c1) <= 1e-9
            assert abs(a2 - c2) <= 1e-9

    def test_transversality(self):
        pol = three_segment_policy()
        adj = solve_adjoint(pol, OPTIMAL_SP.q)
        l = pol.l
        lam2, _ = adj.eval_many([-l / 2.0, l / 2.0])
        assert np.max(np.abs(lam2)) <= 1e-10

    def test_multiplier_meets_the_switch_line_at_the_breakpoints(self):
        pol = three_segment_policy()
        adj = solve_adjoint(pol, OPTIMAL_SP.q)
        line = -1.0 / pol.l
        lam2, _ = adj.eval_many(pol.breakpoints[1:-1])
        assert np.max(np.abs(lam2 - line)) <= 1e-8

    def test_sign_consistency_with_the_bang_bang_law(self):
        pol = three_segment_policy()
        adj = solve_adjoint(pol, OPTIMAL_SP.q)
        line = -1.0 / pol.l
        left, right = pol.breakpoints[1], pol.breakpoints[2]
        margin = 1e-3
        assert np.all(adj.eval_many(np.linspace(-pol.l / 2.0, left - margin, 50))[0] > line)
        assert np.all(adj.eval_many(np.linspace(left + margin, right - margin, 50))[0] < line)
        assert np.all(adj.eval_many(np.linspace(right + margin, pol.l / 2.0, 50))[0] > line)

    def test_segment_offsets_encode_the_adjoint_ode(self):
        pol = three_segment_policy()
        adj = solve_adjoint(pol, OPTIMAL_SP.q)
        q, l = OPTIMAL_SP.q, pol.l
        for seg in adj.segments:
            h = pol.rate_at(0.5 * (seg.x0 + seg.x1))
            assert seg.offset == pytest.approx(-(h + q) / ((1.0 + h) * l), rel=1e-14)


class TestHamiltonianDiagnostic:
    def test_constant_along_the_small_weight_optimum(self):
        from coastharvest.policy import constant_policy

        sp = ScaledParams(l=2.0, q=0.5, hbar=1.0)
        pol = constant_policy(sp.l, sp.hbar)
        state = shoot_steady_state(pol)
        adj = solve_adjoint(pol, sp.q)
        assert hamiltonian_diagnostic(state, adj, pol, sp.q) <= 1e-8

    def test_constant_across_the_reserve_switches(self):
        pol = three_segment_policy()
        state = shoot_steady_state(pol)
        adj = solve_adjoint(pol, OPTIMAL_SP.q)
        assert hamiltonian_diagnostic(state, adj, pol, OPTIMAL_SP.q) <= 1e-8

    def test_detects_a_misplaced_switch(self):
        good = three_segment_policy()
        halfwidth = good.breakpoints[2]
        bad = single_reserve_policy(
            OPTIMAL_SP.l, -halfwidth - 0.05, halfwidth + 0.05, OPTIMAL_SP.hbar
        )
        state = shoot_steady_state(bad)
        adj = solve_adjoint(bad, OPTIMAL_SP.q)
        assert hamiltonian_diagnostic(state, adj, bad, OPTIMAL_SP.q) > 1e-4

    def test_rejects_profiles_on_different_pieces(self):
        from coastharvest.policy import constant_policy

        good = three_segment_policy()
        other = constant_policy(OPTIMAL_SP.l, OPTIMAL_SP.hbar)
        state = shoot_steady_state(good)
        adj = solve_adjoint(other, OPTIMAL_SP.q)
        with pytest.raises(ParameterError):
            hamiltonian_diagnostic(state, adj, good, OPTIMAL_SP.q)
