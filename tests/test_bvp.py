"""Exact edge-value boundary-value solvers and Pontryagin diagnostics."""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import simpson

import oracles
from coastharvest import (
    HarvestPolicy,
    ScaledParams,
    SegmentSolution,
    evaluate_objective,
    hamiltonian_diagnostic,
    optimal_policy,
    shoot_steady_state,
    single_reserve_policy,
    solve_adjoint,
)
from coastharvest.bvp import Profile
from coastharvest.params import ParameterError
from coastharvest.policy import constant_policy

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

    @pytest.mark.parametrize("kw", [1e-9, 1e-6, 1e-3, 0.3, 0.999, 1.0, 1.001, 3.0])
    @pytest.mark.parametrize("u0, u1", [(0.0, 0.0), (0.0, 0.2), (0.45, 0.3)])
    def test_integral_keeps_its_digits_on_short_segments(self, kw, u0, u1):
        # off*w and 2*off*tanh(kw/2)/k cancel to (kw)^2/12 of their size;
        # below kw = 1 the offset's share comes from a series, above it
        # from the direct form, and both hold to 1e-14 against 40 digits
        k, off, x0 = 1.3, 0.6, -0.25
        seg = SegmentSolution(k=k, offset=off, u0=u0, u1=u1, x0=x0, x1=x0 + kw / k)
        k, off, w = mp.mpf(k), mp.mpf(off), mp.mpf(seg.x1) - mp.mpf(seg.x0)
        want = off * w + (mp.mpf(u0) + mp.mpf(u1) - 2 * off) * mp.tanh(k * w / 2) / k
        assert seg.integral() == pytest.approx(float(want), rel=1e-14, abs=0.0)

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
        prof = shoot_steady_state(constant_policy(l, hhat))
        xs = np.linspace(-l / 2.0, l / 2.0, 501)
        u, _ = prof.eval_many(xs)
        worst = max(abs(ui - float(oracles.witness_u(x, hhat, l))) for x, ui in zip(xs, u))
        assert worst <= 1e-10

    def test_shooting_slope_matches_the_closed_form(self):
        hbar, l = 1.0, 2.0
        prof = shoot_steady_state(constant_policy(l, hbar))
        _, du = prof.eval_many([-l / 2.0])
        assert abs(du[0] - float(oracles.optimal_shoot_slope(hbar, l))) <= 1e-10

    # short coasts only: the return time diverges as the slope nears 1/c,
    # so on long coasts it amplifies the slope's last-bit rounding
    @pytest.mark.parametrize("hbar, l", [(1.0, 2.0), (0.5, 0.5), (4.0, 2.0)])
    def test_state_orbit_returns_at_the_far_boundary(self, hbar, l):
        _, du = shoot_steady_state(constant_policy(l, hbar)).eval_many([-l / 2.0])
        v0 = float(du[0])
        assert 0.0 < v0 < 1.0 / math.sqrt(hbar + 1.0)
        assert float(oracles.state_return_time(v0, hbar, l)) == pytest.approx(l / 2.0, abs=1e-12)

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
        want = float(oracles.constant_objective(sp.hbar, sp.q, l))
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
        pol = constant_policy(2.0, 1.0)
        flat = SegmentSolution(k=1.0, offset=0.0, u0=0.0, u1=0.0, x0=-1.0, x1=1.0)
        prof = Profile((flat,))
        assert evaluate_objective(pol, prof, 2.0) == 0.0

    @pytest.mark.parametrize("hhat", [0.0, 0.5, 1.0])
    def test_matches_the_constant_policy_closed_form(self, hhat):
        q, l = 2.0, 4.0
        pol = constant_policy(l, hhat)
        prof = shoot_steady_state(pol)
        assert evaluate_objective(pol, prof, q) == pytest.approx(
            float(oracles.constant_objective(hhat, q, l)), abs=1e-12
        )

    @pytest.mark.parametrize(
        "hhat, q, l",
        [
            (0.0, 0.5, 0.5),
            (1.0, 2.0, 8.0),
            (0.5, 2.0, 2.0),
            (1.0, 2.0, 1e-4),
            (0.0651, 0.688, 1.13e-6),
        ],
    )
    def test_the_closed_form_oracle_is_the_quadrature(self, hhat, q, l):
        want = oracles.witness_objective(hhat, q, l)
        assert abs(oracles.constant_objective(hhat, q, l) / want - 1) <= mp.mpf("1e-25")

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
        hbar, q, l = 1.0, 0.5, 2.0
        pol = constant_policy(l, hbar)
        adj = solve_adjoint(pol, q)
        lam_s = oracles.switch_level(hbar, q, l)
        lam0 = lam_s * mp.tanh(mp.sqrt(1 + hbar) * l / 2)
        _, d0 = adj.eval_many([-l / 2.0])
        assert abs(-d0[0] - float(lam0)) <= 1e-10
        xs = np.linspace(-l / 2.0, l / 2.0, 301)
        lam2, d = adj.eval_many(xs)
        lam1 = -d
        for x, a1, a2 in zip(xs, lam1, lam2):
            c1, c2 = oracles.adjoint_pair(lam0, hbar, q, l, x)
            assert abs(a1 - float(c1)) <= 1e-9
            assert abs(a2 - float(c2)) <= 1e-9

    def test_matches_direct_integration(self):
        from scipy.integrate import solve_ivp

        hbar, q, l = 1.0, 0.5, 2.0
        adj = solve_adjoint(constant_policy(l, hbar), q)
        lam0 = -float(adj.eval_many([-l / 2.0])[1][0])

        def rhs(x, s):
            return (-(hbar + q) / l - (1.0 + hbar) * s[1], -s[0])

        xs = np.linspace(-l / 2.0, l / 2.0, 41)
        sol = solve_ivp(
            rhs, (-l / 2.0, l / 2.0), [lam0, 0.0], t_eval=xs,
            method="DOP853", rtol=1e-12, atol=1e-14,
        )
        lam2, d = adj.eval_many(xs)
        assert np.max(np.abs(-d - sol.y[0])) <= 1e-10
        assert np.max(np.abs(lam2 - sol.y[1])) <= 1e-10

    @pytest.mark.parametrize(
        "hbar, q, l", [(1.0, 0.5, 2.0), (0.5, 1.0, 1.0), (4.0, 0.25, 3.0), (1.0, 0.9, 0.5)]
    )
    def test_transversal_root_returns_at_the_far_boundary(self, hbar, q, l):
        adj = solve_adjoint(constant_policy(l, hbar), q)
        lam2, d = adj.eval_many([-l / 2.0, l / 2.0])
        root = -float(d[0])
        assert float(oracles.adjoint_return_time(root, hbar, q, l)) == pytest.approx(
            l / 2.0, abs=1e-12
        )
        assert np.max(np.abs(lam2)) <= 1e-12

    def test_root_stays_below_the_switch_line_for_small_q(self):
        # with q <= 1 the whole orbit keeps lambda2 above -1/l, so the
        # constant-cap control never violates the bang-bang law
        hbar, q, l = 1.0, 0.5, 2.0
        lam2, _ = solve_adjoint(constant_policy(l, hbar), q).eval_many(
            np.linspace(-l / 2.0, l / 2.0, 801)
        )
        assert np.min(lam2) + 1.0 / l > 0.0

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
        good = three_segment_policy()
        other = constant_policy(OPTIMAL_SP.l, OPTIMAL_SP.hbar)
        state = shoot_steady_state(good)
        adj = solve_adjoint(other, OPTIMAL_SP.q)
        with pytest.raises(ParameterError):
            hamiltonian_diagnostic(state, adj, good, OPTIMAL_SP.q)
