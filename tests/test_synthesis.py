"""Optimal-policy construction and the physical-unit cross-check layer."""

import math

import mpmath
import numpy as np
import pytest

import oracles
from coastharvest import (
    ParameterError,
    ScaledParams,
    UnscaledParams,
    evaluate_objective,
    min_length,
    optimal_policy,
    shoot_steady_state,
    solve_adjoint,
    to_scaled,
    unscaled_min_length,
    unscaled_reserve_boundary,
)
from coastharvest.synthesis import _diagnose
from coastharvest.policy import HarvestPolicy, constant_policy, single_reserve_policy

EPS = np.finfo(float).eps


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
        want = sp.l / 2.0 - oracles.reserve_boundary(1, 1, sp.hbar, sp.q, sp.l)
        assert sol.Ts == pytest.approx(float(want), rel=1e-14)
        assert right == pytest.approx(sp.l / 2.0 - sol.Ts, rel=1e-14)
        assert sol.objective_j > oracles.constant_objective(sp.hbar, sp.q, sp.l)

    @pytest.mark.parametrize(
        "l, q, hbar",
        [(1e3, 1e9, 1e-3), (4.0, 1e8, 1.0), (50.0, 1e6, 3.0), (1e4, 2.0, 1.0), (1e8, 2.0, 1.0)],
    )
    def test_switch_time_keeps_its_digits_far_below_the_half_length(self, l, q, hbar):
        # Ts read as l/2 minus the half-width lost them: 1.1e-5 relative at
        # (1e3, 1e9, 1e-3), where Ts is 1e-9, and 9.1e-10 at l = 1e8
        want = oracles.switch_hit_x(oracles.lambda_bar(l, q, hbar), l, q, hbar)
        ts = optimal_policy(ScaledParams(l=l, q=q, hbar=hbar)).Ts
        assert ts == pytest.approx(float(want), rel=1e-14, abs=0.0)

    @pytest.mark.parametrize(
        "l, q, hbar",
        [
            (0.01, 0.5, 1.0),
            (1e-3, 0.5, 1.0),
            (1e-4, 2.0, 1.0),
            (1.13e-6, 0.688, 0.0651),
            (1.3e-6, 0.0153, 0.00562),
            (1e-6, 2.0, 1.0),
        ],
    )
    def test_short_coast_objective_matches_the_closed_form(self, l, q, hbar):
        # off*w cancels against 2*off*tanh(kw/2)/k in a piece's integral:
        # 3.1e-4 relative at (1.13e-6, 0.688, 0.0651) in the direct form
        sol = optimal_policy(ScaledParams(l=l, q=q, hbar=hbar))
        assert sol.policy.rates == (hbar,)
        want = float(oracles.constant_objective(hbar, q, l))
        assert sol.objective_j == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_constant_cap_objective_matches_the_closed_form_across_scales(self):
        rng = np.random.default_rng(20261020)
        for l, q, hbar in 10.0 ** rng.uniform((-6.0, -3.0, -3.0), (1.0, 3.0, 3.0), (60, 3)):
            sol = optimal_policy(ScaledParams(l=l, q=q, hbar=hbar))
            if len(sol.policy.rates) == 1:
                want = float(oracles.constant_objective(hbar, q, l))
                assert sol.objective_j == pytest.approx(want, rel=1e-13, abs=0.0), (l, q, hbar)

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
            float(oracles.constant_objective(sp.hbar, sp.q, sp.l)), rel=1e-10
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


def _dense_grid_diagnostics(policy, q: float, points: int = 2001) -> list[tuple[float, float]]:
    """Half the spread of the Hamiltonian and the worst switching violation,
    read off `points` eval_many samples of each piece, its ends included.

    Each comes with the size of the terms that round in it.  Interior
    samples pass through more exponentials than piece ends, so a grid
    value can exceed the exact one by rounding: 21 ulps of that size at
    l = 0.398, the worst of the seeded points.
    """
    l = policy.l
    state, adjoint = shoot_steady_state(policy), solve_adjoint(policy, q)
    ham, ham_size, viol, viol_size = [], 0.0, [0.0], 1.0 / l
    for seg in adjoint.segments:
        h = policy.rate_at(0.5 * (seg.x0 + seg.x1))
        xs = np.linspace(seg.x0, seg.x1, points)
        u, v = state.eval_many(xs)
        lam2, d = adjoint.eval_many(xs)
        lam1 = -d
        terms = ((h + q) * u / l, lam1 * v, lam2 * ((1.0 + h) * u - 1.0))
        ham.extend(sum(terms))
        ham_size = max(ham_size, float(np.max(sum(np.abs(t) for t in terms))))
        viol.extend(-1.0 / l - lam2 if h > 0.0 else lam2 + 1.0 / l)
        viol_size = max(viol_size, float(np.max(np.abs(lam2))))
    return [(0.5 * (max(ham) - min(ham)), ham_size), (float(max(viol)), viol_size)]


def _assert_exact_values_match_the_grid(diag, policy, q: float) -> None:
    exact = (diag.hamiltonian_deviation, diag.switching_violation)
    for got, (grid, size) in zip(exact, _dense_grid_diagnostics(policy, q)):
        assert grid - 64.0 * EPS * size <= got
        assert abs(got - grid) <= 1e-12


def _widened_reserve(sp: ScaledParams, delta: float):
    hw = optimal_policy(sp).reserve_halfwidth
    return single_reserve_policy(sp.l, -hw - delta, hw + delta, sp.hbar)


def _seeded_params(count: int) -> list[ScaledParams]:
    """(l, q, hbar) in turn from q < 1, no reserve, and reserve, with l up to 1e4."""
    rng = np.random.default_rng(20261018)
    out = []
    for i in range(count):
        hbar = float(rng.uniform(0.3, 3.0))
        if i % 3 == 0:
            q, l = float(rng.uniform(0.05, 1.0)), float(10.0 ** rng.uniform(-0.5, 4.0))
        else:
            q = float(rng.uniform(1.2, 4.0))
            lmin = min_length(ScaledParams(l=1.0, q=q, hbar=hbar))
            if i % 3 == 1:
                l = lmin * float(rng.uniform(0.3, 0.95))
            else:
                l = float(10.0 ** rng.uniform(math.log10(1.05 * lmin), 4.0))
        out.append(ScaledParams(l=l, q=q, hbar=hbar))
    return out


class TestDiagnosticsReference:
    @pytest.mark.parametrize("sp", _seeded_params(30), ids=lambda s: f"l{s.l:.4g}-q{s.q:.3g}")
    def test_exact_values_match_a_dense_grid(self, sp):
        sol = optimal_policy(sp)
        state, adjoint = shoot_steady_state(sol.policy), solve_adjoint(sol.policy, sp.q)
        assert sol.objective_j == evaluate_objective(sol.policy, state, sp.q)
        d = sol.diagnostics
        # the coast ends hold the boundary values exactly
        assert d.boundary_residual == state.match_residual
        assert d.transversality_residual == adjoint.match_residual
        _assert_exact_values_match_the_grid(d, sol.policy, sp.q)

    @pytest.mark.parametrize(
        "sp, delta",
        [
            (ScaledParams(l=4.0, q=2.0, hbar=1.0), 1e-6),
            (ScaledParams(l=4.0, q=2.0, hbar=1.0), -1e-4),
            (ScaledParams(l=1000.0, q=2.0, hbar=1.0), 1e-3),
        ],
    )
    def test_a_widened_reserve_matches_a_dense_grid(self, sp, delta):
        pol = _widened_reserve(sp, delta)
        _assert_exact_values_match_the_grid(_diagnose(pol, sp.q)[1], pol, sp.q)


class TestExactDiagnostics:
    """A misplaced switch is seen however close it is: no grid to fall between."""

    @pytest.mark.parametrize(
        "sp, delta, floor",
        [
            (ScaledParams(l=4.0, q=2.0, hbar=1.0), 1e-6, 1e-7),
            # at l = 1000 lambda2 crosses the line with slope ~1e-3
            (ScaledParams(l=1000.0, q=2.0, hbar=1.0), 1e-3, 5e-7),
        ],
    )
    def test_a_slightly_widened_reserve_violates_the_switching_law(self, sp, delta, floor):
        assert _diagnose(_widened_reserve(sp, delta), sp.q)[1].switching_violation > floor

    def test_a_reserve_where_none_is_optimal_breaks_hamiltonian_constancy(self):
        sp = ScaledParams(l=2.0, q=2.5, hbar=1.5)
        assert sp.l < min_length(sp)
        pol = single_reserve_policy(sp.l, -1e-3, 1e-3, sp.hbar)
        assert _diagnose(pol, sp.q)[1].hamiltonian_deviation > 1e-3

    def test_the_worst_violation_inside_a_piece_is_found(self):
        # lambda2 is lowest at x ~ 1.80, inside the piece [1, 5], and sits
        # about 3e-3 lower there than at any piece end
        pol = HarvestPolicy((-5.0, 1.0, 5.0), (1.0, 0.5))
        adjoint = solve_adjoint(pol, 2.0)
        ends = max(-0.1 - lam2 for s in adjoint.segments for lam2 in (s.u0, s.u1))
        got = _diagnose(pol, 2.0)[1].switching_violation
        xs = np.linspace(1.0, 5.0, 400001)
        grid = float(np.max(-0.1 - adjoint.eval_many(xs)[0]))
        assert got > ends + 1e-3
        # spacing 1e-5 and |lambda2''| < 0.1 bound the grid's shortfall by 1e-11
        assert grid - 1e-15 <= got <= grid + 1e-11


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

    # at hbar = 1e8 the oracle's arctanh argument is within (q - 1)^2/hbar^2
    # of 1, below 40 digits from q = 1 + 1e-12 on
    @pytest.mark.parametrize("hbar", [0.5, 1.0, 3.0, 1e8])
    @pytest.mark.parametrize("q", [1.0 + 1e-12, 1.0 + 1e-8, 1.0 + 1e-6, 1.0001])
    def test_exact_as_the_weight_approaches_mu(self, q, hbar):
        p = UnscaledParams(D=2.0, R=1.0, mu=0.5, Hbar=0.5 * hbar, Q=0.5 * q, L=4.0)
        want = float(oracles.unscaled_min_length(p.D, p.mu, p.Hbar, p.Q))
        assert unscaled_min_length(p) == pytest.approx(want, rel=1e-14)

    def test_requires_a_supercritical_weight(self):
        p = UnscaledParams(D=1.0, R=1.0, mu=1.0, Hbar=1.0, Q=0.5, L=4.0)
        with pytest.raises(ParameterError):
            unscaled_min_length(p)


class TestHalfLengthFunction:
    """F, the distance from the coast end to the reserve edge as a function
    of lam, is transcribed in float only in unscaled_reserve_boundary's
    residual, so these checks read it through the boundary that inverts it:
    lam = hypot(lo, tanh(B/s2)/c) at F(lam) = L/2."""

    P = UnscaledParams(D=1.0, R=1.0, mu=1.0, Hbar=1.0, Q=2.0, L=4.0)

    def test_value_at_the_lower_domain_edge(self):
        p = self.P
        lo, _ = oracles.half_length_domain(p.D, p.mu, p.Hbar, p.Q)
        # lam^2 - lo^2 rounds a hair below 0 in the oracle's arctanh term,
        # whose value there is 0: keep the real part
        edge = float(mpmath.re(oracles.half_length(lo, p.D, p.mu, p.Hbar, p.Q)))
        s1 = math.sqrt(p.D / (p.Hbar + p.mu))
        assert edge == pytest.approx(s1 * math.atanh(float(lo)), rel=1e-12)
        # the edge value is half the threshold length, where the reserve
        # has not yet opened
        assert unscaled_min_length(p) == pytest.approx(2.0 * edge, rel=1e-12)
        at_edge = UnscaledParams(D=p.D, R=p.R, mu=p.mu, Hbar=p.Hbar, Q=p.Q, L=unscaled_min_length(p))
        assert unscaled_reserve_boundary(at_edge) is None

    def test_strictly_increasing(self):
        # B increases with L exactly when F increases with lam
        p = self.P
        lmin = unscaled_min_length(p)
        lengths = np.linspace(lmin * (1.0 + 1e-9), 40.0, 100)
        bs = [
            unscaled_reserve_boundary(
                UnscaledParams(D=p.D, R=p.R, mu=p.mu, Hbar=p.Hbar, Q=p.Q, L=float(L))
            )
            for L in lengths
        ]
        assert all(0.0 < a < b for a, b in zip(bs, bs[1:]))

    def test_matches_the_literal_branch_evaluator(self):
        D, mu, Hbar, Q = 2, 1, 1, 2
        lo, hi = oracles.half_length_domain(D, mu, Hbar, Q)
        s2 = mpmath.sqrt(mpmath.mpf(D) / mu)
        c = (mpmath.mpf(Hbar + Q) / (Q - mu)) * mpmath.sqrt(mpmath.mpf(mu) / (Hbar + mu))
        # one lam on each branch of the oracle (arccosh, log, arcsinh), away
        # from hi, where F blows up and no float evaluation keeps its digits
        for lam in (0.5 * (lo + 1), mpmath.mpf(1), 0.5 * (1 + hi), lo + 0.9 * (hi - lo)):
            L = float(2 * oracles.half_length(lam, D, mu, Hbar, Q))
            want = float(s2 * mpmath.atanh(c * mpmath.sqrt(lam**2 - lo**2)))
            p = UnscaledParams(D=D, R=1.0, mu=mu, Hbar=Hbar, Q=Q, L=L)
            assert unscaled_reserve_boundary(p) == pytest.approx(want, rel=1e-12)


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
        expected = math.sqrt(p.D / p.mu) * (sp.l / 2.0 - optimal_policy(sp).Ts)
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


class TestHalfwidthRoot:
    """Both routes solve for the reserve half-width itself."""

    @pytest.mark.parametrize("l", [50.0, 200.0, 1e3, 1e4])
    def test_long_coasts_agree_in_both_units_and_approach_the_limit(self, l):
        sp = ScaledParams(l=l, q=2.0, hbar=1.0)
        hw = optimal_policy(sp).reserve_halfwidth
        p = UnscaledParams(D=1.0, R=1.0, mu=1.0, Hbar=1.0, Q=2.0, L=l)
        assert unscaled_reserve_boundary(p) == pytest.approx(hw, rel=1e-12)
        # past a few decay lengths the orbit starts at the escape level
        d = oracles.constants(l, 2.0, 1.0)
        want = l / 2.0 - oracles.switch_hit_x(d["lam_starstar"], l, 2.0, 1.0)
        assert hw == pytest.approx(float(want), rel=1e-12)

    def test_coast_past_the_old_root_bracket_has_small_residuals(self):
        sol = optimal_policy(ScaledParams(l=31.0, q=2.0, hbar=1.0))
        assert sol.policy.rates == (1.0, 0.0, 1.0)
        d = sol.diagnostics
        assert d.boundary_residual <= 1e-8
        assert d.transversality_residual <= 1e-8
        assert d.hamiltonian_deviation <= 1e-8
        assert d.switching_violation <= 1e-8

    @pytest.mark.parametrize("q, hbar", [(2.0, 1.0), (5.0, 0.1), (3.5, 2.5), (1.5, 0.5)])
    @pytest.mark.parametrize("excess, rtol", [(1e-10, 1e-5), (1e-7, 1e-8), (1e-4, 1e-11)])
    def test_just_above_the_threshold_both_routes_match_the_oracles(self, q, hbar, excess, rtol):
        # the half-width is O(sqrt(l - l_min)) here: recovering it from
        # lambda_bar through sqrt(lambda_bar^2 - lam_star^2) would cancel
        l = min_length(ScaledParams(l=1.0, q=q, hbar=hbar)) * (1.0 + excess)
        lam_bar = oracles.lambda_bar(l, q, hbar)
        tilde = mpmath.sqrt(lam_bar**2 - oracles.constants(l, q, hbar)["lam_star"] ** 2)
        want = float(oracles.after_switch_x(tilde, l, q, hbar))
        sol = optimal_policy(ScaledParams(l=l, q=q, hbar=hbar))
        assert sol.reserve_halfwidth == pytest.approx(want, rel=rtol)
        assert sol.lambda_bar == pytest.approx(float(lam_bar), rel=1e-15)
        p = UnscaledParams(D=1.0, R=1.0, mu=1.0, Hbar=hbar, Q=q, L=l)
        want_b = float(oracles.reserve_boundary(1, 1, hbar, q, l))
        assert unscaled_reserve_boundary(p) == pytest.approx(want_b, rel=rtol)


    @pytest.mark.parametrize(
        "l, q, hbar",
        [
            (6.161, 1.000001612, 33.24),
            (50.0, 1.0 + 1e-8, 1e3),
            (20.0, 1.0 + 1e-6, 5.0),
            (8.0, 1.0001, 100.0),
            (3.0, 1.0 + 1e-10, 1e4),
            (12.0, 1.00000003, 250.0),
        ],
    )
    def test_weight_near_one_both_routes_match_the_oracle(self, l, q, hbar):
        # b1/a1 - 1 in the scaled switch-line intercept, and the branched
        # coast-distance term in physical units, both cancel as q -> 1
        with mpmath.workdps(60):
            want = float(oracles.reserve_boundary(1, 1, hbar, q, l))
        sol = optimal_policy(ScaledParams(l=l, q=q, hbar=hbar))
        assert sol.reserve_halfwidth == pytest.approx(want, rel=1e-13, abs=0.0)
        p = UnscaledParams(D=1.0, R=1.0, mu=1.0, Hbar=hbar, Q=q, L=l)
        assert unscaled_reserve_boundary(p) == pytest.approx(want, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize(
        "l, q, hbar",
        [
            (73.1085556266245, 1.0000000000014029, 13476093.183872309),
            (25.104802704578862, 1.0000000000525422, 37196517.33072978),
            (2.7318311692644683, 1.0000000000000258, 84337917.37465997),
            (129312978.64590162, 1.0000000000004734, 18203944.573818758),
            (0.062240403384976294, 1.0000000000000027, 28150510.578578193),
        ],
    )
    def test_oracle_resolves_a_lambda_interval_narrower_than_1e_28(self, l, q, hbar):
        # the oracle's admissible lambda interval is about (q - 1)^2/(2 hbar)
        # of its ends wide here, 4e-29 down to 1e-37: 40 digits resolve it
        # to at most 11, and a fixed pad of 1e-32 of its ends takes from
        # 3e-4 of it to more than all of it; the oracle was off by up to
        # 5.5e-7 or raised
        want = oracles.reserve_boundary(1, 1, hbar, q, l)
        assert isinstance(want, mpmath.mpf)
        sol = optimal_policy(ScaledParams(l=l, q=q, hbar=hbar))
        assert sol.reserve_halfwidth == pytest.approx(float(want), rel=1e-13, abs=0.0)
        p = UnscaledParams(D=1.0, R=1.0, mu=1.0, Hbar=hbar, Q=q, L=l)
        assert unscaled_reserve_boundary(p) == pytest.approx(float(want), rel=1e-13, abs=0.0)


class TestOverflow:
    @pytest.mark.parametrize(
        "l, q, hbar, where",
        [
            (1e-12, 1e300, 1.0, "switching constants"),
            (1e-310, 0.5, 1.0, "adjoint"),
            (1e-300, 0.5, 1e300, "adjoint"),
            (1e8, 1.5, 1e300, "threshold length"),
            (1e150, 1e300, 1.0, "objective"),
        ],
    )
    def test_overflowing_parameters_are_a_parameter_error(self, l, q, hbar, where):
        with pytest.raises(ParameterError, match=f"the {where} overflow") as err:
            optimal_policy(ScaledParams(l=l, q=q, hbar=hbar))
        assert f"{q!r}, {hbar!r})" in str(err.value)

    @pytest.mark.parametrize(
        "q", [1.0 + 2.0**-52, 1.000000000001, 1.5, 1e8, 1e150]
    )
    def test_underflowing_switch_constant_is_a_parameter_error(self, q):
        # sqrt(a1)*l overflows or (q - 1)/(sqrt(a1)*l) underflows: is1 is 0,
        # and the switch time at the reserve's edge would divide by it
        with pytest.raises(ParameterError, match="switching constants underflow") as err:
            optimal_policy(ScaledParams(l=1e300, q=q, hbar=1e150))
        assert f"(1e+300, {q!r}, 1e+150)" in str(err.value)

    def test_overflowing_physical_threshold_is_a_parameter_error(self):
        p = UnscaledParams(D=1.0, R=1.0, mu=1.0, Hbar=1e300, Q=1.5, L=1e8)
        with pytest.raises(ParameterError, match=r"threshold length overflows at \(mu, Hbar, Q\)"):
            unscaled_reserve_boundary(p)

    def test_overflowing_physical_length_scale_is_a_parameter_error(self):
        # sqrt(D/(Hbar+mu)) overflows, and the threshold length read inf
        p = UnscaledParams(
            2.0892778635522588e227, 2.9688334769314146e-242, 3.813432999418936e-219,
            1.556555964267463e-170, 1.9412583595460325e279, 4.9787460683114636e-39,
        )
        want = r"^l_min overflows at \(D, mu, Hbar, Q\) = \(2.0892778635522588e\+227, 3.81"
        with pytest.raises(ParameterError, match=want):
            unscaled_min_length(p)

    def test_underflowing_physical_reserve_scale_is_a_parameter_error(self):
        # c underflows to 0 through sqrt(mu/(Hbar+mu)), and the residual
        # divided by it
        p = UnscaledParams(
            3.0503944873923335e102, 4.120432032865802e65, 2.859968514166423e-195,
            4.296152566535546e150, 3.470950024504452e-64, 5.260852120236185e23,
        )
        want = r"^reserve scales underflow at \(D, mu, Hbar, Q\) = \(3.0503944873923335e\+102, 2.85"
        with pytest.raises(ParameterError, match=want):
            unscaled_reserve_boundary(p)


class TestAdjointParity:
    @pytest.mark.parametrize(
        "pol, q",
        [(constant_policy(2.0, 1.0), 0.5), (single_reserve_policy(4.0, -0.9, 0.9, 1.0), 2.0)],
        ids=["constant", "reserve"],
    )
    def test_mirror_policy_has_an_even_lambda2_and_an_odd_lambda1(self, pol, q):
        adj = solve_adjoint(pol, q)
        xs = np.linspace(0.0, pol.l / 2.0, 41)
        lam2_p, d_p = adj.eval_many(xs)
        lam2_m, d_m = adj.eval_many(-xs)
        # lambda1 = -lambda2', so lambda1(x) = -lambda1(-x) is lambda2'(x) = -lambda2'(-x)
        assert np.max(np.abs(lam2_p - lam2_m)) <= 1e-12
        assert np.max(np.abs(d_p + d_m)) <= 1e-12

    @pytest.mark.parametrize(
        "pol",
        [constant_policy(2.0, 1.0), single_reserve_policy(4.0, -0.9, 0.9, 1.0)],
        ids=["constant", "reserve"],
    )
    def test_mirror_policy_has_an_even_state_with_an_odd_slope(self, pol):
        prof = shoot_steady_state(pol)
        xs = np.linspace(0.0, pol.l / 2.0, 41)
        u_p, du_p = prof.eval_many(xs)
        u_m, du_m = prof.eval_many(-xs)
        assert np.max(np.abs(u_p - u_m)) <= 1e-12
        assert np.max(np.abs(du_p + du_m)) <= 1e-12

