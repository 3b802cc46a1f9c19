"""Closed-form constant-control solutions: steady state, shooting slope, adjoint, objective."""

import math

import numpy as np
import pytest

import oracles
from coastharvest import (
    ParameterError,
    adjoint_constant_hbar,
    constant_control_objective,
    constant_control_steady_state,
    optimal_shoot_slope,
    switch_level,
)


class TestConstantControlSteadyState:
    def test_midpoint_value_without_harvest(self):
        seg = constant_control_steady_state(0.0, 2.0)
        assert seg.value(0.0) == pytest.approx(1.0 - 1.0 / math.cosh(1.0), abs=1e-14)

    def test_midpoint_value_at_unit_harvest(self):
        seg = constant_control_steady_state(1.0, 2.0)
        expected = 0.5 * (1.0 - 1.0 / math.cosh(math.sqrt(2.0)))
        assert seg.value(0.0) == pytest.approx(expected, abs=1e-14)

    @pytest.mark.parametrize("hhat", [0.0, 0.5, 1.0, 3.0])
    @pytest.mark.parametrize("l", [0.5, 2.0, 8.0])
    def test_boundary_values_vanish(self, hhat, l):
        seg = constant_control_steady_state(hhat, l)
        assert abs(seg.value(-l / 2.0)) <= 1e-12
        assert abs(seg.value(l / 2.0)) <= 1e-12

    @pytest.mark.parametrize("hhat", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("l", [0.5, 2.0, 8.0])
    def test_ode_residual_positivity_and_evenness(self, hhat, l):
        seg = constant_control_steady_state(hhat, l)
        xs = np.linspace(-l / 2.0, l / 2.0, 1000)
        for x in xs:
            u = seg.value(x)
            resid = seg.k * seg.k * (u - seg.offset) - (1.0 + hhat) * u + 1.0
            assert abs(resid) <= 1e-10
        interior = xs[1:-1]
        assert all(seg.value(x) > 0.0 for x in interior)
        for x in xs:
            assert abs(seg.value(x) - seg.value(-x)) <= 1e-12

    def test_invalid_inputs(self):
        with pytest.raises(ParameterError):
            constant_control_steady_state(-0.1, 2.0)
        with pytest.raises(ParameterError):
            constant_control_steady_state(1.0, 0.0)


class TestOptimalShootSlope:
    def test_reference_value(self):
        expected = math.tanh(math.sqrt(2.0)) / math.sqrt(2.0)
        assert optimal_shoot_slope(1.0, 2.0) == pytest.approx(expected, abs=1e-15)
        assert optimal_shoot_slope(1.0, 2.0) == pytest.approx(0.6282, abs=5e-5)

    def test_long_coast_limit(self):
        hbar = 1.0
        assert optimal_shoot_slope(hbar, 500.0) == pytest.approx(
            1.0 / math.sqrt(hbar + 1.0), rel=1e-12
        )

    def test_short_coast_limit(self):
        assert optimal_shoot_slope(1.0, 1e-8) == pytest.approx(0.0, abs=1e-8)

    def test_stays_inside_the_admissible_slope_interval(self):
        for hbar in (0.5, 1.0, 4.0):
            for l in (0.5, 2.0, 10.0):
                v = optimal_shoot_slope(hbar, l)
                assert 0.0 < v < 1.0 / math.sqrt(hbar + 1.0)

    # short coasts only: the return time diverges as the slope nears 1/c,
    # so on long coasts it amplifies the slope's last-bit rounding
    @pytest.mark.parametrize("hbar, l", [(1.0, 2.0), (0.5, 0.5), (4.0, 2.0)])
    def test_state_orbit_returns_at_the_far_boundary(self, hbar, l):
        v0 = optimal_shoot_slope(hbar, l)
        assert float(oracles.state_return_time(v0, hbar, l)) == pytest.approx(l / 2.0, abs=1e-12)


class TestConstantControlAdjoint:
    def test_transversality_at_the_left_end(self):
        hbar, q, l = 1.0, 0.5, 2.0
        lam_s = switch_level(hbar, q, l)
        for frac in (0.1, 0.5, 0.9):
            lam1, lam2 = adjoint_constant_hbar(frac * lam_s, hbar, q, l, -l / 2.0)
            assert abs(lam2) <= 1e-12
            assert abs(abs(lam1) - frac * lam_s) <= 1e-12

    def test_matches_direct_integration(self):
        from scipy.integrate import solve_ivp

        hbar, q, l = 1.0, 0.5, 2.0
        lam0 = 0.5 * switch_level(hbar, q, l)

        def rhs(x, s):
            return (-(hbar + q) / l - (1.0 + hbar) * s[1], -s[0])

        xs = np.linspace(-l / 2.0, l / 2.0, 41)
        sol = solve_ivp(
            rhs, (-l / 2.0, l / 2.0), [lam0, 0.0], t_eval=xs,
            method="DOP853", rtol=1e-12, atol=1e-14,
        )
        for x, lam1_num, lam2_num in zip(xs, sol.y[0], sol.y[1]):
            lam1, lam2 = adjoint_constant_hbar(lam0, hbar, q, l, x)
            assert abs(lam1 - lam1_num) <= 1e-10
            assert abs(lam2 - lam2_num) <= 1e-10

    def test_matches_the_high_precision_evaluator(self):
        hbar, q, l = 1.0, 0.5, 2.0
        lam0 = 0.3 * switch_level(hbar, q, l)
        for x in (-0.9, 0.0, 0.3, 0.97):
            got = adjoint_constant_hbar(lam0, hbar, q, l, x)
            want = oracles.adjoint_pair(lam0, hbar, q, l, x)
            assert got[0] == pytest.approx(float(want[0]), abs=1e-13)
            assert got[1] == pytest.approx(float(want[1]), abs=1e-13)

    def test_transversal_root_returns_at_the_far_boundary(self):
        # the return time T = l/2 inverts to lambda0 = lam_s * tanh(sqrt(hbar+1) * l/2)
        hbar, q, l = 1.0, 0.5, 2.0
        lam_s = switch_level(hbar, q, l)
        root = lam_s * math.tanh(math.sqrt(1.0 + hbar) * l / 2.0)
        assert float(oracles.adjoint_return_time(root, hbar, q, l)) == pytest.approx(
            l / 2.0, abs=1e-12
        )
        assert root / lam_s == pytest.approx(0.8884, abs=5e-5)

    @pytest.mark.parametrize("hbar, q, l", [(0.5, 1.0, 1.0), (4.0, 0.25, 3.0), (1.0, 0.9, 0.5)])
    def test_transversal_root_returns_at_the_far_boundary_across_parameters(self, hbar, q, l):
        lam_s = switch_level(hbar, q, l)
        root = lam_s * math.tanh(math.sqrt(1.0 + hbar) * l / 2.0)
        assert float(oracles.adjoint_return_time(root, hbar, q, l)) == pytest.approx(
            l / 2.0, abs=1e-12
        )
        # the closed form meets transversality at the far end too
        _, lam2 = adjoint_constant_hbar(root, hbar, q, l, l / 2.0)
        assert abs(lam2) <= 1e-12

    def test_root_stays_below_the_switch_line_for_small_q(self):
        # with q <= 1 the whole orbit keeps lambda2 above -1/l, so the
        # constant-cap control never violates the bang-bang law
        hbar, q, l = 1.0, 0.5, 2.0
        lam_s = switch_level(hbar, q, l)
        root = lam_s * math.tanh(math.sqrt(1.0 + hbar) * l / 2.0)
        xs = np.linspace(-l / 2.0, l / 2.0, 801)
        worst = min(
            adjoint_constant_hbar(root, hbar, q, l, x)[1] + 1.0 / l for x in xs
        )
        assert worst > 0.0

    def test_domain_errors(self):
        lam_s = switch_level(1.0, 0.5, 2.0)
        with pytest.raises(ParameterError):
            adjoint_constant_hbar(0.0, 1.0, 0.5, 2.0, 0.0)
        with pytest.raises(ParameterError):
            adjoint_constant_hbar(lam_s, 1.0, 0.5, 2.0, 0.0)


class TestConstantControlObjective:
    @pytest.mark.parametrize("hhat", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("q", [0.5, 2.0])
    @pytest.mark.parametrize("l", [0.5, 2.0, 8.0])
    def test_matches_quadrature(self, hhat, q, l):
        got = constant_control_objective(hhat, q, l)
        want = float(oracles.witness_objective(hhat, q, l))
        assert got == pytest.approx(want, abs=1e-13)
