"""Independent numerical checks: brute force, events, PDE, spectra."""

import math

import numpy as np
import pytest

from coastharvest import (
    ParameterError,
    ScaledParams,
    brute_force_bangbang,
    constant_control_objective,
    constant_policy,
    derive_constants,
    evaluate_objective,
    hitting_time,
    integrate_adjoint_with_events,
    optimal_policy,
    pde_time_stepper,
    reserve_sweep,
    shoot_steady_state,
    stability_eigenvalues,
    switch_location,
)
from coastharvest.policy import cell_policy

OPTIMAL_SP = ScaledParams(l=4.0, q=2.0, hbar=1.0)


class TestBruteForce:
    @pytest.mark.parametrize(
        "sp",
        [
            ScaledParams(l=2.0, q=0.25, hbar=1.0),
            ScaledParams(l=2.0, q=1.0, hbar=0.5),
            ScaledParams(l=8.0, q=0.5, hbar=1.0),
            ScaledParams(l=8.0, q=1.0, hbar=1.0),
        ],
    )
    def test_subcritical_winner_harvests_everywhere(self, sp):
        res = brute_force_bangbang(sp, cells=12)
        assert res.best_descriptor["mask"] == "1" * 12
        # the grid contains the analytic optimum here, so the gap is roundoff
        assert abs(res.gap) <= 1e-9

    def test_supercritical_winner_blocks_the_middle(self):
        res = brute_force_bangbang(OPTIMAL_SP, cells=12)
        assert res.best_descriptor["mask"] == "110000000011"
        # analytic optimum dominates every cell policy
        assert res.gap >= -1e-9
        assert res.analytic_objective > res.best_objective

    def test_single_cell_reduces_to_the_constant_comparison(self):
        res = brute_force_bangbang(OPTIMAL_SP, cells=1)
        objs = {desc["mask"]: obj for desc, obj in res.candidates}
        assert objs["0"] == pytest.approx(constant_control_objective(0.0, 2.0, 4.0), rel=1e-12)
        assert objs["1"] == pytest.approx(constant_control_objective(1.0, 2.0, 4.0), rel=1e-12)
        # banning harvest beats the cap on this long coast, cap wins on a short one
        assert res.best_descriptor["mask"] == "0"
        other = brute_force_bangbang(ScaledParams(l=2.0, q=0.5, hbar=1.0), cells=1)
        assert other.best_descriptor["mask"] == "1"

    def test_candidate_count(self):
        res = brute_force_bangbang(ScaledParams(l=2.0, q=0.5, hbar=1.0), cells=5)
        assert len(res.candidates) == 32

    @pytest.mark.parametrize("cells", [1, 5, 7, 12])
    @pytest.mark.parametrize("l", [2.0, 4.0, 8.0])
    def test_batched_objectives_match_the_shooting_solver(self, l, cells):
        sp = ScaledParams(l=l, q=2.0, hbar=1.0)
        res = brute_force_bangbang(sp, cells=cells)
        rng = np.random.default_rng(20261018 + cells)
        picks = rng.choice(1 << cells, size=min(64, 1 << cells), replace=False)
        for mask in picks:
            desc, obj = res.candidates[mask]
            bits = format(int(mask), f"0{cells}b")
            assert desc == {"mask": bits}
            pol = cell_policy(l, [sp.hbar if b == "1" else 0.0 for b in bits])
            want = evaluate_objective(pol, shoot_steady_state(pol, samples=2), sp.q)
            assert obj == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("cells", [1, 7, 12])
    def test_long_coast_uniform_masks_match_the_closed_form(self, cells):
        sp = ScaledParams(l=20.0, q=3.5, hbar=2.5)
        objs = dict((d["mask"], o) for d, o in brute_force_bangbang(sp, cells=cells).candidates)
        for bit, rate in (("0", 0.0), ("1", sp.hbar)):
            want = constant_control_objective(rate, sp.q, sp.l)
            assert objs[bit * cells] == pytest.approx(want, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("cells", [0, 17, -3])
    def test_cell_count_validation(self, cells):
        with pytest.raises(ParameterError):
            brute_force_bangbang(OPTIMAL_SP, cells=cells)


class TestReserveSweep:
    def test_grid_optimum_brackets_the_analytic_reserve(self):
        res = reserve_sweep(OPTIMAL_SP, centers=11, widths=21)
        best = res.best_descriptor
        assert best["center"] == 0.0
        want_width = 2.0 * (OPTIMAL_SP.l / 2.0 - switch_location(OPTIMAL_SP))
        assert abs(best["width"] - want_width) <= 0.2  # one grid step
        assert res.gap >= -1e-9

    def test_short_coast_picks_zero_width(self):
        res = reserve_sweep(ScaledParams(l=2.0, q=2.0, hbar=1.0), centers=11, widths=21)
        assert res.best_descriptor["width"] == 0.0
        # every zero-width candidate is the same constant policy; ties keep
        # the first index
        assert res.best == 0

    def test_grid_validation(self):
        with pytest.raises(ParameterError):
            reserve_sweep(OPTIMAL_SP, centers=1, widths=21)
        with pytest.raises(ParameterError):
            reserve_sweep(OPTIMAL_SP, centers=11, widths=1)

    def test_summary_and_csv(self, tmp_path):
        res = reserve_sweep(ScaledParams(l=2.0, q=0.5, hbar=1.0), centers=3, widths=3)
        s = res.summary()
        assert s["candidates"] == 9
        assert s["best_objective"] == res.best_objective
        assert s["best_descriptor"] == res.best_descriptor
        path = tmp_path / "sweep.csv"
        res.write_csv(str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "center,width,objective_j"
        assert len(lines) == 10
        first = [float(v) for v in lines[1].split(",")]
        assert first[0] == res.candidates[0][0]["center"]
        assert first[2] == res.candidates[0][1]


class TestEventIntegration:
    def test_matches_the_closed_form_before_any_switch(self):
        dc = derive_constants(OPTIMAL_SP)
        t, crossings = integrate_adjoint_with_events(0.3, OPTIMAL_SP)
        assert crossings == 0
        assert abs(t - hitting_time(0.3, dc)) <= 1e-8

    @pytest.mark.parametrize("lambda0", [0.52, 0.54])
    def test_matches_the_closed_form_through_one_switch(self, lambda0):
        dc = derive_constants(OPTIMAL_SP)
        t, crossings = integrate_adjoint_with_events(lambda0, OPTIMAL_SP)
        assert crossings == 1
        assert abs(t - hitting_time(lambda0, dc)) <= 1e-8

    def test_escaping_orbit_reports_no_hit(self):
        dc = derive_constants(OPTIMAL_SP)
        assert math.isinf(hitting_time(0.7, dc))
        t, crossings = integrate_adjoint_with_events(0.7, OPTIMAL_SP)
        assert math.isinf(t)
        assert crossings == 1

    def test_validation(self):
        with pytest.raises(ParameterError):
            integrate_adjoint_with_events(0.0, OPTIMAL_SP)
        with pytest.raises(ParameterError):
            integrate_adjoint_with_events(0.3, ScaledParams(l=4.0, q=0.5, hbar=1.0))


class TestPdeTimeStepper:
    def test_constant_policy_converges_to_the_closed_form(self):
        sp = ScaledParams(l=2.0, q=1.0, hbar=1.0)
        run = pde_time_stepper(
            constant_policy(sp.l, sp.hbar), sp, dx=sp.l / 2048.0, t_max=20.0
        )
        assert run.l2_distance <= 1e-6
        assert run.x[0] == -1.0 and run.x[-1] == 1.0
        assert run.u[0] == 0.0 and run.u[-1] == 0.0
        assert np.all(run.u[1:-1] > 0.0)
        assert np.max(np.abs(run.u - run.u[::-1])) <= 1e-10

    def test_optimal_policy_converges_on_a_fine_grid(self):
        run = pde_time_stepper(
            optimal_policy(OPTIMAL_SP).policy,
            OPTIMAL_SP,
            dx=OPTIMAL_SP.l / 8192.0,
            dt=0.01,
            t_max=40.0,
        )
        assert run.l2_distance <= 1e-6

    def test_approach_is_monotone_once_transients_die(self):
        sp = ScaledParams(l=2.0, q=1.0, hbar=1.0)
        run = pde_time_stepper(constant_policy(sp.l, sp.hbar), sp, t_max=5.0)
        tail = [d for _, d in run.history[len(run.history) // 2 :]]
        assert all(b <= a + 1e-12 for a, b in zip(tail, tail[1:]))
        assert run.l2_distance <= 1e-4  # default grid is discretization-limited

    def test_validation(self):
        sp = ScaledParams(l=2.0, q=1.0, hbar=1.0)
        pol = constant_policy(sp.l, sp.hbar)
        for kw in ({"dx": -1.0}, {"dt": 0.0}, {"t_max": 0.0}):
            with pytest.raises(ParameterError):
                pde_time_stepper(pol, sp, **kw)
        with pytest.raises(ParameterError):
            pde_time_stepper(pol, sp, dx=10.0)

    def test_csv_export(self, tmp_path):
        sp = ScaledParams(l=2.0, q=1.0, hbar=1.0)
        run = pde_time_stepper(constant_policy(sp.l, sp.hbar), sp, dx=0.25, t_max=1.0)
        path = tmp_path / "state.csv"
        run.write_csv(str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "x,u"
        assert len(lines) == len(run.x) + 1


class TestStabilityEigenvalues:
    def test_no_harvest_spectrum_is_exact(self):
        # u'' - u on a length-pi interval: top eigenvalue -1 - 1
        sp = ScaledParams(l=math.pi, q=0.5, hbar=1.0)
        top, stable = stability_eigenvalues(constant_policy(sp.l, 0.0), sp, n=512)
        assert top == pytest.approx(-2.0, abs=1e-4)
        assert stable

    def test_optimal_policy_is_uniformly_stable(self):
        pol = optimal_policy(OPTIMAL_SP).policy
        top, stable = stability_eigenvalues(pol, OPTIMAL_SP, n=512)
        assert stable
        assert top <= -1.0 + 1e-6
        assert top == pytest.approx(-1.6807645765110901, abs=1e-10)

    def test_grid_refinement_is_settled(self):
        pol = optimal_policy(OPTIMAL_SP).policy
        a, _ = stability_eigenvalues(pol, OPTIMAL_SP, n=256)
        b, _ = stability_eigenvalues(pol, OPTIMAL_SP, n=512)
        assert abs(a - b) <= 1e-3

    def test_validation(self):
        with pytest.raises(ParameterError):
            stability_eigenvalues(constant_policy(2.0, 1.0), ScaledParams(l=2.0, q=1.0, hbar=1.0), n=15)
