"""Independent numerical checks: brute force, events, PDE, spectra."""

import ast
import hashlib
import math
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import eigvalsh_tridiagonal
from scipy.linalg.lapack import dstebz

import oracles
from coastharvest import (
    HarvestPolicy,
    ParameterError,
    ScaledParams,
    constant_policy,
    derive_constants,
    evaluate_objective,
    hitting_time,
    optimal_policy,
    shoot_steady_state,
)
from coastharvest import lab
from coastharvest.lab import (
    brute_force_bangbang,
    integrate_adjoint_with_events,
    pde_time_stepper,
    reserve_sweep,
    richardson_steady_gap,
    stability_eigenvalues,
)
from coastharvest.policy import single_reserve_policy

OPTIMAL_SP = ScaledParams(l=4.0, q=2.0, hbar=1.0)


def swept_objective(sp, edges, rates):
    """j of one policy, pieces from the left coast end, scored by a one-column sweep."""
    h, d = np.array(rates)[:, None], np.diff(edges)[:, None]
    return float(lab._sweep(lab._factors(sp, h, d))[2][0] / sp.l)


def equal_cells(l, rates):
    """Equal-width cells with the given rates, equal neighbours left unmerged."""
    n = len(rates)
    edges = [-l / 2.0 + l * i / n for i in range(n)] + [l / 2.0]
    return HarvestPolicy(edges, rates)


# coasts short enough that a piece's integral cancels in its direct form
SHORT_COASTS = [
    (0.01, 0.5, 1.0),
    (1e-3, 0.5, 1.0),
    (1e-4, 2.0, 1.0),
    (1.13e-6, 0.688, 0.0651),
    (1.3e-6, 0.0153, 0.00562),
    (1e-6, 2.0, 1.0),
]


class TestSweep:
    @pytest.mark.parametrize(
        "sp", [OPTIMAL_SP, ScaledParams(1e4, 2.0, 1.0), ScaledParams(50.0, 1e6, 3.0),
               ScaledParams(*SHORT_COASTS[3])]
    )
    def test_a_rate_0_piece_of_width_0_is_the_identity(self, sp):
        # five pieces per column, 64 columns of random widths and rates;
        # the identity piece after any of them, mid-sweep or at the end,
        # leaves (S, F, alpha, beta) bit-identical
        rng = np.random.default_rng(33)
        widths = rng.uniform(0.01, 0.4, (5, 64)) * sp.l
        rates = np.where(rng.random((5, 64)) < 0.5, 0.0, sp.hbar)
        want = lab._sweep(lab._factors(sp, rates, widths))
        for cut in range(1, 6):
            h = np.insert(rates, cut, 0.0, axis=0)
            d = np.insert(widths, cut, 0.0, axis=0)
            mid = lab._sweep(lab._factors(sp, h[: cut + 1], d[: cut + 1]))
            for got, plain in zip(mid, lab._sweep(lab._factors(sp, rates[:cut], widths[:cut]))):
                assert np.array_equal(got, plain), cut
            for got, plain in zip(lab._sweep(lab._factors(sp, h, d)), want):
                assert np.array_equal(got, plain), cut


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
        assert res.describe(res.best)["mask"] == "1" * 12
        # the grid contains the analytic optimum here, so the gap is roundoff
        assert abs(optimal_policy(sp).objective_j - res.best_objective) <= 1e-9

    def test_supercritical_winner_blocks_the_middle(self):
        res = brute_force_bangbang(OPTIMAL_SP, cells=12)
        assert res.describe(res.best)["mask"] == "110000000011"
        # analytic optimum dominates every cell policy
        analytic = optimal_policy(OPTIMAL_SP).objective_j
        assert analytic - res.best_objective >= -1e-9
        assert analytic > res.best_objective

    def test_single_cell_reduces_to_the_constant_comparison(self):
        res = brute_force_bangbang(OPTIMAL_SP, cells=1)
        objs = {desc["mask"]: obj for desc, obj in res.candidates}
        for bit, rate in (("0", 0.0), ("1", 1.0)):
            want = float(oracles.constant_objective(rate, 2.0, 4.0))
            assert objs[bit] == pytest.approx(want, rel=1e-12)
        # banning harvest beats the cap on this long coast, cap wins on a short one
        assert res.describe(res.best)["mask"] == "0"
        other = brute_force_bangbang(ScaledParams(l=2.0, q=0.5, hbar=1.0), cells=1)
        assert other.describe(other.best)["mask"] == "1"

    def test_candidate_count(self):
        res = brute_force_bangbang(ScaledParams(l=2.0, q=0.5, hbar=1.0), cells=5)
        assert len(res.candidates) == 32

    @pytest.mark.parametrize("cells", [1, 5, 7, 12, 15, 16])
    @pytest.mark.parametrize("l", [2.0, 4.0, 8.0])
    def test_batched_objectives_match_the_shooting_solver(self, l, cells):
        sp = ScaledParams(l=l, q=2.0, hbar=1.0)
        res = brute_force_bangbang(sp, cells=cells)
        rng = np.random.default_rng(20261018 + cells)
        picks = rng.choice(1 << cells, size=min(64, 1 << cells), replace=False)
        for mask in picks:
            desc, obj = res.describe(int(mask)), res.objectives[mask]
            bits = format(int(mask), f"0{cells}b")
            assert desc == {"mask": bits}
            pol = equal_cells(l, [sp.hbar if b == "1" else 0.0 for b in bits])
            want = evaluate_objective(pol, shoot_steady_state(pol), sp.q)
            assert obj == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("cells", [1, 7, 12])
    @pytest.mark.parametrize("l, q, hbar", [(20.0, 3.5, 2.5), *SHORT_COASTS])
    def test_uniform_masks_match_the_closed_form(self, l, q, hbar, cells):
        # on the short coasts each cell's own share cancels to (kw)^2/12
        # of its terms without the series: 3.1e-4 at (1.13e-6, 0.688, 0.0651)
        objs = brute_force_bangbang(ScaledParams(l, q, hbar), cells=cells).objectives
        for mask, rate in ((0, 0.0), (-1, hbar)):
            want = float(oracles.constant_objective(rate, q, l))
            assert objs[mask] == pytest.approx(want, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize(
        "sp", [OPTIMAL_SP, ScaledParams(0.3, 2.0, 1.0), ScaledParams(1e4, 2.0, 1.0),
               ScaledParams(3.0, 0.5, 1.0), ScaledParams(50.0, 1e6, 3.0),
               ScaledParams(4.0, 1e8, 1.0), ScaledParams(1e-6, 2.0, 1.0)]
    )
    def test_every_mask_matches_the_shooting_solver(self, sp):
        # the meet-in-the-middle objectives against bvp on every mask; a
        # large weight q, and a coast whose cells sit far below kw = 1
        for cells in range(1, 11):
            objs = brute_force_bangbang(sp, cells=cells).objectives
            for mask, obj in enumerate(objs.tolist()):
                bits = format(mask, f"0{cells}b")
                pol = equal_cells(sp.l, [sp.hbar if b == "1" else 0.0 for b in bits])
                want = evaluate_objective(pol, shoot_steady_state(pol), sp.q)
                assert obj == pytest.approx(want, rel=1e-13, abs=0.0), bits

    @pytest.mark.parametrize(
        "sp, best",
        [
            (OPTIMAL_SP, {10: "1100000011", 12: "110000000011", 16: "1110000000000111"}),
            (ScaledParams(0.3, 2.0, 1.0), {10: "1" * 10, 12: "1" * 12, 16: "1" * 16}),
            (ScaledParams(1e4, 2.0, 1.0), {10: "0" * 10, 12: "0" * 12, 16: "0" * 16}),
            (ScaledParams(3.0, 0.5, 1.0), {10: "1" * 10, 12: "1" * 12, 16: "1" * 16}),
        ],
    )
    def test_best_masks(self, sp, best):
        for cells, mask in best.items():
            res = brute_force_bangbang(sp, cells=cells)
            assert res.describe(res.best)["mask"] == mask

    @pytest.mark.parametrize("cells", [0, 17, -3])
    def test_cell_count_validation(self, cells):
        with pytest.raises(ParameterError):
            brute_force_bangbang(OPTIMAL_SP, cells=cells)

    @pytest.mark.parametrize("cells", [12.0, True, "12", None])
    def test_cell_count_must_be_an_int(self, cells):
        # 12.0 failed in a shift with a TypeError, and True ran as one cell
        with pytest.raises(ParameterError, match="^cells must be an int"):
            brute_force_bangbang(OPTIMAL_SP, cells=cells)

    def test_numpy_int_cell_count(self):
        got = brute_force_bangbang(OPTIMAL_SP, cells=np.int64(6)).objectives
        assert np.array_equal(got, brute_force_bangbang(OPTIMAL_SP, cells=6).objectives)


class TestReserveSweep:
    def test_grid_optimum_brackets_the_analytic_reserve(self):
        res = reserve_sweep(OPTIMAL_SP, centers=11, widths=21)
        best = res.describe(res.best)
        assert best["center"] == 0.0
        want_width = 2.0 * (OPTIMAL_SP.l / 2.0 - optimal_policy(OPTIMAL_SP).Ts)
        assert abs(best["width"] - want_width) <= 0.2  # one grid step
        assert optimal_policy(OPTIMAL_SP).objective_j - res.best_objective >= -1e-9

    def test_short_coast_picks_zero_width(self):
        res = reserve_sweep(ScaledParams(l=2.0, q=2.0, hbar=1.0), centers=11, widths=21)
        assert res.describe(res.best)["width"] == 0.0
        # every zero-width candidate is the same constant policy; ties keep
        # the first index
        assert res.best == 0

    @staticmethod
    def _block_objective(sp, left, right):
        pol = single_reserve_policy(sp.l, left, right, sp.hbar)
        return evaluate_objective(pol, shoot_steady_state(pol), sp.q)

    @pytest.mark.parametrize(
        "sp",
        [
            OPTIMAL_SP,
            ScaledParams(l=20.0, q=0.5, hbar=3.0),
            ScaledParams(l=2.0, q=2.0, hbar=1.0),
            *(ScaledParams(*p) for p in SHORT_COASTS[2:]),
        ],
    )
    def test_every_candidate_is_the_objective_of_its_block_policy(self, sp):
        # verify's default grid; the batched pass does not split at x = 0
        # as bvp does, so the two differ in the last bits
        for desc, obj in reserve_sweep(sp, centers=11, widths=21).candidates:
            c, w = desc["center"], desc["width"]
            want = self._block_objective(sp, c - w / 2.0, c + w / 2.0)
            assert obj == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("l, q, hbar", SHORT_COASTS)
    def test_short_coast_uniform_candidates_match_the_closed_form(self, l, q, hbar):
        # width 0 harvests everywhere; the centred full-width block nowhere
        sp = ScaledParams(l, q, hbar)
        objs = reserve_sweep(sp, centers=11, widths=21).objectives
        for i, rate in ((0, hbar), (5 * 21 + 20, 0.0)):
            want = float(oracles.constant_objective(rate, q, l))
            assert objs[i] == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_block_edge_next_to_the_centre_matches_bvp(self):
        # center -0.3, width 0.6: the block's right edge lands at 5.55e-17,
        # which bvp splits off as a piece of that width
        sp = ScaledParams(l=2.0, q=2.0, hbar=1.0)
        res = reserve_sweep(sp, centers=11, widths=21)
        i = 2 * 21 + 6
        desc, obj = res.candidates[i]
        c, w = desc["center"], desc["width"]
        assert c + w / 2.0 == 5.551115123125783e-17
        assert math.isfinite(obj)
        assert obj == pytest.approx(self._block_objective(sp, c - w / 2.0, c + w / 2.0), rel=1e-12)

    @pytest.mark.parametrize("ulps", [1, 2, 5])
    def test_block_edge_a_few_ulps_from_a_coast_end_matches_bvp(self, ulps):
        # a harvested piece a few ulps wide at either coast end
        sp = OPTIMAL_SP
        end = sp.l / 2.0
        near = end
        for _ in range(ulps):
            near = math.nextafter(near, 0.0)
        for lo, hi in [(-near, 0.5), (-0.5, near), (-near, near)]:
            obj = swept_objective(sp, [-end, lo, hi, end], (sp.hbar, 0.0, sp.hbar))
            assert math.isfinite(obj)
            assert obj == pytest.approx(self._block_objective(sp, lo, hi), rel=1e-12, abs=0.0)

    def test_scores_without_the_shooting_solver(self, monkeypatch):
        def refuse(policy):
            raise AssertionError("reserve_sweep called shoot_steady_state")

        monkeypatch.setattr(lab, "shoot_steady_state", refuse)
        res = reserve_sweep(OPTIMAL_SP, centers=11, widths=21)
        assert res.objectives.shape == (231,)
        assert res.describe(res.best)["center"] == 0.0

    def test_candidates_are_center_major(self):
        res = reserve_sweep(OPTIMAL_SP, centers=3, widths=4)
        descs = [d for d, _ in res.candidates]
        assert descs == [
            {"center": c, "width": w}
            for c in np.linspace(-1.0, 1.0, 3).tolist()
            for w in np.linspace(0.0, 4.0, 4).tolist()
        ]
        assert [o for _, o in res.candidates] == res.objectives.tolist()
        assert res.best_objective == max(res.objectives.tolist())

    def test_grid_validation(self):
        with pytest.raises(ParameterError):
            reserve_sweep(OPTIMAL_SP, centers=1, widths=21)
        with pytest.raises(ParameterError):
            reserve_sweep(OPTIMAL_SP, centers=11, widths=1)

    @pytest.mark.parametrize(
        "centers, widths, name",
        [(11.0, 21, "centers"), (11, 21.0, "widths"), (True, 21, "centers"), (11, False, "widths")],
    )
    def test_grid_sizes_must_be_ints(self, centers, widths, name):
        # a float failed inside numpy with a TypeError
        with pytest.raises(ParameterError, match=f"^{name} must be an int"):
            reserve_sweep(OPTIMAL_SP, centers=centers, widths=widths)

    @pytest.mark.parametrize(
        "sp", [OPTIMAL_SP, ScaledParams(l=20.0, q=0.5, hbar=3.0), ScaledParams(*SHORT_COASTS[0])]
    )
    def test_every_candidate_equals_its_own_piece_objective(self, sp):
        # every shape is swept as three pieces in one batch, padded with
        # the identity piece; each candidate scored alone, on its own
        # pieces in a one-column sweep, gives the same bits
        res = reserve_sweep(sp, centers=11, widths=21)
        end = sp.l / 2.0
        shapes = set()
        for desc, obj in res.candidates:
            c, w = desc["center"], desc["width"]
            lo, hi = max(c - w / 2.0, -end), min(c + w / 2.0, end)
            if not lo < hi:
                edges, rates = [-end, end], (sp.hbar,)
            else:
                edges, rates = [-end], ()
                if lo > -end:
                    edges, rates = edges + [lo], (sp.hbar,)
                edges, rates = edges + [hi], rates + (0.0,)
                if hi < end:
                    edges, rates = edges + [end], rates + (sp.hbar,)
            shapes.add(rates)
            assert swept_objective(sp, edges, rates) == obj, desc
        # no block, an inner block, one at either end, and the whole coast
        assert len(shapes) == 5

    def test_grid_size_is_capped(self):
        assert lab.MAX_SWEEP_CANDIDATES == 256 * 256
        assert reserve_sweep(OPTIMAL_SP, centers=256, widths=256).objectives.size == 256 * 256
        with pytest.raises(ParameterError, match="reserve sweep grid too large"):
            reserve_sweep(OPTIMAL_SP, centers=256, widths=257)


GRAZING_SETS = [
    (4.0, 2.0, 1.0),
    (20.0, 2.0, 2.7592213493803284),
    (9.811278000808583, 3.297466230318146, 2.052804579830935),
    (16.764199905276822, 1.858223827549165, 1.5225018921202387),
]
GRAZING_RATIOS = (0.0, 1e-12, 1e-9, 1e-6, 1e-5, 3e-5, 1e-4, 1e-3)


class TestEventIntegration:
    def test_matches_the_closed_form_before_any_switch(self):
        dc = derive_constants(OPTIMAL_SP)
        ((t, crossings),) = integrate_adjoint_with_events([0.3], OPTIMAL_SP)
        assert crossings == 0
        assert abs(t - hitting_time(0.3, dc)) <= 1e-8

    @pytest.mark.parametrize("lambda0", [0.52, 0.54])
    def test_matches_the_closed_form_through_one_switch(self, lambda0):
        dc = derive_constants(OPTIMAL_SP)
        ((t, crossings),) = integrate_adjoint_with_events([lambda0], OPTIMAL_SP)
        assert crossings == 1
        assert abs(t - hitting_time(lambda0, dc)) <= 1e-8

    def test_escaping_orbit_reports_no_hit(self):
        dc = derive_constants(OPTIMAL_SP)
        assert math.isinf(hitting_time(0.7, dc))
        ((t, crossings),) = integrate_adjoint_with_events([0.7], OPTIMAL_SP)
        assert math.isinf(t)
        assert crossings == 1

    def test_escaping_start_in_one_batch_with_hitting_starts(self):
        # the escaping orbit keeps both phases running to the horizon
        dc = derive_constants(OPTIMAL_SP)
        starts = [0.3, 0.52, 0.54, 0.7]
        results = integrate_adjoint_with_events(starts, OPTIMAL_SP)
        assert [c for _, c in results] == [0, 1, 1, 1]
        for lam0, (t, _) in zip(starts[:3], results):
            assert abs(t - hitting_time(lam0, dc)) <= 1e-8, lam0
        assert math.isinf(results[3][0])

    @pytest.mark.parametrize("l, q, hbar", GRAZING_SETS)
    def test_grazing_starts_just_above_lam_star(self, l, q, hbar):
        # the dip below the switching line shrinks as the start nears
        # lam_star, until the crossing and the hit share one step
        sp = ScaledParams(l=l, q=q, hbar=hbar)
        dc = derive_constants(sp)
        starts = [dc.lam_star * (1.0 + r) for r in GRAZING_RATIOS]
        results = integrate_adjoint_with_events(starts, sp)
        for r, lam0, (t, _) in zip(GRAZING_RATIOS, starts, results):
            assert abs(t - hitting_time(lam0, dc)) <= 1e-8, r

    @pytest.mark.parametrize(
        "l, q, hbar, last",
        [
            (20.0, 2.0, 2.7592213493803284, 1e-5),
            # the tangent start's one event is its axis hit, the latest of
            # the run; without the stop's margin this hit is lost
            (9.811278000808583, 3.297466230318146, 2.052804579830935, 0.0),
        ],
    )
    def test_grazing_start_last_to_finish_keeps_its_hit(self, l, q, hbar, last):
        sp = ScaledParams(l=l, q=q, hbar=hbar)
        dc = derive_constants(sp)
        ratios = [r for r in GRAZING_RATIOS if r != last] + [last]
        starts = [dc.lam_star * (1.0 + r) for r in ratios]
        for r, lam0, (t, _) in zip(ratios, starts, integrate_adjoint_with_events(starts, sp)):
            assert abs(t - hitting_time(lam0, dc)) <= 1e-8, r

    @pytest.mark.parametrize("l, q, hbar", GRAZING_SETS)
    def test_a_start_alone_crosses_as_often_as_in_the_batch(self, l, q, hbar):
        sp = ScaledParams(l=l, q=q, hbar=hbar)
        dc = derive_constants(sp)
        starts = [dc.lam_starstar * i / 26.0 for i in range(1, 26, 3)]
        starts += [dc.lam_star * (1.0 + r) for r in (1e-6, 1e-3)]
        batch = integrate_adjoint_with_events(starts, sp)
        for lam0, (_, crossings) in zip(starts, batch):
            ((_, alone),) = integrate_adjoint_with_events([lam0], sp)
            assert alone == crossings, lam0

    @pytest.mark.parametrize("l, q, hbar", GRAZING_SETS)
    def test_a_start_alone_hits_when_it_does_in_the_batch(self, l, q, hbar):
        sp = ScaledParams(l=l, q=q, hbar=hbar)
        dc = derive_constants(sp)
        starts = [dc.lam_starstar * i / 26.0 for i in range(1, 26, 3)]
        starts += [dc.lam_star * (1.0 + r) for r in GRAZING_RATIOS]
        batch = integrate_adjoint_with_events(starts, sp)
        for lam0, (t, _) in zip(starts, batch):
            ((alone, _),) = integrate_adjoint_with_events([lam0], sp)
            assert abs(alone - t) <= 1e-14, lam0

    def test_long_coast_keeps_every_hit_and_the_escape(self):
        # verify's 25 starts at l = 1e4, where the longest level maps of
        # the bisection overflow, plus a start whose no-take run escapes
        # to overflow
        sp = ScaledParams(l=1e4, q=2.0, hbar=1.0)
        dc = derive_constants(sp)
        starts = [dc.lam_starstar * i / 26.0 for i in range(1, 26)]
        starts.append(1.1 * dc.lam_starstar)
        results = integrate_adjoint_with_events(starts, sp)
        for lam0, (t, _) in zip(starts[:-1], results):
            assert abs(t - hitting_time(lam0, dc)) <= 1e-8, lam0
        assert math.isinf(hitting_time(starts[-1], dc))
        assert results[-1] == (math.inf, 1)

    @pytest.mark.parametrize(
        "l, q, hbar", [(1e8, 2.0, 1.0), (1e-6, 1e8, 1.0), (4.0, 1e8, 1.0), (50.0, 1e6, 3.0)]
    )
    def test_extreme_parameters_keep_every_hit_and_the_escape(self, l, q, hbar):
        # the eigen-coordinate maps at the widest spread of time scales:
        # a coast 1e8 long, where most levels overflow, and weights of up
        # to 1e8, where the affine part of J dwarfs the rest
        sp = ScaledParams(l=l, q=q, hbar=hbar)
        dc = derive_constants(sp)
        starts = [dc.lam_starstar * i / 26.0 for i in range(1, 26)]
        starts.append(1.1 * dc.lam_starstar)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            results = integrate_adjoint_with_events(starts, sp)
        for lam0, (t, _) in zip(starts[:-1], results):
            assert abs(t - hitting_time(lam0, dc)) <= 1e-13 * max(1.0, t), lam0
        assert math.isinf(hitting_time(starts[-1], dc))
        assert results[-1] == (math.inf, 1)

    @pytest.mark.parametrize("l, q, hbar", [(0.3, 2.0, 1.0), (1e-3, 2.0, 1.0)])
    def test_late_hits_match_the_oracle(self, l, q, hbar):
        # starts just below lam_starstar hit at 3.66, 4.81 and 5.96; their
        # no-take runs last 3.0 to 5.3 of that phase's 10-long horizon, so
        # the bisection reaches them only by moving ahead at its first two
        # levels
        sp = ScaledParams(l=l, q=q, hbar=hbar)
        dc = derive_constants(sp)
        late = [dc.lam_starstar * (1.0 - 10.0**-k) for k in (3, 4, 5)]
        want = [float(oracles.hitting_time(lam0, l, q, hbar)) for lam0 in late]
        for lam0, t in zip(late, want):
            ((alone, _),) = integrate_adjoint_with_events([lam0], sp)
            assert abs(alone - t) <= 1e-9, lam0
        starts = [0.5 * dc.lam_starstar, *late, 2.0 * dc.lam_starstar]
        want = [float(oracles.hitting_time(starts[0], l, q, hbar)), *want]
        results = integrate_adjoint_with_events(starts, sp)
        for lam0, t, (got, _) in zip(starts, want, results):
            assert abs(got - t) <= 1e-9, lam0
        assert results[-1] == (math.inf, 1)

    @pytest.mark.parametrize(
        "l, q, hbar",
        [
            (4.0, 2.0, 1.0),
            (20.0, 3.5, 2.5),
            (1e4, 2.0, 1.0),
            (0.3, 2.0, 1.0),
            (20.0, 2.0, 2.7592213493803284),
            (9.811278000808583, 3.297466230318146, 2.052804579830935),
        ],
    )
    def test_verify_starts_match_the_oracle_to_a_few_ulps(self, l, q, hbar):
        # verify's 25 starts against the 40-digit hitting time: the probe
        # search's worst here is 41 ulps (at l = 0.3), and the one-level
        # bisection it replaced reached 61
        sp = ScaledParams(l=l, q=q, hbar=hbar)
        starts = [derive_constants(sp).lam_starstar * i / 26.0 for i in range(1, 26)]
        results = integrate_adjoint_with_events(starts, sp)
        for lam0, (got, _) in zip(starts, results):
            want = float(oracles.hitting_time(lam0, l, q, hbar))
            assert math.isinf(got) == math.isinf(want), lam0
            if math.isfinite(want):
                assert abs(got - want) <= 64 * math.ulp(want), lam0

    def test_validation(self):
        # a non-positive, infinite or NaN start anywhere in the batch, or no start
        for starts in ([0.0], [0.3, 0.52, -0.1], [0.3, math.nan], [], [math.inf], [0.3, math.inf]):
            with pytest.raises(ParameterError):
                integrate_adjoint_with_events(starts, OPTIMAL_SP)
        for q in (0.5, 1.0):
            with pytest.raises(ParameterError):
                integrate_adjoint_with_events([0.3, 0.5], ScaledParams(l=4.0, q=q, hbar=1.0))


def test_lab_imports_none_of_the_closed_forms():
    # relative imports by module name, and any absolute import of the package
    package = set()
    for node in ast.walk(ast.parse(Path(lab.__file__).read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            if node.level or (node.module or "").startswith("coastharvest"):
                package.add(node.module)
        elif isinstance(node, ast.Import):
            package.update(a.name for a in node.names if a.name.startswith("coastharvest"))
    assert package == {"bvp", "params", "policy"}


# definitions and NamedTuple fields that no code in the package reads, and
# why each stays
KEEP = {
    "unscaled_reserve_boundary": "perfbench's solve_stream and tests/test_contract.py run it",
    "SweepResult.candidates": "perfbench/tracing.py counts the masks brute force scored",
    "HarvestPolicy._make": "NamedTuple._replace builds the copy through it",
    "ScaledParams._make": "NamedTuple._replace builds the copy through it",
    "SegmentSolution._make": "NamedTuple._replace builds the copy through it",
    "UnscaledParams._make": "NamedTuple._replace builds the copy through it",
}


def _package_modules() -> dict:
    """The parsed package modules by file name, __init__ aside."""
    return {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in Path(lab.__file__).parent.glob("*.py")
        if path.name != "__init__.py"
    }


def test_package_keeps_no_test_only_helpers():
    # a top-level def or class, or a method or property of a top-level
    # class, counts as used when code outside its own definition names it;
    # __init__'s re-exports do not count.  A field of a NamedTuple counts
    # as used when package code reads it as an attribute: building by
    # keyword reads nothing
    modules = list(_package_modules().values())
    defs, fields = {}, set()
    for module in modules:
        for node in module.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[node.name] = node
            if isinstance(node, ast.ClassDef):
                for method in node.body:
                    if isinstance(method, ast.FunctionDef) and not (
                        method.name.startswith("__") and method.name.endswith("__")
                    ):
                        defs[f"{node.name}.{method.name}"] = method
                if any(getattr(base, "id", None) == "NamedTuple" for base in node.bases):
                    fields.update(
                        (node.name, stmt.target.id)
                        for stmt in node.body
                        if isinstance(stmt, ast.AnnAssign)
                    )

    def names(tree) -> Counter:
        found = Counter()
        for sub in ast.walk(tree):
            name = sub.id if isinstance(sub, ast.Name) else getattr(sub, "attr", None)
            if name is not None:
                found[name] += 1
        return found

    total = sum(map(names, modules), Counter())
    unused = {key for key, node in defs.items() if total[node.name] == names(node)[node.name]}
    read = {
        sub.attr
        for module in modules
        for sub in ast.walk(module)
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)
    }
    unused.update(f"{cls}.{field}" for cls, field in fields if field not in read)
    assert unused == set(KEEP)


def test_package_modules_use_every_name_they_import():
    # what __init__ imports it re-exports, and __future__ imports are
    # compiler directives; any other imported name must be read in its module
    for name, module in _package_modules().items():
        imported = set()
        for node in ast.walk(module):
            if isinstance(node, ast.Import):
                imported.update((a.asname or a.name).split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(a.asname or a.name for a in node.names)
        read = {sub.id for sub in ast.walk(module) if isinstance(sub, ast.Name)}
        assert imported <= read, (name, sorted(imported - read))


class TestPdeTimeStepper:
    # an off-centre reserve on an aligned grid: three segments, two rates
    RESERVE_POLICY = single_reserve_policy(4.0, -1.5, 0.5, 1.0)

    def test_constant_policy_converges_to_the_closed_form(self):
        sp = ScaledParams(l=2.0, q=1.0, hbar=1.0)
        run = pde_time_stepper(
            constant_policy(sp.l, sp.hbar), dx=sp.l / 2048.0, dt=sp.l / 512.0, t_max=20.0
        )
        assert run.l2_distance <= 1e-6
        assert run.x[0] == -1.0 and run.x[-1] == 1.0
        assert run.u[0] == 0.0 and run.u[-1] == 0.0
        assert np.all(run.u[1:-1] > 0.0)
        assert np.max(np.abs(run.u - run.u[::-1])) <= 1e-10

    def test_optimal_policy_converges_on_a_fine_grid(self):
        run = pde_time_stepper(
            optimal_policy(OPTIMAL_SP).policy,
            dx=OPTIMAL_SP.l / 8192.0,
            dt=0.01,
            t_max=40.0,
        )
        assert run.l2_distance <= 1e-6

    @staticmethod
    def dense_steady_state(x, policy):
        """u_h from the full, unfolded system, assembled and solved densely."""
        dx = np.diff(x)
        pot = np.array([1.0 + policy.rate_at(0.5 * (a + b)) for a, b in zip(x, x[1:])])
        n = len(x) - 2
        a = np.zeros((n, n))
        for i in range(n):
            a[i, i] = 1.0 / dx[i] + 1.0 / dx[i + 1] + 0.5 * (pot[i] * dx[i] + pot[i + 1] * dx[i + 1])
            if i + 1 < n:
                a[i, i + 1] = a[i + 1, i] = -1.0 / dx[i + 1]
        return np.linalg.solve(a, 0.5 * (dx[:-1] + dx[1:]))

    @pytest.mark.parametrize(
        "policy, dx, interior",
        [
            # one interior node, at the centre
            (constant_policy(4.0, 1.0), 2.0, 1),
            # two interior nodes, which the mirror fold makes one unknown
            (optimal_policy(OPTIMAL_SP).policy, 10.0, 2),
            # one interior node of an asymmetric policy
            (single_reserve_policy(4.0, -2.0, 0.0, 1.0), 2.0, 1),
        ],
    )
    def test_a_single_unknown_is_solved(self, policy, dx, interior):
        run = pde_time_stepper(policy, dx=dx, dt=0.5, t_max=40.0)
        assert len(run.x) == interior + 2
        assert run.u[0] == 0.0 and run.u[-1] == 0.0
        assert run.u[1:-1] == pytest.approx(self.dense_steady_state(run.x, policy), rel=1e-14)
        assert run.discrete_distance <= 1e-15

    def test_approach_is_monotone_once_transients_die(self):
        sp = ScaledParams(l=2.0, q=1.0, hbar=1.0)
        grid = {"dx": sp.l / 512.0, "dt": sp.l / 512.0}
        run = pde_time_stepper(constant_policy(sp.l, sp.hbar), **grid, t_max=5.0)
        tail = [d for _, d in run.history[len(run.history) // 2 :]]
        assert all(b <= a + 1e-12 for a, b in zip(tail, tail[1:]))
        assert run.l2_distance <= 1e-4  # this grid is discretization-limited

    def test_validation(self):
        sp = ScaledParams(l=2.0, q=1.0, hbar=1.0)
        pol = constant_policy(sp.l, sp.hbar)
        grid = {"dx": sp.l / 512.0, "dt": sp.l / 512.0}
        for kw in ({"dx": -1.0}, {"dt": 0.0}, {"t_max": 0.0}):
            with pytest.raises(ParameterError):
                pde_time_stepper(pol, **{**grid, **kw})
        with pytest.raises(ParameterError):
            pde_time_stepper(pol, **{**grid, "dx": 10.0})

    @pytest.mark.parametrize("field", ["dx", "dt", "t_max"])
    def test_non_finite_step_sizes_are_rejected(self, field):
        # an infinite t_max or dt would overflow the step count, and an
        # infinite dx would run the whole stepper and fail only on output
        sp = ScaledParams(l=2.0, q=1.0, hbar=1.0)
        kw = {"dx": sp.l / 512.0, "dt": sp.l / 512.0, field: math.inf}
        with pytest.raises(ParameterError, match=f"^{field} must be positive and finite"):
            pde_time_stepper(constant_policy(sp.l, sp.hbar), **kw)

    def test_step_count_is_capped(self, monkeypatch):
        sp = ScaledParams(l=2.0, q=1.0, hbar=1.0)
        pol = constant_policy(sp.l, sp.hbar)
        dx = sp.l / 512.0
        with pytest.raises(ParameterError, match=r"got t_max=1e\+300, dt=0\.5$"):
            pde_time_stepper(pol, dx=dx, dt=0.5, t_max=1e300)
        monkeypatch.setattr(lab, "MAX_STEPS", 10)
        assert pde_time_stepper(pol, dx=dx, dt=0.5, t_max=5.0).history[-1][0] == 5.0
        with pytest.raises(ParameterError, match="at most 10 steps"):
            pde_time_stepper(pol, dx=dx, dt=0.5, t_max=5.5)

    @staticmethod
    def _dense_operators(run, pol):
        """Lumped mass and steady operator of the stepper's grid, densely."""
        h = np.diff(run.x)
        rate = np.array([pol.rate_at(0.5 * (a + b)) for a, b in zip(run.x[:-1], run.x[1:])])
        lumped = 0.5 * (h[:-1] + h[1:])
        steady = (
            np.diag(1.0 / h[:-1] + 1.0 / h[1:])
            - np.diag(1.0 / h[1:-1], 1)
            - np.diag(1.0 / h[1:-1], -1)
            + np.diag(0.5 * ((1.0 + rate[:-1]) * h[:-1] + (1.0 + rate[1:]) * h[1:]))
        )
        return lumped, steady

    def test_one_step_is_a_dense_backward_euler_step(self):
        dt = 0.1
        run = pde_time_stepper(self.RESERVE_POLICY, dx=0.125, dt=dt, t_max=dt)
        lumped, steady = self._dense_operators(run, self.RESERVE_POLICY)
        # from u = 0: (M/dt + A) u1 = (M/dt) 0 + load, with load = lumped
        want = np.linalg.solve(np.diag(lumped / dt) + steady, lumped)
        assert np.max(np.abs(run.u[1:-1] - want)) <= 1e-12
        assert run.u[0] == 0.0 and run.u[-1] == 0.0

    def test_long_run_reaches_the_dense_discrete_steady_state(self):
        run = pde_time_stepper(self.RESERVE_POLICY, dx=0.125, dt=0.5, t_max=60.0)
        lumped, steady = self._dense_operators(run, self.RESERVE_POLICY)
        want = np.linalg.solve(steady, lumped)
        assert np.max(np.abs(run.u[1:-1] - want)) <= 1e-12

    # mirror policies whose grids put the centre on a node (32 cells) and
    # inside a cell (12 + 7 + 12 cells)
    MIRROR_POLICIES = [
        pytest.param(constant_policy(4.0, 1.0), True, id="centre-node"),
        pytest.param(single_reserve_policy(4.0, -0.4375, 0.4375, 1.0), False, id="centre-cell"),
    ]

    @pytest.mark.parametrize("pol, centre_node", MIRROR_POLICIES)
    def test_mirror_step_is_a_dense_backward_euler_step(self, pol, centre_node):
        dt = 0.1
        run = pde_time_stepper(pol, dx=0.125, dt=dt, t_max=dt)
        assert (0.0 in run.x) is centre_node
        lumped, steady = self._dense_operators(run, pol)
        want = np.linalg.solve(np.diag(lumped / dt) + steady, lumped)
        assert np.max(np.abs(run.u[1:-1] - want)) <= 1e-12
        assert np.array_equal(run.u, run.u[::-1])

    @pytest.mark.parametrize("pol, centre_node", MIRROR_POLICIES)
    def test_mirror_run_reaches_the_dense_discrete_steady_state(self, pol, centre_node):
        run = pde_time_stepper(pol, dx=0.125, dt=0.5, t_max=60.0)
        assert (0.0 in run.x) is centre_node
        lumped, steady = self._dense_operators(run, pol)
        want = np.linalg.solve(steady, lumped)
        assert np.max(np.abs(run.u[1:-1] - want)) <= 1e-12
        assert np.array_equal(run.u, run.u[::-1])
        u_star = shoot_steady_state(pol).eval_many(run.x[1:-1])[0]
        dense_gap = math.sqrt(np.sum(lumped * (want - u_star) ** 2))
        assert run.l2_distance == pytest.approx(dense_gap, rel=1e-9)

    @pytest.mark.parametrize(
        "pol, mirror",
        [
            (constant_policy(4.0, 1.0), True),
            (single_reserve_policy(4.0, -0.4375, 0.4375, 1.0), True),
            (RESERVE_POLICY, False),
        ],
    )
    def test_mirror_policies_are_solved_on_the_half_grid(self, monkeypatch, pol, mirror):
        sizes = []
        solve = lab.dpttrs

        def recording_solve(d, e, b, overwrite_b=False):
            sizes.append(len(b))
            return solve(d, e, b, overwrite_b=overwrite_b)

        monkeypatch.setattr(lab, "dpttrs", recording_solve)
        run = pde_time_stepper(pol, dx=0.125, dt=0.5, t_max=2.0)
        n = len(run.x) - 2
        assert sizes == [n - n // 2 if mirror else n] * 5

    def test_non_finite_solve_is_reported_as_a_blow_up(self, monkeypatch):
        def nan_solve(d, e, b, overwrite_b=False):
            return np.full_like(b, np.nan), 0

        monkeypatch.setattr(lab, "dpttrs", nan_solve)
        with pytest.raises(RuntimeError, match="blew up"):
            pde_time_stepper(self.RESERVE_POLICY, dx=0.125, dt=0.5, t_max=2.0)

    def test_blow_up_is_caught_at_the_next_history_sample(self, monkeypatch):
        # 200 steps are sampled every 3; an inf at step 1 carries to step 3.
        # The first solve is the steady state's, the second step 1's.
        calls = []
        solve = lab.dpttrs

        def inf_solve(d, e, b, overwrite_b=False):
            calls.append(1)
            x, info = solve(d, e, b, overwrite_b=overwrite_b)
            if len(calls) == 2:
                x[0] = np.inf
            return x, info

        monkeypatch.setattr(lab, "dpttrs", inf_solve)
        with pytest.raises(RuntimeError, match="blew up by step 3$"):
            pde_time_stepper(self.RESERVE_POLICY, dx=0.125, dt=0.01, t_max=2.0)
        assert len(calls) == 1 + 3


    # verify's former run on short coasts, where e decays through the
    # subnormal range: l2_distance.hex(), then sha256 of the history and
    # of u; recorded before stepping stopped early
    PINNED = [
        (
            0.3,
            "0x1.2424f2e726c6bp-38",
            "9cc1dd4a08989629c706414119a337cd0854374dbcdef31e933d918284c8504b",
            "5cbc898789b4ea1257acca89534a3c7bbb8afdba60fd1c33a9fd90690d68150b",
        ),
        (
            0.6,
            "0x1.e99710d5f325fp-39",
            "bcd3edb3e2d562c8cb023cf054140693880f65de9d1d69f49378b8a046bcffdf",
            "0e1154d774251a85b1a59798fccd7aca931f48ed11b87b9ef85e492ccc49f4e0",
        ),
    ]

    @pytest.mark.parametrize("l, distance, history, u", PINNED)
    def test_short_coast_run_is_pinned_to_the_bit(self, l, distance, history, u):
        sp = ScaledParams(l=l, q=2.0, hbar=1.0)
        run = pde_time_stepper(optimal_policy(sp).policy, dx=l / 8192.0, dt=0.01, t_max=40.0)
        assert run.l2_distance.hex() == distance
        assert hashlib.sha256(np.array(run.history).tobytes()).hexdigest() == history
        assert hashlib.sha256(run.u.tobytes()).hexdigest() == u
        assert run.discrete_distance == 0.0

    def test_settled_run_stops_stepping(self, monkeypatch):
        # 4000 steps are asked for; e is below 2^-55 u_h after a few dozen
        calls = []
        solve = lab.dpttrs

        def counting_solve(d, e, b, overwrite_b=False):
            calls.append(len(b))
            return solve(d, e, b, overwrite_b=overwrite_b)

        monkeypatch.setattr(lab, "dpttrs", counting_solve)
        sp = ScaledParams(l=0.3, q=2.0, hbar=1.0)
        run = pde_time_stepper(optimal_policy(sp).policy, dx=sp.l / 8192.0, dt=0.01, t_max=40.0)
        assert len(calls) < 200
        assert len(run.history) == 65 and run.history[-1][0] == 40.0

    @staticmethod
    def _full_run(policy, dx, dt, t_max):
        """The stepper's own arithmetic with all ceil(t_max/dt) steps taken.

        Returns (u, history, l2_distance, discrete_distance, e, u_h).
        """
        nodes, rate = lab._aligned_grid(policy, [dx] * len(policy.rates))
        u_h, diag, off, lumped, c, mirror = lab._steady_solve(policy, nodes, rate)
        mass = lumped / dt
        step_d, step_e, _ = lab.dpttrf(diag + mass, off)
        u_star = shoot_steady_state(policy).eval_many(nodes[1 + c : -1])[0]
        nsteps = math.ceil(t_max / dt - 1e-12)
        every = max(1, nsteps // 64)
        samples = sorted(set(range(every, nsteps + 1, every)) | {nsteps})
        e, history, step = -u_h, [], 0
        for sample in samples:
            while step < sample:
                step += 1
                np.multiply(mass, e, out=e)
                e, _ = lab.dpttrs(step_d, step_e, e, overwrite_b=True)
            distance = lab._weighted_norm(lumped, mirror, u_h + e - u_star)
            history.append((sample * dt, distance))
        u = u_h + e
        mirrored = u[len(nodes) % 2 :][::-1] if mirror else []
        full_u = np.concatenate([[0.0], mirrored, u, [0.0]])
        discrete = lab._weighted_norm(lumped, mirror, u - u_h)
        return full_u, tuple(history), distance, discrete, e, u_h

    @pytest.mark.parametrize(
        "l, q, hbar, cells, dt",
        [
            # the PINNED runs, then verify's settings
            (0.3, 2.0, 1.0, 8192, 0.01),
            (0.6, 2.0, 1.0, 8192, 0.01),
            (4.0, 2.0, 1.0, 1024, 0.0625),
            (13.72, 2.1, 3.0, 1024, 0.0625),
            (1e4, 50.0, 0.05, 1024, 0.0625),
        ],
    )
    def test_early_stop_keeps_every_bit(self, l, q, hbar, cells, dt):
        pol = optimal_policy(ScaledParams(l=l, q=q, hbar=hbar)).policy
        run = pde_time_stepper(pol, dx=l / cells, dt=dt, t_max=40.0)
        u, history, distance, discrete, _, _ = self._full_run(pol, l / cells, dt, 40.0)
        assert run.u.tobytes() == u.tobytes()
        assert run.history == history
        assert run.l2_distance == distance
        assert run.discrete_distance == discrete

    SETTLE_CASES = [
        (1e4, 50.0, 0.05), (1e4, 2.0, 1.0), (1000.0, 2.0, 1.0), (100.0, 0.5, 1.0), (0.3, 2.0, 1.0)
    ]

    @pytest.mark.parametrize("l, q, hbar", SETTLE_CASES)
    def test_verify_step_settles_by_the_default_run_length(self, l, q, hbar):
        # a step maps |e| <= c u_h to |e'| <= c u_h / (1 + dt), so after
        # 640 steps of 1/16 |e| <= 1.0625^-640 u_h = 2^-55.98 u_h, below the
        # 2^-55 u_h at which u_h + e rounds to u_h; long coasts attain it
        assert 1.0625**-640 <= 2.0**-55
        pol = optimal_policy(ScaledParams(l=l, q=q, hbar=hbar)).policy
        run = pde_time_stepper(pol, dx=l / 1024.0, dt=0.0625, t_max=40.0)
        assert run.discrete_distance == 0.0
        *_, e, u_h = self._full_run(pol, l / 1024.0, 0.0625, 40.0)
        assert np.max(np.abs(e) / u_h) <= 1.0625**-640 * (1.0 + 1e-12)

    def test_run_steps_proves_runs_of_629_sixteenths_or_more_settled(self):
        assert lab.run_steps(0.0625, 628 * 0.0625) == (628, False)
        assert lab.run_steps(0.0625, 629 * 0.0625) == (629, True)
        assert lab.run_steps(0.0625, 40.0) == (640, True)
        assert lab.run_steps(0.5, 5.0) == (10, False)

    @pytest.mark.parametrize("steps", [629, 640, 1600, 960_000])
    @pytest.mark.parametrize("l, q, hbar", SETTLE_CASES)
    def test_runs_proven_settled_end_on_the_grid_steady_state(self, l, q, hbar, steps):
        # verify takes no run where run_steps proves its term 0.0
        t_max = steps * 0.0625
        assert lab.run_steps(0.0625, t_max) == (steps, True)
        pol = optimal_policy(ScaledParams(l=l, q=q, hbar=hbar)).policy
        run = pde_time_stepper(pol, dx=l / 1024.0, dt=0.0625, t_max=t_max)
        assert run.history[-1][0] == t_max
        assert run.discrete_distance == 0.0

    def test_discrete_distance_is_the_gap_to_the_grid_steady_state(self):
        run = pde_time_stepper(self.RESERVE_POLICY, dx=0.125, dt=0.1, t_max=0.5)
        lumped, steady = self._dense_operators(run, self.RESERVE_POLICY)
        want = np.linalg.solve(steady, lumped)
        gap = math.sqrt(np.sum(lumped * (run.u[1:-1] - want) ** 2))
        assert run.discrete_distance == pytest.approx(gap, rel=1e-9)
        assert run.discrete_distance > 1e-3


class _ShiftedProfile:
    """A steady-state profile whose values are all moved by `shift`."""

    def __init__(self, profile, shift):
        self.profile, self.shift = profile, shift

    def eval_many(self, xs):
        u, du = self.profile.eval_many(xs)
        return u + self.shift, du


class TestRichardsonSteadyGap:
    LONG = [(4.0, 2.0, 1.0), (50.0, 2.0, 1.0), (100.0, 0.5, 1.0), (1000.0, 2.0, 1.0)]
    # coasts shorter than 64 layer widths 1/k, solved on the coarser grid;
    # l >= 2 keeps a uniform 1e-6 shift (weighted norm 1e-6 sqrt(l)) above 1e-6
    RESERVE = (3.592490117938411, 3.4929360427252316, 2.1289824318069073)
    SHORT = [(2.0, 2.0, 1.0), RESERVE, (6.856, 0.764, 0.836), (13.72, 2.1, 3.0)]

    @pytest.mark.parametrize("l, q, hbar", LONG + [(0.3, 2.0, 1.0), (28.0, 3.5, 2.5)])
    def test_optimal_policy_is_the_extrapolated_steady_state(self, l, q, hbar):
        sp = ScaledParams(l=l, q=q, hbar=hbar)
        assert richardson_steady_gap(optimal_policy(sp).policy) <= 1e-8

    @pytest.mark.parametrize("l, q, hbar", [(7.0, 1.7, 0.6), RESERVE, (4.0, 2.0, 1.0)])
    def test_short_coasts_read_below_the_fine_grids_rounding(self, l, q, hbar):
        # the l/8192 grid read 2.2e-9, 2.9e-9 and 2.0e-10 here, from rounding:
        # the system's condition number grows as 1/dx^2
        sp = ScaledParams(l=l, q=q, hbar=hbar)
        assert richardson_steady_gap(optimal_policy(sp).policy) <= 1e-10

    def test_asymmetric_policy_on_the_full_grid(self):
        assert richardson_steady_gap(TestPdeTimeStepper.RESERVE_POLICY) <= 1e-10

    def test_extrapolation_beats_the_fine_grid(self):
        # at l = 50 the l/8192 grid alone misses by 2.4e-6
        sp = ScaledParams(l=50.0, q=2.0, hbar=1.0)
        pol = optimal_policy(sp).policy
        plain = pde_time_stepper(pol, dx=sp.l / 8192.0, dt=0.01, t_max=40.0).l2_distance
        assert plain > 1e-6
        assert richardson_steady_gap(pol) <= 1e-3 * plain

    @pytest.mark.parametrize("l, q, hbar", LONG + SHORT)
    def test_a_shifted_target_is_caught(self, monkeypatch, l, q, hbar):
        real = lab.shoot_steady_state
        monkeypatch.setattr(lab, "shoot_steady_state", lambda p: _ShiftedProfile(real(p), 1e-6))
        sp = ScaledParams(l=l, q=q, hbar=hbar)
        assert richardson_steady_gap(optimal_policy(sp).policy) > 1e-6

    @pytest.mark.parametrize(
        "l, q, hbar", [c for c in LONG if c[1] > 1.0] + [RESERVE, (13.72, 2.1, 3.0)]
    )
    def test_a_shifted_reserve_is_caught(self, monkeypatch, l, q, hbar):
        sp = ScaledParams(l=l, q=q, hbar=hbar)
        w = optimal_policy(sp).reserve_halfwidth
        moved = single_reserve_policy(l, -w + 1e-4, w + 1e-4, hbar)
        real = lab.shoot_steady_state
        monkeypatch.setattr(lab, "shoot_steady_state", lambda p: real(moved))
        assert richardson_steady_gap(optimal_policy(sp).policy) > 1e-6

    @pytest.mark.parametrize(
        "l, q, hbar, want",
        [
            # from 64 layer widths 1/k on, the l/8192 grid as it always was
            (50.0, 2.0, 1.0, [50.0 / 8192.0] * 3),
            (1000.0, 2.0, 1.0, [1.0 / 32.0] * 3),
            # a piece of rate h has layers 1/sqrt(1+h) wide, and past h = 15 they
            # cap its spacing at an eighth of that; the reserve keeps l/8192
            (
                200.0, 2.0, 1e3,
                [0.125 / math.sqrt(1001.0), 200.0 / 8192.0, 0.125 / math.sqrt(1001.0)],
            ),
            # shorter coasts: 1/128 of the narrowest layer width 1/k, or l/512 below 4/k
            (4.0, 2.0, 1.0, [1.0 / (128.0 * math.sqrt(2.0))] * 3),
            (2.0, 2.0, 1.0, [2.0 / 512.0]),
        ],
    )
    def test_spacing(self, monkeypatch, l, q, hbar, want):
        grid, seen = lab._aligned_grid, []
        monkeypatch.setattr(lab, "_aligned_grid", lambda p, dxs: seen.append(dxs) or grid(p, dxs))
        richardson_steady_gap(optimal_policy(ScaledParams(l=l, q=q, hbar=hbar)).policy)
        assert seen == [want]

    def test_thin_harvested_pieces_leave_the_reserve_grid_alone(self):
        # the harvested ends are 1e-3 wide here: a spacing of 1/(8k) over the
        # whole coast would put 1.27e6 cells on it, past MAX_CELLS_PER_GRID,
        # where the reserve needs 6.4e4
        pol = optimal_policy(ScaledParams(l=2000.0, q=874.6, hbar=6337.0)).policy
        assert pol.rates == (6337.0, 0.0, 6337.0)
        assert pol.breakpoints[1] - pol.breakpoints[0] < 1.2e-3
        assert richardson_steady_gap(pol) <= 1e-8

    def test_grid_size_is_capped(self):
        # dx = 1/32 would put 3.2e6 cells on l = 1e5; refused before allocating
        with pytest.raises(ParameterError, match="grid too fine"):
            richardson_steady_gap(constant_policy(1e5, 1.0))


class TestStabilityEigenvalues:
    def test_no_harvest_spectrum_is_exact(self):
        # u'' - u on a length-pi interval: top eigenvalue -1 - 1
        sp = ScaledParams(l=math.pi, q=0.5, hbar=1.0)
        top, stable = stability_eigenvalues(constant_policy(sp.l, 0.0), n=512)
        assert top == pytest.approx(-2.0, abs=1e-4)
        assert stable

    def test_optimal_policy_is_uniformly_stable(self):
        pol = optimal_policy(OPTIMAL_SP).policy
        top, stable = stability_eigenvalues(pol, n=512)
        assert stable
        assert top <= -1.0 + 1e-6
        assert top == pytest.approx(-1.6807645765110901, abs=1e-10)

    def test_grid_refinement_is_settled(self):
        pol = optimal_policy(OPTIMAL_SP).policy
        a, _ = stability_eigenvalues(pol, n=256)
        b, _ = stability_eigenvalues(pol, n=512)
        assert abs(a - b) <= 1e-3

    @pytest.mark.parametrize(
        "pol",
        [
            single_reserve_policy(4.0, -1.5, 0.5, 1.0),
            equal_cells(3.0, [0.0, 2.5, 2.5, 0.0, 1.0, 0.0, 2.5]),
        ],
    )
    def test_potential_is_the_per_node_average_rate(self, pol):
        # the spectrum's cells: n = 512 nodes, each cell dx wide
        n = 512
        dx = pol.l / (n + 1)
        xs = -pol.l / 2.0 + dx * np.arange(1, n + 1)
        a, b = xs - dx / 2.0, xs + dx / 2.0
        want = [oracles.average_rate(pol, lo, hi) for lo, hi in zip(a, b)]
        assert lab._average_rates(pol, a, b).tolist() == want

    @staticmethod
    def _full_matrix_top(pol, n):
        # the whole n-point operator, through scipy's validating wrapper
        dx = pol.l / (n + 1)
        xs = -pol.l / 2.0 + dx * np.arange(1, n + 1)
        diag = -2.0 / dx**2 - 1.0 - lab._average_rates(pol, xs - dx / 2.0, xs + dx / 2.0)
        off = np.full(n - 1, 1.0 / dx**2)
        return float(eigvalsh_tridiagonal(diag, off, select="i", select_range=(n - 1, n - 1))[0])

    @staticmethod
    def _bisected_sizes(monkeypatch):
        sizes = []

        def spy(diag, *args):
            sizes.append(diag.size)
            return dstebz(diag, *args)

        monkeypatch.setattr(lab, "dstebz", spy)
        return sizes

    @pytest.mark.parametrize("n", [16, 17, 511, 512])
    @pytest.mark.parametrize(
        "pol",
        [
            optimal_policy(OPTIMAL_SP).policy,
            optimal_policy(ScaledParams(20.0, 3.5, 2.5)).policy,
            optimal_policy(ScaledParams(0.3, 2.0, 1.0)).policy,
            constant_policy(math.pi, 0.0),
            HarvestPolicy([-1.5, -0.7, -0.2, 0.2, 0.7, 1.5], [1.0, 0.0, 2.5, 0.0, 1.0]),
        ],
    )
    def test_symmetric_policies_fold_onto_the_half_grid(self, monkeypatch, pol, n):
        # the top eigenvector is mirror-symmetric, so ceil(n/2) unknowns
        # keep the top eigenvalue, within the bisection's eps*|T|
        sizes = self._bisected_sizes(monkeypatch)
        top, _ = stability_eigenvalues(pol, n)
        assert sizes == [(n + 1) // 2]
        assert top == pytest.approx(self._full_matrix_top(pol, n), rel=1e-11, abs=0.0)

    @pytest.mark.parametrize("n", [16, 17, 511, 512])
    def test_an_off_centre_reserve_keeps_the_full_matrix(self, monkeypatch, n):
        pol = single_reserve_policy(4.0, -1.5, 0.5, 1.0)
        sizes = self._bisected_sizes(monkeypatch)
        top, _ = stability_eigenvalues(pol, n)
        assert sizes == [n]
        assert top == self._full_matrix_top(pol, n)

    def test_a_failed_bisection_is_a_parameter_error(self, monkeypatch):
        monkeypatch.setattr(lab, "dstebz", lambda *args: (*dstebz(*args)[:4], 3))
        with pytest.raises(ParameterError, match=r"bisection failed .* \(info = 3\)"):
            stability_eigenvalues(optimal_policy(OPTIMAL_SP).policy, n=512)

    def test_validation(self):
        with pytest.raises(ParameterError):
            stability_eigenvalues(constant_policy(2.0, 1.0), n=15)

    @pytest.mark.parametrize("n", [512.0, True])
    def test_point_count_must_be_an_int(self, n):
        # 512.0 failed inside numpy with a TypeError
        with pytest.raises(ParameterError, match="^n must be an int"):
            stability_eigenvalues(constant_policy(2.0, 1.0), n=n)

    @pytest.mark.parametrize("l", [1e-74, 9e-75])
    def test_very_short_coasts_keep_the_discrete_spectrum(self, l):
        # a constant rate h: the top eigenvalue is -(2 sin(pi/(2(n+1)))/dx)^2 - 1 - h
        n = 512
        want = -((2.0 * math.sin(math.pi / (2 * (n + 1))) / (l / (n + 1))) ** 2) - 2.0
        top, stable = stability_eigenvalues(constant_policy(l, 1.0), n)
        assert top == pytest.approx(want, rel=1e-10)
        assert stable

    @pytest.mark.parametrize("l", [5e-75, 1e-100, 1e-155, 1e-200, 1e-300, 1e-320])
    def test_entries_too_large_to_square_are_a_parameter_error(self, l):
        # LAPACK's bisection squares the entries, up to 4/dx^2: at l = 5e-75
        # it returned a diagonal entry, 5e4 times the top eigenvalue; below
        # that it did not converge, and once dx^2 underflowed it divided by 0
        with pytest.raises(ParameterError, match="too large for LAPACK's bisection to square"):
            stability_eigenvalues(constant_policy(l, 1.0), n=512)
