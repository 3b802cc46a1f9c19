"""Acceptance gate: the nine headline guarantees, one test each.

Every test prints a single PASS/FAIL line with the measured number and
its tolerance; run with `pytest tests/test_acceptance.py -s` to see the
lines for passing tests too.  Tolerances and runtime budgets are fixed
here on purpose; loosening them is not an option this file offers.
"""

import math
import time

import numpy as np
import pytest

import oracles
from coastharvest import (
    ScaledParams,
    UnscaledParams,
    brute_force_bangbang,
    derive_constants,
    hitting_time,
    integrate_adjoint_with_events,
    min_length,
    optimal_policy,
    pde_time_stepper,
    reserve_sweep,
    shoot_steady_state,
    stability_eigenvalues,
    to_scaled,
    unscaled_reserve_boundary,
)
from coastharvest.policy import constant_policy

TRIPLES = [
    ScaledParams(l=l, q=q, hbar=hbar)
    for q in (1.5, 2.0, 5.0)
    for hbar in (0.5, 1.0, 4.0)
    for l in (2.0, 4.0, 10.0)
]


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_hitting_time_matches_event_integration():
    """Closed-form axis-hitting time vs direct hybrid integration."""
    start = time.perf_counter()
    worst = 0.0
    for sp in TRIPLES:
        dc = derive_constants(sp)
        starts = [dc.lam_starstar * i / 201.0 for i in range(1, 201)]
        for lam0, (measured, _) in zip(starts, integrate_adjoint_with_events(starts, sp)):
            closed = hitting_time(lam0, dc)
            worst = max(worst, abs(measured - closed))
    elapsed = time.perf_counter() - start
    report(
        1,
        worst <= 1e-8 and elapsed <= 30.0,
        f"max gap {worst:.2e} <= 1e-8 over 27x200 samples, {elapsed:.1f}s <= 30s",
    )


def test_criterion_2_threshold_length_matches_grazing_search():
    """Closed-form minimum length vs an integration-only threshold search.

    The oracle knows nothing of the closed form: it solves for the
    launch level of a grazing orbit and for the domain length of the
    turn-at-midpoint condition, using only the adjoint vector field.
    """
    start = time.perf_counter()
    closed = min_length(ScaledParams(l=1.0, q=2.0, hbar=1.0))
    searched = oracles.threshold_length(2.0, 1.0)
    elapsed = time.perf_counter() - start
    gap = abs(closed - searched)
    report(
        2,
        gap <= 1e-6 and elapsed <= 5.0,
        f"|l_min gap| {gap:.2e} <= 1e-6 (closed {closed:.10f}), {elapsed:.1f}s <= 5s",
    )


def test_criterion_3_tangency_identity_and_branch_continuity():
    """The witness vanishes at tangency and the hitting time has no jumps.

    The witness has a square-root branch at tangency, so at a float level
    it reads that level's rounding amplified to 1e-10..4e-7; it is read
    at the exact level, which the package's tangency level must round to.
    """
    worst_f = worst_level = worst_jump = 0.0
    for sp in TRIPLES:
        dc = derive_constants(sp)
        lam_star = oracles.constants(*sp)["lam_star"]
        worst_f = max(worst_f, abs(oracles.monotone_witness(lam_star, *sp)))
        worst_level = max(worst_level, abs(float(dc.lam_star / lam_star - 1)))
        for level in (dc.lam_star, dc.i1):
            below = hitting_time(level - 1e-12, dc)
            above = hitting_time(level + 1e-12, dc)
            worst_jump = max(worst_jump, abs(above - below))
    report(
        3,
        worst_f <= 1e-12 and worst_level <= 1e-15 and worst_jump <= 1e-9,
        f"max |f(tangency)| {float(worst_f):.2e} <= 1e-12, tangency level off by "
        f"{worst_level:.2e} <= 1e-15 relative, max branch jump {worst_jump:.2e} <= 1e-9",
    )


@pytest.mark.parametrize(
    "sp",
    [ScaledParams(l=2.0, q=0.5, hbar=1.0), ScaledParams(l=8.0, q=1.0, hbar=1.0)],
    ids=["l2_q05", "l8_q1"],
)
def test_criterion_4_exhaustive_search_confirms_full_harvest(sp):
    """For q <= 1 every one of the 4096 cell policies loses to the cap."""
    start = time.perf_counter()
    res = brute_force_bangbang(sp, cells=12)
    elapsed = time.perf_counter() - start
    gap = optimal_policy(sp).objective_j - res.best_objective
    ok = res.describe(res.best)["mask"] == "1" * 12 and abs(gap) <= 1e-9
    report(
        4,
        ok and elapsed <= 60.0,
        f"l={sp.l}, q={sp.q}: winner {res.describe(res.best)['mask']}, "
        f"|gap| {abs(gap):.2e} <= 1e-9, {elapsed:.1f}s <= 60s",
    )


def test_criterion_5_reserve_policy_dominates_both_searches():
    """The analytic reserve beats 2^12 cell policies and the block sweep agrees."""
    start = time.perf_counter()
    sp = ScaledParams(l=4.0, q=2.0, hbar=1.0)
    res = brute_force_bangbang(sp, cells=12)
    sweep = reserve_sweep(sp, centers=21, widths=41)
    elapsed = time.perf_counter() - start
    want_width = 2.0 * (sp.l / 2.0 - optimal_policy(sp).Ts)
    width_err = abs(sweep.describe(sweep.best)["width"] - want_width)
    gap = optimal_policy(sp).objective_j - res.best_objective
    ok = (
        gap >= -1e-9
        and sweep.describe(sweep.best)["center"] == 0.0
        and width_err <= sp.l / 40.0
    )
    report(
        5,
        ok and elapsed <= 90.0,
        f"brute gap {gap:.2e} >= -1e-9, sweep center {sweep.describe(sweep.best)['center']}, "
        f"width err {width_err:.3f} <= {sp.l / 40.0}, {elapsed:.1f}s <= 90s",
    )


@pytest.mark.parametrize(
    "sp",
    [ScaledParams(l=2.0, q=0.5, hbar=1.0), ScaledParams(l=8.0, q=1.0, hbar=1.0)],
    ids=["l2_q05", "l8_q1"],
)
def test_criterion_4_holds_at_sixteen_cells(sp):
    """The largest exhaustive search, 2^16 cell policies, still picks the cap."""
    res = brute_force_bangbang(sp, cells=16)
    gap = optimal_policy(sp).objective_j - res.best_objective
    report(
        4,
        res.describe(res.best)["mask"] == "1" * 16 and abs(gap) <= 1e-9,
        f"l={sp.l}, q={sp.q}, 16 cells: winner {res.describe(res.best)['mask']}, "
        f"|gap| {abs(gap):.2e} <= 1e-9",
    )


def test_criterion_5_holds_at_sixteen_cells():
    """The analytic reserve beats all 2^16 cell policies."""
    sp = ScaledParams(l=4.0, q=2.0, hbar=1.0)
    gap = optimal_policy(sp).objective_j - brute_force_bangbang(sp, cells=16).best_objective
    report(5, gap >= -1e-9, f"16 cells: brute gap {gap:.2e} >= -1e-9")


def test_criterion_6_pontryagin_residuals():
    """Transversality, switching signs, and Hamiltonian constancy, both regimes."""
    worst_t = worst_s = worst_h = 0.0
    for sp in (ScaledParams(l=2.0, q=0.5, hbar=1.0), ScaledParams(l=4.0, q=2.0, hbar=1.0)):
        d = optimal_policy(sp).diagnostics
        worst_t = max(worst_t, d.transversality_residual)
        worst_s = max(worst_s, d.switching_violation)
        worst_h = max(worst_h, d.hamiltonian_deviation)
    report(
        6,
        worst_t <= 1e-8 and worst_s <= 1e-10 and worst_h <= 1e-8,
        f"transversality {worst_t:.2e} <= 1e-8, sign violation {worst_s:.2e} <= 1e-10, "
        f"Hamiltonian deviation {worst_h:.2e} <= 1e-8",
    )


def test_criterion_7_constant_control_closed_form_vs_shooting():
    """The hyperbolic steady-state formula agrees with the generic solver."""
    worst = 0.0
    for hhat in (0.0, 0.5, 1.0):
        for l in (0.5, 2.0, 8.0):
            profile = shoot_steady_state(constant_policy(l, hhat))
            xs = np.linspace(-l / 2.0, l / 2.0, 1001)
            closed = np.array([float(oracles.witness_u(x, hhat, l)) for x in xs])
            shot = profile.eval_many(xs)[0]
            worst = max(worst, float(np.max(np.abs(closed - shot))))
    report(7, worst <= 1e-10, f"max |du| {worst:.2e} <= 1e-10 over 9 cases")


def test_criterion_8_linear_stability_and_parabolic_convergence():
    """Every optimal policy is spectrally stable and attracts the zero state."""
    worst_top = -math.inf
    for sp in TRIPLES:
        pol = optimal_policy(sp).policy
        top, negative = stability_eigenvalues(pol, n=512)
        worst_top = max(worst_top, top)
        assert negative
    worst_l2 = 0.0
    for sp in (ScaledParams(l=2.0, q=0.5, hbar=1.0), ScaledParams(l=4.0, q=2.0, hbar=1.0)):
        pol = optimal_policy(sp).policy
        run = pde_time_stepper(pol, dx=sp.l / 8192.0, dt=0.01, t_max=40.0)
        worst_l2 = max(worst_l2, run.l2_distance)
    report(
        8,
        worst_top <= -1.0 + 1e-6 and worst_l2 <= 1e-6,
        f"max eigenvalue {worst_top:.4f} <= -1+1e-6 over 27 policies, "
        f"max final L2 {worst_l2:.2e} <= 1e-6",
    )


def test_criterion_9_physical_units_and_zero_flux_variant():
    """Both unit systems place the reserve identically; the flat variant flips at q=1."""
    worst_rel = 0.0
    for D in (0.5, 1.0, 2.0):
        for Q in (1.5, 2.0, 3.0):
            for L in (5.0, 8.0, 12.0):
                p = UnscaledParams(D=D, R=1.0, mu=1.0, Hbar=1.0, Q=Q, L=L)
                sp = to_scaled(p)
                expected = math.sqrt(D / p.mu) * (sp.l / 2.0 - optimal_policy(sp).Ts)
                got = unscaled_reserve_boundary(p)
                worst_rel = max(worst_rel, abs(got - expected) / expected)
    # with zero-flux ends the state is flat, 1/(1+h), and j = (q+h)/(1+h):
    # harvesting at the cap beats closing the coast below q = 1, loses
    # above it, and ties at it
    below, at, above = (
        oracles.neumann_objective(1.0, q) - oracles.neumann_objective(0.0, q)
        for q in (1.0 - 1e-9, 1.0, 1.0 + 1e-9)
    )
    flips = below > 0 and at == 0 and above < 0
    report(
        9,
        worst_rel <= 1e-8 and flips,
        f"max relative boundary gap {worst_rel:.2e} <= 1e-8 over 27 unit sets, "
        f"zero-flux winner flips at q=1: {flips}",
    )
