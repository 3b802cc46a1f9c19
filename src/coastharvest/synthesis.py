"""Optimal-policy construction, in scaled and physical parameterizations.

The scaled pipeline is the authority: decide the regime from (l, q,
hbar), place the reserve via the switching analysis, and attach solver
diagnostics, read exactly off the state and adjoint profiles.  The
physical-parameter formulas (threshold length, reserve boundary as the
root of the half-length equation) are implemented separately, as
transcriptions in the original units, so the two routes can be compared
against each other rather than sharing code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from ._specfun import arctanh, bisect_root
from .bvp import (
    Profile,
    evaluate_objective,
    hamiltonian_diagnostic,
    shoot_steady_state,
    solve_adjoint,
)
from .params import ParameterError, ScaledParams, UnscaledParams
from .policy import HarvestPolicy, constant_policy, single_reserve_policy
from .switching import derive_constants, solve_halfwidth, solve_lambda_bar


class IndeterminateError(ValueError):
    """Raised when the model genuinely does not single out a policy."""


@dataclass(frozen=True)
class SolutionDiagnostics:
    boundary_residual: float
    transversality_residual: float
    hamiltonian_deviation: float
    switching_violation: float


@dataclass(frozen=True)
class OptimalSolution:
    policy: HarvestPolicy
    reserve_halfwidth: float
    objective_j: float
    lambda_bar: Optional[float]
    Ts: Optional[float]
    lmin: Optional[float]
    diagnostics: SolutionDiagnostics


def _switching_violation(adjoint: Profile, policy: HarvestPolicy) -> float:
    """Worst sign violation of the bang-bang law, lambda2 above -1/l exactly where h > 0.

    On a piece, lambda2 - off is proportional to A*e^(-k(x-x0)) +
    B*e^(-k(x1-x)), with A = d0 - d1*e^(-kw) and B = d1 - d0*e^(-kw) for
    the edge values d0, d1 of lambda2 - off and the width w.  It has an
    interior extremum only when A*B > 0, at x = (x0 + x1 + ln(A/B)/k)/2,
    so the worst value on a piece is at one of its ends or there.
    """
    line = -1.0 / policy.l
    worst = 0.0
    for seg in adjoint.segments:
        sign = 1.0 if policy.rate_at(0.5 * (seg.x0 + seg.x1)) > 0.0 else -1.0
        lam2 = [seg.u0, seg.u1]
        d0, d1 = seg.u0 - seg.offset, seg.u1 - seg.offset
        e = math.exp(-seg.k * (seg.x1 - seg.x0))
        a, b = d0 - d1 * e, d1 - d0 * e
        if a * b > 0.0:
            x = 0.5 * (seg.x0 + seg.x1 + math.log(a / b) / seg.k)
            if seg.x0 < x < seg.x1:
                lam2.append(seg.value(x))
        worst = max(worst, *(sign * (line - v) for v in lam2))
    return worst


def _diagnose(policy: HarvestPolicy, q: float) -> tuple[float, SolutionDiagnostics]:
    state = shoot_steady_state(policy)
    adjoint = solve_adjoint(policy, q)
    j = evaluate_objective(policy, state, q)
    u, lam2 = state.segments, adjoint.segments
    diag = SolutionDiagnostics(
        boundary_residual=max(abs(u[0].u0), abs(u[-1].u1), state.match_residual),
        transversality_residual=max(abs(lam2[0].u0), abs(lam2[-1].u1), adjoint.match_residual),
        hamiltonian_deviation=hamiltonian_diagnostic(state, adjoint, policy, q),
        switching_violation=_switching_violation(adjoint, policy),
    )
    return j, diag


def optimal_policy(sp: ScaledParams) -> OptimalSolution:
    """The provably optimal policy: constant harvest, or one centered reserve.

    For q <= 1, and for short coastlines when q > 1, harvesting at the
    cap everywhere wins.  Beyond the threshold length the unique optimum
    places a single centered no-take zone whose edges sit where the
    transversality-consistent adjoint crosses the switching line.
    """
    lam_bar: Optional[float] = None
    ts: Optional[float] = None
    lmin: Optional[float] = None
    halfwidth = 0.0
    pol = constant_policy(sp.l, sp.hbar)
    if sp.q > 1.0:
        dc = derive_constants(sp)
        lmin = dc.l_min
        if sp.l > lmin:
            halfwidth, lam_bar = solve_halfwidth(dc, sp.l)
            ts = sp.l / 2.0 - halfwidth
            pol = single_reserve_policy(sp.l, -halfwidth, halfwidth, sp.hbar)
        else:
            lam_bar = solve_lambda_bar(dc, sp.l)
    j, diag = _diagnose(pol, sp.q)
    # the integral of (q + h) u, before its division by l, overflows when
    # q * l is above about 1e308
    if not math.isfinite(j):
        raise ParameterError(
            f"the objective overflows at (l, q, hbar) = ({sp.l!r}, {sp.q!r}, {sp.hbar!r})"
        )
    return OptimalSolution(
        policy=pol,
        reserve_halfwidth=halfwidth,
        objective_j=j,
        lambda_bar=lam_bar,
        Ts=ts,
        lmin=lmin,
        diagnostics=diag,
    )


# ---------------------------------------------------------------------------
# physical-unit transcriptions


def unscaled_min_length(p: UnscaledParams) -> float:
    """Threshold coastline length in physical units; requires Q > mu.

    The log1p form of switching.min_length in the original units:
    2*sqrt(D/(Hbar+mu)) * log1p((Hbar+mu+s)/(Q-mu)) with
    s = sqrt((Hbar+mu)(Hbar+2Q-mu)), exact as Q -> mu.
    """
    if not p.Q > p.mu:
        raise ParameterError(f"threshold length requires Q > mu, got Q={p.Q!r}, mu={p.mu!r}")
    s = math.sqrt((p.Hbar + p.mu) * (p.Hbar + 2.0 * p.Q - p.mu))
    if not math.isfinite(s):
        raise ParameterError(
            f"the threshold length overflows at (mu, Hbar, Q) = ({p.mu!r}, {p.Hbar!r}, {p.Q!r})"
        )
    return 2.0 * math.sqrt(p.D / (p.Hbar + p.mu)) * math.log1p((p.Hbar + p.mu + s) / (p.Q - p.mu))


def half_length_domain(p: UnscaledParams) -> tuple[float, float]:
    """Admissible interval [lo, hi) for the half-length function argument."""
    if not p.Q > p.mu:
        raise ParameterError(f"half-length function requires Q > mu, got Q={p.Q!r}")
    lo = math.sqrt((p.Hbar + 2.0 * p.Q - p.mu) * (p.Hbar + p.mu)) / (p.Hbar + p.Q)
    hi = math.sqrt((p.Hbar + p.Q * p.Q / p.mu) * (p.Hbar + p.mu)) / (p.Hbar + p.Q)
    return lo, hi


def _coast_distance_term(lam: float, w: float, r: float) -> float:
    """The inverse-hyperbolic part of F, with w = sqrt(lam^2 - lo^2).

    Its three textbook branches (arccosh below lam = 1, a bare logarithm
    at 1, arcsinh above) are one expression, log((1 + lam)/(r + w)), via
    the identity 1 - r^2 = lo^2.  The branches cancel badly as Q -> mu,
    where lo rounds toward 1; the merged form has no cancellation.
    """
    return math.log((1.0 + lam) / (r + w))


def half_length_function(lam: float, p: UnscaledParams) -> float:
    """Distance from the coast end to the reserve edge, parameterized by lam.

    Strictly increasing on its domain; inverting it at L/2 yields the
    reserve geometry directly in physical units.
    """
    lo, hi = half_length_domain(p)
    if not lo <= lam < hi:
        raise ParameterError(f"lam={lam!r} outside the admissible range [{lo!r}, {hi!r})")
    r = (p.Q - p.mu) / (p.Q + p.Hbar)
    s1 = math.sqrt(p.D / (p.Hbar + p.mu))
    s2 = math.sqrt(p.D / p.mu)
    c = ((p.Hbar + p.Q) / (p.Q - p.mu)) * math.sqrt(p.mu / (p.Hbar + p.mu))
    w = math.sqrt((lam - lo) * (lam + lo))
    return s1 * _coast_distance_term(lam, w, r) + s2 * arctanh(c * w)


def unscaled_reserve_boundary(p: UnscaledParams) -> Optional[float]:
    """Reserve half-width B in physical units, or None when no reserve is optimal.

    At lam = hypot(lo, w), w = tanh(B/s2)/c, the arctanh term of the
    half-length function is B itself, so B solves s1*term + B = L/2 with
    w passed as built: increasing and finite on [0, L/2], and bisected
    there.
    """
    if not p.Q > p.mu:
        return None
    if p.L <= unscaled_min_length(p):
        return None
    lo = half_length_domain(p)[0]
    r = (p.Q - p.mu) / (p.Q + p.Hbar)
    s1 = math.sqrt(p.D / (p.Hbar + p.mu))
    s2 = math.sqrt(p.D / p.mu)
    c = ((p.Hbar + p.Q) / (p.Q - p.mu)) * math.sqrt(p.mu / (p.Hbar + p.mu))

    def residual(b: float) -> float:
        w = math.tanh(b / s2) / c
        return s1 * _coast_distance_term(math.hypot(lo, w), w, r) - (p.L / 2.0 - b)

    return bisect_root(residual, 0.0, p.L / 2.0)


# ---------------------------------------------------------------------------
# the zero-flux variant


def neumann_objective(hhat: float, q: float) -> float:
    """Objective of a constant policy under zero-flux boundaries.

    With no boundary loss the steady state is flat, u = 1/(1+h), giving
    j = (q+h)/(1+h): increasing in h exactly when q < 1.
    """
    if hhat < 0.0:
        raise ParameterError(f"harvest rate must be nonnegative, got {hhat!r}")
    return (q + hhat) / (1.0 + hhat)


def neumann_variant_policy(sp: ScaledParams) -> HarvestPolicy:
    """Optimal constant policy when both boundaries are zero-flux."""
    if sp.q == 1.0:
        raise IndeterminateError(
            "q = 1 makes the zero-flux objective independent of the harvest rate"
        )
    if sp.q < 1.0:
        return constant_policy(sp.l, sp.hbar)
    return constant_policy(sp.l, 0.0)
