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
from typing import NamedTuple, Optional

from ._specfun import bisect_root
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


class SolutionDiagnostics(NamedTuple):
    boundary_residual: float
    transversality_residual: float
    hamiltonian_deviation: float
    switching_violation: float


class OptimalSolution(NamedTuple):
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
        k, off, u0, u1, x0, x1 = seg
        sign = 1.0 if policy.rate_at(0.5 * (x0 + x1)) > 0.0 else -1.0
        lam2 = [u0, u1]
        d0, d1 = u0 - off, u1 - off
        e = math.exp(-k * (x1 - x0))
        a, b = d0 - d1 * e, d1 - d0 * e
        if a * b > 0.0:
            x = 0.5 * (x0 + x1 + math.log(a / b) / k)
            if x0 < x < x1:
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
    l, q, hbar = sp
    lam_bar: Optional[float] = None
    ts: Optional[float] = None
    lmin: Optional[float] = None
    halfwidth = 0.0
    pol = constant_policy(l, hbar)
    if q > 1.0:
        dc = derive_constants(sp)
        lmin = dc.l_min
        if l > lmin:
            halfwidth, lam_bar, ts = solve_halfwidth(dc, l)
            pol = single_reserve_policy(l, -halfwidth, halfwidth, hbar)
        else:
            lam_bar = solve_lambda_bar(dc, l)
    j, diag = _diagnose(pol, q)
    # the integral of (q + h) u, before its division by l, overflows when
    # q * l is above about 1e308
    if not math.isfinite(j):
        raise ParameterError(
            f"the objective overflows at (l, q, hbar) = ({l!r}, {q!r}, {hbar!r})"
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
    D, mu, Hbar, Q = p.D, p.mu, p.Hbar, p.Q
    if not Q > mu:
        raise ParameterError(f"threshold length requires Q > mu, got Q={Q!r}, mu={mu!r}")
    s = math.sqrt((Hbar + mu) * (Hbar + 2.0 * Q - mu))
    if not math.isfinite(s):
        raise ParameterError(
            f"the threshold length overflows at (mu, Hbar, Q) = ({mu!r}, {Hbar!r}, {Q!r})"
        )
    return 2.0 * math.sqrt(D / (Hbar + mu)) * math.log1p((Hbar + mu + s) / (Q - mu))


def unscaled_reserve_boundary(p: UnscaledParams) -> Optional[float]:
    """Reserve half-width B in physical units, or None when no reserve is optimal.

    B inverts the half-length function F, the distance from the coast end
    to the reserve edge, at L/2.  At lam = hypot(lo, w), w = tanh(B/s2)/c,
    the arctanh term of F is B itself, so B solves s1*term + B = L/2:
    increasing and finite on [0, L/2], and bisected there.
    """
    if not p.Q > p.mu:
        return None
    if p.L <= unscaled_min_length(p):
        return None
    # the fields are read once: the residual runs about 55 times per root
    D, mu, Hbar, Q, half = p.D, p.mu, p.Hbar, p.Q, p.L / 2.0
    # the lowest admissible lam, where F is half the threshold length
    lo = math.sqrt((Hbar + 2.0 * Q - mu) * (Hbar + mu)) / (Hbar + Q)
    r = (Q - mu) / (Q + Hbar)
    s1 = math.sqrt(D / (Hbar + mu))
    s2 = math.sqrt(D / mu)
    c = ((Hbar + Q) / (Q - mu)) * math.sqrt(mu / (Hbar + mu))

    def residual(b: float) -> float:
        w = math.tanh(b / s2) / c
        # F's arccosh (lam < 1), log (lam = 1) and arcsinh branches merged
        # into log((1 + lam)/(r + w)) by 1 - r^2 = lo^2: the branches cancel
        # as Q -> mu, where lo rounds toward 1, and the merged form does not
        return s1 * math.log((1.0 + math.hypot(lo, w)) / (r + w)) - (half - b)

    return bisect_root(residual, 0.0, half)
