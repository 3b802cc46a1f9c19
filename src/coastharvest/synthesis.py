"""Optimal-policy construction, in scaled and physical parameterizations.

The scaled pipeline is the authority: decide the regime from (l, q,
hbar), place the reserve via the switching analysis, and attach solver
diagnostics.  The physical-parameter formulas (threshold length, reserve
boundary via inversion of the half-length function) are implemented
separately, as transcriptions in the original units, so the two routes
can be compared against each other rather than sharing code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._specfun import arccoth, arctanh, bisect_root
from .analytic import SegmentSolution
from .bvp import (
    AdjointProfile,
    _eval_segments,
    evaluate_objective,
    hamiltonian_diagnostic,
    shoot_steady_state,
    solve_adjoint,
)
from .params import ParameterError, ScaledParams, UnscaledParams
from .policy import HarvestPolicy, constant_policy, single_reserve_policy
from .switching import derive_constants, solve_lambda_bar, switch_time

# |lambda - 1| below this routes to the logarithm branch of the
# physical-unit formulas, where the outer two branches cancel badly
_MID_BRANCH_TOL = 1e-12


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


def _switching_violation(
    adjoint: AdjointProfile, policy: HarvestPolicy, l: float
) -> float:
    """Worst sign violation of the bang-bang law over the adjoint samples."""
    xs = adjoint.samples[:, 0]
    lam2 = adjoint.samples[:, 2]
    bp = np.array(policy.breakpoints[1:-1])
    idx = np.searchsorted(bp, xs, side="right")
    rates = np.array(policy.rates)[idx]
    line = -1.0 / l
    viol = np.where(rates > 0.0, line - lam2, lam2 - line)
    return float(max(np.max(viol), 0.0))


def _diagnose(policy: HarvestPolicy, q: float) -> tuple[float, SolutionDiagnostics]:
    state = shoot_steady_state(policy)
    adjoint = solve_adjoint(policy, q)
    j = evaluate_objective(policy, state, q)
    l = policy.l
    u_ends = [abs(state.value(x)[0]) for x in (-l / 2.0, l / 2.0)]
    lam2_ends = [abs(adjoint.lambda_at(x)[1]) for x in (-l / 2.0, l / 2.0)]
    diag = SolutionDiagnostics(
        boundary_residual=max(*u_ends, state.match_residual),
        transversality_residual=max(*lam2_ends, adjoint.match_residual),
        hamiltonian_deviation=hamiltonian_diagnostic(state, adjoint, policy, q),
        switching_violation=_switching_violation(adjoint, policy, l),
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
        lam_bar = solve_lambda_bar(dc, sp.l)
        if sp.l > lmin:
            ts = switch_time(lam_bar, dc)
            halfwidth = sp.l / 2.0 - ts
            pol = single_reserve_policy(sp.l, -halfwidth, halfwidth, sp.hbar)
    j, diag = _diagnose(pol, sp.q)
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
    """Threshold coastline length in physical units; requires Q > mu."""
    if not p.Q > p.mu:
        raise ParameterError(f"threshold length requires Q > mu, got Q={p.Q!r}, mu={p.mu!r}")
    arg = math.sqrt((p.Hbar + p.mu) * (p.Hbar + 2.0 * p.Q - p.mu)) / (p.Hbar + p.Q)
    return 2.0 * math.sqrt(p.D / (p.Hbar + p.mu)) * arctanh(arg)


def half_length_domain(p: UnscaledParams) -> tuple[float, float]:
    """Admissible interval [lo, hi) for the half-length function argument."""
    if not p.Q > p.mu:
        raise ParameterError(f"half-length function requires Q > mu, got Q={p.Q!r}")
    lo = math.sqrt((p.Hbar + 2.0 * p.Q - p.mu) * (p.Hbar + p.mu)) / (p.Hbar + p.Q)
    hi = math.sqrt((p.Hbar + p.Q * p.Q / p.mu) * (p.Hbar + p.mu)) / (p.Hbar + p.Q)
    return lo, hi


def _coast_distance_term(lam: float, lo: float, r: float) -> float:
    """The branched inverse-hyperbolic part shared by F and the boundary formula.

    The lam < 1 branch hides an identity: the arccosh argument squared
    minus one equals (lam^2 - lo^2)/(1 - lam^2), and 1 - r^2 = lo^2.
    Factoring the difference of squares keeps the term exact at the
    domain edge, where the naive argument rounds away from 1.
    """
    if abs(lam - 1.0) <= _MID_BRANCH_TOL:
        return -math.log(r)
    diff = (lam - lo) * (lam + lo)
    if lam < 1.0:
        om = (1.0 - lam) * (1.0 + lam)
        z = r / math.sqrt(om)
        t = math.sqrt(max(diff, 0.0) / om)
        return arctanh(lam) - math.log(z + t)
    return arccoth(lam) - math.asinh(r / math.sqrt((lam - 1.0) * (lam + 1.0)))


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
    inner = ((p.Hbar + p.Q) / (p.Q - p.mu)) * math.sqrt(p.mu / (p.Hbar + p.mu)) * math.sqrt(
        max((lam - lo) * (lam + lo), 0.0)
    )
    return s1 * _coast_distance_term(lam, lo, r) + s2 * arctanh(inner)


def unscaled_reserve_boundary(p: UnscaledParams) -> Optional[float]:
    """Reserve half-width in physical units, or None when no reserve is optimal.

    Inverts the half-length function at L/2 by bisection (it is
    monotone), then applies the boundary formula at the root.
    """
    if not p.Q > p.mu:
        return None
    if p.L <= unscaled_min_length(p):
        return None
    lo, hi = half_length_domain(p)
    pad = 1e-14 * (hi - lo)
    # the domain is open at hi, and on a narrow domain hi - pad rounds to hi
    top = min(hi - pad, math.nextafter(hi, lo))
    lam = bisect_root(lambda s: half_length_function(s, p) - p.L / 2.0, lo + pad, top)
    r = (p.Q - p.mu) / (p.Q + p.Hbar)
    s1 = math.sqrt(p.D / (p.Hbar + p.mu))
    return p.L / 2.0 - s1 * _coast_distance_term(lam, lo, r)


# ---------------------------------------------------------------------------
# symmetry extension and the zero-flux variant


def extend_by_symmetry(half: AdjointProfile) -> AdjointProfile:
    """Reflect an adjoint profile on [-l/2, 0] to the full interval.

    The reflection (lambda1, lambda2) -> (-lambda1, lambda2) maps
    solutions to solutions, so a half profile with lambda1(0) = 0
    extends to one satisfying both transversality conditions.  Inputs
    with |lambda1(0)| > 1e-8 are rejected.
    """
    end = half.segments[-1].x1
    if abs(end) > 1e-9:
        raise ParameterError(f"profile must end at 0 to be extended, ends at {end!r}")
    lam1_mid = half.lambda_at(end)[0]
    if abs(lam1_mid) > 1e-8:
        raise ParameterError(
            f"profile is not symmetric-extensible: lambda1(0)={lam1_mid!r}"
        )
    mirrored = []
    for s in reversed(half.segments):
        # u(-x) keeps the cosh coefficient and flips the sinh one, about
        # the mirrored anchor; no re-anchoring, so no amplification
        mirrored.append(
            SegmentSolution(
                k=s.k,
                offset=s.offset,
                A=s.A,
                B=-s.B,
                x0=-s.x1,
                x1=-s.x0,
                anchor=-s.anchor,
            )
        )
    segments = tuple(half.segments) + tuple(mirrored)
    n = max(2 * len(half.samples) - 1, 3)
    xs = np.linspace(segments[0].x0, segments[-1].x1, n)
    lam2, d = _eval_segments(segments, xs)
    return AdjointProfile(
        segments=segments,
        samples=np.column_stack([xs, -d, lam2]),
        lambda0=half.lambda0,
        match_residual=abs(lam1_mid),
    )


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
