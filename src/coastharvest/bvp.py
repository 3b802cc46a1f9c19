"""Steady-state and adjoint solvers for piecewise-constant harvest rates.

Within a segment both problems reduce to w'' = k^2 (w - off) with
k = sqrt(1+h), so a segment's solution is fixed exactly by its two edge
values and no step-size error enters anywhere.  One two-point solve
serves the state and the adjoint, and both come back as one `Profile`:
the values at the interior edges are the unknowns, fixed by flux
continuity, and a Dirichlet-to-Neumann sweep from each zero end
eliminates them with positive terms only, so nothing is amplified on
long coasts or cancels on thin segments.

The Hamiltonian check is exact as well: it reads each piece at its two
ends.  Only Profile.eval_many uses numpy, which it imports on first
use, so solving and checking a policy load no numpy.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

from .analytic import SegmentSolution, edge_profile
from .params import ParameterError
from .policy import HarvestPolicy

if TYPE_CHECKING:
    import numpy as np


class Profile(NamedTuple):
    """Exact solution w of a two-point problem, as segments: the state u or the adjoint lambda2.

    For the adjoint, lambda1 = -lambda2'.
    """

    segments: tuple[SegmentSolution, ...]

    @property
    def match_residual(self) -> float:
        """Largest jump of w' across the interior edges, computed on each read."""
        return max(
            (abs(a.deriv(a.x1) - b.deriv(b.x0)) for a, b in zip(self.segments, self.segments[1:])),
            default=0.0,
        )

    def eval_many(self, xs) -> tuple[np.ndarray, np.ndarray]:
        """(w, w') at every point of xs."""
        import numpy as np

        xs = np.asarray(xs, dtype=float)
        rows = np.array(
            [(s.k, s.x0, s.x1, s.offset, s.u0 - s.offset, s.u1 - s.offset) for s in self.segments]
        )
        inner = np.array([s.x1 for s in self.segments[:-1]])
        k, x0, x1, off, d0, d1 = rows[np.searchsorted(inner, xs, side="right")].T
        return edge_profile(np.exp, np.expm1, k, x0, x1, xs, off, d0, d1)


def _dtn_sweep(pieces) -> list[tuple[float, float]]:
    """Flux maps at the inner edges, swept from an end where w = 0.

    Pieces are (x0, x1, k, off).  Entry i is (S, F): on the pieces up
    to i, the solution with value w at the far edge of piece i has
    outward flux S*w + F there.  Across a piece of width d, with
    t = tanh(kd) and c = sech(kd),
        S' = k (S + k t) / (k + S t),
        F' = k (F c - off (S (1 - c) + k t)) / (k + S t);
    S stays positive and every term of F' has the sign of -off, so the
    sweep neither overflows nor cancels.
    """
    maps: list[tuple[float, float]] = []
    for x0, x1, k, off in pieces[:-1]:
        kd = k * (x1 - x0)
        t = math.tanh(kd)
        if not maps:
            s, f = k / t, -k * off * math.tanh(0.5 * kd)
        else:
            e = math.exp(-kd)
            c = 2.0 * e / (1.0 + e * e)
            one_minus_c = math.expm1(-kd) ** 2 / (1.0 + e * e)
            s, f = maps[-1]
            f = k * (f * c - off * (s * one_minus_c + k * t)) / (k + s * t)
            s = k * (s + k * t) / (k + s * t)
        maps.append((s, f))
    return maps


def _edge_solve(policy: HarvestPolicy, offset_of) -> tuple[SegmentSolution, ...]:
    """Solve w'' = k^2 (w - off) with w = 0 at both ends, exactly.

    Segments are split at x = 0.  Each interior edge value balances the
    flux maps of the two sides: S_l w + F_l = -(S_r w + F_r).
    """
    pieces: list[tuple[float, float, float, float]] = []
    for x0, x1, h in policy.segments():
        k, off = math.sqrt(1.0 + h), offset_of(h)
        cuts = [x0, 0.0, x1] if x0 < 0.0 < x1 else [x0, x1]
        pieces.extend((a, b, k, off) for a, b in zip(cuts, cuts[1:]))
    left = _dtn_sweep(pieces)
    right = _dtn_sweep(pieces[::-1])[::-1]
    edges = [0.0] + [-(fl + fr) / (sl + sr) for (sl, fl), (sr, fr) in zip(left, right)] + [0.0]
    return tuple(
        SegmentSolution(k=k, offset=off, u0=u0, u1=u1, x0=x0, x1=x1)
        for (x0, x1, k, off), u0, u1 in zip(pieces, edges, edges[1:])
    )


def shoot_steady_state(policy: HarvestPolicy) -> Profile:
    """Solve u'' = (1+h)u - 1 with u(+-l/2) = 0 for a given policy.

    The edge values come from the exact two-point solve shared with the
    adjoint.
    """
    return Profile(_edge_solve(policy, lambda h: 1.0 / (1.0 + h)))


def evaluate_objective(policy: HarvestPolicy, profile: Profile, q: float) -> float:
    """j = (1/l) * integral of (q + h(x)) u(x), segment by segment in closed form."""
    total = 0.0
    for seg in profile.segments:
        h = policy.rate_at(0.5 * (seg.x0 + seg.x1))
        total += (q + h) * seg.integral()
    return total / policy.l


def solve_adjoint(policy: HarvestPolicy, q: float) -> Profile:
    """Solve the adjoint pair with lambda2(+-l/2) = 0; the profile is lambda2.

    lambda2 obeys the same segment structure as the state with constant
    term -(h+q)/((1+h) l), and lambda1 = -lambda2'; the same exact
    two-point solve fixes it.
    """
    l = policy.l
    segments = _edge_solve(policy, lambda h: -(h + q) / ((1.0 + h) * l))
    # the offset, or the flux maps built from it, overflow on a short coast
    if not all(math.isfinite(s.offset) and math.isfinite(s.u1) for s in segments):
        raise ParameterError(
            f"the adjoint overflows at (l, q, hbar) = ({l!r}, {q!r}, {policy.max_rate!r})"
        )
    return Profile(segments)


def hamiltonian_diagnostic(
    state: Profile, adjoint: Profile, policy: HarvestPolicy, q: float
) -> float:
    """Half the spread (max - min) of the Hamiltonian over the ends of every piece.

    Each piece solves an autonomous linear ODE exactly, so the
    Hamiltonian is constant on it and its two ends hold the only value
    it takes there.  Along a true extremal it is one constant across the
    switches too; a misplaced switch shows up as a jump between pieces.
    The state and the adjoint must lie on the same pieces.
    """
    if [(s.x0, s.x1) for s in state.segments] != [(a.x0, a.x1) for a in adjoint.segments]:
        raise ParameterError("the state and adjoint profiles lie on different pieces")
    l = policy.l
    ham = []
    for seg, adj in zip(state.segments, adjoint.segments):
        x0, x1 = seg.x0, seg.x1
        h = policy.rate_at(0.5 * (x0 + x1))
        for x in (x0, x1):
            u, v = seg.value_and_deriv(x)
            lam2, d = adj.value_and_deriv(x)
            ham.append((h + q) * u / l - d * v + lam2 * ((1.0 + h) * u - 1.0))
    return 0.5 * (max(ham) - min(ham))
