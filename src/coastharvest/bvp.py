"""Steady-state and adjoint solvers for piecewise-constant harvest rates.

Within a segment both problems reduce to w'' = k^2 (w - off) with
k = sqrt(1+h), so a segment's solution is fixed exactly by its two edge
values and no step-size error enters anywhere.  One two-point solve
serves the state and the adjoint: the values at the interior edges are
the unknowns, fixed by flux continuity, and a Dirichlet-to-Neumann
sweep from each zero end eliminates them with positive terms only, so
nothing is amplified on long coasts or cancels on thin segments.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .analytic import SegmentSolution, edge_profile
from .policy import HarvestPolicy


def _eval_segments(segments, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized (value, derivative) of a piecewise hyperbolic profile."""
    idx = np.searchsorted([s.x1 for s in segments[:-1]], xs, side="right")
    table = np.array(
        [(s.k, s.offset, s.u0 - s.offset, s.u1 - s.offset, s.x0, s.x1) for s in segments]
    )
    k, off, d0, d1, x0, x1 = table[idx].T
    return edge_profile(np.exp, np.expm1, k, off, d0, d1, x0, x1, xs)


def _segment_at(segments, x: float) -> SegmentSolution:
    return segments[bisect.bisect_right([s.x1 for s in segments[:-1]], x)]


def _flux_jump(segments) -> float:
    """Largest jump of the derivative across the interior edges."""
    return max(
        (abs(a.deriv(a.x1) - b.deriv(b.x0)) for a, b in zip(segments, segments[1:])),
        default=0.0,
    )


def _grid(segments, samples: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    xs = np.linspace(segments[0].x0, segments[-1].x1, max(samples, 2))
    return (xs, *_eval_segments(segments, xs))


@dataclass(frozen=True)
class StateProfile:
    """Steady-state density: exact segments plus a sampled (x, u, v) grid."""

    segments: tuple[SegmentSolution, ...]
    samples: np.ndarray
    slope_left: float
    slope_right: float
    match_residual: float

    @classmethod
    def from_segments(cls, segments, samples: int = 513) -> "StateProfile":
        """Sample the profile and read its end slopes and flux jumps off the segments."""
        first, last = segments[0], segments[-1]
        return cls(
            segments=tuple(segments),
            samples=np.column_stack(_grid(segments, samples)),
            slope_left=first.deriv(first.x0),
            slope_right=last.deriv(last.x1),
            match_residual=_flux_jump(segments),
        )

    def value(self, x: float) -> tuple[float, float]:
        seg = _segment_at(self.segments, x)
        return seg.value(x), seg.deriv(x)

    def eval_many(self, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return _eval_segments(self.segments, np.asarray(xs, dtype=float))

    def write_csv(self, path: str) -> None:
        _write_csv(path, "x,u,v", self.samples)


@dataclass(frozen=True)
class AdjointProfile:
    """Adjoint pair: segments describe lambda2; lambda1 = -lambda2'."""

    segments: tuple[SegmentSolution, ...]
    samples: np.ndarray
    lambda0: float
    match_residual: float

    @classmethod
    def from_segments(cls, segments, samples: int = 513) -> "AdjointProfile":
        """Sample the pair and read lambda0 = lambda1(-l/2) and the flux jumps off the segments."""
        xs, lam2, d = _grid(segments, samples)
        return cls(
            segments=tuple(segments),
            samples=np.column_stack([xs, -d, lam2]),
            lambda0=-segments[0].deriv(segments[0].x0),
            match_residual=_flux_jump(segments),
        )

    def lambda_at(self, x: float) -> tuple[float, float]:
        seg = _segment_at(self.segments, x)
        return -seg.deriv(x), seg.value(x)

    def eval_many(self, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        lam2, d = _eval_segments(self.segments, np.asarray(xs, dtype=float))
        return -d, lam2

    def write_csv(self, path: str) -> None:
        _write_csv(path, "x,lambda1,lambda2", self.samples)


def _write_csv(path: str, header: str, rows: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(format(v, ".17g") for v in row) + "\n")


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


def shoot_steady_state(policy: HarvestPolicy, samples: int = 513) -> StateProfile:
    """Solve u'' = (1+h)u - 1 with u(+-l/2) = 0 for a given policy.

    The edge values come from the exact two-point solve shared with the
    adjoint; the slopes u'(+-l/2) are read off the end segments.
    """
    return StateProfile.from_segments(_edge_solve(policy, lambda h: 1.0 / (1.0 + h)), samples)


def evaluate_objective(policy: HarvestPolicy, profile: StateProfile, q: float) -> float:
    """j = (1/l) * integral of (q + h(x)) u(x), segment by segment in closed form."""
    total = 0.0
    for seg in profile.segments:
        h = policy.rate_at(0.5 * (seg.x0 + seg.x1))
        total += (q + h) * seg.integral()
    return total / policy.l


def solve_adjoint(policy: HarvestPolicy, q: float, samples: int = 513) -> AdjointProfile:
    """Solve the adjoint pair with lambda2(+-l/2) = 0.

    lambda2 obeys the same segment structure as the state with constant
    term -(h+q)/((1+h) l), and lambda1 = -lambda2'; the same exact
    two-point solve fixes it.
    """
    l = policy.l
    return AdjointProfile.from_segments(
        _edge_solve(policy, lambda h: -(h + q) / ((1.0 + h) * l)), samples
    )


def hamiltonian_diagnostic(
    state: StateProfile,
    adjoint: AdjointProfile,
    policy: HarvestPolicy,
    q: float,
    n: int = 1000,
) -> float:
    """Max deviation of the Hamiltonian from its mean over an n-point grid.

    Along a true extremal of this autonomous problem the Hamiltonian is
    a constant, switches included; a misplaced switch shows up as a jump.
    """
    l = policy.l
    xs = np.linspace(-l / 2.0, l / 2.0, n)
    u, v = state.eval_many(xs)
    lam1, lam2 = adjoint.eval_many(xs)
    bp = np.array(policy.breakpoints[1:-1])
    idx = np.searchsorted(bp, xs, side="right")
    h = np.array(policy.rates)[idx]
    ham = (h + q) * u / l + lam1 * v + lam2 * ((1.0 + h) * u - 1.0)
    return float(np.max(np.abs(ham - ham.mean())))
