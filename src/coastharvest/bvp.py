"""Steady-state and adjoint solvers for piecewise-constant harvest rates.

Within a segment both problems reduce to w'' = k^2 (w - off) with
k = sqrt(1+h), so the flow over any distance is an affine map built from
cosh/sinh; no step-size error enters anywhere.  Boundary solves shoot
from both ends and match at the midpoint, which keeps the hyperbolic
amplification at e^(k l/2) per side instead of e^(k l) and leaves the
boundary values zero by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytic import SegmentSolution
from .params import ParameterError
from .policy import HarvestPolicy

# segment flows are composed from chunks below this phase to avoid overflow
_MAX_PHASE = 350.0

_Affine = tuple[tuple[float, float, float, float], tuple[float, float]]

_IDENTITY: _Affine = ((1.0, 0.0, 0.0, 1.0), (0.0, 0.0))


def _compose(outer: _Affine, inner: _Affine) -> _Affine:
    (a, b, c, d), (p, r) = outer
    (e, f, g, h), (s, t) = inner
    return (
        (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h),
        (a * s + b * t + p, c * s + d * t + r),
    )


def _apply(m: _Affine, u: float, v: float) -> tuple[float, float]:
    (a, b, c, d), (p, r) = m
    return a * u + b * v + p, c * u + d * v + r


def _flow_map(k: float, off: float, length: float) -> _Affine:
    """Affine map advancing (w, w') of w'' = k^2 (w - off) by length."""
    n_sub = max(1, int(math.ceil(abs(k * length) / _MAX_PHASE)))
    dx = length / n_sub
    c, s = math.cosh(k * dx), math.sinh(k * dx)
    step: _Affine = ((c, s / k, k * s, c), (off * (1.0 - c), -k * s * off))
    total = step
    for _ in range(n_sub - 1):
        total = _compose(step, total)
    return total


def propagate_segment(u0: float, v0: float, h: float, dx: float) -> tuple[float, float]:
    """Advance (u, v) through a constant-rate stretch of the steady state."""
    if h < 0.0:
        raise ParameterError(f"harvest rate must be nonnegative, got {h!r}")
    if dx < 0.0:
        raise ParameterError(f"dx must be nonnegative, got {dx!r}")
    if dx == 0.0:
        return u0, v0
    k = math.sqrt(1.0 + h)
    return _apply(_flow_map(k, 1.0 / (1.0 + h), dx), u0, v0)


class _Piece:
    """Solver-internal segment: geometry plus (k, off) of its ODE."""

    __slots__ = ("x0", "x1", "k", "off")

    def __init__(self, x0: float, x1: float, k: float, off: float):
        self.x0, self.x1, self.k, self.off = x0, x1, k, off


def _split_pieces(policy: HarvestPolicy, offset_of) -> tuple[list[_Piece], list[_Piece]]:
    """Segments as pieces split at x = 0, partitioned into left and right."""
    left: list[_Piece] = []
    right: list[_Piece] = []
    for x0, x1, h in policy.segments():
        k = math.sqrt(1.0 + h)
        off = offset_of(h)
        if x1 <= 0.0:
            left.append(_Piece(x0, x1, k, off))
        elif x0 >= 0.0:
            right.append(_Piece(x0, x1, k, off))
        else:
            left.append(_Piece(x0, 0.0, k, off))
            right.append(_Piece(0.0, x1, k, off))
    return left, right


def _half_maps(left: list[_Piece], right: list[_Piece]) -> tuple[_Affine, _Affine]:
    """Forward map left-end -> 0 and backward map right-end -> 0."""
    fwd = _IDENTITY
    for p in left:
        fwd = _compose(_flow_map(p.k, p.off, p.x1 - p.x0), fwd)
    bwd = _IDENTITY
    for p in reversed(right):
        bwd = _compose(_flow_map(p.k, p.off, -(p.x1 - p.x0)), bwd)
    return fwd, bwd


def _assemble(
    left: list[_Piece], right: list[_Piece], v_left: float, v_right: float
) -> tuple[SegmentSolution, ...]:
    """Per-piece hyperbolic descriptors anchored so both ends stay exact.

    Left pieces are anchored at their left ends and right pieces at their
    right ends, each at the state the shooting hands it there, so the
    boundary values never pass through a cosh/sinh amplification.
    """
    segs: list[SegmentSolution] = []
    u, v = 0.0, v_left
    for p in left:
        segs.append(SegmentSolution(k=p.k, offset=p.off, A=u - p.off, B=v / p.k, x0=p.x0, x1=p.x1))
        u, v = _apply(_flow_map(p.k, p.off, p.x1 - p.x0), u, v)
    tail: list[SegmentSolution] = []
    u, v = 0.0, v_right
    for p in reversed(right):
        tail.append(
            SegmentSolution(k=p.k, offset=p.off, A=u - p.off, B=v / p.k, x0=p.x0, x1=p.x1, anchor=p.x1)
        )
        u, v = _apply(_flow_map(p.k, p.off, -(p.x1 - p.x0)), u, v)
    return tuple(segs + tail[::-1])


def _eval_segments(segments, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized (value, derivative) of a piecewise hyperbolic profile."""
    val = np.empty_like(xs)
    der = np.empty_like(xs)
    ends = np.array([s.x1 for s in segments])
    idx = np.searchsorted(ends[:-1], xs, side="right")
    for i, s in enumerate(segments):
        m = idx == i
        if not m.any():
            continue
        ph = s.k * (xs[m] - s.anchor)
        ch, sh = np.cosh(ph), np.sinh(ph)
        val[m] = s.offset + s.A * ch + s.B * sh
        der[m] = s.k * (s.A * sh + s.B * ch)
    return val, der


@dataclass(frozen=True)
class StateProfile:
    """Steady-state density: exact segments plus a sampled (x, u, v) grid."""

    segments: tuple[SegmentSolution, ...]
    samples: np.ndarray
    slope_left: float
    slope_right: float
    match_residual: float

    def value(self, x: float) -> tuple[float, float]:
        u, v = _eval_segments(self.segments, np.array([x], dtype=float))
        return float(u[0]), float(v[0])

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

    def lambda_at(self, x: float) -> tuple[float, float]:
        lam2, d = _eval_segments(self.segments, np.array([x], dtype=float))
        return float(-d[0]), float(lam2[0])

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


def _two_point(
    policy: HarvestPolicy, offset_of
) -> tuple[tuple[SegmentSolution, ...], float, float, float]:
    """Solve w'' = k^2 (w - off) with w = 0 at both ends, shooting from both.

    The unknown is the left slope; the right one is eliminated through
    the w'-matching condition at 0.  The remaining w-matching residual is
    affine in the left slope, so two evaluations (at 0 and 1) and one
    division give the root, and one repeated secant from the base
    point polishes roundoff.  Returns the segments, the left and right
    slopes and the final |residual|.
    """
    left, right = _split_pieces(policy, offset_of)
    (fm, fd), (bm, bd) = _half_maps(left, right)

    def right_slope(s: float) -> float:
        return (fm[3] * s + fd[1] - bd[1]) / bm[3]

    def mismatch(s: float) -> float:
        return (fm[1] * s + fd[0]) - (bm[1] * right_slope(s) + bd[0])

    g0, g1 = mismatch(0.0), mismatch(1.0)
    if g1 == g0:
        raise RuntimeError("two-point shooting is degenerate: residual has no slope")
    s = -g0 / (g1 - g0)
    g = mismatch(s)
    if g != 0.0 and g != g0:
        s2 = s - g * s / (g - g0)
        g2 = mismatch(s2)
        if abs(g2) < abs(g):
            s, g = s2, g2
    s_right = right_slope(s)
    return _assemble(left, right, s, s_right), s, s_right, abs(g)


def shoot_steady_state(policy: HarvestPolicy, samples: int = 513) -> StateProfile:
    """Solve u'' = (1+h)u - 1 with u(+-l/2) = 0 for a given policy.

    The shooting unknown is the slope u'(-l/2), found by the exact
    two-point solve shared with the adjoint.
    """
    segs, v0, v1, residual = _two_point(policy, lambda h: 1.0 / (1.0 + h))
    xs = np.linspace(segs[0].x0, segs[-1].x1, max(samples, 2))
    u, v = _eval_segments(segs, xs)
    return StateProfile(
        segments=segs,
        samples=np.column_stack([xs, u, v]),
        slope_left=v0,
        slope_right=v1,
        match_residual=residual,
    )


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
    term -(h+q)/((1+h) l), and lambda1 = -lambda2'.  The shooting
    unknown is the left slope of lambda2, found by the same exact
    two-point solve as the state.
    """
    l = policy.l
    segs, s_root, _, residual = _two_point(policy, lambda h: -(h + q) / ((1.0 + h) * l))
    xs = np.linspace(segs[0].x0, segs[-1].x1, max(samples, 2))
    lam2, d = _eval_segments(segs, xs)
    return AdjointProfile(
        segments=segs,
        samples=np.column_stack([xs, -d, lam2]),
        lambda0=-s_root,
        match_residual=residual,
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
