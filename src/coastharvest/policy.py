"""Piecewise-constant harvest policies on a symmetric interval."""

from __future__ import annotations

import math
from typing import Iterator, NamedTuple, Sequence

from .params import ParameterError

# breakpoints are validated as symmetric about 0 up to this slack
_SYMMETRY_TOL = 1e-12


class _PolicyFields(NamedTuple):
    breakpoints: tuple[float, ...]
    rates: tuple[float, ...]


class HarvestPolicy(_PolicyFields):
    """Harvest rate h(x), constant on each [breakpoints[i], breakpoints[i+1]).

    The control is right-continuous; the value at an interior breakpoint
    is the rate of the segment to its right.
    """

    __slots__ = ()

    def __new__(cls, breakpoints: Sequence[float], rates: Sequence[float]):
        bp, rates = tuple(breakpoints), tuple(rates)
        if len(bp) < 2:
            raise ParameterError("need at least two breakpoints")
        for name, values in (("breakpoints", bp), ("rates", rates)):
            if not all(math.isfinite(v) for v in values):
                raise ParameterError(f"{name} must be finite, got {values!r}")
        if len(rates) != len(bp) - 1:
            raise ParameterError(
                f"{len(bp)} breakpoints require {len(bp) - 1} rates, got {len(rates)}"
            )
        for a, b in zip(bp, bp[1:]):
            if not a < b:
                raise ParameterError(f"breakpoints must strictly increase, got {bp!r}")
        if abs(bp[0] + bp[-1]) > _SYMMETRY_TOL * max(1.0, abs(bp[-1])):
            raise ParameterError(f"domain must be symmetric about 0, got {bp!r}")
        for r in rates:
            if r < 0.0:
                raise ParameterError(f"rates must be nonnegative, got {r!r}")
        return super().__new__(cls, bp, rates)

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make: validate and normalise there too
        return cls(*iterable)

    @property
    def l(self) -> float:
        bp = self.breakpoints
        return bp[-1] - bp[0]

    @property
    def max_rate(self) -> float:
        return max(self.rates)

    def segments(self) -> Iterator[tuple[float, float, float]]:
        """(x_left, x_right, rate) for each segment in order."""
        bp, rates = self
        return zip(bp, bp[1:], rates)

    def rate_at(self, x: float) -> float:
        bp, rates = self
        if not bp[0] <= x <= bp[-1]:
            raise ParameterError(f"x={x!r} outside [{bp[0]!r}, {bp[-1]!r}]")
        # right-continuous: first segment whose right end lies beyond x
        for right, r in zip(bp[1:], rates):
            if x < right:
                return r
        return rates[-1]


def constant_policy(l: float, rate: float) -> HarvestPolicy:
    if not l > 0.0:
        raise ParameterError(f"l must be positive, got {l!r}")
    return HarvestPolicy(breakpoints=(-l / 2.0, l / 2.0), rates=(rate,))


def single_reserve_policy(l: float, left: float, right: float, hbar: float) -> HarvestPolicy:
    """Harvest at hbar everywhere except a zero-rate block [left, right].

    The block is clipped to the domain; an empty block degenerates to the
    constant-hbar policy.
    """
    if not l > 0.0:
        raise ParameterError(f"l must be positive, got {l!r}")
    if math.isnan(left) or math.isnan(right):
        raise ParameterError(f"reserve edges must not be NaN, got [{left!r}, {right!r}]")
    lo, hi = max(left, -l / 2.0), min(right, l / 2.0)
    if not lo < hi:
        return constant_policy(l, hbar)
    bp: list[float] = [-l / 2.0]
    rates: list[float] = []
    if lo > -l / 2.0:
        bp.append(lo)
        rates.append(hbar)
    rates.append(0.0)
    if hi < l / 2.0:
        bp.append(hi)
        rates.append(hbar)
    bp.append(l / 2.0)
    return HarvestPolicy(breakpoints=tuple(bp), rates=tuple(rates))

