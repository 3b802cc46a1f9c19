"""Clamped inverse hyperbolic helpers and a guarded bisection root finder.

The return-time and switch-location formulas divide by expressions that
vanish at branch endpoints, so the raw library functions produce NaN or
raise one ulp past the boundary.  All inverse hyperbolics here go through
logarithm forms with the argument clamped just inside the open domain.
"""

from __future__ import annotations

import math
from typing import Callable

# Arguments are pulled this far inside the open interval (-1, 1) before
# taking logs; matches the divergence cap used by the return-time code.
_ATANH_CLAMP = 1.0 - 1e-15


def arctanh(x: float) -> float:
    """arctanh via 0.5*log((1+x)/(1-x)), clamped at +-(1 - 1e-15)."""
    if x > _ATANH_CLAMP:
        x = _ATANH_CLAMP
    elif x < -_ATANH_CLAMP:
        x = -_ATANH_CLAMP
    return 0.5 * math.log((1.0 + x) / (1.0 - x))


def arccoth(y: float) -> float:
    """arccoth(y) = arctanh(1/y) for |y| > 1, clamped at |y| = 1 + 1e-15."""
    lo = 1.0 + 1e-15
    if 0.0 <= y < lo:
        y = lo
    elif -lo < y < 0.0:
        y = -lo
    return arctanh(1.0 / y)


def sech(x: float) -> float:
    return 1.0 / math.cosh(x)


def bisect_root(
    fn: Callable[[float], float],
    lo: float,
    hi: float,
    max_iter: int = 200,
) -> float:
    """Bisect fn on [lo, hi] until the bracket collapses in floats.

    Requires a sign change on the bracket.  Returns the endpoint of the
    final bracket with the smaller |fn|.  Infinities in fn values are
    treated by sign, which the monotone return-time curves need near
    their divergence point.
    """
    flo = fn(lo)
    fhi = fn(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if math.copysign(1.0, flo) == math.copysign(1.0, fhi):
        raise ValueError("bisect_root: no sign change on [%g, %g]" % (lo, hi))
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        fmid = fn(mid)
        if fmid == 0.0:
            return mid
        if math.copysign(1.0, fmid) == math.copysign(1.0, flo):
            lo, flo = mid, fmid
        else:
            hi, fhi = mid, fmid
    return lo if abs(flo) <= abs(fhi) else hi
