"""Clamped inverse hyperbolic helpers and a bisection root finder.

The return-time and switch-location formulas divide by expressions that
vanish at branch endpoints, so the raw library functions produce NaN or
raise one ulp past the boundary.  The inverse hyperbolics here clamp
their argument just inside the open domain first.
"""

from __future__ import annotations

import math
from typing import Callable

# Arguments are pulled this far inside the open interval (-1, 1);
# matches the divergence cap used by the return-time code.
_ATANH_CLAMP = 1.0 - 1e-15


def arctanh(x: float) -> float:
    """math.atanh, with the argument clamped at +-(1 - 1e-15)."""
    return math.atanh(min(max(x, -_ATANH_CLAMP), _ATANH_CLAMP))


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


def bisect_root(fn: Callable[[float], float], lo: float, hi: float) -> float:
    """Root of an increasing fn on [lo, hi], bisected to adjacent floats.

    Returns lo when fn(lo) >= 0.  Otherwise fn(hi) must be positive, and
    the endpoint of the final bracket with the smaller |fn| is returned.
    """
    flo = fn(lo)
    if flo >= 0.0:
        return lo
    fhi = fn(hi)
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return lo if -flo <= fhi else hi
        fmid = fn(mid)
        if fmid < 0.0:
            lo, flo = mid, fmid
        else:
            hi, fhi = mid, fmid
