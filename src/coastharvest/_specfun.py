"""A clamped arctanh and a bisection root finder.

The hitting-time, adjoint and half-length formulas take arctanh of
ratios that reach 1 at branch endpoints, so math.atanh raises one ulp
past the boundary.  The arctanh here clamps its argument just inside
the open domain first.
"""

from __future__ import annotations

import math
from typing import Callable

from .params import ParameterError

# Arguments are pulled this far inside the open interval (-1, 1).
_ATANH_CLAMP = 1.0 - 1e-15


def arctanh(x: float) -> float:
    """math.atanh, with the argument clamped at +-(1 - 1e-15)."""
    return math.atanh(min(max(x, -_ATANH_CLAMP), _ATANH_CLAMP))


def bisect_root(fn: Callable[[float], float], lo: float, hi: float) -> float:
    """Root of an increasing fn on [lo, hi], bisected to adjacent floats.

    Returns lo when fn(lo) >= 0.  Otherwise fn(hi) must be positive, and
    the endpoint of the final bracket with the smaller |fn| is returned.
    """
    # a NaN end would never close the bracket
    if not lo < hi:
        raise ParameterError(f"bisection needs lo < hi, got [{lo!r}, {hi!r}]")
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
