"""Switching-line analysis for the large-q regime.

For q > 1 the adjoint shooting problem is piecewise linear with one
possible crossing of the switching line.  This module carries the
derived constants of that analysis, the hitting time of the lambda2-axis
(both legs, to the crossing and on from it) as a function of the
shooting parameter, the threshold length above which a crossing occurs,
and the one root solve, for the reserve half-width, that pins the
transversality-consistent shooting value.

Naming: lam_star and lam_starstar are the two critical shooting values
(orbit tangent to the switching line, and orbit asymptotic to the second
stable manifold).  i1 is the first stable manifold's axis intercept, and
is1, is2 are the manifold/switch-line intersections.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from ._specfun import arctanh, bisect_root
from .params import ParameterError, ScaledParams


class DerivedConstants(NamedTuple):
    a1: float
    i1: float
    is1: float
    is2: float
    lam_star: float
    lam_starstar: float
    l_min: float


def derive_constants(sp: ScaledParams) -> DerivedConstants:
    if not sp.q > 1.0:
        raise ParameterError(f"switching analysis requires q > 1, got q={sp.q!r}")
    l, q, hbar = sp
    a1, b1 = hbar + 1.0, hbar + q
    is2 = (1.0 / l) * (q - 1.0)
    lam_star = math.sqrt(2.0 * b1 - a1) / l
    lam_starstar = math.hypot(lam_star, is2)
    # i1 and is1 are at most lam_starstar in size; q/l is the size of the
    # adjoint's offset in the reserve
    if not (math.isfinite(lam_starstar) and math.isfinite(q / l)):
        raise ParameterError(
            f"the switching constants overflow at (l, q, hbar) = ({l!r}, {q!r}, {hbar!r})"
        )
    # (sqrt(a1)/l)*(b1/a1 - 1) in exact form: b1/a1 rounds to 1 for q near 1
    is1 = (q - 1.0) / (math.sqrt(a1) * l)
    # is1 > 0 for q > 1, and the switch time divides by it at the reserve's
    # edge; it underflows (or sqrt(a1)*l overflows) on a long coast with a
    # large cap
    if not is1 > 0.0:
        raise ParameterError(
            f"the switching constants underflow at (l, q, hbar) = ({l!r}, {q!r}, {hbar!r})"
        )
    return DerivedConstants(
        a1=a1,
        i1=b1 / (math.sqrt(a1) * l),
        is1=is1,
        is2=is2,
        lam_star=lam_star,
        lam_starstar=lam_starstar,
        l_min=min_length(sp),
    )


def hitting_time(lambda0: float, dc: DerivedConstants) -> float:
    """First arrival of the adjoint ray at the lambda2-axis; inf if never.

    Below lam_star the ray reaches the axis directly.  Up to lam_starstar
    it meets the switch line at lambda1 = tilde after the switch leg
    log((i1 + lambda0)/(is1 + tilde))/sqrt(a1), and finishes in the
    zero-control flow after arctanh(tilde/is2).  The switch leg's three
    textbook cases (arccosh below i1, a bare logarithm at i1, arcsinh
    above) are that one expression by the identity i1^2 - lam_star^2 =
    is1^2; it stays accurate through both joins, where the separate
    branches cancel catastrophically.  From lam_starstar on it escapes.
    """
    if not lambda0 > 0.0:
        raise ParameterError(f"lambda0 must be positive, got {lambda0!r}")
    if lambda0 >= dc.lam_starstar:
        return math.inf
    if lambda0 < dc.lam_star:
        return arctanh(lambda0 / dc.i1) / math.sqrt(dc.a1)
    # tilde = sqrt(lambda0^2 - lam_star^2), squared with lambda0's binary
    # exponent taken out, exactly, so that a level near 1/l cannot overflow
    # on a very short coast; tiny negative radicands at lam_star are roundoff
    e = math.frexp(lambda0)[1]
    a, b = math.ldexp(lambda0, -e), math.ldexp(dc.lam_star, -e)
    tilde = math.ldexp(math.sqrt(max(a * a - b * b, 0.0)), e)
    if tilde >= dc.is2:
        return math.inf
    switch = math.log((dc.i1 + lambda0) / (dc.is1 + tilde)) / math.sqrt(dc.a1)
    return switch + arctanh(tilde / dc.is2)


def min_length(sp: ScaledParams) -> float:
    """Threshold coastline length: above it the optimal control switches.

    l_min = (2/sqrt(hbar+1)) * arctanh(s/(hbar+q)) with
    s = sqrt((hbar+1)(hbar+2q-1)), computed as the equal
    (2/sqrt(hbar+1)) * log1p((hbar+1+s)/(q-1)).  The arctanh argument
    has 1 - arg^2 = (q-1)^2/(hbar+q)^2, so as q -> 1 its rounding is
    amplified without bound (0.1 to 0.4 relative error at q = 1 + 1e-8);
    in the log1p form q - 1 (exact near q = 1) only divides, and every
    term is positive.
    """
    if not sp.q > 1.0:
        raise ParameterError(f"threshold length requires q > 1, got q={sp.q!r}")
    hbar, q = sp.hbar, sp.q
    s = math.sqrt((hbar + 1.0) * (hbar + 2.0 * q - 1.0))
    # the product under the root overflows once hbar is above about 1e154
    if not math.isfinite(s):
        raise ParameterError(f"the threshold length overflows at (q, hbar) = ({q!r}, {hbar!r})")
    return (2.0 / math.sqrt(hbar + 1.0)) * math.log1p((hbar + 1.0 + s) / (q - 1.0))


def solve_halfwidth(dc: DerivedConstants, l: float) -> tuple[float, float, float]:
    """Half-width tau of the centred reserve, lambda_bar, and Ts = l/2 - tau.

    The orbit that meets the switch line at tilde = is2*tanh(tau) starts
    from hypot(lam_star, tilde) and reaches the lambda2-axis tau later,
    so tau solves (hitting_time's switch leg) + tau = l/2.  That residual
    is increasing and finite on [0, l/2] and is bisected there; it is
    already >= 0 at tau = 0 up to l_min, where tau is 0.

    Ts is the switch time at that tau (l/2 - tau loses its digits when
    Ts << l), read by log1p through the exact i1 - is1 = sqrt(a1)/l and
    lambda_bar - tilde = lam_star^2/(lambda_bar + tilde), never squaring.
    """
    half = l / 2.0
    # hitting_time's switch leg with the constants read once: the residual
    # runs about 55 times per root
    i1, is1, is2, lam_star, sqrt_a1 = dc.i1, dc.is1, dc.is2, dc.lam_star, math.sqrt(dc.a1)

    def residual(tau: float) -> float:
        tilde = is2 * math.tanh(tau)
        lambda0 = math.hypot(lam_star, tilde)
        return math.log((i1 + lambda0) / (is1 + tilde)) / sqrt_a1 - (half - tau)

    tau = bisect_root(residual, 0.0, half)
    tilde = is2 * math.tanh(tau)
    lam_bar = math.hypot(lam_star, tilde)
    gap = sqrt_a1 / l + lam_star * (lam_star / (lam_bar + tilde))
    return tau, lam_bar, math.log1p(gap / (is1 + tilde)) / sqrt_a1
