"""Closed-form steady states and adjoints for constant harvest rates.

Every constant-rate segment of the model solves u'' = (1+h)u - 1, whose
solutions are a constant offset plus a cosh/sinh pair.  SegmentSolution
captures that structure exactly, through the segment's two edge values;
the module-level functions are the closed forms of the constant-control
case: the steady state on the full interval, its shooting slope and
objective, and the matching adjoint pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._specfun import arctanh, sech
from .params import ParameterError


def edge_profile(exp, expm1, k, x0, x1, x, off, d0, d1):
    """(u, u') at x of u'' = k^2 (u - off) on [x0, x1] with u - off = d0, d1 at the edges.

    u - off = (d0*sinh(k(x1-x)) + d1*sinh(k(x-x0))) / sinh(k(x1-x0)), with
    each ratio of sinh/cosh rewritten through the decaying exponentials
    e^(-k(x-x0)) and e^(-k(x1-x)): nothing overflows on any segment
    length, and the edge weights are exactly 1 and 0 at the edges.
    Written for both math and numpy: pass their exp and expm1.
    """
    a = k * (x - x0)
    b = k * (x1 - x)
    ea, eb = exp(-a), exp(-b)
    den = -expm1(-2.0 * (k * (x1 - x0)))
    ma, mb = -expm1(-2.0 * a), -expm1(-2.0 * b)
    u = off + (d0 * ea * mb + d1 * eb * ma) / den
    du = k * (d1 * eb * (1.0 + ea * ea) - d0 * ea * (1.0 + eb * eb)) / den
    return u, du


@dataclass(frozen=True)
class SegmentSolution:
    """Solution of u'' = k^2 (u - offset) on [x0, x1] with edge values u0, u1.

    Edge values stay bounded whatever the segment length, so evaluation
    neither overflows nor cancels on long segments, and the mirror
    u(-x) just swaps them.
    """

    k: float
    offset: float
    u0: float
    u1: float
    x0: float
    x1: float

    def __post_init__(self) -> None:
        if not self.k > 0.0:
            raise ParameterError(f"segment stiffness must be positive, got {self.k!r}")
        if not self.x0 < self.x1:
            raise ParameterError(f"empty segment [{self.x0!r}, {self.x1!r}]")

    def value_and_deriv(self, x: float) -> tuple[float, float]:
        off = self.offset
        return edge_profile(
            math.exp, math.expm1, self.k, self.x0, self.x1, x, off, self.u0 - off, self.u1 - off
        )

    def value(self, x: float) -> float:
        return self.value_and_deriv(x)[0]

    def deriv(self, x: float) -> float:
        return self.value_and_deriv(x)[1]

    def integral(self) -> float:
        """Exact integral of u over [x0, x1]."""
        w = self.x1 - self.x0
        t = math.tanh(0.5 * self.k * w)
        return self.offset * w + (self.u0 + self.u1 - 2.0 * self.offset) * t / self.k


def constant_control_steady_state(hhat: float, l: float) -> SegmentSolution:
    """Steady state with harvest rate hhat everywhere and zero boundaries.

    u(x) = (1 - sech(k*l/2)*cosh(k*x)) / (1+hhat) with k = sqrt(1+hhat):
    edge values 0 on [-l/2, l/2], which keeps evenness and the boundary
    values exact however large k*l gets.
    """
    if hhat < 0.0:
        raise ParameterError(f"harvest rate must be nonnegative, got {hhat!r}")
    if not l > 0.0:
        raise ParameterError(f"l must be positive, got {l!r}")
    return SegmentSolution(
        k=math.sqrt(1.0 + hhat),
        offset=1.0 / (1.0 + hhat),
        u0=0.0,
        u1=0.0,
        x0=-l / 2.0,
        x1=l / 2.0,
    )


def optimal_shoot_slope(hbar: float, l: float) -> float:
    """The unique initial slope v(-l/2) of the constant-hbar steady state."""
    if hbar < 0.0:
        raise ParameterError(f"hbar must be nonnegative, got {hbar!r}")
    if not l > 0.0:
        raise ParameterError(f"l must be positive, got {l!r}")
    c = math.sqrt(hbar + 1.0)
    return math.tanh(c * l / 2.0) / c


def switch_level(hbar: float, q: float, l: float) -> float:
    """Largest admissible adjoint shooting value, (hbar+q)/(sqrt(hbar+1)*l)."""
    return (hbar + q) / (math.sqrt(hbar + 1.0) * l)


def adjoint_constant_hbar(
    lambda0: float, hbar: float, q: float, l: float, x: float
) -> tuple[float, float]:
    """Adjoint pair (lambda1, lambda2) at x for the constant-hbar control.

    Shot from (lambda0, 0) at x = -l/2.  The phase shift beta satisfies
    tanh(c*beta) = lambda0/lam_s; lambda2(-l/2) = 0 holds by construction.
    """
    lam_s = switch_level(hbar, q, l)
    if not 0.0 < lambda0 < lam_s:
        raise ParameterError(f"lambda0 must lie in (0, {lam_s!r}), got {lambda0!r}")
    c = math.sqrt(hbar + 1.0)
    beta = arctanh(lambda0 / lam_s) / c
    arg = c * (x + l / 2.0 - beta)
    lam1 = -lam_s * sech(c * beta) * math.sinh(arg)
    lam2 = (lam_s / c) * (sech(c * beta) * math.cosh(arg) - 1.0)
    return lam1, lam2


def constant_control_objective(hhat: float, q: float, l: float) -> float:
    """Closed-form objective of the constant-hhat policy."""
    if hhat < 0.0:
        raise ParameterError(f"harvest rate must be nonnegative, got {hhat!r}")
    if not l > 0.0:
        raise ParameterError(f"l must be positive, got {l!r}")
    k = math.sqrt(1.0 + hhat)
    return (q + hhat) / (1.0 + hhat) * (1.0 - (2.0 / (k * l)) * math.tanh(k * l / 2.0))
