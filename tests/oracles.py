"""Independent reference evaluators used by the test suite.

Most of this file is computed with mpmath at 40 digits, following the
branched closed forms literally (separate arctanh / log / arcsinh cases,
no algebraic merging).  The production code reduces several of these to
numerically stable single expressions; keeping the raw branches here
means the two sides share no algebra beyond the formulas themselves.

The last section locates the no-reserve threshold length by direct
numerical integration of the adjoint dynamics, sharing no closed form
with the package at all.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

mp.mp.dps = 40

ONE = mp.mpf(1)


def _c(hbar) -> mp.mpf:
    return mp.sqrt(ONE + mp.mpf(hbar))


# ---------------------------------------------------------------------------
# constant-control steady state and its objective


def witness_u(x, hhat, l) -> mp.mpf:
    """Density of the constant-control steady state at x."""
    k = _c(hhat)
    return (ONE - mp.sech(k * mp.mpf(l) / 2) * mp.cosh(k * mp.mpf(x))) / (ONE + mp.mpf(hhat))


def witness_objective(hhat, q, l) -> mp.mpf:
    """Objective of the constant-hhat policy, by adaptive quadrature."""
    l = mp.mpf(l)
    w = mp.mpf(q) + mp.mpf(hhat)
    return mp.quad(lambda x: w * witness_u(x, hhat, l), [-l / 2, 0, l / 2]) / l


def constant_objective(hhat, q, l) -> mp.mpf:
    """Objective of the constant-hhat policy in closed form: the integral of witness_u.

    (q + hhat)/(1 + hhat) * (1 - tanh(kl/2)/(kl/2)); at 40 digits the
    cancellation on short coasts still leaves 27 of them at kl = 1e-6.
    """
    kl = _c(hhat) * mp.mpf(l)
    w = mp.mpf(q) + mp.mpf(hhat)
    return w / (ONE + mp.mpf(hhat)) * (ONE - 2 * mp.tanh(kl / 2) / kl)


def optimal_shoot_slope(hbar, l) -> mp.mpf:
    c = _c(hbar)
    return mp.tanh(c * mp.mpf(l) / 2) / c


def state_return_time(v0, hbar, l) -> mp.mpf:
    c = _c(hbar)
    return (2 / c) * mp.acoth(ONE / (mp.mpf(v0) * c)) - mp.mpf(l) / 2


# ---------------------------------------------------------------------------
# constant-control adjoint (q <= 1 analysis)


def switch_level(hbar, q, l) -> mp.mpf:
    """The lambda_1-axis intercept of the stable manifold, (hbar+q)/(c*l)."""
    return (mp.mpf(hbar) + mp.mpf(q)) / (_c(hbar) * mp.mpf(l))


def adjoint_pair(lambda0, hbar, q, l, x):
    c = _c(hbar)
    l = mp.mpf(l)
    lam_s = switch_level(hbar, q, l)
    beta = mp.atanh(mp.mpf(lambda0) / lam_s) / c
    arg = c * (mp.mpf(x) + l / 2 - beta)
    lam1 = -lam_s * mp.sech(c * beta) * mp.sinh(arg)
    lam2 = (lam_s / c) * (mp.sech(c * beta) * mp.cosh(arg) - ONE)
    return lam1, lam2


def adjoint_return_time(lambda0, hbar, q, l) -> mp.mpf:
    c = _c(hbar)
    lam_s = switch_level(hbar, q, l)
    return (2 / c) * mp.atanh(mp.mpf(lambda0) / lam_s) - mp.mpf(l) / 2


# ---------------------------------------------------------------------------
# q > 1 switching constants and hitting times


def constants(l, q, hbar) -> dict:
    l, q, hbar = mp.mpf(l), mp.mpf(q), mp.mpf(hbar)
    a1, b1 = hbar + 1, hbar + q
    a2, b2 = ONE, q
    d = {
        "a1": a1,
        "b1": b1,
        "a2": a2,
        "b2": b2,
        "i1": b1 / (mp.sqrt(a1) * l),
        "is1": (mp.sqrt(a1) / l) * (b1 / a1 - 1),
        "is2": (mp.sqrt(a2) / l) * (b2 / a2 - 1),
        "lam_star": mp.sqrt(2 * b1 - a1) / l,
    }
    d["lam_starstar"] = mp.sqrt(d["lam_star"] ** 2 + d["is2"] ** 2)
    return d


def _at_least_one(x) -> mp.mpf:
    """An arccosh argument that is >= 1 exactly but may round just below it.

    Below i1 (or lam = 1 in physical units) the argument r/sqrt(1 - t^2)
    is >= 1 because 1 - r^2 is the square of the lowest admissible t;
    at that level it rounds to either side of 1.
    """
    return max(ONE, x)


def switch_hit_x(lambda0, l, q, hbar) -> mp.mpf:
    """x at which the hbar-phase ray from (lambda0, 0) meets the switch line.

    Literal three-case form: arccosh below i1, a log at i1, arcsinh above.
    """
    d = constants(l, q, hbar)
    lam0 = mp.mpf(lambda0)
    a1, b1, i1 = d["a1"], d["b1"], d["i1"]
    r = (b1 / a1 - 1) / (b1 / a1)
    if lam0 < i1:
        t = lam0 / i1
        return (mp.atanh(t) - mp.acosh(_at_least_one(r / mp.sqrt(1 - t * t)))) / mp.sqrt(a1)
    if lam0 == i1:
        return -mp.log(r) / mp.sqrt(a1)
    t = lam0 / i1
    return (mp.acoth(t) - mp.asinh(r / mp.sqrt(t * t - 1))) / mp.sqrt(a1)


def after_switch_x(tilde_lambda0, l, q, hbar) -> mp.mpf:
    d = constants(l, q, hbar)
    return mp.atanh(mp.mpf(tilde_lambda0) / d["is2"]) / mp.sqrt(d["a2"])


def hitting_time(lambda0, l, q, hbar) -> mp.mpf:
    """Five-branch hitting time of the lambda_2-axis; mp.inf when unreachable."""
    d = constants(l, q, hbar)
    lam0 = mp.mpf(lambda0)
    if lam0 >= d["lam_starstar"]:
        return mp.inf
    if lam0 < d["lam_star"]:
        return mp.atanh(lam0 / d["i1"]) / mp.sqrt(d["a1"])
    tilde = mp.sqrt(lam0 ** 2 - d["lam_star"] ** 2)
    return switch_hit_x(lam0, l, q, hbar) + after_switch_x(tilde, l, q, hbar)


def _lost_digits(gap) -> int:
    """Digits that a quantity within gap (relative) of 1 loses to its distance from 1."""
    return max(0, int(-mp.log10(gap))) if gap > 0 else 0


def min_length(q, hbar) -> mp.mpf:
    """Threshold length; 1 - arg^2 = (q - 1)^2/(hbar + q)^2, so the
    precision grows by the digits that arg loses as q -> 1."""
    q, hbar = mp.mpf(q), mp.mpf(hbar)
    with mp.workdps(mp.mp.dps + _lost_digits((q - 1) ** 2 / (hbar + q) ** 2)):
        arg = mp.sqrt((hbar + 1) * (hbar + 2 * q - 1)) / (hbar + q)
        return (2 / mp.sqrt(hbar + 1)) * mp.atanh(arg)


def monotone_witness(lambda0, l, q, hbar) -> mp.mpf:
    d = constants(l, q, hbar)
    lam0 = mp.mpf(lambda0)
    a1, b1, a2, b2 = d["a1"], d["b1"], d["a2"], d["b2"]
    root = mp.sqrt(lam0 ** 2 - d["lam_star"] ** 2)
    return -((2 * b1 - a1) / a1) * (d["lam_starstar"] ** 2 - lam0 ** 2) + (
        b2 / a2 - 1
    ) * lam0 * ((b1 / a1) * root + (b1 / a1 - 1) * lam0)


def lambda_bar(l, q, hbar) -> mp.mpf:
    """Root of hitting_time = l/2 on (0, lam_starstar), by bisection."""
    d = constants(l, q, hbar)
    target = mp.mpf(l) / 2
    lo = d["lam_starstar"] * mp.mpf("1e-30")
    hi = d["lam_starstar"] * (ONE - mp.mpf("1e-30"))
    for _ in range(220):
        mid = (lo + hi) / 2
        if hitting_time(mid, l, q, hbar) < target:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


# ---------------------------------------------------------------------------
# unscaled (physical-parameter) reserve formulas


def unscaled_min_length(D, mu, Hbar, Q) -> mp.mpf:
    """Threshold length in physical units, with min_length's precision rule."""
    D, mu, Hbar, Q = (mp.mpf(v) for v in (D, mu, Hbar, Q))
    with mp.workdps(mp.mp.dps + _lost_digits((Q - mu) ** 2 / (Hbar + Q) ** 2)):
        arg = mp.sqrt((Hbar + mu) * (Hbar + 2 * Q - mu)) / (Hbar + Q)
        return 2 * mp.sqrt(D / (Hbar + mu)) * mp.atanh(arg)


def half_length_domain(D, mu, Hbar, Q):
    """Open interval of admissible lambda for the half-length function."""
    mu, Hbar, Q = (mp.mpf(v) for v in (mu, Hbar, Q))
    lo = mp.sqrt((Hbar + 2 * Q - mu) * (Hbar + mu)) / (Hbar + Q)
    hi = mp.sqrt((Hbar + Q ** 2 / mu) * (Hbar + mu)) / (Hbar + Q)
    return lo, hi


def half_length(lam, D, mu, Hbar, Q) -> mp.mpf:
    """Distance from the coast end to the switch, as a function of lambda."""
    D, mu, Hbar, Q = (mp.mpf(v) for v in (D, mu, Hbar, Q))
    lam = mp.mpf(lam)
    r = (Q - mu) / (Q + Hbar)
    s1 = mp.sqrt(D / (Hbar + mu))
    s2 = mp.sqrt(D / mu)
    if lam < 1:
        first = s1 * (mp.atanh(lam) - mp.acosh(_at_least_one(r / mp.sqrt(1 - lam * lam))))
    elif lam == 1:
        inner = mp.sqrt(mu / (Hbar + mu)) * mp.sqrt(
            (Hbar + Q) ** 2 - (Hbar + 2 * Q - mu) * (Hbar + mu)
        ) / (Q - mu)
        return -s1 * mp.log(r) + s2 * mp.atanh(inner)
    else:
        first = s1 * (mp.acoth(lam) - mp.asinh(r / mp.sqrt(lam * lam - 1)))
    inner = ((Hbar + Q) / (Q - mu)) * mp.sqrt(mu / (Hbar + mu)) * mp.sqrt(
        lam * lam - (Hbar + 2 * Q - mu) * (Hbar + mu) / (Hbar + Q) ** 2
    )
    return first + s2 * mp.atanh(inner)


def reserve_boundary(D, mu, Hbar, Q, L) -> mp.mpf:
    """Reserve half-width: invert half_length = L/2, apply the boundary form.

    The admissible interval (lo, hi) of lambda narrows like (Q - mu)^2
    as Q -> mu: hi^2 - lo^2 = (Hbar + mu)(Q - mu)^2 / (mu (Hbar + Q)^2).
    So the working precision grows by the digits its relative width
    lacks, and the bracket is pulled in from both ends by 10^(8 - dps)
    of that width (dps the caller's precision), which always leaves the
    root inside and is resolved as on a wide interval.
    """
    dps = mp.mp.dps
    D, mu, Hbar, Q, L = (mp.mpf(v) for v in (D, mu, Hbar, Q, L))
    spread = (Hbar + mu) * (Q - mu) ** 2 / (mu * (Hbar + Q) ** 2)
    with mp.workdps(dps + _lost_digits(spread / half_length_domain(D, mu, Hbar, Q)[1] ** 2)):
        lo, hi = half_length_domain(D, mu, Hbar, Q)
        pad = (hi - lo) * mp.mpf(10) ** (8 - dps)
        a, b = lo + pad, hi - pad
        for _ in range(220):
            mid = (a + b) / 2
            if half_length(mid, D, mu, Hbar, Q) < L / 2:
                a = mid
            else:
                b = mid
        lam = (a + b) / 2
        r = (Q - mu) / (Q + Hbar)
        s1 = mp.sqrt(D / (Hbar + mu))
        if lam < 1:
            return L / 2 - s1 * (mp.atanh(lam) - mp.acosh(_at_least_one(r / mp.sqrt(1 - lam * lam))))
        if lam == 1:
            return L / 2 + s1 * mp.log(r)
        return L / 2 - s1 * (mp.acoth(lam) - mp.asinh(r / mp.sqrt(lam * lam - 1)))


def neumann_objective(h, q) -> mp.mpf:
    """Constant-control objective under zero-flux boundaries: u = 1/(1+h)."""
    h, q = mp.mpf(h), mp.mpf(q)
    return (q + h) / (1 + h)


# ---------------------------------------------------------------------------
# threshold length by direct integration of the adjoint phase plane
#
# The no-reserve policy is optimal exactly when the adjoint orbit that
# turns around at the midpoint never reaches the switch line.  At the
# threshold the turning orbit grazes the line, so we chase the graze
# itself: for each l, find the launch level at which the orbit's closest
# approach to the line is zero, then ask where that grazing orbit turns.
# Both roots are of continuous functions, so Brent's method finds them.
# Orbits below the graze level never leave the full-effort phase, so the
# integration can stay in that phase and no event straddles the line.


def full_effort_orbit(lambda0, l, q, hbar):
    """Integrate the full-effort adjoint orbit from the coast end.

    Returns (turn, approach): the distance at which the orbit turns
    around (inf if it never does) and the signed closest approach of
    the multiplier to the switch line along the way (positive means the
    line was never reached).  The closest approach is refined on a dense
    window around the coarse minimum rather than by an event, so a
    shallow dip inside one solver step cannot be missed.
    """
    a, b = 1.0 + hbar, hbar + q

    def rhs(x, s):
        return (-a * s[1] - b / l, -s[0])

    def axis(x, s):
        return s[0]

    axis.terminal, axis.direction = True, -1.0
    sol = solve_ivp(rhs, (0.0, 10.0 * l), [lambda0, 0.0], method="DOP853",
                    rtol=1e-12, atol=1e-14, events=(axis,), dense_output=True)
    turn = sol.t_events[0][0] if sol.t_events[0].size else math.inf
    end = turn if math.isfinite(turn) else 10.0 * l
    ts = np.linspace(0.0, end, 2000)
    vals = sol.sol(ts)[1] + 1.0 / l
    i = int(np.argmin(vals))
    window = np.linspace(ts[max(i - 2, 0)], ts[min(i + 2, len(ts) - 1)], 300)
    approach = min(vals.min(), (sol.sol(window)[1] + 1.0 / l).min())
    return turn, float(approach)


def grazing_level(l, q, hbar):
    """Launch level whose orbit just touches the switch line."""
    lo = 1e-6
    hi = (hbar + q) / (math.sqrt(1.0 + hbar) * l)  # center level; orbits launched below it turn
    return brentq(lambda lam0: full_effort_orbit(lam0, l, q, hbar)[1], lo, hi, rtol=1e-15)


def threshold_length(q, hbar, bracket=(2.0, 3.0), tol=5e-8):
    """Domain length where the grazing orbit turns exactly at the midpoint."""

    def excess(l):
        turn, _ = full_effort_orbit(grazing_level(l, q, hbar), l, q, hbar)
        return turn - l / 2.0

    lo, hi = bracket
    if not excess(lo) > 0.0 > excess(hi):
        raise ValueError("bracket does not straddle the threshold")
    return brentq(excess, lo, hi, xtol=tol)
