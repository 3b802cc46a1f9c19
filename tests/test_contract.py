"""The whole-space contract: every valid (l, q, hbar) gets the optimum or a ParameterError.

Seeded log-uniform draws over l in [1e-6, 1e9], hbar in [1e-8, 1e8] and
q in [1e-6, 1e9], with every fourth draw at q = 1 +- [1e-15, 0.1], where
the reserve regime begins.  Each draw is solved once; the tests read
the shared results.  The physical route runs on the same draws with
D = mu = R = 1, where its reserve half-width is the scaled one.
"""

import math

import numpy as np
import pytest

import oracles
from coastharvest import (
    ParameterError,
    ScaledParams,
    UnscaledParams,
    optimal_policy,
    unscaled_reserve_boundary,
)

DRAWS = 4000
# reserve draws checked against the mpmath half-width (about 60 ms each):
# the ones nearest q = 1, then a spread of the rest
NEAR_ONE_CHECKS, SPREAD_CHECKS = 12, 24


def _log_uniform(rng, lo, hi, n):
    return np.exp(rng.uniform(math.log(lo), math.log(hi), n))


def _draws():
    rng = np.random.default_rng(20261020)
    l = _log_uniform(rng, 1e-6, 1e9, DRAWS)
    hbar = _log_uniform(rng, 1e-8, 1e8, DRAWS)
    q = _log_uniform(rng, 1e-6, 1e9, DRAWS)
    near = np.arange(DRAWS) % 4 == 3
    sign = rng.choice([-1.0, 1.0], DRAWS)
    q = np.where(near, 1.0 + sign * _log_uniform(rng, 1e-15, 0.1, DRAWS), q)
    return list(zip(l.tolist(), q.tolist(), hbar.tolist()))


@pytest.fixture(scope="module")
def solved():
    """(draw, OptimalSolution or the exception it raised) for every draw."""
    out = []
    for draw in _draws():
        try:
            out.append((draw, optimal_policy(ScaledParams(*draw))))
        except Exception as exc:  # sorted out by the tests
            out.append((draw, exc))
    return out


def _solutions(solved):
    return [(draw, sol) for draw, sol in solved if not isinstance(sol, Exception)]


def test_only_parameter_errors_are_raised(solved):
    others = [(draw, exc) for draw, exc in solved
              if isinstance(exc, Exception) and not isinstance(exc, ParameterError)]
    assert not others
    assert len(_solutions(solved)) > 0.9 * DRAWS


def test_every_field_is_finite(solved):
    solutions = _solutions(solved)
    for draw, sol in solutions:
        numbers = [
            *sol.policy.breakpoints,
            *sol.policy.rates,
            sol.reserve_halfwidth,
            sol.objective_j,
            *(v for v in (sol.lambda_bar, sol.Ts, sol.lmin) if v is not None),
            *sol.diagnostics,
        ]
        assert all(math.isfinite(v) for v in numbers), draw
    # reported, not gated: the residuals are absolute, and some correct
    # solves read above verify's 1e-8 at q >= 1e4 or l <= 1e-3
    large = sum(max(sol.diagnostics) > 1e-8 for _, sol in solutions)
    print(f"\n{large} of {len(solutions)} solved draws have a diagnostic above 1e-8")


def test_constant_policy_objectives_match_the_oracle(solved):
    constant = [(draw, sol) for draw, sol in _solutions(solved) if sol.reserve_halfwidth == 0.0]
    assert len(constant) > DRAWS // 2
    for (l, q, hbar), sol in constant:
        want = float(oracles.constant_objective(hbar, q, l))
        assert sol.objective_j == pytest.approx(want, rel=1e-13, abs=0.0), (l, q, hbar)


def test_reserve_halfwidths_match_the_oracle(solved):
    reserves = [(draw, sol) for draw, sol in _solutions(solved) if sol.reserve_halfwidth > 0.0]
    by_weight = sorted(reserves, key=lambda item: item[0][1])
    picked = by_weight[:NEAR_ONE_CHECKS]
    rest = by_weight[NEAR_ONE_CHECKS:]
    picked += rest[:: max(1, len(rest) // SPREAD_CHECKS)][:SPREAD_CHECKS]
    assert len(picked) == NEAR_ONE_CHECKS + SPREAD_CHECKS
    assert picked[0][0][1] - 1.0 < 1e-12
    for (l, q, hbar), sol in picked:
        want = float(oracles.reserve_boundary(1, 1, hbar, q, l))
        assert sol.reserve_halfwidth == pytest.approx(want, rel=1e-12, abs=0.0), (l, q, hbar)


def test_physical_route_matches_the_scaled_one(solved):
    # Q = q, Hbar = hbar and L = l exactly; with D/mu != 1 near q = 1 the
    # routes would part by the rounding of Q/mu in q - 1, not by a fault
    checked = 0
    for (l, q, hbar), sol in _solutions(solved):
        try:
            b = unscaled_reserve_boundary(UnscaledParams(D=1.0, R=1.0, mu=1.0, Hbar=hbar, Q=q, L=l))
        except ParameterError:
            continue
        if sol.reserve_halfwidth == 0.0:
            assert b is None, (l, q, hbar)
        else:
            assert b == pytest.approx(sol.reserve_halfwidth, rel=1e-12, abs=0.0), (l, q, hbar)
        checked += 1
    assert checked > 0.9 * DRAWS
