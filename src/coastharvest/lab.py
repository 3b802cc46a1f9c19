"""Independent verification tools.

Nothing here reuses the closed forms under test.  Policies are ranked
by exhaustive search over bang-bang cell policies, all scored by one
batched tridiagonal solve for the steady state at the cell edges, and
by shooting over a grid of reserve blocks.  The hitting time is
measured by event-detecting integration of the hybrid adjoint flow, the
steady state is reproduced by implicit time stepping of the parabolic
problem, and linearized stability is checked through the spectrum of
the discretized operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import cho_solve_banded, cholesky_banded

from .bvp import evaluate_objective, shoot_steady_state
from .params import ParameterError, ScaledParams
from .policy import HarvestPolicy, single_reserve_policy
from .synthesis import optimal_policy

# exhaustive search cap: 2^16 candidates, for which the batched solve holds
# 2(cells-1) float arrays of 2^cells entries (16 MB)
MAX_CELLS = 16

# event integration gives up after this many domain lengths
_HORIZON_FACTOR = 10.0


@dataclass(frozen=True)
class SweepResult:
    """Ranked candidate policies from an exhaustive or grid search."""

    candidates: tuple[tuple[dict, float], ...]
    best: int
    analytic_objective: float
    gap: float

    @property
    def best_objective(self) -> float:
        return self.candidates[self.best][1]

    @property
    def best_descriptor(self) -> dict:
        return self.candidates[self.best][0]

    def summary(self) -> dict:
        return {
            "candidates": len(self.candidates),
            "best_index": self.best,
            "best_descriptor": self.best_descriptor,
            "best_objective": self.best_objective,
            "analytic_objective": self.analytic_objective,
            "gap": self.gap,
        }

    def write_csv(self, path: str) -> None:
        keys = sorted(self.candidates[0][0])
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(keys + ["objective_j"]) + "\n")
            for desc, obj in self.candidates:
                cells = [
                    format(desc[k], ".17g") if isinstance(desc[k], float) else str(desc[k])
                    for k in keys
                ]
                fh.write(",".join(cells + [format(obj, ".17g")]) + "\n")


def _rank(candidates: list[tuple[dict, float]], sp: ScaledParams) -> SweepResult:
    best = 0
    for i, (_, obj) in enumerate(candidates):
        if obj > candidates[best][1]:
            best = i
    analytic = optimal_policy(sp).objective_j
    return SweepResult(
        candidates=tuple(candidates),
        best=best,
        analytic_objective=analytic,
        gap=analytic - candidates[best][1],
    )


def _cell_objectives(sp: ScaledParams, cells: int) -> np.ndarray:
    """Objective j of every {0, hbar} policy on equal cells, indexed by mask.

    Bit cells-1-i of a mask sets the rate of cell i (counted from the
    left).  The steady-state values u_1..u_{c-1} at the interior cell
    edges solve a symmetric, strictly diagonally dominant tridiagonal
    system from flux continuity; u is 0 at both coast ends.  A cell of
    width w and rate h, with k = sqrt(1+h), off = 1/(1+h) and
    t = tanh(kw/2), contributes k*coth(kw) to the diagonal entries of
    its two edges, -k*csch(kw) to their coupling and k*off*t to their
    loads, and its exact integral is off*w + (u_L + u_R - 2*off)*t/k.
    Thomas elimination runs one edge at a time over all masks at once,
    and the objective is summed during back-substitution.  No step is
    amplified by e^(k*l), so long coasts stay exact.
    """
    w = sp.l / cells
    h = np.array([0.0, sp.hbar])
    k = np.sqrt(1.0 + h)
    off = 1.0 / (1.0 + h)
    kw = k * w
    # coth and csch through e^(-kw), which cannot overflow on long cells
    e = np.exp(-kw)
    one_minus = -np.expm1(-2.0 * kw)
    diag = k * (2.0 - one_minus) / one_minus
    couple = -k * 2.0 * e / one_minus
    t = np.tanh(0.5 * kw)
    load = k * off * t
    edge_weight = (sp.q + h) * t / k
    cell_const = (sp.q + h) * off * (w - 2.0 * t / k)

    masks = np.arange(1 << cells)

    def rate_bit(i: int) -> np.ndarray:
        return (masks >> (cells - 1 - i)) & 1

    # forward sweep: row j couples u_j to u_{j-1} through cell j-1
    sup: list[np.ndarray] = []
    rhs: list[np.ndarray] = []
    prev = rate_bit(0)
    c_prev = d_prev = np.zeros(masks.size)
    total = cell_const[prev]
    for j in range(1, cells):
        cur = rate_bit(j)
        sub = couple[prev]
        piv = diag[prev] + diag[cur] - sub * c_prev
        c_prev = couple[cur] / piv
        d_prev = (load[prev] + load[cur] - sub * d_prev) / piv
        sup.append(c_prev)
        rhs.append(d_prev)
        total += cell_const[cur]
        prev = cur
    # back-substitution from u_c = 0, adding each edge value's weight
    u = np.zeros(masks.size)
    nxt = prev
    for j in range(cells - 1, 0, -1):
        cur = rate_bit(j - 1)
        u = rhs[j - 1] - sup[j - 1] * u
        total += u * (edge_weight[cur] + edge_weight[nxt])
        nxt = cur
    return total / sp.l


def brute_force_bangbang(sp: ScaledParams, cells: int) -> SweepResult:
    """Rank every {0, hbar}-valued policy on an equal-width cell partition.

    Candidates come in mask order, each described by its bit string with
    the leftmost cell first; all 2^cells objectives come from one batched
    tridiagonal solve.
    """
    if not 1 <= cells <= MAX_CELLS:
        raise ParameterError(f"cells must lie in [1, {MAX_CELLS}], got {cells!r}")
    objectives = _cell_objectives(sp, cells).tolist()
    candidates = [
        ({"mask": format(mask, f"0{cells}b")}, obj) for mask, obj in enumerate(objectives)
    ]
    return _rank(candidates, sp)


def reserve_sweep(sp: ScaledParams, centers: int, widths: int) -> SweepResult:
    """Rank single no-take-block policies over a center x width grid.

    Centers span the middle half of the coast, widths go from zero (the
    constant policy) to the whole domain; blocks are clipped to the coast.
    """
    if centers < 2 or widths < 2:
        raise ParameterError(f"need grids >= 2, got {(centers, widths)!r}")
    candidates: list[tuple[dict, float]] = []
    for c in np.linspace(-sp.l / 4.0, sp.l / 4.0, centers):
        for w in np.linspace(0.0, sp.l, widths):
            pol = single_reserve_policy(sp.l, c - w / 2.0, c + w / 2.0, sp.hbar)
            profile = shoot_steady_state(pol, samples=2)
            candidates.append(
                (
                    {"center": float(c), "width": float(w)},
                    evaluate_objective(pol, profile, sp.q),
                )
            )
    return _rank(candidates, sp)


def integrate_adjoint_with_events(
    lambda0: float, sp: ScaledParams, max_step: float = math.inf
) -> tuple[float, int]:
    """Hitting time of the lambda2-axis by direct hybrid integration.

    Starts at (lambda0, 0) in the maximal-harvest phase, toggles the
    rate whenever the trajectory crosses the switching line, and stops
    at the first lambda1 = 0 event.  Returns (hit time, number of line
    crossings); the hit time is inf when the horizon 10*l is exhausted.
    Cap max_step when orbits graze the line: event detection needs a
    sign change across a step, and shallow dips can fit inside one.
    """
    if not lambda0 > 0.0:
        raise ParameterError(f"lambda0 must be positive, got {lambda0!r}")
    if not sp.q > 1.0:
        raise ParameterError(f"event oracle applies to q > 1, got q={sp.q!r}")
    l, q = sp.l, sp.q
    horizon = _HORIZON_FACTOR * l
    t, y = 0.0, np.array([lambda0, 0.0])
    harvesting = True
    crossings = 0
    for _ in range(8):
        h = sp.hbar if harvesting else 0.0
        a, b = 1.0 + h, h + q

        def rhs(x, s, a=a, b=b):
            return (-a * s[1] - b / l, -s[0])

        def axis(x, s):
            return s[0]

        def line(x, s):
            return s[1] + 1.0 / l

        axis.terminal, axis.direction = True, -1.0
        # the line is crossed downward entering the no-take phase and
        # upward leaving it; the phase-dependent direction also stops the
        # event from retriggering at the restart point
        line.terminal, line.direction = True, (-1.0 if harvesting else 1.0)
        sol = solve_ivp(
            rhs,
            (t, horizon),
            y,
            method="DOP853",
            rtol=1e-12,
            atol=1e-14,
            max_step=max_step,
            events=(axis, line),
        )
        hit = sol.t_events[0][0] if sol.t_events[0].size else math.inf
        cross = sol.t_events[1][0] if sol.t_events[1].size else math.inf
        if hit <= cross:
            return hit, crossings
        if math.isfinite(cross):
            crossings += 1
            t, y = cross, sol.y_events[1][0]
            harvesting = not harvesting
            continue
        break
    return math.inf, crossings


@dataclass(frozen=True)
class PdeRun:
    """Final state of an implicit parabolic run and its approach history."""

    x: np.ndarray
    u: np.ndarray
    l2_distance: float
    history: tuple[tuple[float, float], ...]

    def write_csv(self, path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("x,u\n")
            for xi, ui in zip(self.x, self.u):
                fh.write(f"{xi:.17g},{ui:.17g}\n")


def _aligned_grid(policy: HarvestPolicy, dx: float) -> np.ndarray:
    """Nodes covering the coast, uniform within each policy segment.

    Aligning nodes with the rate breakpoints keeps the spatial error at
    second order; a misaligned interface would degrade it locally.
    """
    nodes = [policy.breakpoints[0]]
    for x0, x1, _ in policy.segments():
        n = max(1, round((x1 - x0) / dx))
        nodes.extend(x0 + (x1 - x0) * i / n for i in range(1, n + 1))
    return np.array(nodes)


def pde_time_stepper(
    policy: HarvestPolicy,
    sp: ScaledParams,
    dx: float | None = None,
    dt: float | None = None,
    t_max: float = 40.0,
) -> PdeRun:
    """Evolve u_t = u_xx - (1+h)u + 1 from u = 0 to t_max, implicitly.

    Backward-time stepping with a symmetric second-order spatial
    operator on a breakpoint-aligned grid; unconditionally stable, and
    its fixed point is the discrete steady state for any dt.  Reports
    the final weighted L2 distance to the shooting solution.
    """
    dx = sp.l / 512.0 if dx is None else dx
    dt = sp.l / 512.0 if dt is None else dt
    if not (dx > 0.0 and dt > 0.0 and t_max > 0.0):
        raise ParameterError(f"dx, dt, t_max must be positive, got {(dx, dt, t_max)!r}")
    nodes = _aligned_grid(policy, dx)
    steps_dx = np.diff(nodes)
    rate = np.array(
        [policy.rate_at(0.5 * (a + b)) for a, b in zip(nodes[:-1], nodes[1:])]
    )
    n = len(nodes) - 2
    if n < 1:
        raise ParameterError("grid too coarse: no interior nodes")
    lumped = 0.5 * (steps_dx[:-1] + steps_dx[1:])
    diag = (
        1.0 / steps_dx[:-1]
        + 1.0 / steps_dx[1:]
        + lumped / dt
        + 0.5 * ((1.0 + rate[:-1]) * steps_dx[:-1] + (1.0 + rate[1:]) * steps_dx[1:])
    )
    upper = -1.0 / steps_dx[1:-1]
    band = np.zeros((2, n))
    band[0, 1:] = upper
    band[1, :] = diag
    chol = cholesky_banded(band)

    target = shoot_steady_state(policy)
    u_star = target.eval_many(nodes[1:-1])[0]

    u = np.zeros(n)
    load = lumped.copy()
    nsteps = max(1, int(math.ceil(t_max / dt - 1e-12)))
    every = max(1, nsteps // 64)
    history: list[tuple[float, float]] = []

    def distance(vec: np.ndarray) -> float:
        return float(np.sqrt(np.sum(lumped * (vec - u_star) ** 2)))

    for step in range(1, nsteps + 1):
        u = cho_solve_banded((chol, False), lumped * u / dt + load)
        if not np.all(np.isfinite(u)) or np.max(np.abs(u)) > 1e8:
            raise RuntimeError(f"time stepping blew up at step {step}")
        if step % every == 0 or step == nsteps:
            history.append((step * dt, distance(u)))

    full_u = np.concatenate([[0.0], u, [0.0]])
    return PdeRun(
        x=nodes, u=full_u, l2_distance=distance(u), history=tuple(history)
    )


def _negative_pivots(diag: np.ndarray, off_sq: np.ndarray, sigma: float) -> int:
    """Sturm count: eigenvalues of the tridiagonal matrix below sigma."""
    # exact-zero pivots are nudged; the floor is large enough that the
    # following division cannot overflow for any grid this module builds
    tiny = 1e-30
    count = 0
    p = diag[0] - sigma
    if p < 0.0:
        count += 1
    for i in range(1, len(diag)):
        if abs(p) < tiny:
            p = -tiny if p <= 0.0 else tiny
        p = (diag[i] - sigma) - off_sq[i - 1] / p
        if p < 0.0:
            count += 1
    return count


def stability_eigenvalues(
    policy: HarvestPolicy, sp: ScaledParams, n: int
) -> tuple[float, bool]:
    """Largest eigenvalue of w -> w'' - (1+h)w with absorbing boundaries.

    Symmetric second-difference discretization on n interior points with
    the rate cell-averaged around each node, then Sturm-sequence
    bisection for the top of the spectrum.  The energy identity pushes
    every eigenvalue below -1 for any admissible policy.
    """
    if n < 16:
        raise ParameterError(f"need at least 16 interior points, got {n!r}")
    l = sp.l
    dx = l / (n + 1)
    xs = -l / 2.0 + dx * np.arange(1, n + 1)
    pot = np.array(
        [1.0 + policy.average_rate(x - dx / 2.0, x + dx / 2.0) for x in xs]
    )
    diag = -2.0 / dx**2 - pot
    off_sq = np.full(n - 1, (1.0 / dx**2) ** 2)
    lo = float(np.min(diag)) - 2.0 / dx**2
    hi = float(np.max(diag)) + 2.0 / dx**2
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if _negative_pivots(diag, off_sq, mid) >= n:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-13 * max(1.0, abs(hi)):
            break
    top = 0.5 * (lo + hi)
    return top, top < 0.0
