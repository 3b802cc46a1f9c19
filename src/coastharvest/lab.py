"""Independent verification tools.

Nothing here reuses the closed forms under test.  Policies are ranked
by exhaustive search over bang-bang cell policies and over a grid of
reserve blocks.  Both searches are scored by one batched sweep that
carries the flux map of the steady state and the objective from a coast
end across the pieces: the cell search meets in the middle, and the
block search sweeps once per block shape.  The hitting time is
measured by bisecting the horizon of the hybrid adjoint flow with its
exact flow maps, all starts at once: no event undoes itself, so whether
a start has stopped by time t is monotone in t.  Each phase is affine
with three distinct eigenvalues, so in its eigen-coordinates every flow
map is an elementwise exponential scaling.  Linearized stability is
checked through the spectrum of the discretized operator.  Of scipy,
only scipy.linalg is needed.

The steady state is checked in two parts.  The time stepper shows that
the parabolic flow settles on its grid's own steady state u_h: it
factors its SPD tridiagonal operators once as LDL^T (LAPACK ?pttrf),
takes each step with one ?pttrs, and steps the deviation from u_h, so
rounding decays with the deviation instead of accumulating, and it
stops once the deviation can no longer move the state.  The steady gap
shows that u_h converges to the shooting solution: it solves the steady
system on a grid and on its bisection and Richardson-extrapolates, so
its value does not grow with the coast length.  A mirror-symmetric
policy (every optimum is one) is solved on the half grid from the
centre on, and an asymmetric one on the full grid.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Sequence

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal
from scipy.linalg.lapack import dpttrf, dpttrs

from .bvp import shoot_steady_state
from .params import ParameterError, ScaledParams
from .policy import HarvestPolicy

# exhaustive search cap: 2^16 candidates, for which the meet-in-the-middle
# sweep holds a few float arrays of 2^cells entries (0.5 MB each)
MAX_CELLS = 16

# reserve-sweep cap: 2^16 candidates, for which the batched pass holds
# float arrays of at most 3 x 2^16 entries (1.5 MB)
MAX_SWEEP_CANDIDATES = 2**16

# parabolic run cap: verify's default run asks for 640 steps and stops
# early once settled (after 20 at l = 0.3, 390 at l = 4, 630 at l = 1e4)
MAX_STEPS = 10**6

# grid cap, 8 MB per float array: the steady gap's coarse grid reaches it
# at l = 2^15 and its bisection doubles it
MAX_CELLS_PER_GRID = 2**20

# the event bisection searches this many of the flow's time scales,
# max(l, 1/sqrt(a)); a later event reads as none
_HORIZON_FACTOR = 10.0

# event bisection levels past s = min(max(l, 1/sqrt(a))/16, 1/sqrt(a)):
# the last bracket, at most s*2^-60, is at most one ulp of any event
# time from s/256 on
_REFINE_LEVELS = 60


class SweepResult(NamedTuple):
    """Objectives of the candidates of an exhaustive or grid search.

    describe(i) is the descriptor of candidate i; best is the index of
    the first largest objective.
    """

    objectives: np.ndarray
    describe: Callable[[int], dict]

    @property
    def best(self) -> int:
        return int(np.argmax(self.objectives))

    @property
    def best_objective(self) -> float:
        return float(self.objectives[self.best])

    @property
    def best_descriptor(self) -> dict:
        return self.describe(self.best)

    @property
    def candidates(self) -> tuple[tuple[dict, float], ...]:
        """(descriptor, objective) of every candidate, built on each read."""
        return tuple((self.describe(i), obj) for i, obj in enumerate(self.objectives.tolist()))


def _excess(kw: np.ndarray, k: np.ndarray) -> np.ndarray:
    """w - 2*tanh(kw/2)/k without cancellation where kw < 1 (z = kw/2 is clipped at 1/2).

    It is (2/k)(z cosh z - sinh z)/cosh z, and z cosh z - sinh z sums
    the positive terms 2n z^(2n+1)/(2n+1)!, n >= 1, here to n = 7 in
    Horner form; the eighth is 8e-18 of the sum at z = 1/2.
    """
    z = np.minimum(0.5 * kw, 0.5)
    s = z * z
    p = 1 / 840 + s * (1 / 45360 + s * (1 / 3991680 + s * (1 / 518918400 + s / 93405312000)))
    return (2.0 / k) * z * s * (1 / 3 + s * (1 / 30 + s * p)) / np.cosh(z)


def _factors(sp: ScaledParams, h: np.ndarray, d) -> tuple[np.ndarray, ...]:
    """Sweep factors of pieces of rate h and width d, one array per factor.

    With k = sqrt(1+h), off = 1/(1+h), t = tanh(kd) and c = sech(kd),
    they are k, t, k*c, g = k*off*(1-c), k^2*t, -k*c/t, -g/t (which
    is -tanh(kd/2)/k), and the piece's objective terms
    kappa = (q+h)*off*(d - 2*tanh(kd/2)/k), from _excess below kd = 1,
    and omega = (q+h)*tanh(kd/2)/k: the piece integrates (q+h)*u to
    kappa + omega*(u0 + u1) with edge values u0, u1.  k*off is 1/k, and
    1 - c = (1 - e^(-kd))^2/(1 + e^(-2kd)), which keeps its digits on a
    thin piece.
    """
    k = np.sqrt(1.0 + h)
    kd = k * d
    t = np.tanh(kd)
    e = np.exp(-kd)
    den = 1.0 + e * e
    kc = k * (2.0 * e / den)
    g = np.expm1(-kd) ** 2 / (den * k)
    half_t = np.tanh(0.5 * kd) / k
    gap = np.where(kd < 1.0, _excess(kd, k), d - 2.0 * half_t)
    w = sp.q + h
    return k, t, kc, g, (1.0 + h) * t, -kc / t, -half_t, w / (1.0 + h) * gap, w * half_t


def _sweep(factors: Sequence[np.ndarray]) -> tuple[np.ndarray, ...]:
    """(S, F, alpha, beta) after every piece, swept in order from a coast end.

    factors come from _factors, each with one row per piece, in sweep
    order, and one column per policy.  With value w at the far edge of
    the last piece, S*w + F is the outward flux there and alpha + beta*w
    the integral of (q+h)*u over the swept pieces.  A piece's near edge
    value is v = p*w + r, with p = k*c/(k + S*t) and
    r = (g - F*t)/(k + S*t), and it maps
        S' = (k*S + k^2*t)/(k + S*t),   F' = -(k*c*r + g)/t,
        alpha' = alpha + (beta + omega)*r + kappa,
        beta' = (beta + omega)*p + omega.
    F <= 0, so r >= 0 and 0 < p <= 1: every term keeps its sign, and
    nothing is amplified by e^(k*l), so a piece of a few ulps or a long
    coast stays exact.
    """
    pieces = zip(*factors)
    k, t, _, _, _, _, f, alpha, beta = next(pieces)
    s = k / t
    for k, t, kc, g, k2t, kc_t, g_t, kappa, omega in pieces:
        inv = 1.0 / (k + s * t)
        r = (g - f * t) * inv
        s, f = (k * s + k2t) * inv, kc_t * r + g_t
        share = beta + omega
        alpha, beta = alpha + share * r + kappa, share * (kc * inv) + omega
    return s, f, alpha, beta


def _cell_objectives(sp: ScaledParams, cells: int) -> np.ndarray:
    """Objective j of every {0, hbar} policy on equal cells, indexed by mask.

    Bit cells-1-i of a mask sets the rate of cell i (counted from the
    left).  The search meets in the middle: each half of the coast is
    swept from its own end to the middle edge over all of its
    2^(cells/2) half-masks at once, so the right half's bits come
    reversed, and each of the 2^cells pairs costs O(1) there: the
    fluxes balance at u_m = -(F_l + F_r)/(S_l + S_r), and
    j = (alpha_l + alpha_r + (beta_l + beta_r)*u_m)/l.
    """
    factors = _factors(sp, np.array([0.0, sp.hbar]), sp.l / cells)
    if cells == 1:
        # one piece, one column per rate
        return _sweep([x[None] for x in factors])[2] / sp.l
    m = cells // 2
    # row i: the bit of the i-th cell from the half's coast end, per half-mask
    left = (np.arange(1 << m) >> np.arange(m - 1, -1, -1)[:, None]) & 1
    right = (np.arange(1 << (cells - m)) >> np.arange(cells - m)[:, None]) & 1
    s_l, f_l, a_l, b_l = _sweep([x[left] for x in factors])
    s_r, f_r, a_r, b_r = _sweep([x[right] for x in factors])
    u_mid = -(f_l[:, None] + f_r) / (s_l[:, None] + s_r)
    total = a_l[:, None] + a_r + (b_l[:, None] + b_r) * u_mid
    return total.ravel() / sp.l


def brute_force_bangbang(sp: ScaledParams, cells: int) -> SweepResult:
    """Rank every {0, hbar}-valued policy on an equal-width cell partition.

    Candidates come in mask order, each described by its bit string with
    the leftmost cell first; all 2^cells objectives come from one batched
    sweep that meets in the middle.
    """
    if not 1 <= cells <= MAX_CELLS:
        raise ParameterError(f"cells must lie in [1, {MAX_CELLS}], got {cells!r}")
    return SweepResult(
        objectives=_cell_objectives(sp, cells),
        describe=lambda mask: {"mask": format(mask, f"0{cells}b")},
    )


def _piece_objectives(sp: ScaledParams, edges: np.ndarray, rates: Sequence[float]) -> np.ndarray:
    """Objective j of every policy with the given rates on its pieces.

    edges has one row per piece edge and one column per policy, from
    -l/2 to l/2.  One sweep from the left coast end crosses every piece
    of every column at once, and j = alpha/l at the right end, where
    u = 0.
    """
    return _sweep(_factors(sp, np.array(rates)[:, None], np.diff(edges, axis=0)))[2] / sp.l


def reserve_sweep(sp: ScaledParams, centers: int, widths: int) -> SweepResult:
    """Rank single no-take-block policies over a center x width grid.

    Centers span the middle half of the coast, widths go from zero (the
    constant policy) to the whole domain; blocks are clipped to the coast.
    Candidates come center-major.  They are grouped by shape (no block,
    a block touching neither end, the left end only, the right end only,
    or the whole coast), and each group is scored in one batched pass.
    """
    if centers < 2 or widths < 2:
        raise ParameterError(f"need grids >= 2, got {(centers, widths)!r}")
    if centers * widths > MAX_SWEEP_CANDIDATES:
        raise ParameterError(
            f"reserve sweep grid too large: {centers} x {widths} candidates, "
            f"at most {MAX_SWEEP_CANDIDATES}"
        )
    cs = np.linspace(-sp.l / 4.0, sp.l / 4.0, centers)
    ws = np.linspace(0.0, sp.l, widths)
    c, w = np.repeat(cs, widths), np.tile(ws, centers)
    end = sp.l / 2.0
    lo = np.maximum(c - w / 2.0, -end)
    hi = np.minimum(c + w / 2.0, end)
    block = lo < hi
    opens_left, opens_right = block & (lo > -end), block & (hi < end)
    hbar = sp.hbar
    groups = (
        (~block, (-end, end), (hbar,)),
        (opens_left & opens_right, (-end, lo, hi, end), (hbar, 0.0, hbar)),
        (~opens_left & opens_right, (-end, hi, end), (0.0, hbar)),
        (opens_left & ~opens_right, (-end, lo, end), (hbar, 0.0)),
        (block & ~(opens_left | opens_right), (-end, end), (0.0,)),
    )
    objectives = np.empty(c.size)
    for members, edges, rates in groups:
        if members.any():
            columns = np.array([np.broadcast_to(x, c.shape)[members] for x in edges])
            objectives[members] = _piece_objectives(sp, columns, rates)
    return SweepResult(
        objectives=objectives,
        describe=lambda i: {"center": float(cs[i // widths]), "width": float(ws[i % widths])},
    )


def _first_events(
    a: float, b: float, l: float, z: np.ndarray, g: Callable[[np.ndarray], np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """First zero of g along z' = J z from each column of z, within 10*max(l, 1/sqrt(a)).

    z = (lambda1, lambda2, 1) holds one start per column, and
    J = [[0, -a, -b/l], [-1, 0, 0], [0, 0, 0]] is the affine flow of a
    phase with rate h, a = 1+h and b = h+q.  g must never turn positive
    again once it reaches 0, so "stopped by time t" (g <= 0, or a state
    no longer finite) is monotone in t and the whole horizon brackets
    every event.  The horizon follows the flow's own time scale: on
    short coasts the hitting time is 10-30 l but of order 1/sqrt(a).
    All starts bisect [0, horizon] at once, level j with the exact map
    exp(J*horizon*2^-j), and the last bracket is as fine as
    _REFINE_LEVELS asks.  J = V diag(mu) V^-1 with mu = (sqrt(a),
    -sqrt(a), 0), so the bisection runs on y = V^-1 z, where level j's
    map scales y by exp(mu*horizon*2^-j), and g reads V y.  Returns the
    event times (inf for none, or when the state stops being finite
    first) and the states there (NaN for none).
    """
    flow_time = 1.0 / math.sqrt(a)
    scale = max(l, flow_time)
    horizon = _HORIZON_FACTOR * scale
    levels = _REFINE_LEVELS + math.ceil(math.log2(horizon / min(scale / 16.0, flow_time)))
    widths = horizon * 0.5 ** np.arange(levels + 1)
    jac = np.array([[0.0, -a, -b / l], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    mu, vecs = np.linalg.eig(jac)
    # the long maps overflow on long coasts.  Once a state is not finite
    # no later one is, and an event needs a finite hi, so an overflow
    # never reads as an event and never moves a start that has one: the
    # bisection skips the levels whose map overflows, after the widest
    with np.errstate(over="ignore", invalid="ignore"):
        growth = np.exp(np.outer(widths, mu))[:, :, None]
        first = max(1, int(np.isfinite(growth).all(axis=(1, 2)).argmax()))
        lo = np.linalg.solve(vecs, z)
        hi, ahead = growth[0] * lo, []
        for half in growth[first:]:
            mid = half * lo
            ahead.append(g(vecs @ mid) > 0.0)
            np.copyto(lo, mid, where=ahead[-1])
            np.copyto(hi, mid, where=~ahead[-1])
        hi = vecs @ hi
        found = np.isfinite(hi).all(axis=0) & (g(hi) <= 0.0)
    # lo moved ahead by the widths of the levels where g stayed positive,
    # summed in level order, and each event lies within one last width
    t_lo = (widths[first:, None] * np.array(ahead)).sum(axis=0)
    times = np.where(found, t_lo + widths[-1], math.inf)
    return times, np.where(found, hi, math.nan)


def integrate_adjoint_with_events(
    lambda0s: Sequence[float], sp: ScaledParams
) -> tuple[tuple[float, int], ...]:
    """Hitting times of the lambda2-axis by bisecting the hybrid adjoint flow.

    Each start (lambda0, 0) runs in the maximal-harvest phase until its
    first lambda1 = 0 event.  lambda2 falls while lambda1 > 0, so the
    orbit crosses the switching line lambda2 = -1/l at most once before
    that hit, downward, and from there runs in the no-take phase.
    Returns one (hit time, number of line crossings) per start; the hit
    time is inf when a phase runs for 10*max(l, 1/sqrt(1+h)), on its own
    clock, without the start's event, or when the start's state stops
    being finite first.

    Both phases are affine and autonomous, so each is bisected with its
    exact flow maps (see _first_events), all starts at once, and each
    no-take run starts at s = 0 from its own crossing state.  In the
    harvest phase a start's event is g = min(lambda1, lambda2 + 1/l),
    whose first zero is the axis hit or the line crossing, whichever
    comes first; the smaller term there tells which, and a tie is a touch
    at the axis.  g never turns positive again once it reaches 0:
    lambda1 falls wherever lambda2 > -(h+q)/((1+h)l), which lies below
    -1/l when q > 1, and lambda2 falls while lambda1 > 0, so the flow
    leaves neither lambda1 <= 0 nor lambda2 <= -1/l towards the quadrant
    where both are above.  Whether g has reached 0 by time t is
    therefore monotone in t, and bisecting the whole horizon on it finds
    the first zero, even where a crossing and a hit fall within one
    bracket.  In the no-take phase the event is lambda1, which falls
    while lambda2 > -q/l, and lambda2 rises while lambda1 < 0, so it too
    stays <= 0 once it gets there.
    """
    starts = [float(x) for x in lambda0s]
    if not starts or not all(x > 0.0 for x in starts):
        raise ParameterError(f"every lambda0 must be positive, got {lambda0s!r}")
    if not sp.q > 1.0:
        raise ParameterError(f"event oracle applies to q > 1, got q={sp.q!r}")
    l, q, hbar = sp.l, sp.q, sp.hbar
    z = np.array([starts, np.zeros(len(starts)), np.ones(len(starts))])
    times, states = _first_events(
        1.0 + hbar, hbar + q, l, z, lambda z: np.minimum(z[0], z[1] + 1.0 / l)
    )
    crossed = states[1] + 1.0 / l < states[0]
    if crossed.any():
        times[crossed] += _first_events(1.0, q, l, states[:, crossed], lambda z: z[0])[0]
    return tuple(zip(times.tolist(), crossed.astype(int).tolist()))


class PdeRun(NamedTuple):
    """Final state of an implicit parabolic run and its approach history.

    l2_distance is the weighted L2 distance of the final state to the
    exact steady state; discrete_distance is its distance to the grid's
    own steady state u_h, which is all that stepping longer can reduce.
    """

    x: np.ndarray
    u: np.ndarray
    l2_distance: float
    history: tuple[tuple[float, float], ...]
    discrete_distance: float


def _aligned_grid(policy: HarvestPolicy, dx: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes covering the coast, uniform within each policy segment, and
    the rate on each cell between consecutive nodes.

    Aligning nodes with the rate breakpoints keeps the spatial error at
    second order; a misaligned interface would degrade it locally.
    """
    counts = [max(1, round((x1 - x0) / dx)) for x0, x1, _ in policy.segments()]
    if sum(counts) > MAX_CELLS_PER_GRID:
        raise ParameterError(
            f"grid too fine: more than {MAX_CELLS_PER_GRID} cells at dx={dx!r} on l={policy.l!r}"
        )
    nodes = [np.array(policy.breakpoints[:1])]
    rates = []
    for (x0, x1, r), n in zip(policy.segments(), counts):
        nodes.append(x0 + (x1 - x0) * np.arange(1, n + 1) / n)
        rates.append(np.full(n, r))
    return np.concatenate(nodes), np.concatenate(rates)


def _steady_solve(policy: HarvestPolicy, nodes: np.ndarray, rate: np.ndarray):
    """The discrete steady state u_h on a grid, with its system.

    A (diagonal, off-diagonal) is the symmetric second-order operator of
    -u'' + (1+h)u with u = 0 at both ends, and u_h solves A u = lumped,
    factored as LDL^T.  When the policy is its own mirror image about
    x = 0 (breakpoints and rates compared exactly) so is u, and only the
    unknowns from the centre on are kept: a centre node keeps half its
    row, and a centre inside a cell folds its coupling onto the
    diagonal.  Returns (u_h, diag, off, lumped, first kept unknown,
    mirror).
    """
    steps_dx = np.diff(nodes)
    n = len(nodes) - 2
    if n < 1:
        raise ParameterError("grid too coarse: no interior nodes")
    lumped = 0.5 * (steps_dx[:-1] + steps_dx[1:])
    diag = (
        1.0 / steps_dx[:-1]
        + 1.0 / steps_dx[1:]
        + 0.5 * ((1.0 + rate[:-1]) * steps_dx[:-1] + (1.0 + rate[1:]) * steps_dx[1:])
    )
    off = -1.0 / steps_dx[1:-1]
    mirror = policy.breakpoints == tuple(-b for b in reversed(policy.breakpoints)) and (
        policy.rates == policy.rates[::-1]
    )
    c = n // 2 if mirror else 0
    if mirror:
        if n % 2:
            lumped[c] *= 0.5
            diag[c] *= 0.5
        else:
            diag[c] += off[c - 1]
        diag, off, lumped = diag[c:], off[c:], lumped[c:]
    if not off.size:
        # one unknown: LAPACK reads no off-diagonal, but scipy's wrappers
        # of ?pttrf and ?pttrs want one entry
        off = np.zeros(1)
    d, e, _ = dpttrf(diag, off)
    u_h, _ = dpttrs(d, e, lumped)
    return u_h, diag, off, lumped, c, mirror


def _weighted_norm(lumped: np.ndarray, mirror: bool, v: np.ndarray) -> float:
    """Lumped-mass L2 norm over the coast of v on the kept unknowns."""
    return float(np.sqrt((2.0 if mirror else 1.0) * np.sum(lumped * v**2)))


def pde_time_stepper(
    policy: HarvestPolicy,
    dx: float | None = None,
    dt: float | None = None,
    t_max: float = 40.0,
) -> PdeRun:
    """Evolve u_t = u_xx - (1+h)u + 1 from u = 0 to t_max, implicitly.

    Backward-time stepping with a symmetric second-order spatial
    operator on a breakpoint-aligned grid; unconditionally stable, and
    its fixed point is the discrete steady state u_h for any dt.  Both
    the steady operator A and the step operator M/dt + A (M the lumped
    mass) are SPD tridiagonal, so each is factored once as LDL^T and
    every solve is one forward and one backward sweep.  The iteration
    steps the deviation e = u - u_h, which starts at -u_h (u = 0) and
    obeys (M/dt + A) e' = (M/dt) e: rounding in each step decays with e
    instead of accumulating in u.  A mirror-symmetric policy is solved
    on the half grid, and PdeRun.u is then exactly mirror-symmetric.

    Stepping stops early, without changing any output, once
    |e| <= 2^-55 u_h at a history sample.  (M/dt + A)^-1 is nonnegative
    and (M/dt + A) u_h = (M/dt) u_h + lumped >= (M/dt) u_h, so that bound
    then holds at every later step.  Half an ulp of u_h exceeds 2^-54 u_h,
    so u_h + e rounds to u_h with a factor 2 to spare, and u, history,
    l2_distance and discrete_distance keep every bit of the full run.
    This also skips the slow subnormal tail of e on short coasts.
    """
    dx = policy.l / 512.0 if dx is None else dx
    dt = policy.l / 512.0 if dt is None else dt
    for name, value in (("dx", dx), ("dt", dt), ("t_max", t_max)):
        if not (value > 0.0 and math.isfinite(value)):
            raise ParameterError(f"{name} must be positive and finite, got {value!r}")
    steps = t_max / dt - 1e-12
    if steps > MAX_STEPS:
        raise ParameterError(
            f"t_max / dt must be at most {MAX_STEPS} steps, got t_max={t_max!r}, dt={dt!r}"
        )
    nodes, rate = _aligned_grid(policy, dx)
    u_h, diag, off, lumped, c, mirror = _steady_solve(policy, nodes, rate)
    mass = lumped / dt
    step_d, step_e, _ = dpttrf(diag + mass, off)

    target = shoot_steady_state(policy)
    u_star = target.eval_many(nodes[1 + c : -1])[0]

    e = -u_h
    settled_at = 2.0**-55 * u_h
    nsteps = max(1, math.ceil(steps))
    every = max(1, nsteps // 64)
    samples = list(range(every, nsteps + 1, every))
    if samples[-1] != nsteps:
        samples.append(nsteps)
    history: list[tuple[float, float]] = []
    step, settled = 0, False
    for sample in samples:
        if not settled:
            while step < sample:
                step += 1
                np.multiply(mass, e, out=e)
                e, _ = dpttrs(step_d, step_e, e, overwrite_b=True)
            # NaN and inf carry through every later step to the sample
            size = np.abs(e)
            if not size.max() <= 1e8:
                raise RuntimeError(f"time stepping blew up by step {step}")
            settled = bool(np.all(size <= settled_at))
            distance = _weighted_norm(lumped, mirror, u_h + e - u_star)
        history.append((sample * dt, distance))

    u = u_h + e
    # a centre node, present when the interior count is odd, is not repeated
    mirrored = u[len(nodes) % 2 :][::-1] if mirror else []
    full_u = np.concatenate([[0.0], mirrored, u, [0.0]])
    return PdeRun(
        x=nodes,
        u=full_u,
        l2_distance=distance,
        history=tuple(history),
        discrete_distance=_weighted_norm(lumped, mirror, u - u_h),
    )


def richardson_steady_gap(policy: HarvestPolicy) -> float:
    """Weighted L2 distance from the extrapolated discrete steady state to the shooting one.

    Solves A u = lumped on the breakpoint-aligned grid at
    dx = min(l/8192, 1/32) and on its bisection (a midpoint inserted in
    every cell, so the coarse nodes are fine nodes too).  The scheme is
    second order within each uniform segment, so at the coarse nodes
    (4 u_{h/2} - u_h)/3 cancels the h^2 term of the error, and what is
    left measures the shooting solution, not the grid.  The spacing cap
    1/32 resolves the unit-width boundary layers of long coasts.
    """
    nodes, rate = _aligned_grid(policy, min(policy.l / 8192.0, 1.0 / 32.0))
    fine = np.empty(2 * nodes.size - 1)
    fine[::2] = nodes
    fine[1::2] = 0.5 * (nodes[:-1] + nodes[1:])
    u_h, _, _, lumped, c, mirror = _steady_solve(policy, nodes, rate)
    u_fine, _, _, _, c_fine, _ = _steady_solve(policy, fine, np.repeat(rate, 2))
    # coarse interior node i is fine interior node 2i + 1
    extrapolated = (4.0 * u_fine[2 * c + 1 - c_fine :: 2] - u_h) / 3.0
    u_star = shoot_steady_state(policy).eval_many(nodes[1 + c : -1])[0]
    return _weighted_norm(lumped, mirror, extrapolated - u_star)


def _average_rates(policy: HarvestPolicy, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """HarvestPolicy.average_rate over every cell [a_i, b_i], in the same operations."""
    total = np.zeros(a.shape)
    for x0, x1, r in policy.segments():
        lo, hi = np.maximum(a, x0), np.minimum(b, x1)
        total += np.where(lo < hi, r * (hi - lo), 0.0)
    return total / (b - a)


def stability_eigenvalues(policy: HarvestPolicy, n: int) -> tuple[float, bool]:
    """Largest eigenvalue of w -> w'' - (1+h)w with absorbing boundaries.

    Symmetric second-difference discretization on n interior points with
    the rate cell-averaged around each node; LAPACK computes the top of
    the tridiagonal spectrum.  The energy identity pushes every
    eigenvalue below -1 for any admissible policy.
    """
    if n < 16:
        raise ParameterError(f"need at least 16 interior points, got {n!r}")
    l = policy.l
    dx = l / (n + 1)
    xs = -l / 2.0 + dx * np.arange(1, n + 1)
    pot = 1.0 + _average_rates(policy, xs - dx / 2.0, xs + dx / 2.0)
    diag = -2.0 / dx**2 - pot
    off = np.full(n - 1, 1.0 / dx**2)
    top = float(eigvalsh_tridiagonal(diag, off, select="i", select_range=(n - 1, n - 1))[0])
    return top, top < 0.0
