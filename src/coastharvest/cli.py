"""Command-line front end.

Subcommands: scale, lmin, solve, verify, sweep, simulate.  JSON reports
go to standard output with floats at 17 significant digits and fixed key
order, so identical inputs produce byte-identical bytes; CSV tables go
to files named by --out or --profile, written by one writer with floats
at 17 significant digits as well, before the report is printed.  Exit
codes: 0 on success, 1 when a verification check fails, 2 on usage or
parameter errors and on a file that cannot be written.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from typing import Optional

from .bvp import shoot_steady_state
from .params import (
    ParameterError,
    ScaledParams,
    UnscaledParams,
    to_scaled,
    to_unscaled_length,
    unscale_objective,
)
from .switching import derive_constants, hitting_time, min_length
from .synthesis import optimal_policy, unscaled_min_length


class CliError(Exception):
    """Usage-level problem; reported on stderr with exit code 2."""


def _render(value, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            return "{}"
        rows = [
            f'{pad}  {json.dumps(str(k))}: {_render(v, indent + 1)}'
            for k, v in value.items()
        ]
        return "{\n" + ",\n".join(rows) + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        seq = list(value)
        if not seq:
            return "[]"
        rows = [f"{pad}  {_render(v, indent + 1)}" for v in seq]
        return "[\n" + ",\n".join(rows) + "\n" + pad + "]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"refusing to serialize non-finite value {value!r}")
        return format(float(value), ".17g")
    if isinstance(value, int):
        return str(int(value))
    return json.dumps(value)


def _emit(doc: dict) -> None:
    sys.stdout.write(_render(doc) + "\n")


def _write_csv(path: str, header: tuple[str, ...], rows) -> None:
    """One line per row: floats at 17 significant digits, strings as given."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            cells = (format(v, ".17g") if isinstance(v, float) else v for v in row)
            fh.write(",".join(cells) + "\n")


def _add_param_flags(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("scaled parameters")
    g.add_argument("--l", type=float, help="dimensionless coastline length")
    g.add_argument("--q", type=float, help="dimensionless density weight")
    g.add_argument("--hbar", type=float, help="dimensionless maximal harvest rate")
    u = p.add_argument_group("physical parameters")
    u.add_argument("--D", type=float, help="diffusion coefficient")
    u.add_argument("--R", type=float, help="recruitment rate (default 1)")
    u.add_argument("--mu", type=float, help="per-capita death rate")
    u.add_argument("--Hbar", type=float, help="maximal harvest rate")
    u.add_argument("--Q", type=float, help="density weight")
    u.add_argument("--L", type=float, help="coastline length")


def _gather(
    args: argparse.Namespace, need_length: bool = True
) -> tuple[ScaledParams, Optional[UnscaledParams]]:
    scaled = any(getattr(args, f) is not None for f in ("l", "q", "hbar"))
    unscaled = any(getattr(args, f) is not None for f in UnscaledParams._fields)
    if scaled and unscaled:
        raise CliError("give either scaled (--l/--q/--hbar) or physical parameters, not both")
    if scaled:
        if args.q is None or args.hbar is None:
            raise CliError("scaled parameters need --q and --hbar")
        if need_length and args.l is None:
            raise CliError("this command needs --l")
        return ScaledParams(l=args.l if args.l is not None else 1.0, q=args.q, hbar=args.hbar), None
    if unscaled:
        missing = [f for f in ("D", "mu", "Hbar", "Q") if getattr(args, f) is None]
        if missing:
            raise CliError(f"physical parameters need --{', --'.join(missing)}")
        if need_length and args.L is None:
            raise CliError("this command needs --L")
        up = UnscaledParams(
            D=args.D,
            R=args.R if args.R is not None else 1.0,
            mu=args.mu,
            Hbar=args.Hbar,
            Q=args.Q,
            L=args.L if args.L is not None else math.sqrt(args.D / args.mu),
        )
        return to_scaled(up), up
    raise CliError("no parameters given; use --l/--q/--hbar or --D/--mu/--Hbar/--Q/--L")


def cmd_scale(args: argparse.Namespace) -> int:
    if any(getattr(args, f) is not None for f in ("l", "q", "hbar")):
        raise CliError("scale converts physical parameters; give --D/--mu/--Hbar/--Q/--L")
    sp, up = _gather(args)
    _emit(
        {
            "l": sp.l,
            "q": sp.q,
            "hbar": sp.hbar,
            "length_unit": up.length_unit,
        }
    )
    return 0


def cmd_lmin(args: argparse.Namespace) -> int:
    sp, up = _gather(args, need_length=False)
    if not sp.q > 1.0:
        raise CliError("the threshold length exists only for q > 1 (Q > mu)")
    doc = {"l_min": min_length(sp)}
    if up is not None:
        doc["L_min"] = unscaled_min_length(up)
    _emit(doc)
    return 0


def cmd_solve(args: argparse.Namespace) -> int:
    if args.samples < 2:
        raise CliError("--samples must be at least 2")
    sp, up = _gather(args)
    sol = optimal_policy(sp)
    present = sol.reserve_halfwidth > 0.0
    reserve: dict = {"present": present, "halfwidth": sol.reserve_halfwidth}
    if up is not None and present:
        reserve["boundary_B"] = to_unscaled_length(sol.reserve_halfwidth, up)
    doc: dict = {
        "policy": {
            "breakpoints": list(sol.policy.breakpoints),
            "rates": list(sol.policy.rates),
        },
        "reserve": reserve,
        "objective_j": sol.objective_j,
    }
    if up is not None:
        doc["objective_J"] = unscale_objective(sol.objective_j, up)
    if sol.lambda_bar is not None:
        doc["lambda_bar"] = sol.lambda_bar
    if sol.Ts is not None:
        doc["Ts"] = sol.Ts
    if sol.lmin is not None:
        doc["l_min"] = sol.lmin
    doc["diagnostics"] = {
        "boundary_residual": sol.diagnostics.boundary_residual,
        "transversality_residual": sol.diagnostics.transversality_residual,
        "hamiltonian_deviation": sol.diagnostics.hamiltonian_deviation,
        "switching_violation": sol.diagnostics.switching_violation,
    }
    if args.profile:
        import numpy as np

        profile = shoot_steady_state(sol.policy)
        xs = np.linspace(profile.segments[0].x0, profile.segments[-1].x1, args.samples)
        _write_csv(args.profile, ("x", "u", "v"), zip(xs, *profile.eval_many(xs)))
    _emit(doc)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from .lab import (
        brute_force_bangbang,
        integrate_adjoint_with_events,
        pde_time_stepper,
        reserve_sweep,
        richardson_steady_gap,
        run_steps,
        stability_eigenvalues,
    )

    sp, _ = _gather(args)
    sol = optimal_policy(sp)
    checks: list[dict] = []

    def record(name: str, value: float, threshold: float) -> None:
        value = float(value)
        if not math.isfinite(value):
            value = 1e308  # fails every threshold, and the report stays serializable
        checks.append(
            {
                "name": name,
                "value": value,
                "threshold": threshold,
                "pass": value <= threshold,
            }
        )

    bf = brute_force_bangbang(sp, args.cells)
    record("brute_force_gap", -(sol.objective_j - bf.best_objective), 1e-9)
    rs = reserve_sweep(sp, args.centers, args.widths)
    record("reserve_sweep_gap", -(sol.objective_j - rs.best_objective), 1e-9)
    if sp.q > 1.0:
        dc = derive_constants(sp)
        starts = [dc.lam_starstar * i / 26.0 for i in range(1, 26)]
        worst = 0.0
        for lam0, (measured, _) in zip(starts, integrate_adjoint_with_events(starts, sp)):
            closed = hitting_time(lam0, dc)
            if math.isinf(closed) != math.isinf(measured):
                worst = math.inf
                break
            if math.isfinite(closed):
                worst = max(worst, abs(closed - measured))
        record("hitting_time_vs_integration", worst, 1e-8)
    record("transversality", sol.diagnostics.transversality_residual, 1e-8)
    record("hamiltonian_constancy", sol.diagnostics.hamiltonian_deviation, 1e-8)
    record("switching_signs", sol.diagnostics.switching_violation, 1e-8)
    try:
        top, _negative = stability_eigenvalues(sol.policy, 512)
    except ParameterError as exc:
        raise ParameterError(f"check max_eigenvalue_plus_one cannot run: {exc}") from None
    record("max_eigenvalue_plus_one", top + 1.0, 1e-6)
    # the run's distance to its own grid's steady state, plus that steady
    # state's extrapolated distance to the exact one.  A is an M-matrix and
    # A 1 >= lumped = A u_h, so u_h <= 1; then (M/dt + A) u_h >= (1/dt + 1) M u_h,
    # and a step maps a deviation |e| <= c u_h from u = 0 (c = 1) to
    # |e'| <= c u_h / (1 + dt) (see pde_time_stepper).  At dt = 1/16 (exact
    # in binary) a run of 629 steps or more, from --tmax above 39.25 (the
    # default 40 takes 640), ends with |e| <= 1.0625^-629 u_h = 2^-55.01 u_h,
    # below the 2^-55 u_h at which u_h + e rounds to u_h, so its term is
    # 0.0 for every admissible policy; run_steps says so, and the run is
    # taken only below that length.
    dt, discrete = 0.0625, 0.0
    _, settled = run_steps(dt, args.tmax)
    if not settled:
        run = pde_time_stepper(sol.policy, dx=sp.l / 1024.0, dt=dt, t_max=args.tmax)
        discrete = run.discrete_distance
    record("pde_l2_distance", discrete + richardson_steady_gap(sol.policy), 1e-6)

    ok = all(c["pass"] for c in checks)
    _emit({"params": {"l": sp.l, "q": sp.q, "hbar": sp.hbar}, "checks": checks, "all_pass": ok})
    return 0 if ok else 1


def _linspace(start: float, stop: float, steps: int) -> list[float]:
    """np.linspace(start, stop, steps) bit for bit, without loading numpy.

    The same float operations in the same order: start + i*step, with
    i/div*delta where the step underflows to 0, and stop as the last point.
    """
    div = steps - 1
    delta = stop - start
    step = delta / div
    if step == 0.0:
        grid = [start + i / div * delta for i in range(div)]
    else:
        grid = [start + i * step for i in range(div)]
    return grid + [stop]


def cmd_sweep(args: argparse.Namespace) -> int:
    if any(getattr(args, f) is not None for f in UnscaledParams._fields):
        raise CliError("sweep works on scaled parameters; give the fixed ones of --l/--q/--hbar")
    if args.param is None or args.start is None or args.stop is None or args.steps is None:
        raise CliError("sweep needs --param, --from, --to and --steps")
    if args.steps < 2:
        raise CliError("--steps must be at least 2")
    if not args.start < args.stop:
        raise CliError("--from must be smaller than --to")
    if args.out is None:
        raise CliError("sweep writes CSV; give --out")
    fixed = {"l": args.l, "q": args.q, "hbar": args.hbar}
    fixed.pop(args.param)
    missing = [k for k, v in fixed.items() if v is None]
    if missing:
        raise CliError(f"sweep over {args.param} needs --{' and --'.join(missing)}")
    rows = []
    for value in _linspace(args.start, args.stop, args.steps):
        kw = dict(fixed)
        kw[args.param] = value
        sol = optimal_policy(ScaledParams(**kw))
        rows.append(
            (
                value,
                "" if sol.lmin is None else sol.lmin,
                "true" if sol.reserve_halfwidth > 0.0 else "false",
                sol.reserve_halfwidth,
                "" if sol.Ts is None else sol.Ts,
                sol.objective_j,
            )
        )
    _write_csv(
        args.out, ("value", "l_min", "reserve_present", "halfwidth", "Ts", "objective_j"), rows
    )
    _emit({"points": args.steps, "out": args.out})
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    from .lab import pde_time_stepper

    sp, _ = _gather(args)
    sol = optimal_policy(sp)
    dx = sp.l / 512.0 if args.dx is None else args.dx
    dt = sp.l / 512.0 if args.dt is None else args.dt
    run = pde_time_stepper(sol.policy, dx=dx, dt=dt, t_max=args.tmax)
    tail = run.history[len(run.history) // 2 :]
    monotone = all(b[1] <= a[1] + 1e-12 for a, b in zip(tail, tail[1:]))
    doc = {
        "l2_distance": run.l2_distance,
        "t_max": args.tmax,
        "dx": dx,
        "dt": dt,
        "nodes": len(run.x),
        "monotone_tail": monotone,
    }
    if args.out:
        _write_csv(args.out, ("x", "u"), zip(run.x, run.u))
    _emit(doc)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="coastharvest",
        description="Optimal harvesting and marine-reserve placement for a 1-D coastline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scale", help="convert physical parameters to scaled form")
    _add_param_flags(p)
    p.set_defaults(func=cmd_scale)

    p = sub.add_parser("lmin", help="threshold coastline length for a reserve")
    _add_param_flags(p)
    p.set_defaults(func=cmd_lmin)

    p = sub.add_parser("solve", help="compute the optimal policy")
    _add_param_flags(p)
    p.add_argument("--profile", help="write the steady-state profile CSV here")
    p.add_argument("--samples", type=int, default=512, help="profile sample count")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="run the independent verification suite")
    _add_param_flags(p)
    p.add_argument("--cells", type=int, default=12, help="brute-force cell count")
    p.add_argument("--centers", type=int, default=11, help="reserve-sweep center grid")
    p.add_argument("--widths", type=int, default=21, help="reserve-sweep width grid")
    p.add_argument("--tmax", type=float, default=40.0, help="parabolic run length")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", help="sweep one scaled parameter, writing CSV")
    _add_param_flags(p)
    p.add_argument("--param", choices=("l", "q", "hbar"), help="parameter to sweep")
    p.add_argument("--from", dest="start", type=float, help="sweep start")
    p.add_argument("--to", dest="stop", type=float, help="sweep end")
    p.add_argument("--steps", type=int, help="number of sweep points")
    p.add_argument("--out", help="CSV output path")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("simulate", help="implicit parabolic run toward the steady state")
    _add_param_flags(p)
    p.add_argument("--dx", type=float, help="grid spacing (default l/512)")
    p.add_argument("--dt", type=float, help="time step (default l/512)")
    p.add_argument("--tmax", type=float, default=40.0, help="final time")
    p.add_argument("--out", help="write final x,u samples CSV here")
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
