"""In-memory span tracing of coastharvest, installed by rebinding names.

Every module of the package looks its callees up in its own globals, so
replacing a function in each namespace that binds it catches calls made
inside the package as well as the benchmark's own calls.  A span is
(name, start, end, parent); spans stay in four lists until the run ends.

Only layer entry points get spans.  Functions called once per root-solve
evaluation (hitting_time, the bisection residuals) are counted instead,
because a span per evaluation would cost more than the work it measures.

This module imports only the standard library, so a fresh interpreter
can time `import coastharvest` before loading it.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
from collections import Counter
from time import perf_counter

PACKAGE = "coastharvest"

# "<module>.<function>": every binding of the function gets a span
SPANNED = (
    "params.to_scaled",
    "policy.constant_policy",
    "policy.single_reserve_policy",
    "policy.cell_policy",
    "switching.derive_constants",
    "switching.min_length",
    "switching.solve_lambda_bar",
    "bvp.shoot_steady_state",
    "bvp.solve_adjoint",
    "bvp.evaluate_objective",
    "bvp.hamiltonian_diagnostic",
    "synthesis.optimal_policy",
    "synthesis.unscaled_min_length",
    "synthesis.unscaled_reserve_boundary",
    "lab.brute_force_bangbang",
    "lab.reserve_sweep",
    "lab.integrate_adjoint_with_events",
    "lab.pde_time_stepper",
    "lab.stability_eigenvalues",
    "cli.main",
)

# modules whose own binding of bisect_root is wrapped, counting evaluations
BISECT_BINDINGS = ("bvp", "switching", "synthesis")


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self._open: list[int] = []
        self.counts: Counter = Counter()

    def begin(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self.current())
        self.end.append(math.nan)
        self._open.append(idx)
        self.start.append(perf_counter())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._open.pop()

    def current(self) -> int:
        """Index of the innermost open span, or -1."""
        return self._open[-1] if self._open else -1

    def adopt(self, doc: dict, parent: int) -> None:
        """Append spans recorded by another process under span `parent`."""
        base = len(self.start)
        for nid, s, e, p in zip(doc["name_id"], doc["start"], doc["end"], doc["parent"]):
            name = doc["names"][nid]
            if name not in self._ids:
                self._ids[name] = len(self.names)
                self.names.append(name)
            self.name_id.append(self._ids[name])
            self.start.append(s)
            self.end.append(e)
            self.parent.append(parent if p < 0 else base + p)
        self.counts.update(doc["counts"])

    def export(self) -> dict:
        return {
            "names": self.names,
            "name_id": self.name_id,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "counts": dict(self.counts),
        }


def _spanned(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.finish(idx)
        _annotate(tracer, name, fn, args, kwargs, result)
        return result

    return wrapper


def _annotate(tracer: Tracer, name: str, fn, args, kwargs, result) -> None:
    """Work counts that the layer metrics divide by busy time."""
    if name == "lab.brute_force_bangbang":
        tracer.counts["lab.brute_force_bangbang.masks"] += len(result.candidates)
    elif name == "lab.pde_time_stepper":
        call = inspect.signature(fn).bind(*args, **kwargs)
        call.apply_defaults()
        dt, t_max = call.arguments["dt"], call.arguments["t_max"]
        if dt is None:
            dt = call.arguments["sp"].l / 512.0
        interior = len(result.x) - 2
        steps = max(1, int(math.ceil(t_max / dt - 1e-12)))
        tracer.counts["lab.pde_time_stepper.steps"] += steps
        # per step: the banded factor (2 rows) and five length-n vectors
        # (u in, lumped weights, load, right-hand side, u out), as float64
        tracer.counts["lab.pde_time_stepper.bytes"] += steps * 8 * interior * 7


def _bisect(tracer: Tracer, binding: str, fn):
    key = f"specfun.bisect_root.{binding}.evals"

    @functools.wraps(fn)
    def wrapper(f, lo, hi, *args, **kwargs):
        evals = 0

        def counted(x):
            nonlocal evals
            evals += 1
            return f(x)

        idx = tracer.begin("specfun.bisect_root")
        try:
            return fn(counted, lo, hi, *args, **kwargs)
        finally:
            tracer.finish(idx)
            tracer.counts[key] += evals

    return wrapper


def _counted(tracer: Tracer, key: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.counts[key] += 1
        return fn(*args, **kwargs)

    return wrapper


def install(tracer: Tracer):
    """Rebind the traced names in every loaded coastharvest module.

    Returns a function that puts the original bindings back.
    """
    mods = [m for n, m in list(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]
    saved: list[tuple[object, str, object]] = []

    def rebind(mod, attr, new):
        saved.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, new)

    # a module the workload never loaded, or a name the package no longer
    # has, is skipped: its metrics then read 0
    for qual in SPANNED:
        home, attr = qual.split(".")
        original = getattr(sys.modules.get(f"{PACKAGE}.{home}"), attr, None)
        if original is None:
            continue
        wrapped = _spanned(tracer, qual, original)
        for mod in mods:
            if vars(mod).get(attr) is original:
                rebind(mod, attr, wrapped)
    for binding in BISECT_BINDINGS:
        mod = sys.modules.get(f"{PACKAGE}.{binding}")
        if hasattr(mod, "bisect_root"):
            rebind(mod, "bisect_root", _bisect(tracer, binding, mod.bisect_root))
    # solve_lambda_bar's residual reaches hitting_time through this binding
    switching = sys.modules.get(f"{PACKAGE}.switching")
    if hasattr(switching, "hitting_time"):
        key = "switching.hitting_time.evals"
        rebind(switching, "hitting_time", _counted(tracer, key, switching.hitting_time))

    def restore() -> None:
        for mod, attr, value in reversed(saved):
            setattr(mod, attr, value)

    return restore
