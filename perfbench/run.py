"""Benchmark of coastharvest on three workloads, with checked outputs.

Run from the repository root:

    python3 perfbench/run.py --workload solve_stream --seed 1 --seconds 20 --trace 0

Each workload is driven by one caller in a closed loop: the next
operation starts when the previous one has returned.  --trace 0 measures
the end-to-end metrics with tracing off; --trace 1 runs half the time
untraced and half traced, and reports the per-layer metrics and the
tracing overhead.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  Reports and traces
go to perfbench/out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata

import tracing
import workloads

# fresh interpreters timed for setup_s; their median is reported
SETUP_SAMPLES = 5


@dataclass
class Loop:
    """Outcome of one closed-loop stretch of whole rounds."""

    attempted: int = 0
    failed: int = 0
    elapsed: float = 0.0
    times: list = field(default_factory=list)
    refs: dict = field(default_factory=dict)
    unexpected: list = field(default_factory=list)
    changed: list = field(default_factory=list)


def closed_loop(wl, seconds: float, tracer: tracing.Tracer | None = None) -> Loop:
    """Repeat the pool until `seconds` have passed, then finish the round.

    Every output is compared with the first output of the same operation,
    so a result that changes between rounds is caught as well as a wrong one.
    """
    loop = Loop()
    clock = time.perf_counter
    start = clock()
    while True:
        for i, op in enumerate(wl.pool):
            span = tracer.begin("bench.op") if tracer is not None else None
            t0 = clock()
            try:
                out = wl.run(op)
            except Exception as exc:  # counted, and reported unless expected
                out = None
                error = f"op {i}: {type(exc).__name__}: {exc}"
            t1 = clock()
            if span is not None:
                tracer.finish(span)
            loop.attempted += 1
            if out is None:
                loop.failed += 1
                if not wl.expected_failure(op) and error not in loop.unexpected:
                    loop.unexpected.append(error)
                continue
            loop.times.append(t1 - t0)
            if loop.refs.setdefault(i, out) != out:
                loop.changed.append(f"op {i} changed its output between rounds")
        if clock() - start >= seconds:
            break
    loop.elapsed = clock() - start
    return loop


def setup_sample(name: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter to its first timed operation."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(workloads.HERE / "child.py"), "setup", name, str(seed)],
        stdout=subprocess.PIPE,
        env=workloads.child_env(),
        cwd=workloads.ROOT,
    )
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    proc.stdout.read()
    proc.stdout.close()
    if proc.wait() != 0 or line.strip() != b"ready":
        raise RuntimeError(f"set-up child for {name} exited with {proc.returncode}")
    return elapsed


def probe(argv: list[str]) -> dict:
    """Import and main timings of one fresh CLI interpreter, untraced."""
    report = workloads.OUT / "probe.json"
    subprocess.run(
        [sys.executable, str(workloads.HERE / "child.py"), "cli", str(report), "0", *argv],
        stdout=subprocess.DEVNULL,
        env=workloads.child_env(),
        cwd=workloads.ROOT,
        check=True,
    )
    return json.loads(report.read_text())


def tail(times: list) -> dict | None:
    """Highest percentile with at least ten samples beyond it, for the report."""
    beyond = 10
    if len(times) < 4 * beyond:
        return None
    ordered = sorted(times)
    pct = 100.0 * (1.0 - beyond / len(ordered))
    return {"percentile": pct, "ms": ordered[len(ordered) - beyond - 1] * 1e3, "samples": len(ordered)}


def end_to_end(wl, args) -> tuple[dict, list[Loop], dict]:
    wl.warm_up()
    setups = [setup_sample(args.workload, args.seed) for _ in range(SETUP_SAMPLES)]
    loop = closed_loop(wl, args.seconds)
    rss_mb = wl.peak_rss_kb() / 1024.0
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (len(loop.times) / loop.elapsed, "1/s"),
        "op_p50_ms": (statistics.median(loop.times) * 1e3, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    extra = {"setup_samples_s": setups, "op_tail": tail(loop.times)}
    return metrics, [loop], extra


def layer_metrics(tracer: tracing.Tracer, ops: int, probes: list[dict]) -> tuple[dict, dict]:
    """Per-layer metrics from the spans: calls per operation, ms per call, self time."""
    n = len(tracer.start)
    dur = [e - s for s, e in zip(tracer.start, tracer.end)]
    inner = [0.0] * n
    for i, p in enumerate(tracer.parent):
        if p >= 0:
            inner[p] += dur[i]
    table: dict[str, list] = {name: [0, 0.0, 0.0] for name in tracer.names}
    for i, nid in enumerate(tracer.name_id):
        row = table[tracer.names[nid]]
        row[0] += 1
        row[1] += dur[i]
        row[2] += dur[i] - inner[i]

    def calls(name):
        return table.get(name, [0])[0]

    def per_call_ms(name, col=1):
        row = table.get(name)
        return row[col] * 1e3 / row[0] if row and row[0] else 0.0

    def rate(count_key, name):
        busy = table.get(name, [0, 0.0])[1]
        return tracer.counts[count_key] / busy if busy else 0.0

    c = tracer.counts
    steps = c["lab.pde_time_stepper.steps"]
    evals = {b: c[f"specfun.bisect_root.{b}.evals"] for b in tracing.BISECT_BINDINGS}
    m = {
        "cli.import_ms": (statistics.median(p["import_ms"] for p in probes), "ms"),
        "cli.modules_loaded": (statistics.median(p["modules_loaded"] for p in probes), "count"),
        "cli.main_ms": (statistics.median(p["main_ms"] for p in probes), "ms"),
        "synthesis.optimal_policy.calls": (calls("synthesis.optimal_policy") / ops, "calls/op"),
        "synthesis.optimal_policy.self_ms": (per_call_ms("synthesis.optimal_policy", 2), "ms/call"),
        "synthesis.unscaled_reserve_boundary.calls": (calls("synthesis.unscaled_reserve_boundary") / ops, "calls/op"),
        "synthesis.unscaled_reserve_boundary.ms": (per_call_ms("synthesis.unscaled_reserve_boundary"), "ms/call"),
        "switching.derive_constants.ms": (per_call_ms("switching.derive_constants"), "ms/call"),
        "switching.solve_lambda_bar.ms": (per_call_ms("switching.solve_lambda_bar"), "ms/call"),
        "switching.hitting_time.evals_per_root": (
            c["switching.hitting_time.evals"] / calls("switching.solve_lambda_bar")
            if calls("switching.solve_lambda_bar") else 0.0,
            "evals/call",
        ),
        "specfun.bisect_root.calls": (calls("specfun.bisect_root") / ops, "calls/op"),
        "specfun.bisect_root.evals": (sum(evals.values()) / ops, "evals/op"),
    }
    for binding, count in evals.items():
        m[f"specfun.bisect_root.{binding}.evals"] = (count / ops, "evals/op")
    for name in ("bvp.shoot_steady_state", "bvp.solve_adjoint", "bvp.evaluate_objective",
                 "lab.integrate_adjoint_with_events"):
        m[f"{name}.calls"] = (calls(name) / ops, "calls/op")
        m[f"{name}.ms"] = (per_call_ms(name), "ms/call")
    for name in ("bvp.hamiltonian_diagnostic", "policy.cell_policy", "policy.single_reserve_policy",
                 "lab.brute_force_bangbang", "lab.pde_time_stepper", "lab.reserve_sweep",
                 "lab.stability_eigenvalues"):
        m[f"{name}.ms"] = (per_call_ms(name), "ms/call")
    m["lab.brute_force_bangbang.masks_per_s"] = (
        rate("lab.brute_force_bangbang.masks", "lab.brute_force_bangbang"), "1/s")
    m["lab.pde_time_stepper.steps_per_s"] = (rate("lab.pde_time_stepper.steps", "lab.pde_time_stepper"), "1/s")
    m["lab.pde_time_stepper.bytes_per_step"] = (
        c["lab.pde_time_stepper.bytes"] / steps if steps else 0.0, "B_computed")
    spans = {name: {"calls": row[0], "total_ms": row[1] * 1e3, "self_ms": row[2] * 1e3}
             for name, row in table.items()}
    return m, spans


def traced(wl, args) -> tuple[dict, list[Loop], dict]:
    wl.warm_up()
    half = args.seconds / 2.0
    base = closed_loop(wl, half)
    tracer = tracing.Tracer()
    with wl.traced(tracer):
        run = closed_loop(wl, half, tracer)
    probes = [probe(argv) for argv in wl.probe_commands()]
    metrics, spans = layer_metrics(tracer, run.attempted, probes)
    untraced_s = base.elapsed / base.attempted
    traced_s = run.elapsed / run.attempted
    metrics["trace.overhead_pct"] = ((traced_s / untraced_s - 1.0) * 100.0, "%")
    save_trace(tracer, args)
    extra = {"spans": spans, "probes": probes}
    for i, out in run.refs.items():
        if base.refs.get(i, out) != out:
            run.changed.append(f"op {i}: traced output differs from untraced output")
    return metrics, [base, run], extra


def save_trace(tracer: tracing.Tracer, args) -> None:
    import numpy as np

    np.savez(
        workloads.OUT / f"trace-{args.workload}-seed{args.seed}.npz",
        names=np.array(tracer.names),
        name_id=np.array(tracer.name_id, dtype=np.int32),
        start=np.array(tracer.start),
        end=np.array(tracer.end),
        parent=np.array(tracer.parent, dtype=np.int64),
    )


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "machine": platform.machine(),
        "processor": platform.processor(),
        "cpus": os.cpu_count(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (workloads.SRC / "coastharvest" / "__init__.py").is_file():
        print(f"error: no coastharvest sources under {workloads.SRC}", file=sys.stderr)
        return 2
    workloads.OUT.mkdir(exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed)
    metrics, loops, extra = (traced if args.trace else end_to_end)(wl, args)
    unexpected = [p for loop in loops for p in loop.unexpected]
    errors = [p for loop in loops for p in loop.changed] + wl.check(loops[0].refs)
    for line in unexpected:
        print(f"failed: {line}", file=sys.stderr)
    for line in errors:
        print(f"wrong: {line}", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": sum(loop.attempted for loop in loops),
        "failed": sum(loop.failed for loop in loops),
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    report = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, unexpected_failures=unexpected, errors=errors, environment=environment(), **extra)
    path = workloads.OUT / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
