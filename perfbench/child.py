"""Fresh-interpreter side of the benchmark.

    child.py setup <workload> <seed>
        import the package, build the workload and warm it up, then print
        "ready"; the parent times this from process start as one set-up.

    child.py cli <report.json> <trace 0|1> <coastharvest arguments...>
        time `import coastharvest.cli` (and count the modules it loads),
        then run cli.main in-process, traced or not, and write the timings
        and spans to report.json.  Exits with the CLI's own code.

Only sys and time are imported before the timed import, so the import
pays for everything the package pulls in.
"""

import sys
import time


def cli(report: str, trace: bool, argv: list[str]) -> int:
    before = len(sys.modules)
    t0 = time.perf_counter()
    import coastharvest.cli as cli_mod

    import_ms = (time.perf_counter() - t0) * 1e3
    loaded = len(sys.modules) - before
    import json

    import tracing

    tracer = tracing.Tracer() if trace else None
    if tracer is not None:
        tracing.install(tracer)
    t1 = time.perf_counter()
    rc = cli_mod.main(argv)
    main_ms = (time.perf_counter() - t1) * 1e3
    sys.stdout.flush()
    doc = {
        "import_ms": import_ms,
        "modules_loaded": loaded,
        "main_ms": main_ms,
        "trace": tracer.export() if tracer is not None else None,
    }
    with open(report, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return rc


def setup(workload: str, seed: int) -> int:
    import workloads

    workloads.WORKLOADS[workload](seed).warm_up()
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    mode, rest = sys.argv[1], sys.argv[2:]
    if mode == "setup":
        sys.exit(setup(rest[0], int(rest[1])))
    sys.exit(cli(rest[0], rest[1] == "1", rest[2:]))
