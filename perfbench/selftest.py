"""Shows that the benchmark's output checks reject perturbed answers.

    python3 perfbench/selftest.py

Runs each workload's pool once, confirms that the real outputs pass,
then perturbs one answer at a time (a half-width by one part in 1e8, a
residual past its bound, a failed verification check, a CSV cell) and
confirms that every perturbed answer is rejected.  Exits 1 otherwise.
"""

from __future__ import annotations

import json
import sys

import workloads as W


def outputs(wl, only=None) -> dict:
    refs = {}
    for i, op in enumerate(wl.pool):
        if only is not None and i not in only:
            continue
        try:
            refs[i] = wl.run(op)
        except ValueError:
            pass  # the expected bracket-fault failure
    return refs


def first(wl, pred) -> int:
    return next(i for i, op in enumerate(wl.pool) if pred(op))


def nudge(x: float) -> float:
    return x * (1.0 + 1e-8)


def solve_stream_cases():
    wl = W.SolveStream(seed=11)
    refs = outputs(wl)
    i = first(wl, lambda op: op.kind == "scaled" and op.regime == "reserve")
    j = first(wl, lambda op: op.kind == "physical" and op.regime == "reserve")
    k = first(wl, lambda op: op.kind == "scaled" and op.regime == "no_reserve")
    out = refs[i]
    yield "solve_stream", wl, refs, None
    yield "halfwidth off by 1e-8", wl, refs, {i: (nudge(out[0]),) + out[1:]}
    yield "l_min off by 1e-8", wl, refs, {i: out[:2] + (nudge(out[2]),) + out[3:]}
    yield "Hamiltonian residual 2e-8", wl, refs, {i: out[:5] + (2e-8,) + out[6:]}
    yield "physical boundary off by 1e-8", wl, refs, {j: (nudge(refs[j][0]),)}
    yield "reserve placed below l_min", wl, refs, {k: (0.1,) + refs[k][1:]}


def verify_suite_cases():
    wl = W.VerifySuite(seed=11)
    refs = outputs(wl, only={0})
    rc, text = refs[0]

    def edited(change):
        doc = json.loads(text)
        change(doc)
        return {0: (rc, json.dumps(doc))}

    def fail_one(doc):
        doc["checks"][0]["pass"] = False

    yield "verify_suite", wl, refs, None
    yield "one verification check failed", wl, refs, edited(fail_one)
    yield "a check missing", wl, refs, edited(lambda doc: doc["checks"].pop())
    yield "exit code 1", wl, refs, {0: (1, text)}
    yield "other parameters echoed", wl, refs, edited(lambda doc: doc["params"].update(l=1.0))


def cli_cold_cases():
    wl = W.CliCold(seed=11)
    refs = outputs(wl)
    at = {(op.kind, op.regime): i for i, op in enumerate(wl.pool)}

    def edited(key, change):
        i = at[key]
        out, csv = refs[i]
        doc = json.loads(out)
        change(doc)
        return {i: (json.dumps(doc).encode(), csv)}

    def widen(doc):
        doc["reserve"]["halfwidth"] = nudge(doc["reserve"]["halfwidth"])

    def move_boundary(doc):
        doc["reserve"]["boundary_B"] = nudge(doc["reserve"]["boundary_B"])

    def bad_csv():
        i = at["sweep", "l"]
        out, csv = refs[i]
        rows = csv.decode().split("\n")
        last = rows[-2].split(",")
        last[3] = repr(nudge(float(last[3])))
        rows[-2] = ",".join(last)
        return {i: (out, "\n".join(rows).encode())}

    yield "cli_cold", wl, refs, None
    yield "solve halfwidth off by 1e-8", wl, refs, edited(("solve", "reserve"), widen)
    yield "solve boundary_B off by 1e-8", wl, refs, edited(("solve", "physical"), move_boundary)
    yield "scale l off by 1e-8", wl, refs, edited(("scale", "physical"), lambda d: d.update(l=nudge(d["l"])))
    yield "lmin L_min off by 1e-8", wl, refs, edited(("lmin", "physical"), lambda d: d.update(L_min=nudge(d["L_min"])))
    yield "sweep CSV halfwidth off by 1e-8", wl, refs, bad_csv()


def main() -> int:
    bad = 0
    for cases in (solve_stream_cases, verify_suite_cases, cli_cold_cases):
        for label, wl, refs, change in cases():
            errors = wl.check({**refs, **(change or {})})
            if change is None:
                ok = not errors
                verdict = "real outputs pass" if ok else f"real outputs REJECTED: {errors}"
            else:
                ok = bool(errors)
                verdict = f"rejected ({errors[0][:90]})" if ok else "ACCEPTED"
            bad += not ok
            print(f"{'ok  ' if ok else 'FAIL'} {label}: {verdict}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
