"""The three workloads: seeded inputs, one operation each, output checks.

A workload turns its seed into a fixed pool of operations.  A run repeats
the whole pool, in the same order, until its time is up, so every run
attempts whole rounds of identical operations and the share of failed
operations is fixed by the pool alone.  The program sees only the
generated parameters; they are drawn here with the standard library and
transcriptions of the threshold length and of lam_star, never with the
program itself.

Outputs are checked against tests/oracles.py (mpmath at 40 digits, and
integration-only searches) and against plain identities such as
l = L / sqrt(D/mu).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
OUT = HERE / "out"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

# scaled coastline lengths stay at or below this in every workload
L_MAX = 20.0
# q <= 1 coasts stay at or below this: the constant-rate state solve loses
# about e^(k l) of its right-end accuracy, and past k*l/2 ~ 9 its boundary
# residual exceeds RESIDUAL_TOL (see README.md)
L_MAX_Q_LE_1 = 8.0
# draws with q > 1 keep q/mu this far above 1: closer to 1 the physical
# route's bracket fault fails on some inputs and not on others
Q_MIN = 1.6
HBAR_RANGE = (0.5, 3.0)
REGIMES = ("q_le_1", "no_reserve", "reserve")
# scaled operations per round of solve_stream.  The four kinds of
# operation take clearly different times (physical < q <= 1 < no reserve
# < reserve), so these counts put the median operation in the middle of
# the no-reserve group rather than on the edge between two groups, where
# it would jump between them from run to run.
SOLVE_COUNTS = {"q_le_1": 6, "no_reserve": 12, "reserve": 18}

# the one input that fails every run: the physical bisection's bracket pad
# rounds away below half an ulp of its upper end (see README.md)
BRACKET_FAULT = {"D": 1.0, "R": 1.0, "mu": 1.0, "Hbar": 1.0, "Q": 1.2, "L": 10.0}

# verify integrates the adjoint from lam_starstar*i/26, i = 1..25, with no
# cap on the step; a start this close (relative) above lam_star grazes the
# switching line, the event is missed and the check fails (see README.md)
GRAZE_WINDOW = 5e-3

RESIDUAL_TOL = 1e-8
ORACLE_RTOL = 1e-10
IDENTITY_RTOL = 1e-14

CLI_SNIPPET = "from coastharvest.cli import console_main; console_main()"


@dataclass(frozen=True)
class Op:
    kind: str
    regime: str
    args: object


def threshold_length(q: float, hbar: float) -> float:
    arg = math.sqrt((hbar + 1.0) * (hbar + 2.0 * q - 1.0)) / (hbar + q)
    return 2.0 / math.sqrt(hbar + 1.0) * math.atanh(arg)


def draw_scaled(rng: random.Random, regime: str) -> tuple[float, float, float]:
    """(l, q, hbar) inside one regime, at least 0.25 or 10 % from its edge."""
    hbar = rng.uniform(*HBAR_RANGE)
    if regime == "q_le_1":
        return rng.uniform(0.5, L_MAX_Q_LE_1), rng.uniform(0.0, 1.0), hbar
    q = rng.uniform(Q_MIN, 4.0)
    lmin = threshold_length(q, hbar)
    if regime == "no_reserve":
        return rng.uniform(0.3, 0.9) * lmin, q, hbar
    return rng.uniform(lmin + 0.25, L_MAX), q, hbar


def grazes_in_verify(l: float, q: float, hbar: float) -> bool:
    if q <= 1.0:
        return False
    lam_star = math.sqrt(hbar + 2.0 * q - 1.0) / l
    lam_starstar = math.hypot(lam_star, (q - 1.0) / l)
    return any(0.0 <= lam_starstar * i / 26.0 / lam_star - 1.0 < GRAZE_WINDOW for i in range(1, 26))


def draw_physical(rng: random.Random) -> dict:
    """Physical parameters whose scaled form lies in the reserve regime."""
    l, q, hbar = draw_scaled(rng, "reserve")
    D, mu, R = rng.uniform(0.25, 4.0), rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
    return {"D": D, "R": R, "mu": mu, "Hbar": hbar * mu, "Q": q * mu, "L": l * math.sqrt(D / mu)}


def flags(**values: float) -> list[str]:
    return [a for k, v in values.items() for a in (f"--{k}", repr(float(v)))]


def oracles():
    if str(TESTS) not in sys.path:
        sys.path.insert(0, str(TESTS))
    import oracles as mod

    return mod


def close(value, ref: float, rtol: float) -> bool:
    return value is not None and abs(value - ref) <= rtol * max(abs(ref), 1e-300)


def child_env() -> dict:
    """Environment of every child interpreter: the sources first on the
    path, and bytecode cached in __pycache__ as an installed package has
    it, whatever the caller's PYTHONDONTWRITEBYTECODE says."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    return env


class _Checks:
    """Collects the reasons an output is wrong."""

    def __init__(self) -> None:
        self.errors: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.errors.append(what)

    def reserve(self, tag: str, l, q, hbar, present, halfwidth, lmin) -> None:
        """Regime, threshold and half-width of a scaled answer, by the oracles."""
        orc = oracles()
        if q <= 1.0:
            self.expect(not present and halfwidth == 0.0, f"{tag}: reserve at q={q} <= 1")
            self.expect(lmin is None, f"{tag}: l_min reported at q={q} <= 1")
            return
        lmin_ref = float(orc.min_length(q, hbar))
        self.expect(close(lmin, lmin_ref, ORACLE_RTOL), f"{tag}: l_min {lmin} != {lmin_ref}")
        if abs(l - lmin_ref) <= 1e-9 * lmin_ref:
            return
        want = l > lmin_ref
        self.expect(present == want, f"{tag}: reserve present={present}, oracle says {want}")
        if want and present:
            ref = float(orc.reserve_boundary(1, 1, hbar, q, l))
            self.expect(close(halfwidth, ref, ORACLE_RTOL), f"{tag}: halfwidth {halfwidth} != {ref}")
        elif not want:
            self.expect(halfwidth == 0.0, f"{tag}: halfwidth {halfwidth} without a reserve")

    def residuals(self, tag: str, values) -> None:
        self.expect(
            all(v <= RESIDUAL_TOL for v in values),
            f"{tag}: Pontryagin residuals {values} above {RESIDUAL_TOL}",
        )


class _Workload:
    """Defaults shared by the workloads: no failure is expected, and the
    memory that counts is this process's own."""

    def expected_failure(self, op: Op) -> bool:
        return False

    def peak_rss_kb(self) -> int:
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    @contextlib.contextmanager
    def traced(self, tracer):
        """Trace the package in this process for the duration."""
        import tracing

        restore = tracing.install(tracer)
        try:
            yield
        finally:
            restore()


class SolveStream(_Workload):
    """The library's main use: decide whether a reserve exists and place it.

    36 scaled optimal_policy calls (SOLVE_COUNTS per regime) and 12
    physical unscaled_reserve_boundary calls per round; one physical call
    is the fixed BRACKET_FAULT input, which fails every round.
    """

    name = "solve_stream"

    def __init__(self, seed: int) -> None:
        from coastharvest import params, synthesis

        self._synthesis = synthesis
        rng = random.Random(seed)
        pool = [
            Op("scaled", regime, params.ScaledParams(*draw_scaled(rng, regime)))
            for regime, count in SOLVE_COUNTS.items()
            for _ in range(count)
        ]
        pool += [Op("physical", "reserve", params.UnscaledParams(**draw_physical(rng))) for _ in range(11)]
        pool.append(Op("physical", "bracket_fault", params.UnscaledParams(**BRACKET_FAULT)))
        rng.shuffle(pool)
        self.pool = pool

    def warm_up(self) -> None:
        for op in self.pool:
            with contextlib.suppress(ValueError):
                self.run(op)

    def run(self, op: Op):
        if op.kind == "scaled":
            sol = self._synthesis.optimal_policy(op.args)
            d = sol.diagnostics
            return (
                sol.reserve_halfwidth,
                sol.objective_j,
                sol.lmin,
                d.boundary_residual,
                d.transversality_residual,
                d.hamiltonian_deviation,
                d.switching_violation,
            )
        return (self._synthesis.unscaled_reserve_boundary(op.args),)

    def expected_failure(self, op: Op) -> bool:
        return op.regime == "bracket_fault"

    def check(self, refs: dict) -> list[str]:
        chk = _Checks()
        orc = oracles()
        for i, op in enumerate(self.pool):
            if i not in refs:
                continue
            out, tag = refs[i], f"op {i} {op.kind} {op.args}"
            if op.kind == "scaled":
                sp = op.args
                hw, j, lmin = out[:3]
                chk.reserve(tag, sp.l, sp.q, sp.hbar, hw > 0.0, hw, lmin)
                chk.residuals(tag, out[3:])
                chk.expect(math.isfinite(j) and j > 0.0, f"{tag}: objective {j}")
            else:
                p = op.args
                ref = float(orc.reserve_boundary(p.D, p.mu, p.Hbar, p.Q, p.L))
                chk.expect(close(out[0], ref, ORACLE_RTOL), f"{tag}: boundary {out[0]} != {ref}")
        return chk.errors

    def probe_commands(self) -> list[list[str]]:
        sp = next(op.args for op in self.pool if op.kind == "scaled" and op.regime == "reserve")
        return [["solve", *flags(l=sp.l, q=sp.q, hbar=sp.hbar)]] * 3


class VerifySuite(_Workload):
    """What `coastharvest verify` does at its default sizes, in-process.

    One suite per regime per round: a 12-cell exhaustive search, an 11x21
    reserve sweep, 25 event integrations when q > 1, a 512-point spectrum
    and a parabolic run at l/8192, dt = 0.01 to t = 40.
    """

    name = "verify_suite"
    CHECKS = {
        "brute_force_gap",
        "reserve_sweep_gap",
        "transversality",
        "hamiltonian_constancy",
        "switching_signs",
        "max_eigenvalue_plus_one",
        "pde_l2_distance",
    }

    def __init__(self, seed: int) -> None:
        from coastharvest import cli

        self._cli = cli
        rng = random.Random(seed)
        self.pool = []
        for regime in REGIMES:
            l, q, hbar = draw_scaled(rng, regime)
            while grazes_in_verify(l, q, hbar):
                l, q, hbar = draw_scaled(rng, regime)
            self.pool.append(Op("verify", regime, (l, q, hbar)))

    def warm_up(self) -> None:
        # every verification route once, at the smallest sizes it accepts
        small = ["--cells", "2", "--centers", "2", "--widths", "2", "--tmax", "0.05"]
        self.run(Op("verify", "reserve", (4.0, 2.0, 1.0)), small)

    def run(self, op: Op, extra: tuple = ()):
        l, q, hbar = op.args
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = self._cli.main(["verify", *flags(l=l, q=q, hbar=hbar), *extra])
        return rc, buf.getvalue()

    def check(self, refs: dict) -> list[str]:
        chk = _Checks()
        for i, op in enumerate(self.pool):
            if i not in refs:
                continue
            (rc, text), (l, q, hbar) = refs[i], op.args
            tag = f"verify l={l} q={q} hbar={hbar}"
            doc = json.loads(text)
            names = {c["name"] for c in doc["checks"]}
            want = self.CHECKS | ({"hitting_time_vs_integration"} if q > 1.0 else set())
            chk.expect(names == want, f"{tag}: checks {sorted(names)}")
            failed = [c["name"] for c in doc["checks"] if not c["pass"]]
            chk.expect(rc == 0 and doc["all_pass"] is True and not failed, f"{tag}: failed {failed}")
            chk.expect(doc["params"] == {"l": l, "q": q, "hbar": hbar}, f"{tag}: params {doc['params']}")
        return chk.errors

    def probe_commands(self) -> list[list[str]]:
        l, q, hbar = self.pool[-1].args
        return [["solve", *flags(l=l, q=q, hbar=hbar)]] * 3


class CliCold(_Workload):
    """One fresh interpreter per operation running coastharvest.cli.

    A round is six commands: solve (scaled, with a reserve and with
    q <= 1), solve (physical), lmin (physical), scale, and a 41-point
    sweep of l.
    """

    name = "cli_cold"

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        OUT.mkdir(exist_ok=True)
        self._env = child_env()
        self.rss_kb: list[int] = []
        self.tracer = None
        self.sweep_csv = OUT / f"sweep-{seed}-{os.getpid()}.csv"
        phys = [draw_physical(rng) for _ in range(3)]
        reserve, low_q = draw_scaled(rng, "reserve"), draw_scaled(rng, "q_le_1")
        q, hbar = draw_scaled(rng, "reserve")[1:]
        self.sweep_range = (rng.uniform(0.5, 2.0), L_MAX)
        lmin_args = {k: phys[1][k] for k in ("D", "mu", "Hbar", "Q")}
        self.pool = [
            Op("solve", "reserve", ["solve", *flags(l=reserve[0], q=reserve[1], hbar=reserve[2])]),
            Op("solve", "q_le_1", ["solve", *flags(l=low_q[0], q=low_q[1], hbar=low_q[2])]),
            Op("solve", "physical", ["solve", *flags(**phys[0])]),
            Op("lmin", "physical", ["lmin", *flags(**lmin_args)]),
            Op("scale", "physical", ["scale", *flags(**phys[2])]),
            Op(
                "sweep",
                "l",
                ["sweep", *flags(q=q, hbar=hbar), "--param", "l", "--from", repr(self.sweep_range[0]),
                 "--to", repr(self.sweep_range[1]), "--steps", "41", "--out", str(self.sweep_csv)],
            ),
        ]
        rng.shuffle(self.pool)

    def warm_up(self) -> None:
        self.run(self.pool[0])
        self.rss_kb.clear()

    def run(self, op: Op):
        if self.tracer is None:
            cmd = [sys.executable, "-c", CLI_SNIPPET, *op.args]
            report = None
        else:
            report = OUT / f"child-{os.getpid()}.json"
            cmd = [sys.executable, str(HERE / "child.py"), "cli", str(report), "1", *op.args]
        proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=self._env, cwd=ROOT
        )
        # the CLI writes at most a few kilobytes, so neither pipe can fill
        # while the other is drained
        out, err = proc.stdout.read(), proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
        self.rss_kb.append(usage.ru_maxrss)
        if proc.returncode != 0:
            raise RuntimeError(f"exit {proc.returncode}: {err.decode(errors='replace').strip()}")
        if report is not None:
            self.tracer.adopt(json.loads(report.read_text())["trace"], self.tracer.current())
        csv = self.sweep_csv.read_bytes() if op.kind == "sweep" else b""
        return out, csv

    def check(self, refs: dict) -> list[str]:
        chk = _Checks()
        orc = oracles()
        for i, op in enumerate(self.pool):
            if i not in refs:
                continue
            out, csv = refs[i]
            doc = json.loads(out)
            argv = op.args
            tag = " ".join(argv)
            given = {argv[j][2:]: float(argv[j + 1]) for j in range(1, len(argv) - 1, 2)
                     if argv[j][2:] in ("l", "q", "hbar", "D", "R", "mu", "Hbar", "Q", "L")}
            if op.kind == "solve":
                self._check_solve(chk, orc, tag, given, doc)
            elif op.kind == "lmin":
                D, mu, Hbar, Q = (given[k] for k in ("D", "mu", "Hbar", "Q"))
                ref = float(orc.min_length(Q / mu, Hbar / mu))
                chk.expect(close(doc["l_min"], ref, ORACLE_RTOL), f"{tag}: l_min {doc['l_min']} != {ref}")
                ref = float(orc.unscaled_min_length(D, mu, Hbar, Q))
                chk.expect(close(doc["L_min"], ref, ORACLE_RTOL), f"{tag}: L_min {doc['L_min']} != {ref}")
            elif op.kind == "scale":
                unit = math.sqrt(given["D"] / given["mu"])
                want = {
                    "l": given["L"] / unit,
                    "q": given["Q"] / given["mu"],
                    "hbar": given["Hbar"] / given["mu"],
                    "length_unit": unit,
                }
                for key, ref in want.items():
                    chk.expect(close(doc[key], ref, IDENTITY_RTOL), f"{tag}: {key} {doc[key]} != {ref}")
            else:
                self._check_sweep(chk, orc, tag, given, doc, csv.decode())
        return chk.errors

    def _check_solve(self, chk, orc, tag, given, doc) -> None:
        res = doc["reserve"]
        chk.residuals(tag, list(doc["diagnostics"].values()))
        if "L" not in given:
            chk.reserve(tag, given["l"], given["q"], given["hbar"], res["present"],
                        res["halfwidth"], doc.get("l_min"))
            return
        D, mu, Hbar, Q, L, R = (given[k] for k in ("D", "mu", "Hbar", "Q", "L", "R"))
        ref = float(orc.reserve_boundary(D, mu, Hbar, Q, L))
        chk.expect(res["present"] and close(res.get("boundary_B"), ref, ORACLE_RTOL),
                   f"{tag}: boundary_B {res.get('boundary_B')} != {ref}")
        chk.expect(close(doc["objective_J"], R * doc["objective_j"], IDENTITY_RTOL),
                   f"{tag}: objective_J {doc['objective_J']} != R*j")

    def _check_sweep(self, chk, orc, tag, given, doc, csv: str) -> None:
        rows = [line.split(",") for line in csv.strip().split("\n")]
        chk.expect(rows[0] == ["value", "l_min", "reserve_present", "halfwidth", "Ts", "objective_j"],
                   f"{tag}: header {rows[0]}")
        chk.expect(doc["points"] == 41 and len(rows) == 42, f"{tag}: {len(rows) - 1} rows")
        start, stop = self.sweep_range
        for k, row in enumerate(rows[1:]):
            l = float(row[0])
            chk.expect(close(l, start + (stop - start) * k / 40, IDENTITY_RTOL), f"{tag}: row {k} l={l}")
            chk.reserve(f"{tag} row {k}", l, given["q"], given["hbar"], row[2] == "true",
                        float(row[3]), float(row[1]) if row[1] else None)

    def peak_rss_kb(self) -> int:
        return max(self.rss_kb)

    @contextlib.contextmanager
    def traced(self, tracer):
        """Run each CLI child traced, adopting its spans under the operation."""
        self.tracer = tracer
        try:
            yield
        finally:
            self.tracer = None

    def probe_commands(self) -> list[list[str]]:
        return [op.args for op in self.pool]


WORKLOADS = {cls.name: cls for cls in (SolveStream, VerifySuite, CliCold)}
