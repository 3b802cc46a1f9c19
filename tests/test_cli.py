"""End-to-end command-line checks, run in process through main().

One test runs `python -m coastharvest.cli` in a fresh interpreter.
"""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracles
from coastharvest import ScaledParams, derive_constants, lab, optimal_policy
from coastharvest.cli import _linspace, build_parser, main
from coastharvest.lab import richardson_steady_gap

SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestScale:
    def test_converts_physical_parameters(self, capsys):
        doc = run_json(
            capsys, "scale", "--D", "4", "--R", "3", "--mu", "1",
            "--Hbar", "1", "--Q", "0.5", "--L", "4",
        )
        assert doc == {"l": 2.0, "q": 0.5, "hbar": 1.0, "length_unit": 2.0}

    def test_rejects_scaled_flags(self, capsys):
        code, _, err = run(capsys, "scale", "--l", "2", "--q", "1", "--hbar", "1")
        assert code == 2
        assert "physical" in err

    def test_rejects_missing_parameters(self, capsys):
        code, _, err = run(capsys, "scale", "--D", "1", "--mu", "1")
        assert code == 2
        assert "--Hbar" in err and "--Q" in err


class TestLmin:
    def test_scaled_value(self, capsys):
        doc = run_json(capsys, "lmin", "--q", "2", "--hbar", "1")
        assert doc["l_min"] == pytest.approx(2.4929009605609234, rel=1e-12)
        assert "L_min" not in doc

    def test_physical_value_carries_the_length_unit(self, capsys):
        doc = run_json(capsys, "lmin", "--D", "2", "--mu", "1", "--Hbar", "1", "--Q", "2")
        assert doc["L_min"] == pytest.approx(doc["l_min"] * math.sqrt(2.0), rel=1e-12)

    def test_huge_weight_keeps_a_tiny_threshold(self, capsys):
        doc = run_json(capsys, "lmin", "--q", "1e300", "--hbar", "1")
        assert doc["l_min"] == 2.8284271247461893e-150
        assert doc["l_min"] == pytest.approx(float(oracles.min_length(1e300, 1)), rel=1e-15)

    def test_subcritical_weight_is_an_error(self, capsys):
        code, _, err = run(capsys, "lmin", "--q", "0.5", "--hbar", "1")
        assert code == 2
        assert "q > 1" in err


class TestSolve:
    def test_small_weight_regime(self, capsys):
        doc = run_json(capsys, "solve", "--l", "2", "--q", "0.5", "--hbar", "1")
        assert doc["policy"]["breakpoints"] == [-1.0, 1.0]
        assert doc["policy"]["rates"] == [1.0]
        assert doc["reserve"] == {"present": False, "halfwidth": 0.0}
        assert "lambda_bar" not in doc and "Ts" not in doc and "l_min" not in doc
        assert doc["diagnostics"]["transversality_residual"] <= 1e-8

    def test_short_coast_regime(self, capsys):
        doc = run_json(capsys, "solve", "--l", "2", "--q", "2", "--hbar", "1")
        assert doc["reserve"]["present"] is False
        assert doc["l_min"] == pytest.approx(2.4929009605609234, rel=1e-10)
        assert "lambda_bar" in doc and "Ts" not in doc

    def test_weight_just_above_one_keeps_the_cap(self, capsys):
        doc = run_json(capsys, "solve", "--l", "26", "--q", "1.00000001", "--hbar", "1")
        assert doc["l_min"] == pytest.approx(float(oracles.min_length(1.00000001, 1)), rel=1e-14)
        assert doc["reserve"]["present"] is False
        assert "Ts" not in doc

    def test_weight_a_hair_above_one_with_a_huge_cap_solves(self, capsys):
        doc = run_json(capsys, "solve", "--l", "50", "--q", "1.000000000001", "--hbar", "1e8")
        assert doc["reserve"]["present"] is True
        assert max(doc["diagnostics"].values()) <= 1e-8

    def test_reserve_regime(self, capsys):
        doc = run_json(capsys, "solve", "--l", "4", "--q", "2", "--hbar", "1")
        hw = doc["reserve"]["halfwidth"]
        assert doc["reserve"]["present"] is True
        assert hw == pytest.approx(1.2857547682331418, rel=1e-10)
        assert doc["Ts"] == pytest.approx(0.7142452317668581, rel=1e-10)
        assert doc["lambda_bar"] == pytest.approx(0.5440692891256791, rel=1e-10)
        assert doc["objective_j"] == pytest.approx(1.062866742413624, rel=1e-10)
        assert doc["policy"]["breakpoints"] == [-2.0, -hw, hw, 2.0]
        assert doc["policy"]["rates"] == [1.0, 0.0, 1.0]

    @pytest.mark.parametrize("q, hbar", [(1.01, 1.0), (2.0, 1.0), (5.0, 0.1)])
    def test_one_ulp_above_the_threshold_length(self, capsys, q, hbar):
        lmin = derive_constants(ScaledParams(l=1.0, q=q, hbar=hbar)).l_min
        l = math.nextafter(lmin, math.inf)
        sol = optimal_policy(ScaledParams(l=l, q=q, hbar=hbar))
        assert sol.reserve_halfwidth >= 0.0
        doc = run_json(capsys, "solve", "--l", repr(l), "--q", repr(q), "--hbar", repr(hbar))
        reserve = doc["reserve"]
        assert reserve["halfwidth"] == sol.reserve_halfwidth
        assert reserve["present"] is (reserve["halfwidth"] > 0.0)
        assert reserve["present"] is (0.0 in doc["policy"]["rates"])

    def test_physical_parameters_add_unscaled_outputs(self, capsys):
        doc = run_json(
            capsys, "solve", "--D", "4", "--R", "3", "--mu", "1",
            "--Hbar", "1", "--Q", "2", "--L", "8",
        )
        assert doc["reserve"]["boundary_B"] == pytest.approx(
            2.0 * doc["reserve"]["halfwidth"], rel=1e-12
        )
        assert doc["objective_J"] == pytest.approx(3.0 * doc["objective_j"], rel=1e-12)

    def test_overflowing_physical_objective_exits_2(self, capsys):
        code, out, err = run(
            capsys, "solve", "--D", "1", "--R", "1.7e308", "--mu", "1",
            "--Hbar", "1", "--Q", "2", "--L", "10",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: the physical objective R*j overflows at R = 1.7e+308")

    def test_profile_csv(self, capsys, tmp_path):
        path = tmp_path / "profile.csv"
        doc = run_json(
            capsys, "solve", "--l", "2", "--q", "0.5", "--hbar", "1",
            "--profile", str(path), "--samples", "64",
        )
        assert doc["objective_j"] > 0.0
        lines = path.read_text().splitlines()
        assert lines[0] == "x,u,v"
        assert len(lines) == 65
        x, u, v = (float(s) for s in lines[1].split(","))
        assert x == -1.0 and u == 0.0 and v > 0.0

    @pytest.mark.parametrize("samples", ["1", "0", "-3"])
    def test_too_few_profile_samples_is_an_error(self, capsys, tmp_path, samples):
        path = tmp_path / "profile.csv"
        code, out, err = run(
            capsys, "solve", "--l", "2", "--q", "0.5", "--hbar", "1",
            "--profile", str(path), "--samples", samples,
        )
        assert code == 2
        assert out == ""
        assert err == "error: --samples must be at least 2\n"
        assert not path.exists()

    def test_module_entry_point_prints_what_main_prints(self, capsys):
        _, want, _ = run(capsys, "solve", "--l", "4", "--q", "2", "--hbar", "1")
        proc = subprocess.run(
            [sys.executable, "-m", "coastharvest.cli", "solve", "--l", "4", "--q", "2", "--hbar", "1"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(SRC)},
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == want

    def test_output_is_deterministic(self, capsys):
        _, out1, _ = run(capsys, "solve", "--l", "4", "--q", "2", "--hbar", "1")
        _, out2, _ = run(capsys, "solve", "--l", "4", "--q", "2", "--hbar", "1")
        assert out1 == out2


class TestVerify:
    def test_all_checks_pass_in_the_reserve_regime(self, capsys):
        doc = run_json(
            capsys, "verify", "--l", "4", "--q", "2", "--hbar", "1",
            "--cells", "6", "--centers", "5", "--widths", "9",
        )
        assert doc["params"] == {"l": 4.0, "q": 2.0, "hbar": 1.0}
        assert doc["all_pass"] is True
        names = [c["name"] for c in doc["checks"]]
        assert names == [
            "brute_force_gap",
            "reserve_sweep_gap",
            "hitting_time_vs_integration",
            "transversality",
            "hamiltonian_constancy",
            "switching_signs",
            "max_eigenvalue_plus_one",
            "pde_l2_distance",
        ]
        assert all(c["pass"] for c in doc["checks"])

    def test_subcritical_run_skips_the_hitting_check(self, capsys):
        doc = run_json(
            capsys, "verify", "--l", "2", "--q", "0.5", "--hbar", "1",
            "--cells", "6", "--centers", "5", "--widths", "9", "--tmax", "30",
        )
        assert doc["all_pass"] is True
        names = [c["name"] for c in doc["checks"]]
        assert "hitting_time_vs_integration" not in names
        assert len(names) == 7

    @pytest.mark.parametrize(
        "l, q, hbar",
        [
            (9.811278000808583, 3.297466230318146, 2.052804579830935),
            (16.764199905276822, 1.858223827549165, 1.5225018921202387),
            # start 24 is 1e-5 above lam_star: the crossing and the hit
            # fall 0.011 apart, closer than the brackets of the
            # bisection's first 14 levels are wide
            (20.0, 2.0, 2.7592213493803284),
        ],
    )
    def test_hitting_check_catches_a_grazing_start(self, capsys, l, q, hbar):
        # one of the 25 starts lies within 1e-4 (relative) above lam_star,
        # where the adjoint orbit only grazes the switching line
        _, out, err = run(
            capsys, "verify", "--l", repr(l), "--q", repr(q), "--hbar", repr(hbar),
            "--cells", "6", "--centers", "5", "--widths", "9", "--tmax", "1",
        )
        checks = {c["name"]: c for c in json.loads(out)["checks"]}
        hit = checks["hitting_time_vs_integration"]
        assert hit["threshold"] == 1e-8
        assert hit["pass"] is True, err

    @pytest.mark.parametrize(
        "l, q, hbar", [("50", "2", "1"), ("100", "0.5", "1"), ("1000", "2", "1"), ("1e4", "2", "1")]
    )
    def test_long_coasts_pass(self, capsys, l, q, hbar):
        # a fixed l/8192 grid alone misses the steady state by 2.4e-6 at
        # l = 50 and by 2.0e-2 at l = 1e4
        doc = run_json(
            capsys, "verify", "--l", l, "--q", q, "--hbar", hbar,
            "--cells", "6", "--centers", "5", "--widths", "9",
        )
        checks = {c["name"]: c for c in doc["checks"]}
        assert checks["pde_l2_distance"]["threshold"] == 1e-6
        assert checks["pde_l2_distance"]["value"] <= 1e-8
        assert doc["all_pass"] is True

    @pytest.mark.parametrize(
        "l, q, hbar",
        [("30", "2", "1e4"), ("200", "2", "1e3"), ("200", "2", "1e4"), ("1000", "2", "1e4"),
         ("1e4", "2", "1e4")],
    )
    def test_large_caps_pass(self, capsys, l, q, hbar):
        # a spacing of 1/32 missed the layers of the harvested pieces, 1/k
        # wide, by 1.1e-6 to 8.8e-4: those pieces are now solved at 1/(8k)
        doc = run_json(
            capsys, "verify", "--l", l, "--q", q, "--hbar", hbar,
            "--cells", "6", "--centers", "5", "--widths", "9",
        )
        checks = {c["name"]: c for c in doc["checks"]}
        assert checks["pde_l2_distance"]["value"] <= 1e-7
        assert doc["all_pass"] is True

    @pytest.mark.parametrize(
        "l, q, hbar",
        [("0.1", "2", "1"), ("0.15", "4", "3"), ("0.01", "2", "1"), ("1e-3", "2", "1"),
         ("1e-5", "2", "1"), ("1e-74", "2", "1")],
    )
    def test_short_coasts_pass(self, capsys, l, q, hbar):
        # the hitting times here are 10-30 l, so a horizon of 10 l missed
        # every hit; the flow's own time scale 1/sqrt(1+h) sets it instead
        doc = run_json(
            capsys, "verify", "--l", l, "--q", q, "--hbar", hbar,
            "--cells", "6", "--centers", "5", "--widths", "9",
        )
        checks = {c["name"]: c for c in doc["checks"]}
        assert checks["hitting_time_vs_integration"]["value"] <= 1e-13
        assert doc["all_pass"] is True

    @pytest.mark.parametrize(
        "l, q, hbar",
        [("1e4", "50", "0.05"), ("1e4", "2", "1"), ("1000", "2", "1"), ("100", "0.5", "1"),
         ("0.3", "2", "1")],
    )
    def test_parabolic_run_settles_at_the_default_length(self, capsys, l, q, hbar):
        # at dt = 1/16 and t = 40 the run's own term is exactly 0.0
        doc = run_json(
            capsys, "verify", "--l", l, "--q", q, "--hbar", hbar,
            "--cells", "2", "--centers", "2", "--widths", "2",
        )
        checks = {c["name"]: c for c in doc["checks"]}
        sp = ScaledParams(l=float(l), q=float(q), hbar=float(hbar))
        want = richardson_steady_gap(optimal_policy(sp).policy)
        assert checks["pde_l2_distance"]["value"] == want

    def test_default_run_length_takes_no_parabolic_run(self, capsys, monkeypatch):
        # 640 steps of 1/16 prove the run's term 0.0 (see run_steps)
        def refuse(*args, **kwargs):
            raise AssertionError("verify took a run that its bound proves settled")

        monkeypatch.setattr(lab, "pde_time_stepper", refuse)
        doc = run_json(
            capsys, "verify", "--l", "4", "--q", "2", "--hbar", "1",
            "--cells", "2", "--centers", "2", "--widths", "2",
        )
        checks = {c["name"]: c for c in doc["checks"]}
        want = richardson_steady_gap(optimal_policy(ScaledParams(l=4.0, q=2.0, hbar=1.0)).policy)
        assert checks["pde_l2_distance"]["value"] == want

    @pytest.mark.parametrize("tmax", ["20", "1"])
    def test_shorter_run_lengths_take_the_parabolic_run(self, capsys, monkeypatch, tmax):
        stepper, runs = lab.pde_time_stepper, []

        def counted(*args, **kwargs):
            runs.append(stepper(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(lab, "pde_time_stepper", counted)
        _, out, _ = run(
            capsys, "verify", "--l", "4", "--q", "2", "--hbar", "1",
            "--cells", "2", "--centers", "2", "--widths", "2", "--tmax", tmax,
        )
        assert len(runs) == 1
        assert runs[0].history[-1][0] == float(tmax)
        checks = {c["name"]: c for c in json.loads(out)["checks"]}
        gap = richardson_steady_gap(optimal_policy(ScaledParams(l=4.0, q=2.0, hbar=1.0)).policy)
        assert checks["pde_l2_distance"]["value"] == runs[0].discrete_distance + gap

    @pytest.mark.parametrize("top", [math.nan, math.inf, -math.inf])
    def test_non_finite_check_value_fails_and_is_reported(self, capsys, monkeypatch, top):
        monkeypatch.setattr(lab, "stability_eigenvalues", lambda policy, n: (top, False))
        code, out, _ = run(
            capsys, "verify", "--l", "4", "--q", "2", "--hbar", "1",
            "--cells", "2", "--centers", "2", "--widths", "2",
        )
        assert code == 1
        doc = json.loads(out)
        checks = {c["name"]: c for c in doc["checks"]}
        assert checks.pop("max_eigenvalue_plus_one") == {
            "name": "max_eigenvalue_plus_one", "value": 1e308, "threshold": 1e-6, "pass": False,
        }
        assert all(c["pass"] for c in checks.values())
        assert doc["all_pass"] is False

    @pytest.mark.parametrize("q", ["2", "0.5"])
    @pytest.mark.parametrize("l", ["1e-75", "1e-100", "1e-200", "1e-300"])
    def test_very_short_coasts_name_the_check_that_cannot_run(self, capsys, l, q):
        # LAPACK's bisection squares the spectrum's entries, about 4/dx^2:
        # from l = 1e-75 it failed with "stebz ... did not converge", and
        # from about 1e-155 the hitting-time check before it read an
        # intercept of nan, where the square of a level near 1/l overflowed
        code, out, err = run(
            capsys, "verify", "--l", l, "--q", q, "--hbar", "1",
            "--cells", "2", "--centers", "2", "--widths", "2",
        )
        assert (code, out) == (2, "")
        assert err.startswith(
            f"error: check max_eigenvalue_plus_one cannot run: the 512-point spectrum at "
            f"l = {float(l)!r} (dx = "
        )
        assert "stebz" not in err and "nan" not in err

    def test_coast_too_long_for_the_steady_grid_is_a_parameter_error(self, capsys):
        code, out, err = run(
            capsys, "verify", "--l", "1e5", "--q", "0.5", "--hbar", "1",
            "--cells", "2", "--centers", "2", "--widths", "2", "--tmax", "0.05",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: grid too fine: more than 1048576 cells")

    def test_large_cap_on_a_long_coast_is_a_parameter_error(self, capsys):
        # harvested at 1e4 throughout: 8k cells per unit length, k = sqrt(1 + 1e4),
        # would put 8e6 cells on l = 1e4
        code, out, err = run(
            capsys, "verify", "--l", "1e4", "--q", "0.5", "--hbar", "1e4",
            "--cells", "2", "--centers", "2", "--widths", "2",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: grid too fine: more than 1048576 cells")

    def test_oversized_reserve_grid_is_a_parameter_error(self, capsys):
        code, out, err = run(
            capsys, "verify", "--l", "4", "--q", "2", "--hbar", "1",
            "--centers", "3000", "--widths", "3000",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: reserve sweep grid too large: 3000 x 3000 candidates")

    def test_oversized_cell_count_is_an_error(self, capsys):
        code, _, err = run(
            capsys, "verify", "--l", "4", "--q", "2", "--hbar", "1", "--cells", "20"
        )
        assert code == 2
        assert "cells" in err

    def test_infinite_run_length_is_a_parameter_error(self, capsys):
        code, out, err = run(
            capsys, "verify", "--l", "4", "--q", "2", "--hbar", "1",
            "--cells", "6", "--centers", "5", "--widths", "9", "--tmax", "inf",
        )
        assert code == 2
        assert out == ""
        assert err == "error: t_max must be positive and finite, got inf\n"

    @pytest.mark.parametrize("tmax, shown", [("nan", "nan"), ("0", "0.0"), ("-1", "-1.0")])
    def test_non_positive_run_length_is_a_parameter_error(self, capsys, tmax, shown):
        code, out, err = run(
            capsys, "verify", "--l", "4", "--q", "2", "--hbar", "1",
            "--cells", "6", "--centers", "5", "--widths", "9", "--tmax", tmax,
        )
        assert code == 2
        assert out == ""
        assert err == f"error: t_max must be positive and finite, got {shown}\n"

    def test_overlong_run_is_a_parameter_error(self, capsys):
        code, out, err = run(
            capsys, "verify", "--l", "4", "--q", "2", "--hbar", "1",
            "--cells", "6", "--centers", "5", "--widths", "9", "--tmax", "1e300",
        )
        assert code == 2
        assert out == ""
        assert err == (
            "error: t_max / dt must be at most 1000000 steps, got t_max=1e+300, dt=0.0625\n"
        )


class TestSweep:
    def test_length_sweep_finds_the_threshold(self, capsys, tmp_path):
        path = tmp_path / "sweep.csv"
        doc = run_json(
            capsys, "sweep", "--q", "2", "--hbar", "1", "--param", "l",
            "--from", "2", "--to", "6", "--steps", "41", "--out", str(path),
        )
        assert doc == {"points": 41, "out": str(path)}
        lines = path.read_text().splitlines()
        assert lines[0] == "value,l_min,reserve_present,halfwidth,Ts,objective_j"
        assert len(lines) == 42
        rows = [line.split(",") for line in lines[1:]]
        flips = [
            (float(a[0]), float(b[0]))
            for a, b in zip(rows, rows[1:])
            if a[2] != b[2]
        ]
        assert len(flips) == 1
        lo, hi = flips[0]
        assert lo < 2.4929009605609234 < hi
        # Ts is reported only where the reserve exists
        for row in rows:
            assert (row[4] == "") == (row[2] == "false")

    def test_length_sweep_runs_to_long_coasts(self, capsys, tmp_path):
        path = tmp_path / "long.csv"
        doc = run_json(
            capsys, "sweep", "--q", "2", "--hbar", "1", "--param", "l",
            "--from", "2", "--to", "200", "--steps", "41", "--out", str(path),
        )
        assert doc["points"] == 41
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        assert [float(r[0]) for r in rows] == list(np.linspace(2.0, 200.0, 41))
        assert rows[-1][2] == "true"
        for row in rows:
            d = optimal_policy(ScaledParams(l=float(row[0]), q=2.0, hbar=1.0)).diagnostics
            assert float(row[3]) >= 0.0
            assert max(
                d.boundary_residual,
                d.transversality_residual,
                d.hamiltonian_deviation,
                d.switching_violation,
            ) <= 1e-8

    def test_weight_sweep_reports_a_decreasing_threshold(self, capsys, tmp_path):
        path = tmp_path / "qsweep.csv"
        run_json(
            capsys, "sweep", "--l", "4", "--hbar", "1", "--param", "q",
            "--from", "1.1", "--to", "5", "--steps", "8", "--out", str(path),
        )
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        lmins = [float(r[1]) for r in rows]
        assert all(a > b for a, b in zip(lmins, lmins[1:]))

    def test_cap_sweep_is_well_formed(self, capsys, tmp_path):
        path = tmp_path / "hsweep.csv"
        run_json(
            capsys, "sweep", "--l", "3", "--q", "0.5", "--param", "hbar",
            "--from", "0.5", "--to", "2", "--steps", "4", "--out", str(path),
        )
        lines = path.read_text().splitlines()
        assert lines[0] == "value,l_min,reserve_present,halfwidth,Ts,objective_j"
        assert len(lines) == 5
        assert all(line.split(",")[2] == "false" for line in lines[1:])

    def test_malformed_ranges_are_errors(self, capsys, tmp_path):
        path = str(tmp_path / "x.csv")
        base = ("sweep", "--q", "2", "--hbar", "1", "--param", "l")
        for extra in (
            ("--from", "2", "--to", "6", "--steps", "41"),  # no --out
            ("--from", "6", "--to", "2", "--steps", "41", "--out", path),
            ("--from", "2", "--to", "6", "--steps", "1", "--out", path),
            ("--to", "6", "--steps", "41", "--out", path),  # no --from
        ):
            code, _, err = run(capsys, *base, *extra)
            assert code == 2
            assert err

    @pytest.mark.parametrize("param", ["x", "L", "lmin"])
    def test_unknown_parameter_is_rejected_by_the_parser(self, capsys, tmp_path, param):
        path = tmp_path / "x.csv"
        code, out, err = run(
            capsys, "sweep", "--l", "4", "--q", "2", "--hbar", "1", "--param", param,
            "--from", "2", "--to", "6", "--steps", "5", "--out", str(path),
        )
        assert code == 2
        assert out == ""
        assert f"--param: invalid choice: '{param}'" in err
        assert not path.exists()

    @pytest.mark.parametrize("physical", [("--D", "1"), ("--R", "3")])
    def test_physical_parameters_are_rejected(self, capsys, tmp_path, physical):
        path = tmp_path / "x.csv"
        code, out, err = run(
            capsys, "sweep", "--q", "2", "--hbar", "1", *physical, "--param", "l",
            "--from", "2", "--to", "6", "--steps", "5", "--out", str(path),
        )
        assert code == 2
        assert out == ""
        assert "sweep works on scaled parameters" in err
        assert not path.exists()

    def test_missing_fixed_parameter_is_an_error(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "sweep", "--q", "2", "--param", "l",
            "--from", "2", "--to", "6", "--steps", "5",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2
        assert "--hbar" in err


def _ulps_above(x, n):
    for _ in range(n):
        x = math.nextafter(x, math.inf)
    return x


# start < stop over many binades, ranges a few ulps wide, and subnormal
# ranges whose step underflows to 0
_wide = st.tuples(
    st.floats(-1e300, 1e300), st.floats(-1e300, 1e300)
).filter(lambda r: r[0] != r[1]).map(sorted)
_narrow = st.builds(
    lambda x, n: (x, _ulps_above(x, n)), st.floats(-1e300, 1e300), st.integers(1, 8)
)
_subnormal = st.builds(
    lambda a, n: (a * 5e-324, (a + n) * 5e-324), st.integers(-4, 4), st.integers(1, 4)
)


class TestSweepGrid:
    @given(bounds=st.one_of(_wide, _narrow, _subnormal), steps=st.integers(2, 500))
    def test_grid_is_numpy_linspace_bit_for_bit(self, bounds, steps):
        start, stop = bounds
        want = np.linspace(start, stop, steps)
        assert np.array(_linspace(start, stop, steps)).tobytes() == want.tobytes()

    def test_an_underflowing_step_takes_numpy_branch(self):
        # (5e-324 - 0)/2 rounds to 0, so numpy scales i/div by delta instead
        start, stop = 0.0, 5e-324
        assert (stop - start) / 2 == 0.0
        assert _linspace(start, stop, 3) == list(np.linspace(start, stop, 3)) == [0.0, 0.0, 5e-324]


class TestSimulate:
    def test_reports_convergence_to_the_steady_state(self, capsys):
        doc = run_json(
            capsys, "simulate", "--l", "2", "--q", "0.5", "--hbar", "1", "--tmax", "5",
        )
        assert set(doc) == {"l2_distance", "t_max", "dx", "dt", "nodes", "monotone_tail"}
        assert doc["t_max"] == 5.0
        assert doc["dx"] == pytest.approx(2.0 / 512.0)
        assert doc["monotone_tail"] is True
        assert doc["l2_distance"] <= 1e-4

    def test_writes_the_final_state(self, capsys, tmp_path):
        path = tmp_path / "state.csv"
        doc = run_json(
            capsys, "simulate", "--l", "2", "--q", "0.5", "--hbar", "1",
            "--dx", "0.125", "--tmax", "2", "--out", str(path),
        )
        lines = path.read_text().splitlines()
        assert lines[0] == "x,u"
        assert len(lines) == doc["nodes"] + 1

    @pytest.mark.parametrize(
        "l, q, hbar, dx, nodes",
        [
            # two interior nodes, folded by mirror symmetry into one unknown
            ("4", "2", "1", "10", 4),
            # a single interior node
            ("4", "0.5", "1", "2", 3),
        ],
    )
    def test_a_grid_of_one_unknown_runs(self, capsys, l, q, hbar, dx, nodes):
        doc = run_json(capsys, "simulate", "--l", l, "--q", q, "--hbar", hbar, "--dx", dx)
        assert doc["nodes"] == nodes
        assert doc["monotone_tail"] is True

    @pytest.mark.parametrize("flag, field", [("--dt", "dt"), ("--tmax", "t_max")])
    def test_infinite_step_sizes_are_parameter_errors(self, capsys, flag, field):
        code, out, err = run(
            capsys, "simulate", "--l", "2", "--q", "0.5", "--hbar", "1", flag, "inf",
        )
        assert code == 2
        assert out == ""
        assert err == f"error: {field} must be positive and finite, got inf\n"

    def test_overlong_run_is_a_parameter_error(self, capsys):
        code, out, err = run(
            capsys, "simulate", "--l", "2", "--q", "0.5", "--hbar", "1", "--tmax", "1e300",
        )
        assert code == 2
        assert out == ""
        assert err == (
            "error: t_max / dt must be at most 1000000 steps, got t_max=1e+300, dt=0.00390625\n"
        )


class TestUnwritableOutput:
    """A file that cannot be written is reported, with exit 2 and no report."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--q", "2", "--hbar", "1", "--param", "l", "--from", "2", "--to", "6",
             "--steps", "5", "--out"],
            ["solve", "--l", "4", "--q", "2", "--hbar", "1", "--profile"],
            ["simulate", "--l", "2", "--q", "0.5", "--hbar", "1", "--dx", "0.5", "--tmax", "1",
             "--out"],
        ],
        ids=["sweep --out", "solve --profile", "simulate --out"],
    )
    def test_a_missing_directory_exits_2(self, capsys, tmp_path, argv):
        path = tmp_path / "no" / "such" / "x.csv"
        code, out, err = run(capsys, *argv, str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: [Errno 2] No such file or directory")
        assert str(path) in err


class TestOutputBytes:
    """CSV files compared byte for byte with recorded output."""

    def csv(self, capsys, tmp_path, *argv):
        path = tmp_path / "out.csv"
        run_json(capsys, *argv, str(path))
        return path.read_bytes().decode("utf-8")

    def test_scaled_profile(self, capsys, tmp_path):
        got = self.csv(
            capsys, tmp_path, "solve", "--l", "4", "--q", "2", "--hbar", "1",
            "--samples", "9", "--profile",
        )
        assert got == (
            "x,u,v\n"
            "-2,0,0.85100291915661042\n"
            "-1.5,0.33156108438788734,0.53004651210836307\n"
            "-1,0.55542514854933478,0.33858560874972898\n"
            "-0.5,0.67512122525368667,0.1501320558398814\n"
            "0,0.71189136755390947,0\n"
            "0.5,0.67512122525368667,-0.1501320558398814\n"
            "1,0.55542514854933478,-0.33858560874972898\n"
            "1.5,0.33156108438788734,-0.53004651210836307\n"
            "2,0,-0.85100291915661042\n"
        )

    def test_physical_profile(self, capsys, tmp_path):
        got = self.csv(
            capsys, tmp_path, "solve", "--D", "2", "--mu", "1", "--Hbar", "1", "--Q", "2",
            "--L", "8", "--samples", "7", "--profile",
        )
        assert got == (
            "x,u,v\n"
            "-2.8284271247461898,0,0.88613597178190695\n"
            "-1.8856180831641267,0.57337666390211761,0.40742065364928176\n"
            "-0.94280904158206336,0.81290815640192871,0.13779505091855246\n"
            "0,0.87344613050847197,1.9692553297098466e-16\n"
            "0.94280904158206313,0.81290815640192871,-0.1377950509185524\n"
            "1.8856180831641263,0.57337666390211783,-0.40742065364928154\n"
            "2.8284271247461898,0,-0.88613597178190695\n"
        )

    def test_simulated_state(self, capsys, tmp_path):
        got = self.csv(
            capsys, tmp_path, "simulate", "--l", "4", "--q", "2", "--hbar", "1",
            "--dx", "0.5", "--dt", "0.25", "--tmax", "3", "--out",
        )
        assert got == (
            "x,u\n"
            "-2,0\n"
            "-1.2857547682331421,0.40845118968933375\n"
            "-0.77145286093988519,0.59343639000052228\n"
            "-0.25715095364662832,0.67474444040607129\n"
            "0.25715095364662854,0.67474444040607129\n"
            "0.77145286093988541,0.59343639000052228\n"
            "1.2857547682331421,0.40845118968933375\n"
            "2,0\n"
        )

    @pytest.mark.parametrize(
        "l, digest",
        [
            ("0.3", "3512a9efc9725415ca7eb6635e2e88a42a90162a290d78e0461bb9fcaadb96c2"),
            ("0.6", "ff9606b2f937854c4b3a10e66fb2bae7b62ef863c6934683d094b2f8128feeec"),
        ],
    )
    def test_short_coast_simulated_state(self, capsys, tmp_path, l, digest):
        # 513 rows, long after the run has settled; sha256 of the file
        got = self.csv(
            capsys, tmp_path, "simulate", "--l", l, "--q", "2", "--hbar", "1",
            "--dt", "0.01", "--out",
        )
        assert got.count("\n") == 514
        assert hashlib.sha256(got.encode("utf-8")).hexdigest() == digest

    def test_length_sweep(self, capsys, tmp_path):
        got = self.csv(
            capsys, tmp_path, "sweep", "--q", "2", "--hbar", "1", "--param", "l",
            "--from", "2", "--to", "6", "--steps", "5", "--out",
        )
        assert got == (
            "value,l_min,reserve_present,halfwidth,Ts,objective_j\n"
            "2,2.4929009605609216,false,0,,0.55772481764184045\n"
            "3,2.4929009605609216,true,0.66339904998029275,0.83660095001970725,"
            "0.83340083908032858\n"
            "4,2.4929009605609216,true,1.2857547682331421,0.71424523176685795,"
            "1.062866742413624\n"
            "5,2.4929009605609216,true,1.8195013457375826,0.6804986542624174,"
            "1.2314146272331725\n"
            "6,2.4929009605609216,true,2.3309420086127854,0.66905799138721456,"
            "1.3536505885648384\n"
        )


class TestParameterHandling:
    def test_no_parameters(self, capsys):
        code, _, err = run(capsys, "solve")
        assert code == 2
        assert "no parameters" in err

    def test_mixed_groups(self, capsys):
        # --R may be left out of a physical group, but given, it is physical
        for physical in (("--D", "1"), ("--R", "3")):
            code, _, err = run(
                capsys, "solve", "--l", "2", "--q", "1", "--hbar", "1", *physical,
            )
            assert code == 2, physical
            assert "not both" in err

    def test_incomplete_scaled_group(self, capsys):
        code, _, err = run(capsys, "solve", "--l", "2", "--q", "1")
        assert code == 2
        assert "--hbar" in err

    def test_nonfinite_parameter_is_a_parameter_error(self, capsys):
        code, out, err = run(capsys, "solve", "--l", "4", "--q", "nan", "--hbar", "1")
        assert code == 2
        assert out == ""
        assert err == "error: q must be finite, got nan\n"

    @pytest.mark.parametrize(
        "l, q, hbar, err",
        [
            ("1e-12", "1e300", "1", "switching constants overflow at (l, q, hbar) = "
             "(1e-12, 1e+300, 1.0)"),
            ("1e-310", "0.5", "1", "adjoint overflows at (l, q, hbar) = "
             "(1.00000000000005e-310, 0.5, 1.0)"),
            ("1e-300", "0.5", "1e300", "adjoint overflows at (l, q, hbar) = "
             "(1e-300, 0.5, 1e+300)"),
            # sqrt(a1)*l overflows, so is1 is 0 and the switch time would divide by it
            ("1e300", "1.5", "1e150", "switching constants underflow at (l, q, hbar) = "
             "(1e+300, 1.5, 1e+150)"),
            ("1e8", "1.5", "1e300", "threshold length overflows at (q, hbar) = (1.5, 1e+300)"),
            ("1e150", "1e300", "1", "objective overflows at (l, q, hbar) = "
             "(1e+150, 1e+300, 1.0)"),
        ],
    )
    def test_overflowing_parameters_exit_2(self, capsys, l, q, hbar, err):
        code, out, got = run(capsys, "solve", "--l", l, "--q", q, "--hbar", hbar)
        assert code == 2
        assert out == ""
        assert got == f"error: the {err}\n"

    def test_unknown_command(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 2

    def test_one_parser_serves_every_call(self, capsys):
        # the parser is built once per process; a usage error or an earlier
        # parse leaves nothing behind in it
        assert build_parser() is build_parser()
        code, out, err = run(capsys, "verify", "--l", "x", "--q", "2", "--hbar", "1")
        assert (code, out) == (2, "")
        assert "argument --l: invalid float value: 'x'" in err
        first = build_parser().parse_args(["verify", "--l", "4", "--q", "2", "--hbar", "1",
                                           "--cells", "6"])
        again = build_parser().parse_args(["verify", "--l", "4", "--q", "2", "--hbar", "1"])
        assert (first.cells, again.cells) == (6, 12)
