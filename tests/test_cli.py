"""End-to-end command-line checks, run in process through main().

One test runs `python -m coastharvest.cli` in a fresh interpreter.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from coastharvest.cli import main

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

    def test_physical_parameters_add_unscaled_outputs(self, capsys):
        doc = run_json(
            capsys, "solve", "--D", "4", "--R", "3", "--mu", "1",
            "--Hbar", "1", "--Q", "2", "--L", "8",
        )
        assert doc["reserve"]["boundary_B"] == pytest.approx(
            2.0 * doc["reserve"]["halfwidth"], rel=1e-12
        )
        assert doc["objective_J"] == pytest.approx(3.0 * doc["objective_j"], rel=1e-12)

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

    def test_oversized_cell_count_is_an_error(self, capsys):
        code, _, err = run(
            capsys, "verify", "--l", "4", "--q", "2", "--hbar", "1", "--cells", "20"
        )
        assert code == 2
        assert "cells" in err


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

    def test_missing_fixed_parameter_is_an_error(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "sweep", "--q", "2", "--param", "l",
            "--from", "2", "--to", "6", "--steps", "5",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2
        assert "--hbar" in err


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


class TestParameterHandling:
    def test_no_parameters(self, capsys):
        code, _, err = run(capsys, "solve")
        assert code == 2
        assert "no parameters" in err

    def test_mixed_groups(self, capsys):
        code, _, err = run(
            capsys, "solve", "--l", "2", "--q", "1", "--hbar", "1", "--D", "1",
        )
        assert code == 2
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

    def test_unknown_command(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 2
