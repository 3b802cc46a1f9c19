"""The closed-form commands start without numpy or scipy; `lab` loads on first use."""

import os
import subprocess
import sys
from pathlib import Path

import coastharvest

SRC = Path(__file__).resolve().parent.parent / "src"

# Runs in a fresh interpreter: the pytest process has already imported
# scipy through the oracles.
CHILD = """
import contextlib, io, sys
from coastharvest.cli import main

commands = [
    ["solve", "--l", "4", "--q", "2", "--hbar", "1"],
    ["solve", "--D", "2", "--mu", "1", "--Hbar", "1", "--Q", "2", "--L", "8"],
    ["lmin", "--q", "2", "--hbar", "1"],
    ["scale", "--D", "4", "--R", "3", "--mu", "1", "--Hbar", "1", "--Q", "0.5", "--L", "4"],
    ["sweep", "--q", "2", "--hbar", "1", "--param", "l", "--from", "2", "--to", "6",
     "--steps", "5", "--out", sys.argv[1]],
]
for argv in commands:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_closed_form_commands_do_not_load_scipy(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(tmp_path / "sweep.csv")],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


LAB_CHILD = """
import contextlib, io, sys
from coastharvest.cli import main

commands = [
    ["simulate", "--l", "2", "--q", "0.5", "--hbar", "1", "--dx", "0.125", "--tmax", "2",
     "--out", sys.argv[1]],
    ["verify", "--l", "2", "--q", "0.5", "--hbar", "1"],
    ["verify", "--l", "4", "--q", "2", "--hbar", "1"],
]
for argv in commands:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
print(sorted(m for m in ("scipy.integrate", "scipy.optimize", "scipy.linalg") if m in sys.modules))
"""


def test_simulate_and_verify_load_only_scipy_linalg(tmp_path):
    # the event oracle marches exact flow maps (scipy.linalg.expm), so a
    # q > 1 verify loads neither scipy.integrate nor scipy.optimize
    proc = subprocess.run(
        [sys.executable, "-c", LAB_CHILD, str(tmp_path / "state.csv")],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "['scipy.linalg']\n"


NO_NUMPY_CHILD = """
import contextlib, io, sys
import coastharvest
from coastharvest.cli import main

commands = [
    ["solve", "--l", "4", "--q", "2", "--hbar", "1"],
    ["solve", "--l", "2", "--q", "2.5", "--hbar", "1.5"],
    ["solve", "--l", "3", "--q", "0.5", "--hbar", "1"],
    ["solve", "--D", "2", "--mu", "1", "--Hbar", "1", "--Q", "2", "--L", "8"],
    ["lmin", "--q", "2", "--hbar", "1"],
    ["scale", "--D", "4", "--R", "3", "--mu", "1", "--Hbar", "1", "--Q", "0.5", "--L", "4"],
    ["sweep", "--q", "2", "--hbar", "1", "--param", "l", "--from", "2", "--to", "6",
     "--steps", "5", "--out", sys.argv[1]],
]
for argv in commands:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
heavy = ("numpy", "scipy", "dataclasses", "inspect")
print(sorted(m for m in sys.modules if m.split(".")[0] in heavy))
"""


def test_import_and_closed_form_solves_do_not_load_numpy(tmp_path):
    # the records are NamedTuples: dataclasses would pull in inspect, dis,
    # ast and tokenize, about half of the package's import time
    proc = subprocess.run(
        [sys.executable, "-c", NO_NUMPY_CHILD, str(tmp_path / "sweep.csv")],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_lab_names_resolve_to_the_lab_module():
    from coastharvest import lab

    assert coastharvest.brute_force_bangbang is lab.brute_force_bangbang


def test_dir_lists_every_exported_name():
    assert set(coastharvest.__all__) <= set(dir(coastharvest))


def test_star_import():
    namespace: dict = {}
    exec("from coastharvest import *", namespace)
    assert set(coastharvest.__all__) <= set(namespace)
