"""The closed-form commands start without scipy; `lab` loads on first use."""

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


def test_lab_names_resolve_to_the_lab_module():
    from coastharvest import lab

    assert coastharvest.brute_force_bangbang is lab.brute_force_bangbang


def test_dir_lists_every_exported_name():
    assert set(coastharvest.__all__) <= set(dir(coastharvest))


def test_star_import():
    namespace: dict = {}
    exec("from coastharvest import *", namespace)
    assert set(coastharvest.__all__) <= set(namespace)
