"""The example scripts under ``scripts/``: each one's stdout, byte for byte.

The scripts drive the lattice, module and cyclic APIs end to end, so a
change to those APIs that breaks a script or alters what it prints
fails here.  Each script runs in its own interpreter, as a user runs it.
The stored outputs under ``fixtures/scripts/`` are regenerated, only
when a change is meant to alter them, with
``PYTHONPATH=src python tests/test_scripts.py``.
"""

import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
EXPECTED = ROOT / "tests" / "fixtures" / "scripts"
SCRIPTS = ["cyclic_scan", "gaussian_walkthrough", "tame_survey"]


def run_script(name):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / f"{name}.py")],
        capture_output=True,
        text=True,
    )


@pytest.mark.parametrize("name", SCRIPTS)
def test_script_output_matches_stored_copy(name):
    proc = run_script(name)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (EXPECTED / f"{name}.txt").read_text(encoding="utf-8")


if __name__ == "__main__":
    for name in SCRIPTS:
        (EXPECTED / f"{name}.txt").write_text(run_script(name).stdout, encoding="utf-8")
