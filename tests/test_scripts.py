"""Smoke runs of the experiment scripts, each in a fresh interpreter.

The scripts import the package's public names; a renamed or removed name
fails here, not only when someone next runs an experiment.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import mffdfa

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("script, args, row", [
    ("run_cascade_experiment.py", ["--a", "0.65", "--n-max", "12", "--scale-range", "5", "8"],
     "a = 0.65: h(2) = "),
    ("run_fbm_experiment.py", ["--hurst", "0.5", "--length", "3000", "--seeds", "2"],
     " 0.50 "),
])
def test_experiment_script_prints_its_table(script, args, row):
    env = dict(os.environ, PYTHONPATH=str(Path(mffdfa.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, str(SCRIPTS / script), *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert any(line.startswith(row) for line in lines), proc.stdout
