"""Smoke runs of every experiment, each in a fresh interpreter.

The experiment script imports the package's public names; a renamed or
removed name fails here, not only when someone next runs an experiment.
The cases come from the script's own subcommands, so an experiment added
without a smoke run fails too.
"""

import argparse
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mffdfa

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "experiment.py"

# subcommand -> (arguments, start of a line its table must print)
SMOKE = {
    "cascade": (["--a", "0.65", "--n-max", "12", "--scale-range", "5", "8"], "a = 0.65: h(2) = "),
    "fbm": (["--hurst", "0.5", "--length", "3000", "--seeds", "2"], " 0.50 "),
}


def _subcommands():
    spec = importlib.util.spec_from_file_location("experiment", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    (sub,) = [action for action in script.build_parser()._actions
              if isinstance(action, argparse._SubParsersAction)]
    return sorted(sub.choices)


@pytest.mark.parametrize("experiment", _subcommands())
def test_experiment_script_prints_its_table(experiment):
    assert experiment in SMOKE, f"no smoke run for `experiment.py {experiment}`"
    args, row = SMOKE[experiment]
    env = dict(os.environ, PYTHONPATH=str(Path(mffdfa.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, str(SCRIPT), experiment, *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert any(line.startswith(row) for line in lines), proc.stdout
