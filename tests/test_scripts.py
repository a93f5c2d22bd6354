"""Smoke runs of every experiment, of the README's quick start and of its
command-line block, each in a fresh interpreter, and the names the package
root exports.

The experiment script and the README use the package's public names, and
the README its command's subcommands and flags; a renamed or removed one
fails here, not only when someone next runs an experiment or copies the
README.  The cases come from the script's own subcommands, so an
experiment added without a smoke run fails too.
"""

import argparse
import importlib
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import mffdfa

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "experiment.py"

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


def test_readme_quick_start_runs():
    (code,) = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(),
                         re.M | re.S)
    env = dict(os.environ, PYTHONPATH=str(Path(mffdfa.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-W", "error", "-c", code],
                          capture_output=True, text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
    assert proc.stdout.startswith("h(2) = "), proc.stdout


def test_readme_command_line_runs(tmp_path):
    """The README's command-line block, command by command in one directory:
    the later commands read the files the first two write."""
    readme = (ROOT / "README.md").read_text()
    (block,) = re.findall(r"^## Command line\n\n```sh\n(.*?)^```", readme, re.M | re.S)
    commands = [line.split() for line in block.splitlines() if line.startswith("mffdfa ")]
    assert len(commands) == 6, block
    env = dict(os.environ, PYTHONPATH=str(Path(mffdfa.__file__).resolve().parents[1]))
    for command in commands:
        proc = subprocess.run([sys.executable, "-m", "mffdfa.cli", *command[1:]], cwd=tmp_path,
                              capture_output=True, text=True, env=env, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, ""), (command, proc.stderr)


#: the stage-level names the root no longer exports, by defining module
STAGE_NAMES = {
    "detrend": ("BasisFunction", "default_basis_set", "polynomial_basis"),
    "fluctuation": ("FluctuationSurface", "default_q_grid", "fluctuation_function"),
    "generators": ("fgn_autocovariance",),
    "segmentation": ("default_scale_grid", "layout"),
    "signal": ("build_profile", "log_returns"),
    "spectrum": ("GeneralizedHurst", "fit_hurst", "legendre_transform"),
}


def test_root_exports_the_pipeline_the_generators_and_the_errors():
    assert sorted(mffdfa.__all__) == sorted([
        "AnalysisConfig", "analyze_series", "ResultDocument",
        "FbmSpec", "CascadeSpec", "generate_fgn", "generate_cascade", "cascade_oracle",
        "InputError", "NumericalError", "__version__"])
    for name in mffdfa.__all__:
        getattr(mffdfa, name)
    for module, names in STAGE_NAMES.items():
        module = importlib.import_module(f"mffdfa.{module}")
        for name in names:
            assert callable(getattr(module, name)), (module.__name__, name)
            assert not hasattr(mffdfa, name), name
