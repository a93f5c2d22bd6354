"""The test settings must report a failing Hypothesis test as one failure.

With ``filterwarnings = error``, a warning raised while Hypothesis reports a
failing example once ended the whole run with an INTERNALERROR, and the
tests after it went uncounted.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import mffdfa

TESTS = Path(__file__).resolve().parent
PYPROJECT = TESTS.parent / "pyproject.toml"


def test_failing_hypothesis_test_does_not_end_the_run(tmp_path):
    shutil.copy(TESTS / "conftest.py", tmp_path)
    (tmp_path / "test_a_fails.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_always_fails(n):\n"
        "    assert False\n")
    (tmp_path / "test_b_passes.py").write_text("def test_passes():\n    pass\n")
    env = dict(os.environ, PYTHONPATH=str(Path(mffdfa.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), str(tmp_path)],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr, proc.stdout
    assert proc.returncode == 1, proc.stdout
    assert "1 failed, 1 passed" in proc.stdout.splitlines()[-1], proc.stdout
