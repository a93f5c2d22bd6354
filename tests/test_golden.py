"""Golden outputs: the estimator's numbers, pinned in the repository.

``tests/golden/`` holds ``to_json()`` of two series, fGn N = 10^4 (H = 0.7,
seed 0) and the a = 0.65 2^17 cascade, under six configurations, written
at one BLAS thread.  ``inputs.json`` holds the sha256 of the generator
output behind them and behind A2's series.  ``config`` and ``diagnostics``
must be equal, and every float of ``hurst``, ``spectrum`` and
``delta_alpha`` within A1's 1e-10 relative (_deviation).  Each case prints
its largest deviation, whether the bytes are equal and the
OPENBLAS_NUM_THREADS it ran with.  A change that moves numbers on purpose
rewrites the files in the same diff, with this command from the
repository root; it refuses to write at any other OPENBLAS_NUM_THREADS:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mffdfa
from mffdfa import (AnalysisConfig, CascadeSpec, FbmSpec, analyze_series,
                    generate_cascade, generate_fgn)

GOLDEN = Path(__file__).parent / "golden"

#: A1's tolerance, relative
RTOL = 1e-10

SERIES = {
    "fgn": ("fgn", 0.7, 10_000, 0),
    "cascade": ("cascade", 0.65, 17),
}

CONFIGS = {
    "mffdfa-raw": AnalysisConfig(),
    "mffdfa-normalized": AnalysisConfig(abscissa="normalized"),
    "mfdfa-m1": AnalysisConfig(method="mfdfa", m=1),
    "mfdfa-m3": AnalysisConfig(method="mfdfa", m=3),
    "mfdfa-m10": AnalysisConfig(method="mfdfa", m=10),
    "mfdfa_overlap-m3": AnalysisConfig(method="mfdfa_overlap", m=3),
}

#: the generator calls digested in inputs.json: the golden series and A2's
DIGESTED = [SERIES["fgn"], SERIES["cascade"]] + [
    ("fgn", H, 10_000, seed) for H in (0.3, 0.5, 0.9) for seed in range(10)]


def _fgn(hurst, length, seed):
    return generate_fgn(FbmSpec(hurst=hurst, length=length, seed=seed))


def _generate(key, fgn=_fgn):
    """The series a key names, its fGn from ``fgn(H, N, seed)``."""
    if key[0] == "cascade":
        return generate_cascade(CascadeSpec(a=key[1], n_max=key[2]))
    return fgn(*key[1:])


def _name(key) -> str:
    return "-".join(map(str, key))


def _digest(x) -> str:
    return hashlib.sha256(np.ascontiguousarray(x, dtype="<f8").tobytes()).hexdigest()


def _deviation(new, old) -> float:
    """Largest deviation between two JSON trees of one shape, each list's
    relative to its largest magnitude: f(alpha) = q alpha - tau cancels to
    about 1e-3 at the grid's ends, where an entry's own size would measure
    that cancellation, not the estimator."""
    if isinstance(old, dict):
        assert new.keys() == old.keys()
        return max(_deviation(new[key], old[key]) for key in old)
    a, b = np.asarray(new, dtype=float), np.asarray(old, dtype=float)
    assert a.shape == b.shape
    moved = ~((a == b) | (np.isnan(a) & np.isnan(b)))
    if not moved.any():
        return 0.0
    return float(np.max(np.abs(a - b)[moved]) / np.nanmax(np.abs(b)))


@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("series", SERIES)
def test_output_matches_the_golden_file(series, config, fgn_bank, report):
    path = GOLDEN / f"{series}-{config}.json"
    golden = path.read_text()
    text = analyze_series(_generate(SERIES[series], fgn_bank), CONFIGS[config]).to_json()
    new, old = json.loads(text), json.loads(golden)
    worst = max(_deviation(new[key], old[key]) for key in ("hurst", "spectrum", "delta_alpha"))
    ok = new["config"] == old["config"] and new["diagnostics"] == old["diagnostics"]
    report(f"golden {path.name}", ok and worst <= RTOL,
           f"largest relative deviation {worst:.2e} (tol {RTOL:g}); "
           f"bytes equal: {text == golden}; "
           f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS', 'unset')}")
    assert new["config"] == old["config"]
    assert new["diagnostics"] == old["diagnostics"]
    assert worst <= RTOL


@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("series", SERIES)
def test_sign_and_offset_leave_the_output_alone(series, config, fgn_bank):
    """-x gives x's bytes, and x + 3 max|x| stays within RTOL with equal
    config and diagnostics.  They pin the kernel's centring and the
    profile's mean."""
    x = _generate(SERIES[series], fgn_bank)
    cfg = CONFIGS[config]
    text = analyze_series(x, cfg).to_json()
    assert analyze_series(-x, cfg).to_json() == text
    old = json.loads(text)
    new = json.loads(analyze_series(x + 3 * np.max(np.abs(x)), cfg).to_json())
    assert new["config"] == old["config"]
    assert new["diagnostics"] == old["diagnostics"]
    assert max(_deviation(new[key], old[key]) for key in ("hurst", "spectrum", "delta_alpha")) <= RTOL


def test_generators_give_the_digested_series(fgn_bank):
    digests = json.loads((GOLDEN / "inputs.json").read_text())
    assert {_name(key): _digest(_generate(key, fgn_bank)) for key in DIGESTED} == digests


@pytest.mark.parametrize("threads", [None, "2"])
def test_rewriting_refuses_more_than_one_blas_thread(tmp_path, threads):
    """The command above writes nothing unless OPENBLAS_NUM_THREADS is 1.
    It runs on a copy of this file, so a broken guard writes beside the copy."""
    script = tmp_path / "test_golden.py"
    script.write_text(Path(__file__).read_text())
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(Path(mffdfa.__file__).resolve().parents[1])
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    proc = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 1
    assert "run with OPENBLAS_NUM_THREADS=1" in proc.stderr
    assert not (tmp_path / "golden").exists()


if __name__ == "__main__":
    if os.environ.get("OPENBLAS_NUM_THREADS") != "1":
        # BLAS splits a product by thread count, and the split moves its rounding:
        # at two threads the cascade files differ from the one-thread bytes by 2e-13
        sys.exit("refusing to write tests/golden/: the files are written at one BLAS "
                 "thread; run with OPENBLAS_NUM_THREADS=1")
    GOLDEN.mkdir(exist_ok=True)
    for series, key in SERIES.items():
        x = _generate(key)
        for config, cfg in CONFIGS.items():
            (GOLDEN / f"{series}-{config}.json").write_text(analyze_series(x, cfg).to_json())
    digests = {_name(key): _digest(_generate(key)) for key in DIGESTED}
    (GOLDEN / "inputs.json").write_text(json.dumps(digests, indent=2) + "\n")
