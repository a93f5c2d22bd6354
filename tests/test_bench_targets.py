"""The benchmark's tracer must find, and see called, every function it times.

``bench/tracing.py`` lists a target it cannot resolve as absent instead of
raising, and a target that resolves but is no longer called on the analysis
path simply records nothing: either way a ``--trace 1`` run would silently
read 0 for it.  Installing the pipeline's spans here and running the
pipeline under them turns such a rename or bypass into a test failure.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

BENCH_RUN = Path(__file__).resolve().parents[1] / "bench" / "run.py"

#: every span and count of run.install_pipeline that one analysis and one
#: `mffdfa analyze` command reach (signal.log_returns needs --log-returns)
LIBRARY_SPANS = ("signal.build_profile", "segmentation.layout",
                 "detrend.batch_segment_variances", "detrend.design_fit",
                 "fluctuation.fluctuation_function", "fluctuation.logsumexp",
                 "spectrum.fit_hurst", "spectrum.legendre_transform",
                 "cli.analyze_series", "cli.read_series", "cli.serialize")


@pytest.fixture
def tracer(monkeypatch):
    """bench/run.py's tracer with the pipeline's spans installed."""
    # run.py pins the BLAS thread count and puts bench/ on sys.path at import
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("bench_run", BENCH_RUN)
    run = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(run)
        tracer = run.Tracer()
        try:
            run.install_pipeline(tracer)
            yield tracer
        finally:
            tracer.uninstall()
    finally:
        for name in ("checks", "inputs", "tracing"):
            sys.modules.pop(name, None)


def test_every_traced_pipeline_target_resolves(tracer):
    assert tracer.absent == []


def test_every_traced_library_span_fires(tracer, tmp_path, capsys):
    import mffdfa
    from mffdfa import cli

    x = mffdfa.generate_fgn(mffdfa.FbmSpec(hurst=0.7, length=2000))
    mffdfa.analyze_series(x, mffdfa.AnalysisConfig())
    src = tmp_path / "fgn.csv"
    src.write_text("\n".join(map(repr, x.tolist())) + "\n")
    assert cli.main(["analyze", str(src)]) == 0
    fired = {name for name, *_ in tracer.spans} | set(tracer.counts)
    assert [name for name in LIBRARY_SPANS if name not in fired] == []
