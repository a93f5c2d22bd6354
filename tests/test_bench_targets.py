"""The benchmark's tracer must find every function it times.

``bench/tracing.py`` lists a target it cannot resolve as absent instead of
raising, so a renamed or deleted function would silently read 0 in a
``--trace 1`` run.  Installing the pipeline's spans here turns such a
rename into a test failure.
"""

import importlib.util
import sys
from pathlib import Path

BENCH_RUN = Path(__file__).resolve().parents[1] / "bench" / "run.py"


def test_every_traced_pipeline_target_resolves(monkeypatch):
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
            assert tracer.absent == []
        finally:
            tracer.uninstall()
    finally:
        for name in ("checks", "inputs", "tracing"):
            sys.modules.pop(name, None)
