#!/usr/bin/env python3
"""Benchmark of the mffdfa analysis pipeline.

    python3 bench/run.py [--workload fgn-batch|cascade-large|cli-files|all]
                         [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src`` directory and the run exits with code 2 if it is not
there.  Scratch files go to ``.bench_work/`` at the checkout root.

Untraced (--trace 0), a workload reports its end-to-end metrics:

* setup_s         median over SETUP_REPEATS fresh interpreters of the time
                  to import mffdfa and build the workload's inputs;
* analysis_s      median wall time of one pass over the seed's inputs,
                  passes repeated for --seconds (library workloads run an
                  untimed warm-up pass first);
* peak_mem_mib    peak traced heap (tracemalloc) of the pass's first and
                  largest operation; for cli-files tracing starts after the
                  imports;
* delta_alpha_err mean |delta_alpha - delta_alpha_true| over one pass.

The last two come from untimed passes over fixed reference inputs
(inputs.REFERENCE_SEED), so that they do not move with --seed: the width
of a single fGn spectrum spreads by about 45% from seed to seed.  The
statistical checks (h(2) against the generating H) run on the reference
pass; exact checks run on every output of every pass.

Traced (--trace 1), a workload reports per-module numbers from passes with
the tracer installed (see tracing.py), and writes the spans of its last
traced pass to ``.bench_work/traces/``.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  An operation is one analysis
(library workloads) or one command invocation (cli-files); it fails when
it raises, exits non-zero or any check on its output fails.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, for this process and every child: on a small shared
# machine a single thread keeps pass times comparable between runs.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import functools
import gc
import json
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOADS = ("fgn-batch", "cascade-large", "cli-files")
SETUP_REPEATS = 5
SUBPROCESS_TIMEOUT_S = 120
MIB = 2.0 ** 20

ENV = dict(os.environ, PYTHONPATH=str(SRC))
#: what the `mffdfa` console script runs, and the same under tracemalloc
#: (started after the imports, so the peak is the command's own work)
CLI_MAIN = "import sys; from mffdfa.cli import main; sys.exit(main())"
CLI_MAIN_PEAK = ("import sys, tracemalloc; from mffdfa.cli import main; tracemalloc.start(); "
                 "rc = main(); print('bench-peak-bytes', tracemalloc.get_traced_memory()[1], "
                 "file=sys.stderr); sys.exit(rc)")

#: per-layer metric -> unit; every traced run reports all of them, with 0
#: for a layer the workload does not reach or a function that is absent
PER_LAYER = {
    "generators.generate_fgn_s": "s",
    "generators.generate_cascade_s": "s",
    "cli.import_s": "s",
    "cli.read_series_s": "s",
    "cli.serialize_s": "s",
    "cli.analyze_series_self_s": "s",
    "signal.log_returns_s": "s",
    "signal.build_profile_s": "s",
    "segmentation.layout_s": "s",
    "detrend.batch_segment_variances_s": "s",
    "detrend.segments": "count",
    "detrend.peak_mem_mib": "MiB",
    "detrend.design_fits": "count",
    "detrend.design_fit_s": "s",
    "fluctuation.self_s": "s",
    "fluctuation.logsumexp_calls": "count",
    "fluctuation.peak_mem_mib": "MiB",
    "spectrum.fit_hurst_s": "s",
    "spectrum.legendre_transform_s": "s",
}

sys.path.insert(0, str(BENCH))
import checks  # noqa: E402
import inputs  # noqa: E402
from tracing import Tracer  # noqa: E402


def import_mffdfa():
    """Import the checkout's mffdfa into this process (never an installed one)."""
    sys.path.insert(0, str(SRC))
    import mffdfa
    if Path(mffdfa.__file__).resolve().parent != (SRC / "mffdfa").resolve():
        raise RuntimeError(f"imported mffdfa from {mffdfa.__file__}, not from {SRC}")
    return mffdfa


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


# -- set-up -------------------------------------------------------------------

def build_inputs(workload: str, seed: int, outdir: Path) -> dict:
    """Build the inputs into outdir in a fresh interpreter; returns its timings."""
    shutil.rmtree(outdir, ignore_errors=True)
    proc = subprocess.run(
        [sys.executable, str(BENCH / "inputs.py"), workload, str(seed), str(outdir)],
        env=ENV, capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"building the {workload} inputs failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def timed_setup(workload: str, seed: int, outdir: Path) -> tuple[float, float]:
    """Build the inputs SETUP_REPEATS times; medians of (setup_s, import_s).

    The last build's inputs stay in outdir.
    """
    records = [build_inputs(workload, seed, outdir) for _ in range(SETUP_REPEATS)]
    return (statistics.median(r["setup_s"] for r in records),
            statistics.median(r["import_s"] for r in records))


# -- operations and their checks -----------------------------------------------

class Tally:
    """Attempted and failed operations, with the first problems reported."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if self.failed <= 5:
                log(f"FAILED {label}: " + "; ".join(problems))


class LibraryWorkload:
    """fgn-batch and cascade-large: mffdfa.analyze_series in this process."""

    def __init__(self, mffdfa, name: str, arrays: dict, meta: dict):
        self.mffdfa = mffdfa
        self.name = name
        self.series = list(arrays["series"])
        self.meta = meta

    def run_pass(self, ops: slice = slice(None)):
        """One pass (or the analyses in `ops`); exceptions kept as results."""
        cfg = self.mffdfa.AnalysisConfig()
        out = []
        for x in self.series[ops]:
            try:
                out.append(self.mffdfa.analyze_series(x, cfg))
            except Exception:                     # counted as a failed operation
                out.append(traceback.format_exc(limit=3))
        return out

    def measure_first(self):
        """The pass's first analysis under tracemalloc: (outputs, peak MiB)."""
        return peak_pass(lambda: self.run_pass(slice(0, 1)))

    def check_pass(self, docs, tally: Tally, reference: bool = False) -> list[float]:
        """Check one pass's outputs; returns |delta_alpha - delta_alpha_true| per analysis."""
        errors, h2 = [], {}
        for i, doc in enumerate(docs):
            label = f"{self.name} series {i}"
            if isinstance(doc, str):
                tally.record(label, [doc])
                continue
            x = self.series[i]
            sp = doc.spectrum
            problems = (checks.check_spectrum(sp.q_grid, doc.hurst.h, sp.alpha, sp.f_alpha,
                                              sp.delta_alpha)
                        + checks.check_scales(doc.surface.scales, x.size)
                        + checks.check_surface(doc.surface.values, doc.surface.excluded_counts))
            if self.name == "cascade-large":
                truth = checks.cascade_delta_alpha(self.meta["a"])
                problems += checks.check_cascade(self.meta["a"], sp.q_grid, sp.alpha,
                                                 sp.delta_alpha)
            else:
                truth = 0.0
                h2.setdefault(self.meta["hursts"][i], []).append(
                    checks.h_at(doc.hurst.q_grid, doc.hurst.h, 2.0))
            errors.append(abs(sp.delta_alpha - truth))
            tally.record(label, problems)
        if reference:
            for hurst, values in h2.items():
                mean = statistics.fmean(values)
                tally.record(f"{self.name} mean h(2) at H={hurst}",
                             [] if abs(mean - hurst) <= checks.HURST_TOL else
                             [f"mean h(2) = {mean:.4f}, outside {checks.HURST_TOL}"])
        return errors

    def check_reference_loop(self, docs, tally: Tally) -> None:
        """Recompute the first fGn analysis with the plain per-segment loop."""
        if self.name == "fgn-batch" and not isinstance(docs[0], str):
            tally.record(f"{self.name} series 0 vs reference loop",
                         checks.check_reference(self.series[0], docs[0].surface))


class CliWorkload:
    """cli-files: the mffdfa command, one fresh process per invocation."""

    name = "cli-files"

    def __init__(self, meta: dict, outdir: Path):
        self.meta = meta
        files = meta["files"]
        self.outputs = {k: str(outdir / f"out-{k}") for k in ("cascade", "returns", "sweep")}
        self.invocations = [
            ["analyze", files["cascade"], "-o", self.outputs["cascade"]],
            ["analyze", files["prices"], "--log-returns", "--format", "csv",
             "-o", self.outputs["returns"]],
            ["sweep-m", files["fgn"], "--m-min", "1", "--m-max", str(meta["m_max"]),
             "-o", self.outputs["sweep"]],
        ]
        # only the reference pass: the CSV table carries no N, so the
        # returns count is checked on a JSON run of the same analysis
        self.returns_json = str(outdir / "out-returns-json")
        self.count_check = ["analyze", files["prices"], "--log-returns",
                            "-o", self.returns_json]

    def _spawn(self, argv, main: str = CLI_MAIN):
        """Run one invocation in a fresh process; (exit code, stderr)."""
        proc = subprocess.run([sys.executable, "-c", main, *argv], env=ENV,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                              timeout=SUBPROCESS_TIMEOUT_S)
        return proc.returncode, proc.stderr

    def run_pass(self, ops: slice = slice(None)):
        """One pass (or the invocations in `ops`), each in a fresh process."""
        return [self._spawn(argv) for argv in self.invocations[ops]]

    def measure_first(self):
        """The first invocation (the largest input) under tracemalloc: (outputs, peak MiB)."""
        code, stderr = self._spawn(self.invocations[0], CLI_MAIN_PEAK)
        peak = [int(line.split()[1]) for line in stderr.splitlines()
                if line.startswith("bench-peak-bytes ")]
        return [(code, stderr)], (peak[-1] if peak else 0) / MIB

    def run_pass_in_process(self, mffdfa, ops: slice = slice(None)):
        """The same invocations through mffdfa.cli.main in this process."""
        out = []
        for argv in self.invocations[ops]:
            try:
                out.append((mffdfa.cli.main(argv), ""))
            except Exception:                     # counted as a failed operation
                out.append((1, traceback.format_exc(limit=3)))
        return out

    def check_pass(self, results, tally: Tally, reference: bool = False) -> list[float]:
        """Check the three outputs; returns |delta_alpha - truth| per analysis."""
        errors = []
        checkers = (("analyze cascade", self._check_cascade),
                    ("analyze --log-returns --format csv", self._check_returns),
                    ("sweep-m", self._check_sweep))
        for (label, checker), (code, stderr) in zip(checkers, results):
            problems = [] if code == 0 else [f"exit code {code}: {stderr.strip()[-300:]}"]
            if not problems:
                try:
                    problems, errs = checker(reference)
                    errors += errs
                except (OSError, ValueError, KeyError, TypeError) as e:
                    problems = [f"unreadable output: {e!r}"]
            tally.record(f"cli-files {label}", problems)
        if reference:
            code, stderr = self._spawn(self.count_check)
            problems = [] if code == 0 else [f"exit code {code}: {stderr.strip()[-300:]}"]
            if not problems:
                n = json.loads(Path(self.returns_json).read_text())["config"]["N"]
                if n != self.meta["n_prices"] - 1:
                    problems = [f"log-returns N = {n}, expected {self.meta['n_prices'] - 1}"]
            tally.record("cli-files log-returns count", problems)
        for path in (*self.outputs.values(), self.returns_json):
            Path(path).unlink(missing_ok=True)    # a later pass must write its own
        return errors

    def _check_cascade(self, reference):
        doc = json.loads(Path(self.outputs["cascade"]).read_text())
        sp, a = doc["spectrum"], self.meta["a"]
        problems = [] if set(doc) == checks.A8_KEYS else [f"top-level keys {sorted(doc)}"]
        problems += checks.check_spectrum(sp["q"], doc["hurst"]["h"], sp["alpha"],
                                          sp["f_alpha"], doc["delta_alpha"])
        problems += checks.check_cascade(a, sp["q"], sp["alpha"], doc["delta_alpha"])
        return problems, [abs(doc["delta_alpha"] - checks.cascade_delta_alpha(a))]

    def _check_returns(self, reference):
        scalars, cols = checks.parse_csv_result(Path(self.outputs["returns"]).read_text())
        problems = checks.check_spectrum(cols["q"], cols["h"], cols["alpha"], cols["f_alpha"],
                                         scalars["delta_alpha"])
        if reference:
            h2 = checks.h_at(cols["q"], cols["h"], 2.0)
            if abs(h2 - self.meta["price_hurst"]) > checks.SERIES_HURST_TOL:
                problems.append(f"log-returns h(2) = {h2:.4f}, H = {self.meta['price_hurst']}")
        return problems, [scalars["delta_alpha"]]

    def _check_sweep(self, reference):
        doc = json.loads(Path(self.outputs["sweep"]).read_text())
        rows = doc["sweep"]
        expected = [(m, method, k) for m in range(1, self.meta["m_max"] + 1)
                    for method, k in (("mfdfa", 1), ("mfdfa_overlap", 2))]
        got = [(r["m"], r["method"], r["k"]) for r in rows]
        problems = [] if got == expected else [f"sweep rows {got}"]
        if doc["config"]["N"] != self.meta["n_fgn"]:
            problems.append(f"sweep N = {doc['config']['N']}, expected {self.meta['n_fgn']}")
        for r in rows:
            if not (0.0 < r["H"] < 2.0 and r["delta_alpha"] > 0.0):
                problems.append(f"sweep row m={r['m']} {r['method']}: H={r['H']} "
                                f"delta_alpha={r['delta_alpha']}")
            elif reference and abs(r["H"] - self.meta["sweep_hurst"]) > checks.SERIES_HURST_TOL:
                problems.append(f"sweep row m={r['m']} {r['method']}: h(2) = {r['H']:.4f}, "
                                f"H = {self.meta['sweep_hurst']}")
        return problems, [r["delta_alpha"] for r in rows]


# -- passes -------------------------------------------------------------------

def timed_passes(run_pass, check, seconds: float):
    """Whole passes until `seconds` have gone by (at least one).

    Each pass's outputs go to check() outside the timed region.  Returns
    the wall time of each pass and the outputs of the last.
    """
    times = []
    deadline = time.perf_counter() + seconds
    while not times or time.perf_counter() < deadline:
        gc.collect()
        t0 = time.perf_counter()
        out = run_pass()
        times.append(time.perf_counter() - t0)
        check(out)
    return times, out


def peak_pass(run_pass):
    """Run one pass under tracemalloc; returns (outputs, peak MiB above the start)."""
    gc.collect()
    tracemalloc.start()
    try:
        out = run_pass()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak / MIB


def make_workload(workload: str, mffdfa, arrays, meta, outdir: Path):
    if workload == "cli-files":
        return CliWorkload(meta, outdir)
    return LibraryWorkload(mffdfa, workload, arrays, meta)


def run_untraced(workload: str, seed: int, seconds: float, workdir: Path) -> dict:
    tally = Tally()
    setup_s, _ = timed_setup(workload, seed, workdir / "inputs")
    library = workload != "cli-files"
    mffdfa = import_mffdfa() if library else None
    wl = make_workload(workload, mffdfa, *inputs.load(workdir / "inputs"), workdir / "inputs")
    build_inputs(workload, inputs.REFERENCE_SEED, workdir / "reference")
    ref = make_workload(workload, mffdfa, *inputs.load(workdir / "reference"),
                        workdir / "reference")

    # Reference pass: memory, accuracy and the statistical checks; for the
    # library workloads it is also the untimed warm-up pass.  tracemalloc
    # slows the Python-level q loop about sixfold, so only the first
    # operation runs under it; no later operation of a pass has a larger input.
    first, peak_mib = ref.measure_first()
    errors = ref.check_pass(first + ref.run_pass(slice(1, None)), tally, reference=True)

    times, last = timed_passes(wl.run_pass, lambda out: wl.check_pass(out, tally), seconds)
    if library:
        wl.check_reference_loop(last, tally)
    log(f"{workload}: {len(times)} timed passes, "
        f"min {min(times):.4f} s, max {max(times):.4f} s")
    metrics = {
        "setup_s": (setup_s, "s"),
        "analysis_s": (statistics.median(times), "s"),
        "peak_mem_mib": (peak_mib, "MiB"),
        "delta_alpha_err": (statistics.fmean(errors) if errors else float("nan"), "1"),
    }
    return result(tally, metrics)


def install_pipeline(tracer: Tracer) -> None:
    def rows(args, kwargs):
        return len(args[0] if args else next(iter(kwargs.values())))

    tracer.span("cli.read_series", "mffdfa.cli:read_series")
    tracer.span("cli.serialize", "mffdfa.cli:ResultDocument.to_json")
    tracer.span("cli.serialize", "mffdfa.cli:ResultDocument.to_csv")
    tracer.span("cli.analyze_series", "mffdfa.cli:analyze_series", "mffdfa:analyze_series")
    tracer.span("signal.log_returns", "mffdfa.signal:log_returns")
    tracer.span("signal.build_profile", "mffdfa.signal:build_profile")
    tracer.span("segmentation.layout", "mffdfa.segmentation:layout")
    tracer.span("detrend.batch_segment_variances",
                "mffdfa.detrend:batch_segment_variances", count=rows)
    tracer.span("detrend.design_fit", "mffdfa.detrend:DesignFit.__init__",
                count=lambda args, kwargs: 1)
    tracer.span("fluctuation.fluctuation_function", "mffdfa.fluctuation:fluctuation_function")
    tracer.count("fluctuation.logsumexp", "mffdfa.fluctuation:logsumexp")
    tracer.span("spectrum.fit_hurst", "mffdfa.spectrum:fit_hurst")
    tracer.span("spectrum.legendre_transform", "mffdfa.spectrum:legendre_transform")


def pass_layers(tracer: Tracer) -> dict:
    """Per-layer numbers of one traced pass."""
    total, own = tracer.totals()
    c = tracer.counts
    return {
        "cli.read_series_s": total.get("cli.read_series", 0.0),
        "cli.serialize_s": total.get("cli.serialize", 0.0),
        "cli.analyze_series_self_s": own.get("cli.analyze_series", 0.0),
        "signal.log_returns_s": total.get("signal.log_returns", 0.0),
        "signal.build_profile_s": total.get("signal.build_profile", 0.0),
        "segmentation.layout_s": total.get("segmentation.layout", 0.0),
        "detrend.batch_segment_variances_s": total.get("detrend.batch_segment_variances", 0.0),
        "detrend.segments": c["detrend.batch_segment_variances"],
        "detrend.design_fits": c["detrend.design_fit"],
        "detrend.design_fit_s": total.get("detrend.design_fit", 0.0),
        "fluctuation.self_s": own.get("fluctuation.fluctuation_function", 0.0),
        "fluctuation.logsumexp_calls": c["fluctuation.logsumexp"],
        "spectrum.fit_hurst_s": total.get("spectrum.fit_hurst", 0.0),
        "spectrum.legendre_transform_s": total.get("spectrum.legendre_transform", 0.0),
    }


def run_traced(workload: str, seed: int, seconds: float, workdir: Path) -> dict:
    tally = Tally()
    _, import_s = timed_setup(workload, seed, workdir / "inputs")
    mffdfa = import_mffdfa()
    absent = set()

    # generators: the same build as the timed set-up, in this process
    tracer = Tracer()
    tracer.span("generators.generate_fgn", "mffdfa.generators:generate_fgn")
    tracer.span("generators.generate_cascade", "mffdfa.generators:generate_cascade")
    inputs.build(workload, seed, workdir / "traced-inputs")
    tracer.uninstall()
    gen_total, _ = tracer.totals()
    absent.update(tracer.absent)

    wl = make_workload(workload, mffdfa, *inputs.load(workdir / "inputs"), workdir / "inputs")
    # cli-files calls mffdfa.cli.main(argv) in this process, so the tracer sees it
    run_pass = (functools.partial(wl.run_pass_in_process, mffdfa) if workload == "cli-files"
                else wl.run_pass)
    wl.check_pass(run_pass(), tally)              # untimed warm-up pass

    tracer = Tracer()
    install_pipeline(tracer)
    absent.update(tracer.absent)
    per_pass = []

    def traced_pass():
        tracer.reset()
        return run_pass()

    def check(out):
        per_pass.append(pass_layers(tracer))
        wl.check_pass(out, tally)

    try:
        pass_times, _ = timed_passes(traced_pass, check, seconds)
    finally:
        tracer.uninstall()
    write_trace(workload, seed, tracer, sorted(absent))

    mem = Tracer()
    mem.memory("detrend", "mffdfa.detrend:batch_segment_variances")
    mem.memory("fluctuation", "mffdfa.fluctuation:fluctuation_function")
    absent.update(mem.absent)
    try:
        out, _ = peak_pass(lambda: run_pass(slice(0, 1)))   # the largest operation
    finally:
        mem.uninstall()
    wl.check_pass(out, tally)

    log(f"{workload}: {len(pass_times)} traced passes, "
        f"median {statistics.median(pass_times):.4f} s"
        + (f"; absent: {', '.join(sorted(absent))}" if absent else ""))
    values = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    values.update({
        "generators.generate_fgn_s": gen_total.get("generators.generate_fgn", 0.0),
        "generators.generate_cascade_s": gen_total.get("generators.generate_cascade", 0.0),
        "cli.import_s": import_s,
        "detrend.peak_mem_mib": mem.peak_bytes.get("detrend", 0) / MIB,
        "fluctuation.peak_mem_mib": mem.peak_bytes.get("fluctuation", 0) / MIB,
    })
    return result(tally, {name: (values[name], unit) for name, unit in PER_LAYER.items()})


def write_trace(workload: str, seed: int, tracer: Tracer, absent: list[str]) -> None:
    """Spans and counts of the last traced pass, written once at the end."""
    path = WORK / "traces" / f"{workload}-seed{seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({
        "workload": workload, "seed": seed, "absent": absent,
        "counts": dict(tracer.counts),
        "spans": [{"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in tracer.spans],
    }))


def result(tally: Tally, metrics: dict) -> dict:
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "mffdfa" / "__init__.py").is_file():
        log(f"error: no mffdfa package under {SRC}; run from a checkout of the repository")
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    runner = run_traced if args.trace else run_untraced
    results = {}
    for name in names:
        workdir = WORK / f"{name}-{os.getpid()}"
        try:
            results[name] = runner(name, args.seed, args.seconds, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        r = results[name]
        print(f"{name}: attempted {r['attempted']} failed {r['failed']}  " + "  ".join(
            f"{k} {v['value']:.6g} {v['unit']}" for k, v in r["metrics"].items()))
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}/{k}": v for name, r in results.items()
                        for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
