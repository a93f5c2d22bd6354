import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mffdfa
import mffdfa.cli as cli
import oracles
from mffdfa import CascadeSpec, FbmSpec, InputError, generate_cascade, generate_fgn
from mffdfa.cli import (
    AnalysisConfig,
    analyze_series,
    drop_overnight_returns,
    main,
    read_series,
)
from mffdfa.detrend import polynomial_basis
from mffdfa.fluctuation import default_q_grid
from mffdfa.segmentation import default_scale_grid

EXPECTED_KEYS = {"config", "hurst", "spectrum", "delta_alpha", "diagnostics"}


def _write_series(path, values):
    path.write_text("\n".join(repr(float(v)) for v in values) + "\n")


# ---------------------------------------------------------------- analyze


def test_generate_analyze_round_trip(tmp_path, capsys):
    src = tmp_path / "fgn.csv"
    assert main(["generate", "fgn", "--hurst", "0.7", "--length", "3000",
                 "--seed", "3", "-o", str(src)]) == 0
    out = tmp_path / "result.json"
    rc = main(["analyze", str(src), "--method", "mfdfa_overlap",
               "--q-step", "1.0", "-o", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert set(doc) == EXPECTED_KEYS
    q = np.asarray(doc["hurst"]["q"])
    h2 = doc["hurst"]["h"][int(np.argmin(np.abs(q - 2.0)))]
    assert abs(h2 - 0.7) < 0.1


def test_analyze_json_schema_and_diagnostics(tmp_path, capsys):
    src = tmp_path / "x.csv"
    _write_series(src, generate_fgn(FbmSpec(hurst=0.5, length=2000, seed=1)))
    assert main(["analyze", str(src), "--method", "mffdfa", "--q-step", "2.0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == EXPECTED_KEYS
    assert doc["config"]["method"] == "mffdfa"
    assert doc["config"]["N"] == 2000
    diag = doc["diagnostics"]
    assert set(diag["selection_fractions"]) == {"quadratic", "sine", "cubic"}
    assert sum(diag["selection_fractions"].values()) == pytest.approx(1.0)
    assert len(doc["hurst"]["h"]) == len(doc["hurst"]["q"])
    assert len(doc["spectrum"]["alpha"]) == len(doc["spectrum"]["q"])
    assert doc["delta_alpha"] > 0.0
    n_scales = len(diag["scales"])
    assert diag["rank_deficient"] == {name: [False] * n_scales
                                      for name in ("quadratic", "sine", "cubic")}


def test_analyze_csv_output(tmp_path):
    src = tmp_path / "x.csv"
    _write_series(src, generate_fgn(FbmSpec(hurst=0.5, length=1500, seed=2)))
    out = tmp_path / "r.csv"
    assert main(["analyze", str(src), "--q-step", "2.0", "--format", "csv",
                 "-o", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# delta_alpha = ")
    assert lines[1:4] == ["# N = 1500", "# method = mffdfa", "# k = 2"]
    assert lines[4].startswith("# selection_fractions: ")
    assert lines[5] == "q,h,intercept,fit_r2,alpha,f_alpha"
    assert len(lines) == 6 + 11  # header rows + one row per q
    first = [float(v) for v in lines[6].split(",")]
    assert first[0] == -10.0


def test_constant_series_exits_three(tmp_path, capsys):
    src = tmp_path / "flat.csv"
    _write_series(src, np.full(500, 7.0))
    assert main(["analyze", str(src)]) == 3
    assert "degenerate series: zero variance" in capsys.readouterr().err


def test_unparsable_value_exits_two(tmp_path, capsys):
    src = tmp_path / "bad.csv"
    src.write_text("1.0\n2.0\nnot-a-number\n")
    assert main(["analyze", str(src)]) == 2
    err = capsys.readouterr().err
    assert "error: input:" in err and "bad.csv:3" in err


def test_missing_file_exits_two(tmp_path, capsys):
    assert main(["analyze", str(tmp_path / "nope.csv")]) == 2
    assert "cannot read" in capsys.readouterr().err


@pytest.mark.parametrize("content, line, message", [
    (b"# h\n1.5\n\xff\xfe2\n", 3, "not UTF-8 text"),
    (b"# \xe9t\xe9\n1.5\n2.5\n", 1, "not UTF-8 text"),
    (b"1\n,\n", 2, "not a number: ','"),
], ids=["data-line", "header", "commas-only"])
def test_undecodable_input_exits_two(tmp_path, capsys, content, line, message):
    src = tmp_path / "bad.csv"
    src.write_bytes(content)
    assert main(["analyze", str(src)]) == 2
    assert capsys.readouterr().err == f"error: input: {src}:{line}: {message}\n"


@pytest.mark.parametrize("argv", [
    ["analyze", "{src}"],
    ["sweep-m", "{src}", "--m-max", "1", "--n-scales", "10"],
    ["generate", "cascade", "--a", "0.65", "--n-max", "8"],
    ["oracle", "--a", "0.65"],
])
def test_unwritable_output_exits_two(tmp_path, capsys, monkeypatch, argv):
    src = tmp_path / "x.csv"
    _write_series(src, np.random.default_rng(0).normal(size=1000))
    # the path is refused before the input is read or any series is made
    def no_work(*args, **kwargs):
        raise AssertionError("work done before the output was checked")
    for name in ("read_series", "analyze_series", "generate_cascade", "cascade_oracle"):
        monkeypatch.setattr(cli, name, no_work)
    out = tmp_path / "no" / "such" / "dir.json"
    assert main([a.format(src=src) for a in argv] + ["-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: input: cannot write {out}: ")


def test_output_that_fails_at_write_time_exits_two(tmp_path, capsys, monkeypatch):
    """An -o path that passes the early check but cannot be opened when the
    result is written is refused as bad input too."""
    monkeypatch.setattr(cli, "_check_output", lambda output: None)
    assert main(["oracle", "--a", "0.65", "-o", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: input: cannot write {tmp_path}: ")


@pytest.mark.parametrize("content, code", [
    ("7.0\n" * 500, 3),
    ("1.0\nnot-a-number\n", 2),
], ids=["numerical", "input"])
def test_failed_run_leaves_output_alone(tmp_path, capsys, content, code):
    src = tmp_path / "x.csv"
    src.write_text(content)
    kept, absent = tmp_path / "kept.json", tmp_path / "absent.json"
    kept.write_text("earlier result\n")
    assert main(["analyze", str(src), "-o", str(kept)]) == code
    assert main(["analyze", str(src), "-o", str(absent)]) == code
    assert kept.read_text() == "earlier result\n"
    assert not absent.exists()


def test_huge_input_analyses_as_the_unscaled_one(tmp_path, capsys, fgn_bank):
    """A series whose segment sums of squares would overflow is analysed at
    unit magnitude: the same h and width as the series scaled down."""
    x = fgn_bank(0.7, 10_000, 0)
    src = tmp_path / "x.csv"
    _write_series(src, x * 1e154)
    assert main(["analyze", str(src)]) == 0
    doc = json.loads(capsys.readouterr().out)
    ref = analyze_series(x, AnalysisConfig())
    np.testing.assert_allclose(doc["hurst"]["h"], ref.hurst.h, rtol=0, atol=1e-12)
    assert doc["delta_alpha"] == pytest.approx(ref.spectrum.delta_alpha, rel=0, abs=1e-11)
    assert doc["diagnostics"]["usable_scales"] == 30


@pytest.mark.parametrize("flags, message", [
    (["--n-scales", "0"], "n_scales=0"),
    (["--n-scales", "-3"], "n_scales=-3"),
    (["--fit-lo", "150", "--fit-hi", "40"], "inverted"),
    (["--method", "mffdfa", "--m", "0"], "m=0"),
    (["--method", "mfdfa", "--m", "11"], "m=11"),
    (["--q-step", "7"], "does not divide"),
    (["--q-step", "nan"], "step=nan"),
    (["--q-min", "nan"], "q_min=nan"),
    (["--q-max", "inf"], "q_max=inf"),
    (["--fit-lo", "60", "--fit-hi", "62"], "fit window [60, 62] holds 1 of the"),
    (["--method", "mfdfa", "--m", "3", "--s-min", "4"], "segment length 4 not above the 4"),
    (["--method", "mfdfa", "--m", "10", "--s-min", "11"], "segment length 11 not above the 11"),
    (["--q-min", "-1", "--q-max", "1", "--q-step", "2"], "q grid of 2 nodes"),
    (["--n-scales", "3"], "the grid holds 3 distinct scales"),
    (["--s-min", "1"], "raise s_min"),
    (["--k", "0"], "k=0"),
    (["--method", "mfdfa", "--k", "0"], "k=0"),
])
def test_bad_analysis_setting_exits_two(tmp_path, capsys, flags, message):
    src = tmp_path / "x.csv"
    _write_series(src, np.random.default_rng(0).normal(size=1000))
    assert main(["analyze", str(src), *flags]) == 2
    err = capsys.readouterr().err
    assert "error: input:" in err and message in err


@pytest.fixture
def input_not_read(monkeypatch):
    def no_read(path):
        raise AssertionError("the input was read before the request was checked")
    monkeypatch.setattr(cli, "read_series", no_read)


@pytest.mark.parametrize("argv, message", [
    (["analyze", "--q-step", "0.3"], "q step 0.3 does not divide q_max - q_min = 20.0"),
    (["analyze", "--q-min", "5", "--q-max", "5.2", "--q-step", "0.2"],
     "q grid of 2 nodes too short for finite differences (need 3)"),
    (["analyze", "--k", "0"], "overlap factor k=0 must be at least 1"),
    (["analyze", "--fit-lo", "900", "--fit-hi", "300"],
     "fit window [900, 300] is inverted; need fit_lo <= fit_hi"),
    (["analyze", "--config", "{cfg}"], "setting 'm' must be an integer, got '2'"),
    (["sweep-m", "--m-min", "0"], "detrending order m=0 outside [1, 10]"),
    (["sweep-m", "--m-max", "11"], "detrending order m=11 outside [1, 10]"),
    (["sweep-m", "--m-min", "3", "--m-max", "2"],
     "m sweep range [3, 2] is inverted; need m_min <= m_max"),
    (["analyze", "--method", "mfdfa", "--m", "3", "--s-min", "4"],
     "segment length 4 not above the 4 parameters of basis 'poly3'; raise s_min"),
    (["sweep-m", "--s-min", "4"],
     "segment length 4 not above the 4 parameters of basis 'poly3'; raise s_min"),
    (["analyze", "--n-scales", "0"],
     "need n_scales >= 1 and 1 <= s_min < s_max <= N, got n_scales=0 s_min=30 s_max=None N=None"),
    (["analyze", "--n-scales", "1000000000000"],
     "scale grid over 10000 scales: n_scales=1000000000000"),
    (["analyze", "--s-max", "20"],
     "need n_scales >= 1 and 1 <= s_min < s_max <= N, got n_scales=30 s_min=30 s_max=20 N=None"),
    (["analyze", "--k", "10", "--s-min", "5"],
     "scale s=5 is shorter than the overlap factor k=10; raise s_min or lower k"),
], ids=["q-step", "two-node-grid", "k", "fit-window", "config-type",
        "m-min", "m-max", "m-range", "s-min", "sweep-s-min",
        "n-scales", "n-scales-cap", "s-max", "k-above-s-min"])
@pytest.mark.usefixtures("input_not_read")
def test_bad_request_refused_before_the_input_is_read(tmp_path, capsys, argv, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"m": "2"}')
    command, *flags = argv
    assert main([command, str(tmp_path / "x.csv"),
                 *(f.format(cfg=cfg) for f in flags)]) == 2
    assert capsys.readouterr().err == f"error: input: {message}\n"


def _sample(field):
    """A value the field's flag should accept, as text."""
    kind = field.type.removesuffix(" | None")
    return {"int": "7", "float": "0.5", "str": field.default}[kind], kind


@pytest.mark.parametrize("command, exempt", [("analyze", ()), ("sweep-m", ("method", "m"))])
def test_every_config_field_has_its_flag(command, exempt):
    parser = cli.build_parser()
    for field in dataclasses.fields(AnalysisConfig):
        if field.name in exempt:
            continue
        flag = "--" + field.name.replace("_", "-")
        text, kind = _sample(field)
        args = parser.parse_args([command, "x.csv", flag, text])
        value = getattr(args, field.name)
        assert type(value).__name__ == kind and str(value) == text, (flag, value)
        with pytest.raises(SystemExit) as exc:
            parser.parse_args([command, "x.csv", flag, "not-a-value"])
        assert exc.value.code == 2, flag


@pytest.mark.parametrize("method, selects", [
    ("mffdfa", True), ("mfdfa", False), ("mfdfa_overlap", False),
])
def test_selection_output_only_for_several_bases(tmp_path, capsys, method, selects):
    src = tmp_path / "x.csv"
    _write_series(src, generate_fgn(FbmSpec(hurst=0.5, length=1500, seed=2)))
    flags = ["analyze", str(src), "--method", method, "--q-step", "2.0", "--n-scales", "10"]
    assert main(flags) == 0
    diag = json.loads(capsys.readouterr().out)["diagnostics"]
    assert ("selection_fractions" in diag) == selects
    assert ("selection_counts" in diag) == selects
    assert main([*flags, "--format", "csv"]) == 0
    csv = capsys.readouterr().out
    assert ("# selection_fractions" in csv) == selects


def test_unknown_subcommand_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_analyze_has_no_seed_flag(tmp_path):
    # only `generate` draws random numbers
    src = tmp_path / "x.csv"
    _write_series(src, np.sin(np.arange(500)))
    with pytest.raises(SystemExit) as exc:
        main(["analyze", str(src), "--seed", "1"])
    assert exc.value.code == 2


def test_import_does_not_load_scipy():
    # SciPy is a test-only dependency; the runtime needs NumPy alone.  An
    # analysis does not load numpy.ma either, whose lazy import would count
    # as the first analysis' memory.
    env = dict(os.environ, PYTHONPATH=str(Path(mffdfa.__file__).resolve().parents[1]))
    code = ("import sys, numpy as np, mffdfa, mffdfa.cli; print('scipy' in sys.modules); "
            "mffdfa.analyze_series(np.random.default_rng(0).standard_normal(2000), "
            "mffdfa.AnalysisConfig()); print('scipy' in sys.modules, 'numpy.ma' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\nFalse False\n", "")


def test_module_entry_point_runs_without_warning():
    env = dict(os.environ, PYTHONPATH=str(Path(mffdfa.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "mffdfa.cli",
         "oracle", "--a", "0.6"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", "import mffdfa; print(mffdfa.cli.main.__name__)"],
        capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "main\n", "")


_ANALYSES_AFTER_IMPORT = """
import sys
import mffdfa, mffdfa.cli
from mffdfa import AnalysisConfig, FbmSpec, analyze_series, generate_fgn
x = generate_fgn(FbmSpec(hurst=0.7, length=10_000, seed=0))
before = set(sys.modules)
for config in (AnalysisConfig(), AnalysisConfig(method="mfdfa", m=3),
               AnalysisConfig(abscissa="normalized")):
    doc = analyze_series(x, config)
    doc.to_json(), doc.to_csv()
print(sorted(set(sys.modules) - before))
"""


def test_analysis_imports_nothing_lazily():
    """Every module an analysis needs is loaded by importing the package and
    its CLI: one imported on first use would count as analysis memory and
    time wherever a run is measured from its first analysis on."""
    env = dict(os.environ, PYTHONPATH=str(Path(mffdfa.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", _ANALYSES_AFTER_IMPORT],
                          capture_output=True, text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


_ANALYSES_AS_JSON = """
from mffdfa import AnalysisConfig, FbmSpec, analyze_series, generate_fgn
x = generate_fgn(FbmSpec(hurst=0.7, length=10_000, seed=0))
for config in (AnalysisConfig(), AnalysisConfig(method="mfdfa", m=3),
               AnalysisConfig(abscissa="normalized")):
    print(analyze_series(x, config).to_json())
"""


def test_output_does_not_depend_on_the_blas_thread_count():
    """fGn of 10^4 points gives the same bytes at one and two BLAS threads:
    its scales stop at 10^3, below the length at which BLAS splits a dot
    product among its threads."""
    runs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(Path(mffdfa.__file__).resolve().parents[1]),
                   OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", _ANALYSES_AS_JSON],
                              capture_output=True, text=True, env=env, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, ""), threads
        runs.append(proc.stdout)
    assert runs[0] == runs[1]


# ----------------------------------------------------------- input parsing


def test_read_series_skips_comments_and_blanks(tmp_path):
    src = tmp_path / "c.csv"
    src.write_text("# header\n1.5\n\n# mid comment\n2.5\n-3.0\n")
    np.testing.assert_array_equal(read_series(str(src)), [1.5, 2.5, -3.0])


def test_read_series_warns_once_on_second_column(tmp_path, capsys):
    src = tmp_path / "two.csv"
    src.write_text("1.0, 10.0\n2.0, 20.0\n3.0, 30.0\n")
    values = read_series(str(src))
    np.testing.assert_array_equal(values, [1.0, 2.0, 3.0])
    err = capsys.readouterr().err
    assert err.count("extra columns ignored") == 1


def test_read_series_empty_file_rejected(tmp_path):
    src = tmp_path / "empty.csv"
    src.write_text("# only comments\n\n")
    with pytest.raises(InputError, match="no data lines"):
        read_series(str(src))


@pytest.mark.parametrize("text", ["\ufeff# header\n1.5\n2.5\n", "\ufeff1.5\n2.5\n"],
                         ids=["before-comment", "before-data"])
def test_read_series_skips_a_byte_order_mark(tmp_path, capsys, text):
    # a spreadsheet's "CSV UTF-8" export starts with U+FEFF
    src = tmp_path / "bom.csv"
    src.write_text(text, encoding="utf-8")
    assert read_series(str(src)).tolist() == [1.5, 2.5]
    assert capsys.readouterr().err == ""


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_read_series_reads_a_pipe_in_one_go(capsys):
    # a pipe cannot be reread: it takes the one pass a file takes
    r, w = os.pipe()
    with os.fdopen(w, "wb") as fh:
        fh.write(b"# h\n1.0, 10.0\n2.0, 20.0\n")
    try:
        values = read_series(f"/dev/fd/{r}")
    finally:
        os.close(r)
    assert values.tolist() == [1.0, 2.0]
    assert capsys.readouterr().err == f"warning: /dev/fd/{r}:2: extra columns ignored\n"


def _plain(n):
    """n lines of one plain number each, all distinct."""
    return b"".join(b"%d.25\n" % i for i in range(n))


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_read_series_reads_a_plain_pipe_as_the_file(tmp_path, capsys):
    content = _plain(2500)  # three blocks, and well inside a pipe's buffer
    r, w = os.pipe()
    with os.fdopen(w, "wb") as fh:
        fh.write(content)
    try:
        values = read_series(f"/dev/fd/{r}")
    finally:
        os.close(r)
    src = tmp_path / "x.csv"
    src.write_bytes(content)
    assert values.tobytes() == read_series(str(src)).tobytes()
    assert values.tolist() == [i + 0.25 for i in range(2500)]
    assert capsys.readouterr().err == ""


# None stands for `mffdfa generate` output followed by extreme reprs; the
# cases from "refused-at-1024" on sit at the edges of read_series' blocks of
# 2^10 lines, where float() refuses a line and the full rule takes over
READ_CASES = {
    "generate-output": None,
    "comment-after-data": b"1.5\n# note\n2.5\n",
    "inline-comment": b"1.5 # note\n2.5\n",
    "comma-column": b"1.0, 10.0\n2.0, 20.0\n",
    "space-column": b"1.0 10.0\n2.0 20.0\n",
    "one-row-two-columns": b"# h\n1.0\t10.0\n",
    "ragged-rows": b"1.0\n2.0 3.0\n4.0\n",
    "trailing-comma": b"1.0,\n2.0,\n",
    "underscore": b"1_000\n2\n",
    "overflow": b"1e500\n-1e500\n2\n",
    "blank-crlf-no-final-newline": b"\r\n# h\r\n1.5\r\n\r\n2.5\r\n \t\r\n3.5",
    "bad-token": b"1.0\n2.0\nnot-a-number\n",
    "commas-only-line": b"1\n,\n",
    "only-comments": b"# a\n\n# b\n",
    "empty": b"",
    "refused-at-1024": _plain(1023) + b"7.5, 1\n" + _plain(1000),
    "refused-at-1025": _plain(1024) + b"7.5, 1\n" + _plain(1000),
    "refused-at-2048": _plain(2047) + b"7.5 # note\n" + _plain(1000),
    "columns-from-the-second-block": _plain(1100) + b"".join(b"%d.5, %d\n" % (i, i)
                                                             for i in range(2000)),
    "bad-token-after-3000": _plain(3000) + b"oops\n" + _plain(10),
    "latin-1-in-the-second-block": _plain(1200) + b"# caf\xe9\n" + _plain(10),
}


@pytest.mark.parametrize("content", READ_CASES.values(), ids=READ_CASES.keys())
def test_read_series_matches_the_line_loop(tmp_path, capsys, content):
    """Values, warnings and errors equal the reference line loop's."""
    src = tmp_path / "x.csv"
    if content is None:
        assert main(["generate", "fgn", "--hurst", "0.7", "--length", "1000",
                     "-o", str(src)]) == 0
        extremes = [5e-324, -0.0, 1.7976931348623157e308, -2.2250738585072014e-308]
        with open(src, "a") as fh:
            fh.write("\n".join(map(repr, extremes)) + "\n")
    else:
        src.write_bytes(content)

    def outcome(read):
        try:
            result = read().tobytes()
        except InputError as e:
            result = str(e)
        return result, capsys.readouterr().err

    def reference():
        with open(src, encoding="utf-8-sig", errors="surrogateescape") as fh:
            return oracles.read_lines(fh, str(src))

    assert outcome(lambda: read_series(str(src))) == outcome(reference)


@pytest.fixture(scope="module")
def cascade_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("cascade") / "cascade.csv"
    assert main(["generate", "cascade", "--a", "0.65", "--n-max", "17", "-o", str(path)]) == 0
    return str(path)


def test_read_series_memory_stays_near_the_values(cascade_csv, traced_peak):
    """The reader holds little beyond the 8N bytes it returns; a line loop
    held a Python float and a line string per value (5.1 x 8N)."""
    peak = traced_peak(lambda: read_series(cascade_csv))
    assert peak <= 1.5 * 8 * 2 ** 17


@pytest.mark.parametrize("layout", ["two-columns", "trailing-comment"])
def test_read_series_memory_is_the_same_for_every_file(cascade_csv, tmp_path, layout,
                                                      traced_peak):
    """Lines that float() refuses cost no more than plain ones (5.1 x 8N when
    such a file went to a line loop)."""
    lines = Path(cascade_csv).read_text().splitlines(keepends=True)
    src = tmp_path / "x.csv"
    if layout == "two-columns":
        src.write_text(lines[0] + "".join(f"{line[:-1]}, 1\n" for line in lines[1:]))
    else:
        src.write_text("".join(lines) + "# end\n")
    del lines
    values = []
    peak = traced_peak(lambda: values.append(read_series(str(src))))
    assert values[0].size == 2 ** 17
    assert peak <= 1.5 * 8 * 2 ** 17


@pytest.fixture(scope="module")
def cascade_2_20_csv(tmp_path_factory):
    """The a = 0.65 cascade of 2^20 points; its values are positive, so it
    also reads as prices."""
    path = tmp_path_factory.mktemp("cascade") / "cascade-2-20.csv"
    assert main(["generate", "cascade", "--a", "0.65", "--n-max", "20", "-o", str(path)]) == 0
    return str(path)


@pytest.mark.parametrize("flags, bound", [
    ([], 1.9),
    (["--log-returns"], 2.2),
    (["--log-returns", "--session-length", "390"], 2.3),
], ids=["plain", "log-returns", "session-length"])
def test_analyze_builds_the_profile_in_the_series_it_read(cascade_2_20_csv, tmp_path,
                                                         traced_peak, flags, bound):
    """analyze owns the series it read and builds the profile in it: at
    2^20 points it peaks at about 1.76, 2.03 and 2.15 x 8N.  The read array
    kept next to a new profile, and log returns from np.diff and index
    temporaries, peaked at 2.76, 3.03 and 4.03 x 8N."""
    n = 2 ** 20
    out = str(tmp_path / "r.json")
    codes = []
    peak = traced_peak(lambda: codes.append(main(["analyze", cascade_2_20_csv, *flags,
                                                  "-o", out])))
    assert codes == [0]
    assert peak <= bound * 8 * n, peak / (8 * n)


def test_analyze_memory_is_set_by_the_analysis(cascade_csv, tmp_path, traced_peak):
    """Reading the file stays below the analysis' own peak (5.3 x 8N when
    the line loop read every file)."""
    out = str(tmp_path / "r.json")
    peak = traced_peak(lambda: main(["analyze", cascade_csv, "-o", out]))
    assert peak <= 4 * 8 * 2 ** 17


# ------------------------------------------------------------- generate


def test_generate_is_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["generate", "cascade", "--a", "0.65", "--n-max", "8"]
    assert main(argv + ["-o", str(a)]) == 0
    assert main(argv + ["-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert lines[0].startswith("# mffdfa generate kind=cascade")
    assert len(lines) == 1 + 256
    assert sum(float(v) for v in lines[1:]) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("argv, series, header", [
    (["fgn", "--hurst", "0.7", "--length", "1000"],
     lambda: generate_fgn(FbmSpec(hurst=0.7, length=1000, seed=0)),
     "mffdfa generate kind=fgn hurst=0.7 length=1000 seed=0"),
    (["fbm", "--hurst", "0.3", "--length", "2500", "--seed", "4"],
     lambda: generate_fgn(FbmSpec(hurst=0.3, length=2500, seed=4, output="path")),
     "mffdfa generate kind=fbm hurst=0.3 length=2500 seed=4"),
    (["cascade", "--a", "0.65", "--n-max", "10"],
     lambda: generate_cascade(CascadeSpec(a=0.65, n_max=10)),
     "mffdfa generate kind=cascade a=0.65 n_max=10"),
], ids=["fgn", "fbm", "cascade"])
@pytest.mark.parametrize("to_file", [True, False], ids=["file", "stdout"])
def test_generate_writes_the_text_of_one_join(tmp_path, capsys, argv, series, header, to_file):
    """Written a block at a time, the text is the whole series' repr join."""
    expected = f"# {header}\n" + "\n".join(map(repr, series().tolist())) + "\n"
    out = tmp_path / "x.csv"
    assert main(["generate", *argv, "-o", str(out) if to_file else "-"]) == 0
    written = capsys.readouterr().out
    if to_file:
        assert written == ""
        written = out.read_text()
    assert written == expected


def test_generate_memory_stays_near_the_series(tmp_path, traced_peak):
    """The text goes out a block at a time: the whole of it peaked at 14.5 x 8N."""
    out = str(tmp_path / "wn.csv")
    n = 2 ** 20
    argv = ["generate", "fgn", "--hurst", "0.5", "-o", out, "--length"]
    assert main(argv + ["2"]) == 0  # one-time imports stay out of the peak
    codes = []
    peak = traced_peak(lambda: codes.append(main(argv + [str(n)])))
    assert codes == [0]
    assert peak <= 1.5 * 8 * n


def test_generate_fbm_is_cumsum_of_fgn(tmp_path):
    inc, path = tmp_path / "inc.csv", tmp_path / "path.csv"
    assert main(["generate", "fgn", "--hurst", "0.4", "--length", "200",
                 "--seed", "9", "-o", str(inc)]) == 0
    assert main(["generate", "fbm", "--hurst", "0.4", "--length", "200",
                 "--seed", "9", "-o", str(path)]) == 0
    np.testing.assert_allclose(read_series(str(path)),
                               np.cumsum(read_series(str(inc))), rtol=1e-12)


def test_generate_white_noise_writes_the_normal_draws(tmp_path):
    out = tmp_path / "wn.csv"
    assert main(["generate", "fgn", "--hurst", "0.5", "--length", "200000",
                 "--seed", "3", "-o", str(out)]) == 0
    with open(out) as fh:
        assert fh.readline() == "# mffdfa generate kind=fgn hurst=0.5 length=200000 seed=3\n"
    expected = np.random.default_rng(3).standard_normal(200_000)
    assert read_series(str(out)).tobytes() == expected.tobytes()


@pytest.mark.parametrize("seed", ["-1", "-20"])
def test_generate_negative_seed_exits_two(tmp_path, capsys, seed):
    out = tmp_path / "x.csv"
    assert main(["generate", "fgn", "--hurst", "0.7", "--length", "20",
                 "--seed", seed, "-o", str(out)]) == 2
    assert capsys.readouterr().err == (f"error: input: seed must be a non-negative "
                                       f"integer, got {seed}\n")
    assert not out.exists()


def test_generate_length_above_the_memory_guard_exits_two(tmp_path, capsys):
    out = tmp_path / "x.csv"
    out.write_text("kept\n")
    assert main(["generate", "fgn", "--hurst", "0.5", "--length", "1000000000000",
                 "-o", str(out)]) == 2
    assert capsys.readouterr().err == ("error: input: length must be in [2, 2^26] "
                                       "(the memory guard), got 1000000000000\n")
    assert out.read_text() == "kept\n"


def test_generate_long_correlated_fgn_exits_two(tmp_path, capsys):
    # one point over the cap: without it this would run the O(N^2) recursion
    # for about 20 s, not for the months 2^26 points would take
    out = tmp_path / "x.csv"
    out.write_text("kept\n")
    assert main(["generate", "fgn", "--hurst", "0.7", "--length", str(2 ** 17 + 1),
                 "-o", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        "error: input: length must be at most 2^17 at hurst != 0.5, where the O(N^2) recursion")
    assert out.read_text() == "kept\n"


def test_generate_missing_parameters_exit_two(capsys):
    assert main(["generate", "cascade", "--a", "0.65"]) == 2
    assert main(["generate", "fgn", "--hurst", "0.5"]) == 2
    assert main(["generate", "fgn", "--hurst", "1.5", "--length", "100"]) == 2


# ------------------------------------------------------ financial options


def _prices(n=1201, seed=4):
    r = 0.01 * generate_fgn(FbmSpec(hurst=0.5, length=n - 1, seed=seed))
    return np.exp(np.concatenate([[0.0], np.cumsum(r)]))


def test_log_returns_flag(tmp_path, capsys):
    src = tmp_path / "prices.csv"
    _write_series(src, _prices())
    argv = ["analyze", str(src), "--log-returns", "--q-step", "2.0", "--n-scales", "10"]
    assert main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"]["N"] == 1200  # one fewer than the price count
    assert main(argv + ["--format", "csv"]) == 0
    assert "# N = 1200" in capsys.readouterr().out.splitlines()


@pytest.mark.usefixtures("input_not_read")
def test_drop_overnight_needs_log_returns(tmp_path, capsys):
    assert main(["analyze", str(tmp_path / "prices.csv"), "--session-length", "60"]) == 2
    assert "--log-returns" in capsys.readouterr().err


@pytest.mark.parametrize("length", [1, 0])
@pytest.mark.usefixtures("input_not_read")
def test_short_session_refused_before_the_input_is_read(tmp_path, capsys, length):
    assert main(["analyze", str(tmp_path / "prices.csv"), "--log-returns",
                 "--session-length", str(length)]) == 2
    assert f"session length must be >= 2, got {length}" in capsys.readouterr().err


def test_drop_overnight_flag_is_gone(tmp_path, capsys):
    src = tmp_path / "prices.csv"
    _write_series(src, _prices())
    with pytest.raises(SystemExit) as exc:
        main(["analyze", str(src), "--log-returns", "--drop-overnight",
              "--session-length", "60"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --drop-overnight" in capsys.readouterr().err


def test_drop_overnight_removes_boundary_returns(tmp_path, capsys):
    src = tmp_path / "prices.csv"
    _write_series(src, _prices(n=1201))
    assert main(["analyze", str(src), "--log-returns",
                 "--session-length", "60", "--q-step", "2.0",
                 "--n-scales", "10"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"]["N"] == 1200 - 20  # 1200 returns, every 60th dropped


def test_drop_overnight_returns_indexing():
    r = np.arange(10.0)
    kept = drop_overnight_returns(r, 5)
    np.testing.assert_array_equal(kept, [0, 1, 2, 3, 5, 6, 7, 8])


@pytest.mark.parametrize("length", [2, 3, 7, 390])
def test_drop_overnight_keeps_what_the_index_rule_keeps(length):
    """The strided mask keeps exactly the returns i with (i + 1) % L != 0."""
    for n in sorted({0, 1, 2, 5, length - 1, length, length + 1, 2 * length, 10_003}):
        r = np.random.default_rng(n).standard_normal(n)
        expected = r[(np.arange(n) + 1) % length != 0]
        assert drop_overnight_returns(r, length).tobytes() == expected.tobytes(), n


# -------------------------------------------------------------- config file


def test_config_file_applies_and_cli_overrides(tmp_path, capsys):
    src = tmp_path / "x.csv"
    _write_series(src, generate_fgn(FbmSpec(hurst=0.5, length=2000, seed=6)))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"s_min": 20, "q_step": 2.0, "method": "mfdfa", "fit_hi": None}))

    assert main(["analyze", str(src), "--config", str(cfg)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"]["s_min"] == 20
    assert doc["config"]["method"] == "mfdfa"
    assert doc["config"]["k"] == 1  # classical variant pins the stride

    assert main(["analyze", str(src), "--config", str(cfg), "--s-min", "40"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"]["s_min"] == 40  # flag wins over file
    assert doc["config"]["q_step"] == 2.0  # file still wins over defaults


def test_config_file_unknown_key_rejected(tmp_path, capsys):
    src = tmp_path / "x.csv"
    _write_series(src, np.sin(np.arange(500)))
    cfg = tmp_path / "cfg.json"
    # "seed" is no config field: no analysis draws random numbers
    for content in ({"wavelet": True}, {"seed": 0}):
        cfg.write_text(json.dumps(content))
        assert main(["analyze", str(src), "--config", str(cfg)]) == 2
        assert "unknown config keys" in capsys.readouterr().err


@pytest.mark.parametrize("content, message", [
    ('{"m": "2"}', "'m' must be an integer"),
    ('{"n_scales": 10.5}', "'n_scales' must be an integer"),
    ('{"k": 1.5}', "'k' must be an integer"),
    ('{"q_step": "0.5"}', "'q_step' must be a number"),
    ('{"fit_lo": "40"}', "'fit_lo' must be an integer or null"),
    ('{"m": true}', "'m' must be an integer"),
    ("5", "must hold a JSON object"),
    ("null", "must hold a JSON object"),
])
def test_config_file_bad_type_exits_two(tmp_path, capsys, content, message):
    src = tmp_path / "x.csv"
    _write_series(src, np.random.default_rng(0).normal(size=1000))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(content)
    assert main(["analyze", str(src), "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "error: input:" in err and message in err


@pytest.mark.parametrize("content", [None, "{not json"], ids=["missing", "invalid-json"])
@pytest.mark.usefixtures("input_not_read")
def test_unreadable_config_file_exits_two(tmp_path, capsys, content):
    cfg = tmp_path / "cfg.json"
    if content is not None:
        cfg.write_text(content)
    assert main(["analyze", str(tmp_path / "x.csv"), "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith(f"error: input: cannot read config file {cfg}: ")


def test_bad_method_rejected():
    with pytest.raises(InputError, match="unknown method"):
        AnalysisConfig(method="wavelet-leader")


@pytest.mark.parametrize("setting, message", [
    ({"k": 1.5}, "'k' must be an integer"),
    ({"q_step": "0.2"}, "'q_step' must be a number"),
    ({"m": True}, "'m' must be an integer"),
    ({"s_min": 30.7}, "'s_min' must be an integer"),
    ({"n_scales": 10.5}, "'n_scales' must be an integer"),
    ({"fit_lo": "40"}, "'fit_lo' must be an integer or null"),
])
def test_config_rejects_wrong_type_in_python(setting, message):
    with pytest.raises(InputError, match=message):
        AnalysisConfig(**setting)


def test_config_stores_numpy_scalars_as_python_numbers():
    cfg = AnalysisConfig(s_min=np.int64(30), q_step=np.float32(0.5))
    assert type(cfg.s_min) is int and type(cfg.q_step) is float
    x = generate_fgn(FbmSpec(hurst=0.5, length=2000, seed=4))
    config = json.loads(analyze_series(x, cfg).to_json())["config"]
    assert (config["s_min"], config["q_step"]) == (30, 0.5)


def test_config_holds_the_request_as_it_runs():
    with pytest.raises(InputError, match="does not divide"):
        AnalysisConfig(q_step=0.3)
    cfg = AnalysisConfig(method="mfdfa", k=3)
    assert cfg.k == 1  # the classical variant runs without overlap
    assert dataclasses.replace(cfg, method="mfdfa_overlap").k == 1


def test_short_q_grid_refused_before_detrending(tmp_path, capsys, monkeypatch):
    def detrend(*args, **kwargs):
        raise AssertionError("the q grid should be refused before any detrending")
    monkeypatch.setattr(mffdfa.pipeline, "fluctuation_function", detrend)
    src = tmp_path / "x.csv"
    _write_series(src, np.random.default_rng(0).normal(size=1000))
    assert main(["analyze", str(src), "--q-min", "-1", "--q-max", "1", "--q-step", "2"]) == 2
    assert "q grid of 2 nodes" in capsys.readouterr().err


# ----------------------------------------------------------------- sweep-m


def test_sweep_single_m_csv(tmp_path, capsys):
    src = tmp_path / "x.csv"
    _write_series(src, generate_fgn(FbmSpec(hurst=0.6, length=2000, seed=7)))
    assert main(["sweep-m", str(src), "--m-min", "2", "--m-max", "2",
                 "--q-step", "2.0", "--n-scales", "10", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "m,method,k,H,delta_alpha"
    assert len(lines) == 3  # header + the two method variants
    first, second = lines[1].split(","), lines[2].split(",")
    assert (first[0], first[1], first[2]) == ("2", "mfdfa", "1")
    assert (second[0], second[1], second[2]) == ("2", "mfdfa_overlap", "2")
    for row in (first, second):
        assert abs(float(row[3]) - 0.6) < 0.15


def test_sweep_json_config_reports_the_swept_range(tmp_path, capsys):
    src = tmp_path / "x.csv"
    _write_series(src, generate_fgn(FbmSpec(hurst=0.6, length=2000, seed=7)))
    assert main(["sweep-m", str(src), "--m-min", "1", "--m-max", "1",
                 "--q-step", "2.0", "--n-scales", "10"]) == 0
    doc = json.loads(capsys.readouterr().out)
    config = doc["config"]
    assert not {"method", "m", "k"} & config.keys()
    assert (config["m_min"], config["m_max"], config["N"]) == (1, 1, 2000)
    assert [(r["m"], r["method"], r["k"]) for r in doc["sweep"]] == [
        (1, "mfdfa", 1), (1, "mfdfa_overlap", 2)]


@pytest.mark.parametrize("flags", [["--method", "mffdfa"], ["--m", "7"]])
def test_sweep_takes_no_method_or_m_flag(tmp_path, flags):
    src = tmp_path / "x.csv"
    _write_series(src, np.random.default_rng(0).normal(size=800))
    with pytest.raises(SystemExit) as exc:
        main(["sweep-m", str(src), *flags])
    assert exc.value.code == 2


@pytest.mark.parametrize("content", [{"method": "mffdfa"}, {"m": 3}])
def test_sweep_config_file_may_not_set_method_or_m(tmp_path, capsys, content):
    src = tmp_path / "x.csv"
    _write_series(src, np.random.default_rng(0).normal(size=800))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(content))
    assert main(["sweep-m", str(src), "--m-max", "1", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "error: input:" in err and "sweep-m sets" in err


def test_sweep_range_validated(tmp_path, capsys):
    src = tmp_path / "x.csv"
    _write_series(src, np.random.default_rng(0).normal(size=800))
    assert main(["sweep-m", str(src), "--m-min", "0", "--m-max", "3"]) == 2
    assert main(["sweep-m", str(src), "--m-min", "3", "--m-max", "2"]) == 2


def test_m_range_has_one_message(tmp_path, capsys):
    """The config, the basis and the sweep refuse an order with the same words."""
    src = tmp_path / "x.csv"
    _write_series(src, np.random.default_rng(0).normal(size=800))
    with pytest.raises(InputError) as basis:
        polynomial_basis(11)
    with pytest.raises(InputError) as config:
        AnalysisConfig(method="mfdfa", m=11)
    assert main(["sweep-m", str(src), "--m-min", "2", "--m-max", "11"]) == 2
    assert str(basis.value) == str(config.value) and "m=11 outside" in str(basis.value)
    assert capsys.readouterr().err == f"error: input: {basis.value}\n"


# ------------------------------------------------------------------ oracle


def test_oracle_table_values(capsys):
    assert main(["oracle", "--a", "0.65", "--q-step", "1.0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    table = doc["table"]
    q = np.asarray(table["q"])
    i0 = int(np.argmin(np.abs(q)))
    i1 = int(np.argmin(np.abs(q - 1.0)))
    assert table["tau"][i0] == pytest.approx(-1.0, abs=1e-12)
    assert table["tau"][i1] == pytest.approx(0.0, abs=1e-12)
    assert table["alpha"][i0] == pytest.approx(1.06803, abs=5e-6)
    assert table["f_alpha"][i0] == pytest.approx(1.0, abs=1e-12)
    assert table["h"][i0] == table["alpha"][i0]


def test_oracle_csv_table_is_the_json_table(capsys):
    assert main(["oracle", "--a", "0.65", "--q-step", "0.5"]) == 0
    table = json.loads(capsys.readouterr().out)["table"]
    assert main(["oracle", "--a", "0.65", "--q-step", "0.5", "--format", "csv"]) == 0
    comment, header, *rows = capsys.readouterr().out.splitlines()
    assert comment == "# cascade oracle a=0.65"
    assert header == "q,tau,alpha,f_alpha,h"
    columns = np.array([[float(v) for v in row.split(",")] for row in rows]).T
    assert columns.shape == (5, 41)
    for name, column in zip(header.split(","), columns):
        assert column.tolist() == table[name], name


def test_oracle_non_finite_q_step_exits_two(capsys):
    assert main(["oracle", "--a", "0.65", "--q-step", "nan"]) == 2
    assert "step=nan" in capsys.readouterr().err
    # finite bounds whose difference overflows
    assert main(["oracle", "--a", "0.65", "--q-min=-1e308", "--q-max=1e308",
                 "--q-step", "1"]) == 2
    assert "over 10000 nodes" in capsys.readouterr().err


def test_oracle_bad_a_exits_two(capsys):
    assert main(["oracle", "--a", "0.3"]) == 2
    assert capsys.readouterr().err == (
        "error: input: cascade parameter a must lie in (0.5, 1), got 0.3\n")


def test_oracle_width_grows_with_a(capsys):
    widths = {}
    for a in ("0.55", "0.8"):
        assert main(["oracle", "--a", a, "--q-step", "0.5"]) == 0
        table = json.loads(capsys.readouterr().out)["table"]
        widths[a] = max(table["alpha"]) - min(table["alpha"])
    assert widths["0.8"] > widths["0.55"]


# ------------------------------------------------------------- library API


def test_grid_defaults_are_the_config_defaults():
    """The defaults of default_q_grid, default_scale_grid and oracle's q flags
    build the grids that analyze_series runs under AnalysisConfig()."""
    x = generate_fgn(FbmSpec(hurst=0.5, length=2000, seed=4))
    doc = analyze_series(x, AnalysisConfig())
    np.testing.assert_array_equal(doc.hurst.q_grid, default_q_grid())
    np.testing.assert_array_equal(doc.surface.scales, default_scale_grid(x.size))
    args = mffdfa.cli.build_parser().parse_args(["oracle", "--a", "0.65"])
    assert (args.q_min, args.q_max, args.q_step) == (-10.0, 10.0, 0.2) == (
        AnalysisConfig().q_min, AnalysisConfig().q_max, AnalysisConfig().q_step)


def test_analyze_series_rejects_degenerate_input():
    from mffdfa import NumericalError

    with pytest.raises(NumericalError, match="zero variance"):
        analyze_series(np.ones(1000), AnalysisConfig())


def test_analyze_series_rejects_a_two_dimensional_series():
    with pytest.raises(InputError, match=r"must be one-dimensional, got shape \(2, 500\)"):
        analyze_series(np.ones((2, 500)), AnalysisConfig())


def test_analyze_series_matches_cli_output(tmp_path, capsys):
    x = generate_fgn(FbmSpec(hurst=0.5, length=1500, seed=8))
    cfg = AnalysisConfig(q_step=2.0, n_scales=10)
    doc = analyze_series(x, cfg)

    src = tmp_path / "x.csv"
    _write_series(src, x)
    assert main(["analyze", str(src), "--q-step", "2.0", "--n-scales", "10"]) == 0
    via_cli = json.loads(capsys.readouterr().out)
    np.testing.assert_allclose(via_cli["hurst"]["h"], doc.hurst.h, rtol=1e-12)
    assert via_cli["delta_alpha"] == pytest.approx(doc.spectrum.delta_alpha, rel=1e-12)
