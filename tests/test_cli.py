import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import mffdfa
import mffdfa.cli as cli
from mffdfa import FbmSpec, InputError, generate_fgn
from mffdfa.cli import (
    AnalysisConfig,
    analyze_series,
    drop_overnight_returns,
    main,
    read_series,
)

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
])
def test_bad_analysis_setting_exits_two(tmp_path, capsys, flags, message):
    src = tmp_path / "x.csv"
    _write_series(src, np.random.default_rng(0).normal(size=1000))
    assert main(["analyze", str(src), *flags]) == 2
    err = capsys.readouterr().err
    assert "error: input:" in err and message in err


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
    # a pipe cannot be reread, so the line loop alone reads it
    r, w = os.pipe()
    with os.fdopen(w, "wb") as fh:
        fh.write(b"# h\n1.0, 10.0\n2.0, 20.0\n")
    try:
        values = read_series(f"/dev/fd/{r}")
    finally:
        os.close(r)
    assert values.tolist() == [1.0, 2.0]
    assert capsys.readouterr().err == f"warning: /dev/fd/{r}:2: extra columns ignored\n"


# None stands for `mffdfa generate` output followed by extreme reprs; the
# flag says whether NumPy's C reader takes the file, or only the line loop
READ_CASES = {
    "generate-output": (None, True),
    "comment-after-data": (b"1.5\n# note\n2.5\n", False),
    "inline-comment": (b"1.5 # note\n2.5\n", False),
    "comma-column": (b"1.0, 10.0\n2.0, 20.0\n", False),
    "space-column": (b"1.0 10.0\n2.0 20.0\n", False),
    "one-row-two-columns": (b"# h\n1.0\t10.0\n", False),
    "ragged-rows": (b"1.0\n2.0 3.0\n4.0\n", False),
    "trailing-comma": (b"1.0,\n2.0,\n", False),
    "underscore": (b"1_000\n2\n", False),
    "overflow": (b"1e500\n-1e500\n2\n", True),
    "blank-crlf-no-final-newline": (b"\r\n# h\r\n1.5\r\n\r\n2.5\r\n \t\r\n3.5", True),
    "bad-token": (b"1.0\n2.0\nnot-a-number\n", False),
    "commas-only-line": (b"1\n,\n", False),
    "only-comments": (b"# a\n\n# b\n", False),
    "empty": (b"", False),
}


@pytest.mark.parametrize("content, plain", READ_CASES.values(), ids=READ_CASES.keys())
def test_read_series_matches_the_line_loop(tmp_path, capsys, monkeypatch, content, plain):
    """Values, warnings and errors equal the line loop's, whichever reader runs."""
    src = tmp_path / "x.csv"
    if content is None:
        assert main(["generate", "fgn", "--hurst", "0.7", "--length", "1000",
                     "-o", str(src)]) == 0
        extremes = [5e-324, -0.0, 1.7976931348623157e308, -2.2250738585072014e-308]
        with open(src, "a") as fh:
            fh.write("\n".join(map(repr, extremes)) + "\n")
    else:
        src.write_bytes(content)

    def outcome():
        try:
            result = read_series(str(src)).tobytes()
        except InputError as e:
            result = str(e)
        return result, capsys.readouterr().err

    read_lines, looped = cli._read_lines, []
    monkeypatch.setattr(cli, "_read_lines",
                        lambda fh, path: looped.append(path) or read_lines(fh, path))
    fast = outcome()
    assert looped == ([] if plain else [str(src)])
    monkeypatch.setattr(cli, "_read_plain", lambda fh: None)
    assert fast == outcome()


def _traced_peak(run):
    """Peak bytes that tracemalloc sees while run() works."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def cascade_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("cascade") / "cascade.csv"
    assert main(["generate", "cascade", "--a", "0.65", "--n-max", "17", "-o", str(path)]) == 0
    return str(path)


def test_read_series_memory_stays_near_the_values(cascade_csv):
    """The C reader holds little beyond the 8N bytes it returns; the line
    loop held a Python float and a line string per value (5.1 x 8N)."""
    peak = _traced_peak(lambda: read_series(cascade_csv))
    assert peak <= 1.5 * 8 * 2 ** 17


def test_analyze_memory_is_set_by_the_analysis(cascade_csv, tmp_path):
    """Reading the file stays below the analysis' own peak (5.3 x 8N when
    the line loop read every file)."""
    out = str(tmp_path / "r.json")
    peak = _traced_peak(lambda: main(["analyze", cascade_csv, "-o", out]))
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


def test_drop_overnight_needs_session_length(tmp_path, capsys):
    src = tmp_path / "prices.csv"
    _write_series(src, _prices())
    assert main(["analyze", str(src), "--log-returns", "--drop-overnight"]) == 2
    assert "--session-length" in capsys.readouterr().err


def test_drop_overnight_needs_log_returns(tmp_path, capsys):
    src = tmp_path / "prices.csv"
    _write_series(src, _prices())
    assert main(["analyze", str(src), "--drop-overnight",
                 "--session-length", "60"]) == 2
    assert "--log-returns" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["analyze", "sweep-m"])
def test_session_length_needs_drop_overnight(tmp_path, capsys, command):
    src = tmp_path / "prices.csv"
    _write_series(src, _prices())
    assert main([command, str(src), "--log-returns", "--session-length", "5"]) == 2
    err = capsys.readouterr().err
    assert "error: input:" in err and "--drop-overnight" in err


def test_drop_overnight_removes_boundary_returns(tmp_path, capsys):
    src = tmp_path / "prices.csv"
    _write_series(src, _prices(n=1201))
    assert main(["analyze", str(src), "--log-returns", "--drop-overnight",
                 "--session-length", "60", "--q-step", "2.0",
                 "--n-scales", "10"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"]["N"] == 1200 - 20  # 1200 returns, every 60th dropped


def test_drop_overnight_returns_indexing():
    r = np.arange(10.0)
    kept = drop_overnight_returns(r, 5)
    np.testing.assert_array_equal(kept, [0, 1, 2, 3, 5, 6, 7, 8])


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
        mffdfa.polynomial_basis(11)
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


def test_oracle_non_finite_q_step_exits_two(capsys):
    assert main(["oracle", "--a", "0.65", "--q-step", "nan"]) == 2
    assert "step=nan" in capsys.readouterr().err
    # finite bounds whose difference overflows
    assert main(["oracle", "--a", "0.65", "--q-min=-1e308", "--q-max=1e308",
                 "--q-step", "1"]) == 2
    assert "over 10000 nodes" in capsys.readouterr().err


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
    np.testing.assert_array_equal(doc.hurst.q_grid, mffdfa.default_q_grid())
    np.testing.assert_array_equal(doc.surface.scales, mffdfa.default_scale_grid(x.size))
    args = mffdfa.cli.build_parser().parse_args(["oracle", "--a", "0.65"])
    assert (args.q_min, args.q_max, args.q_step) == (-10.0, 10.0, 0.2) == (
        AnalysisConfig().q_min, AnalysisConfig().q_max, AnalysisConfig().q_step)


def test_analyze_series_rejects_degenerate_input():
    from mffdfa import NumericalError

    with pytest.raises(NumericalError, match="zero variance"):
        analyze_series(np.ones(1000), AnalysisConfig())


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
