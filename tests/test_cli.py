import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mffdfa
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
