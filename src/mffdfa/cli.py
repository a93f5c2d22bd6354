"""Operator-facing entry point.

Subcommands:

* ``analyze``  -- run one series through profile -> segmentation ->
  detrending -> fluctuation -> spectrum and serialize the results;
* ``generate`` -- write synthetic fGn/fBm or binomial-cascade series;
* ``sweep-m``  -- repeat the analysis over a range of detrending orders m
  for both the classical (k=1) and the overlapping variant, emitting an
  H(m) / Delta_alpha(m) table (it sets method and m itself: no flag or
  config-file key for them);
* ``oracle``   -- tabulate the analytic cascade spectrum.

Analysis flags and a ``--config`` JSON file (flags win) set AnalysisConfig
fields, and AnalysisConfig checks them.  Input files are plain CSV in
UTF-8 (a byte-order mark is skipped), one value per line, '#' comments
allowed; an optional second column is ignored with a warning.  Output is
JSON by default (top-level keys: config, hurst, spectrum, delta_alpha,
diagnostics) or a flat CSV table with --format csv.  Exit codes: 0 on
success, 2 for input errors (an unwritable -o path among them, refused
before any work), 3 for numerical failures.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import os
import sys

import numpy as np

from .detrend import ABSCISSAS, M_MAX, check_order
from .errors import InputError, NumericalError
from .fluctuation import default_q_grid
from .generators import CascadeSpec, FbmSpec, cascade_oracle, generate_cascade, generate_fgn
# ResultDocument is unused here; it stays importable from mffdfa.cli with the rest
from .pipeline import METHODS, AnalysisConfig, ResultDocument, analyze_series  # noqa: F401
from .signal import log_returns


def read_series(path: str) -> np.ndarray:
    """One float per line; '#' lines skipped; 2nd column tolerated with a warning.

    Input is UTF-8, with or without a byte-order mark.  A file that holds one
    plain number per line after its leading '#' and blank lines is parsed by
    NumPy's C reader in one pass; any other file goes through the line loop,
    which gives the same values and alone words the warnings and errors.
    """
    try:
        fh = open(path, encoding="utf-8-sig")
    except OSError as e:
        raise InputError(f"cannot read {path}: {e}") from None
    with fh:
        values = None
        # the line loop rereads what the C reader refuses, and a pipe cannot be read twice
        if fh.seekable():
            try:
                values = _read_plain(fh)
            except ValueError:  # a line the C reader refuses, or bytes that are not UTF-8
                pass
            fh.seek(0)
        if values is None:
            # an undecodable byte reaches the loop as a lone surrogate, so it can name the line
            fh.reconfigure(errors="surrogateescape")
            values = _read_lines(fh, path)
    return values


def _read_plain(fh) -> np.ndarray | None:
    """The values of a file of one plain number per line after its leading
    '#' and blank lines; None when no data line follows them."""
    for line in fh:
        text = line.strip()
        if text and not text.startswith("#"):
            break
    else:
        return None
    if len(text.replace(",", " ").split()) > 1:  # columns: the loop's, without a wasted parse
        return None
    # comments=None: a later '#' line, or '1.5 # note', is the loop's to warn about or refuse
    values = np.loadtxt(itertools.chain([line], fh), dtype=float, comments=None, ndmin=2)
    # ndmin=2 keeps a single row of several columns from passing as one column
    return values[:, 0] if values.shape[1] == 1 else None


def _read_lines(fh, path: str) -> np.ndarray:
    """The line loop: the reference for read_series' values, and the one
    source of its warning and its line-numbered errors."""
    values = []
    warned = False
    for lineno, line in enumerate(fh, start=1):
        try:
            line.encode()
        except UnicodeEncodeError:
            raise InputError(f"{path}:{lineno}: not UTF-8 text") from None
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        # a line of commas alone has no parts: it is its own bad token
        parts = text.replace(",", " ").split() or [text]
        if len(parts) > 1 and not warned:
            print(f"warning: {path}:{lineno}: extra columns ignored", file=sys.stderr)
            warned = True
        try:
            values.append(float(parts[0]))
        except ValueError:
            raise InputError(f"{path}:{lineno}: not a number: {parts[0]!r}") from None
    if not values:
        raise InputError(f"{path}: no data lines")
    return np.asarray(values)


def drop_overnight_returns(returns: np.ndarray, session_length: int) -> np.ndarray:
    """Remove returns that straddle a session boundary.

    With prices sampled session_length per session, return i (from price i
    to i+1) crosses a boundary iff (i+1) % session_length == 0.
    """
    if session_length < 2:
        raise InputError(f"session length must be >= 2, got {session_length}")
    i = np.arange(returns.size)
    return returns[(i + 1) % session_length != 0]


def _load_preprocessed(args) -> np.ndarray:
    if args.drop_overnight and not args.log_returns:
        raise InputError("--drop-overnight only makes sense with --log-returns")
    if args.session_length is not None and not args.drop_overnight:
        raise InputError("--session-length only makes sense with --drop-overnight")
    if args.drop_overnight and args.session_length is None:
        raise InputError("--drop-overnight requires --session-length")
    x = read_series(args.input)
    if args.log_returns:
        x = log_returns(x)
        if args.drop_overnight:
            x = drop_overnight_returns(x, args.session_length)
    return x


def _check_output(output: str | None):
    """Refuse an -o path that cannot be written before any work is done,
    without creating or truncating it: a run that fails leaves it alone."""
    if output is None or output == "-":
        return
    try:
        try:
            os.close(os.open(output, os.O_WRONLY))
        except FileNotFoundError:
            os.close(os.open(output, os.O_WRONLY | os.O_CREAT | os.O_EXCL))
            os.remove(output)
    except OSError as e:
        raise InputError(f"cannot write {output}: {e}") from None


def _emit(text: str, output: str | None):
    if output is None or output == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(output, "w") as fh:
                fh.write(text)
        except OSError as e:
            raise InputError(f"cannot write {output}: {e}") from None


def cmd_analyze(args) -> int:
    x = _load_preprocessed(args)
    doc = analyze_series(x, _config_from_args(args))
    _emit(doc.to_csv() if args.format == "csv" else doc.to_json() + "\n", args.output)
    return 0


def cmd_generate(args) -> int:
    if args.kind in ("fgn", "fbm"):
        if args.hurst is None or args.length is None:
            raise InputError(f"generate {args.kind} requires --hurst and --length")
        spec = FbmSpec(hurst=args.hurst, length=args.length, seed=args.seed,
                       output="path" if args.kind == "fbm" else "increments")
        series = generate_fgn(spec)
        header = (f"mffdfa generate kind={args.kind} hurst={args.hurst!r} "
                  f"length={args.length} seed={args.seed}")
    else:
        if args.a is None or args.n_max is None:
            raise InputError("generate cascade requires --a and --n-max")
        series = generate_cascade(CascadeSpec(a=args.a, n_max=args.n_max))
        header = f"mffdfa generate kind=cascade a={args.a!r} n_max={args.n_max}"
    body = "\n".join(map(repr, series.tolist()))
    _emit(f"# {header}\n{body}\n", args.output)
    return 0


def cmd_sweep_m(args) -> int:
    x = _load_preprocessed(args)
    base = _config_from_args(args)
    check_order(args.m_min)
    check_order(args.m_max)
    if args.m_min > args.m_max:
        raise InputError(f"m sweep range [{args.m_min}, {args.m_max}] is inverted; "
                         "need m_min <= m_max")
    rows = []
    for m in range(args.m_min, args.m_max + 1):
        for method in ("mfdfa", "mfdfa_overlap"):
            cfg = dataclasses.replace(base, method=method, m=m)
            doc = analyze_series(x, cfg)
            i2 = int(np.argmin(np.abs(doc.hurst.q_grid - 2.0)))
            rows.append({
                "m": m, "method": method, "k": cfg.effective_k(),
                "H": float(doc.hurst.h[i2]),
                "delta_alpha": float(doc.spectrum.delta_alpha),
            })
    if args.format == "csv":
        lines = ["m,method,k,H,delta_alpha"]
        lines += [f"{r['m']},{r['method']},{r['k']},{r['H']!r},{r['delta_alpha']!r}"
                  for r in rows]
        _emit("\n".join(lines) + "\n", args.output)
    else:
        # each row carries its own method, m and k; the block keeps what they share
        config = {key: value for key, value in base.resolved(x.size, doc.surface.scales).items()
                  if key not in ("method", "m", "k")}
        config.update(m_min=args.m_min, m_max=args.m_max)
        _emit(json.dumps({"config": config, "sweep": rows}, indent=2) + "\n", args.output)
    return 0


def cmd_oracle(args) -> int:
    oracle = cascade_oracle(args.a)
    q = default_q_grid(args.q_min, args.q_max, args.q_step)
    cols = np.column_stack([q, oracle.tau(q), oracle.alpha(q), oracle.f_alpha(q), oracle.h(q)])
    if args.format == "csv":
        lines = [f"# cascade oracle a={args.a!r}", "q,tau,alpha,f_alpha,h"]
        lines += [",".join(repr(v) for v in row) for row in cols.tolist()]
        _emit("\n".join(lines) + "\n", args.output)
    else:
        _emit(json.dumps({
            "a": args.a,
            "table": {name: cols[:, j].tolist()
                      for j, name in enumerate(("q", "tau", "alpha", "f_alpha", "h"))},
        }, indent=2) + "\n", args.output)
    return 0


def _config_from_args(args) -> AnalysisConfig:
    """CLI flags > config file > dataclass defaults; AnalysisConfig checks the values."""
    names = [f.name for f in dataclasses.fields(AnalysisConfig)]
    merged = {}
    if args.config:
        try:
            with open(args.config) as fh:
                file_cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as e:
            raise InputError(f"cannot read config file {args.config}: {e}") from None
        if not isinstance(file_cfg, dict):
            raise InputError(f"config file {args.config} must hold a JSON object, "
                             f"not {json.dumps(file_cfg)}")
        unknown = set(file_cfg) - set(names)
        if unknown:
            raise InputError(f"unknown config keys: {sorted(unknown)}")
        # a field the command has no flag for (sweep-m: method, m) is its own
        fixed = sorted(key for key in file_cfg if not hasattr(args, key))
        if fixed:
            raise InputError(f"{args.command} sets {fixed} itself, not config file {args.config}")
        merged.update(file_cfg)
    for name in names:
        value = getattr(args, name, None)
        if value is not None:
            merged[name] = value
    return AnalysisConfig(**merged)


def _add_analysis_flags(p: argparse.ArgumentParser):
    # default=None everywhere so the config-file / dataclass defaults can
    # tell whether a flag was actually given
    p.add_argument("--config", help="JSON file with AnalysisConfig fields")
    p.add_argument("--k", type=int, help="overlap factor (stride = floor(s/k))")
    p.add_argument("--q-min", dest="q_min", type=float)
    p.add_argument("--q-max", dest="q_max", type=float)
    p.add_argument("--q-step", dest="q_step", type=float)
    p.add_argument("--s-min", dest="s_min", type=int)
    p.add_argument("--s-max", dest="s_max", type=int)
    p.add_argument("--n-scales", dest="n_scales", type=int)
    p.add_argument("--abscissa", choices=ABSCISSAS)
    p.add_argument("--fit-lo", dest="fit_lo", type=int,
                   help="lower scale bound for the h(q) regression")
    p.add_argument("--fit-hi", dest="fit_hi", type=int,
                   help="upper scale bound for the h(q) regression")
    p.add_argument("--log-returns", action="store_true",
                   help="treat the input as prices and analyze log returns")
    p.add_argument("--drop-overnight", action="store_true",
                   help="drop returns crossing session boundaries (needs --session-length)")
    p.add_argument("--session-length", dest="session_length", type=int)
    p.add_argument("-o", "--output", help="output path (default stdout)")
    p.add_argument("--format", choices=("json", "csv"), default="json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mffdfa",
        description="Multifractal (flexibly) detrended fluctuation analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="analyze one series file")
    p.add_argument("input")
    p.add_argument("--method", choices=METHODS)
    p.add_argument("--m", type=int, help="fixed detrending order (mfdfa/mfdfa_overlap)")
    _add_analysis_flags(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("generate", help="write a synthetic series")
    p.add_argument("kind", choices=("fgn", "fbm", "cascade"))
    p.add_argument("--hurst", type=float)
    p.add_argument("--length", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--a", type=float)
    p.add_argument("--n-max", dest="n_max", type=int)
    p.add_argument("-o", "--output", help="output path (default stdout)")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("sweep-m", help="H(m) and width tables over detrending orders")
    p.add_argument("input")
    p.add_argument("--m-min", dest="m_min", type=int, default=1)
    p.add_argument("--m-max", dest="m_max", type=int, default=M_MAX)
    _add_analysis_flags(p)
    p.set_defaults(func=cmd_sweep_m)

    p = sub.add_parser("oracle", help="tabulate the analytic cascade spectrum")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--q-min", dest="q_min", type=float, default=AnalysisConfig.q_min)
    p.add_argument("--q-max", dest="q_max", type=float, default=AnalysisConfig.q_max)
    p.add_argument("--q-step", dest="q_step", type=float, default=AnalysisConfig.q_step)
    p.add_argument("-o", "--output", help="output path (default stdout)")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_output(args.output)
        return args.func(args)
    except InputError as e:
        print(f"error: input: {e}", file=sys.stderr)
        return 2
    except NumericalError as e:
        print(f"error: numerical: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
