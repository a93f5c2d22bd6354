#!/usr/bin/env python3
"""Experiments on artificial series with known spectra.

fbm: the monofractal baseline. MFFDFA runs on several exact fGn
realizations per Hurst exponent and tabulates h(2) and the spectrum width.
A monofractal input should give h(2) ~ H; the residual width is the
finite-size fingerprint of a pure Gaussian series, worth knowing before
reading anything into small widths on real data.

cascade: the binomial cascade, whose multifractal spectrum is known exactly,
so it calibrates the whole pipeline end to end. MFFDFA runs on a dyadic
scale grid (k=1 keeps the segments aligned with the cascade's recursive
construction; arbitrary grids pick up a log-periodic wobble with period
ln 2) and prints sup-norm deviations of alpha(q) and f(alpha) from the
analytic values, the width error, and the basis selection fractions.

    python3 scripts/experiment.py fbm
    python3 scripts/experiment.py fbm --hurst 0.7 --seeds 20 --json out.json
    python3 scripts/experiment.py cascade
    python3 scripts/experiment.py cascade --a 0.65 --n-max 15 --csv spectrum.csv
"""

import argparse
import json

import numpy as np

from mffdfa import (AnalysisConfig, CascadeSpec, FbmSpec, analyze_series, cascade_oracle,
                    generate_cascade, generate_fgn)


def h_near_2(doc) -> float:
    """h(q) at the grid node nearest q = 2."""
    return float(doc.hurst.h[np.argmin(np.abs(doc.hurst.q_grid - 2.0))])


def write(path: str, text: str):
    with open(path, "w") as fh:
        fh.write(text)
    print(f"wrote {path}")


def run_fbm(args):
    table = {}
    print(f"{'H':>5} {'mean h(2)':>10} {'std':>7} {'mean width':>11} {'std':>7}")
    for H in args.hurst:
        docs = (analyze_series(generate_fgn(FbmSpec(hurst=H, length=args.length, seed=seed)),
                               AnalysisConfig(k=args.k)) for seed in range(args.seeds))
        h2, width = np.asarray([(h_near_2(doc), float(doc.spectrum.delta_alpha))
                                for doc in docs]).T
        table[H] = {"h2": h2.tolist(), "delta_alpha": width.tolist()}
        print(f"{H:5.2f} {h2.mean():10.4f} {h2.std(ddof=1):7.4f} "
              f"{width.mean():11.4f} {width.std(ddof=1):7.4f}")
    if args.json:
        write(args.json, json.dumps({"length": args.length, "seeds": args.seeds,
                                     "k": args.k, "results": table}, indent=2))


def run_cascade(args):
    s_lo, s_hi = args.scale_range
    lines = ["a,q,alpha,alpha_oracle,f,f_oracle,h,h_oracle"]
    for a in args.a:
        doc = analyze_series(generate_cascade(CascadeSpec(a=a, n_max=args.n_max)),
                             AnalysisConfig(k=1, s_min=2 ** s_lo, s_max=2 ** s_hi,
                                            n_scales=s_hi - s_lo + 1))
        # the dyadic grid is what keeps the log-periodic wobble out (see above)
        if not np.array_equal(doc.surface.scales, 2 ** np.arange(s_lo, s_hi + 1)):
            raise RuntimeError(f"scale grid {doc.surface.scales.tolist()} "
                               f"is not 2^{s_lo}..2^{s_hi}")
        q, h, spec = doc.hurst.q_grid, doc.hurst.h, doc.spectrum
        oracle = cascade_oracle(a)
        win = np.abs(q) <= args.q_window
        sup_alpha = np.max(np.abs(spec.alpha[win] - oracle.alpha(q[win])))
        sup_f = np.max(np.abs(spec.f_alpha[win] - oracle.f_alpha(q[win])))
        width_err = abs(spec.delta_alpha - np.ptp(oracle.alpha(q)))
        print(f"a = {a}: h(2) = {h_near_2(doc):.4f} (exact {float(oracle.h(2.0)):.4f}); "
              f"sup|dalpha| = {sup_alpha:.4f}, sup|df| = {sup_f:.4f}, "
              f"width err = {width_err:.4f}  (|q| <= {args.q_window})")
        print("    selection fractions: "
              + ", ".join(f"{k} {v:.3f}" for k, v in doc.selection_fractions().items()))
        if args.csv:
            ho = oracle.h(q)
            for i in range(q.size):
                lines.append(",".join(repr(float(v)) for v in (
                    a, q[i], spec.alpha[i], oracle.alpha(q[i]),
                    spec.f_alpha[i], oracle.f_alpha(q[i]), h[i], ho[i],
                )))
    if args.csv:
        write(args.csv, "\n".join(lines) + "\n")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="experiment", required=True)

    p = sub.add_parser("fbm", help="h(2) and width vs H on exact fGn")
    p.add_argument("--hurst", type=float, nargs="+", default=[0.3, 0.5, 0.9])
    p.add_argument("--length", type=int, default=10_000)
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--json", help="also dump the per-seed table to this path")
    p.set_defaults(run=run_fbm)

    p = sub.add_parser("cascade", help="numerical vs analytic cascade spectrum")
    p.add_argument("--a", type=float, nargs="+", default=[0.55, 0.65, 0.8])
    p.add_argument("--n-max", type=int, default=17)
    p.add_argument("--scale-range", type=int, nargs=2, default=(8, 13),
                   metavar=("LO", "HI"), help="dyadic scale exponents, s = 2^LO..2^HI")
    p.add_argument("--q-window", type=float, default=5.0,
                   help="report sup norms over |q| <= this")
    p.add_argument("--csv", help="write the per-q comparison table here")
    p.set_defaults(run=run_cascade)
    return ap


def main():
    args = build_parser().parse_args()
    args.run(args)


if __name__ == "__main__":
    main()
