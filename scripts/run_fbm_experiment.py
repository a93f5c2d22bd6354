#!/usr/bin/env python3
"""Monofractal baseline: MFFDFA on exact fGn across Hurst exponents.

For each H the script runs the flexible pipeline on several independent
realizations and tabulates h(2) and the spectrum width. A monofractal
input should give h(2) ~ H; the residual width is the finite-size
fingerprint of a pure Gaussian series and is worth knowing before reading
anything into small widths on real data.

    python3 scripts/run_fbm_experiment.py
    python3 scripts/run_fbm_experiment.py --hurst 0.7 --seeds 20 --json out.json
"""

import argparse
import json

import numpy as np

from mffdfa import AnalysisConfig, FbmSpec, analyze_series, generate_fgn


def run_one(hurst: float, length: int, seed: int, k: int):
    x = generate_fgn(FbmSpec(hurst=hurst, length=length, seed=seed))
    doc = analyze_series(x, AnalysisConfig(k=k))
    h2 = float(doc.hurst.h[np.argmin(np.abs(doc.hurst.q_grid - 2.0))])
    return h2, float(doc.spectrum.delta_alpha)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--hurst", type=float, nargs="+", default=[0.3, 0.5, 0.9])
    ap.add_argument("--length", type=int, default=10_000)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--k", type=int, default=2)
    ap.add_argument("--json", help="also dump the per-seed table to this path")
    args = ap.parse_args()

    table = {}
    print(f"{'H':>5} {'mean h(2)':>10} {'std':>7} {'mean width':>11} {'std':>7}")
    for H in args.hurst:
        rows = [run_one(H, args.length, seed, args.k) for seed in range(args.seeds)]
        h2, width = np.asarray(rows).T
        table[H] = {"h2": h2.tolist(), "delta_alpha": width.tolist()}
        print(f"{H:5.2f} {h2.mean():10.4f} {h2.std(ddof=1):7.4f} "
              f"{width.mean():11.4f} {width.std(ddof=1):7.4f}")

    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"length": args.length, "seeds": args.seeds,
                       "k": args.k, "results": table}, fh, indent=2)
        print(f"wrote {args.json}")


if __name__ == "__main__":
    main()
