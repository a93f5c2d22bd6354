#!/usr/bin/env python3
"""Binomial cascade benchmark: numerical spectrum against the closed form.

The cascade is the one synthetic case with an exactly known multifractal
spectrum, so it calibrates the whole pipeline end to end. The script runs
MFFDFA on a dyadic scale grid (k=1 keeps the segments aligned with the
cascade's recursive construction; arbitrary grids pick up a log-periodic
wobble with period ln 2) and prints sup-norm deviations of alpha(q) and
f(alpha) from the analytic values, the width error, and the basis
selection fractions.

    python3 scripts/run_cascade_experiment.py
    python3 scripts/run_cascade_experiment.py --a 0.65 --n-max 15 --csv spectrum.csv
"""

import argparse

import numpy as np

from mffdfa import AnalysisConfig, CascadeSpec, analyze_series, cascade_oracle, generate_cascade


def run_one(a: float, n_max: int, s_lo: int, s_hi: int):
    x = generate_cascade(CascadeSpec(a=a, n_max=n_max))
    doc = analyze_series(x, AnalysisConfig(k=1, s_min=2 ** s_lo, s_max=2 ** s_hi,
                                           n_scales=s_hi - s_lo + 1))
    surface = doc.surface
    # the dyadic grid is what keeps the log-periodic wobble out (see above)
    if not np.array_equal(surface.scales, 2 ** np.arange(s_lo, s_hi + 1)):
        raise RuntimeError(f"scale grid {surface.scales.tolist()} is not 2^{s_lo}..2^{s_hi}")
    return doc.hurst.q_grid, doc.hurst, doc.spectrum, doc.selection_fractions()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--a", type=float, nargs="+", default=[0.55, 0.65, 0.8])
    ap.add_argument("--n-max", type=int, default=17)
    ap.add_argument("--scale-range", type=int, nargs=2, default=(8, 13),
                    metavar=("LO", "HI"), help="dyadic scale exponents, s = 2^LO..2^HI")
    ap.add_argument("--q-window", type=float, default=5.0,
                    help="report sup norms over |q| <= this")
    ap.add_argument("--csv", help="write the per-q comparison table here")
    args = ap.parse_args()

    lines = ["a,q,alpha,alpha_oracle,f,f_oracle,h,h_oracle"]
    for a in args.a:
        q, gh, spec, fractions = run_one(a, args.n_max, *args.scale_range)
        oracle = cascade_oracle(a)
        win = np.abs(q) <= args.q_window
        sup_alpha = np.max(np.abs(spec.alpha[win] - oracle.alpha(q[win])))
        sup_f = np.max(np.abs(spec.f_alpha[win] - oracle.f_alpha(q[win])))
        width_err = abs(spec.delta_alpha - np.ptp(oracle.alpha(q)))
        h2 = float(gh.h[np.argmin(np.abs(q - 2.0))])
        print(f"a = {a}: h(2) = {h2:.4f} (exact {float(oracle.h(2.0)):.4f}); "
              f"sup|dalpha| = {sup_alpha:.4f}, sup|df| = {sup_f:.4f}, "
              f"width err = {width_err:.4f}  (|q| <= {args.q_window})")
        print("    selection fractions: "
              + ", ".join(f"{k} {v:.3f}" for k, v in fractions.items()))
        if args.csv:
            ho = oracle.h(q)
            for i in range(q.size):
                lines.append(",".join(repr(float(v)) for v in (
                    a, q[i], spec.alpha[i], oracle.alpha(q[i]),
                    spec.f_alpha[i], oracle.f_alpha(q[i]), gh.h[i], ho[i],
                )))

    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        print(f"wrote {args.csv}")


if __name__ == "__main__":
    main()
