"""Input builders for the benchmark workloads.

Run as a script in a fresh interpreter to time one set-up:

    PYTHONPATH=src python3 bench/inputs.py WORKLOAD SEED OUTDIR

It imports mffdfa, builds the workload's inputs from SEED into OUTDIR and
prints one JSON line with the import time and the set-up time.  Set-up
means generating the series, plus writing the CSV files that cli-files
reads.  Library workloads also get an ``inputs.npz`` for the benchmark
process to load; saving it is not part of the timed set-up.

numpy and mffdfa are imported inside the functions, never at module level,
so that their import is inside the timed set-up of the script.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

#: fgn-batch: exact fGn, N = 10^4, FGN_PER_HURST series per Hurst exponent
FGN_N = 10_000
FGN_HURSTS = (0.3, 0.5, 0.9)
FGN_PER_HURST = 2

#: cascade multipliers; the seed picks one (all have checked closed forms)
CASCADE_AS = (0.65, 0.7, 0.75)
LARGE_N_MAX = 20
CLI_N_MAX = 17

#: cli-files: prices = exp(cumsum(0.01 fGn)), and an fGn file for sweep-m
CLI_FGN_N = 10_000
PRICE_HURST = 0.5
SWEEP_HURST = 0.7
SWEEP_M_MAX = 2

#: the fixed inputs behind delta_alpha_err, peak_mem_mib and the statistical
#: checks; seed 0 gives the a = 0.65 cascade (the value of acceptance test A4)
REFERENCE_SEED = 0


def series_seed(seed: int, i: int) -> int:
    """Generator seed of the i-th random series of a workload."""
    return seed * 1000 + i


def cascade_a(seed: int) -> float:
    return CASCADE_AS[seed % len(CASCADE_AS)]


def _write_csv(path: Path, header: str, values) -> None:
    # the layout of `mffdfa generate`: one comment line, one repr per line
    path.write_text(f"# {header}\n" + "\n".join(map(repr, values.tolist())) + "\n")


def build(workload: str, seed: int, outdir: Path):
    """Build WORKLOAD's inputs from SEED.

    Returns (arrays, meta): the named input arrays and a JSON-able record
    of how they were made.  cli-files also writes its CSV files to outdir
    and records their paths in meta["files"].
    """
    import numpy as np

    import mffdfa

    if workload == "fgn-batch":
        hursts, seeds, rows = [], [], []
        for j in range(FGN_PER_HURST):
            for h in FGN_HURSTS:
                s = series_seed(seed, len(rows))
                rows.append(mffdfa.generate_fgn(mffdfa.FbmSpec(hurst=h, length=FGN_N, seed=s)))
                hursts.append(h)
                seeds.append(s)
        return {"series": np.stack(rows)}, {"hursts": hursts, "seeds": seeds, "n": FGN_N}

    if workload == "cascade-large":
        a = cascade_a(seed)
        x = mffdfa.generate_cascade(mffdfa.CascadeSpec(a=a, n_max=LARGE_N_MAX))
        return {"series": x[None, :]}, {"a": a, "n_max": LARGE_N_MAX}

    if workload == "cli-files":
        a = cascade_a(seed)
        cascade = mffdfa.generate_cascade(mffdfa.CascadeSpec(a=a, n_max=CLI_N_MAX))
        noise = mffdfa.generate_fgn(mffdfa.FbmSpec(hurst=PRICE_HURST, length=CLI_FGN_N,
                                                   seed=series_seed(seed, 0)))
        prices = np.exp(np.cumsum(0.01 * noise))
        fgn = mffdfa.generate_fgn(mffdfa.FbmSpec(hurst=SWEEP_HURST, length=CLI_FGN_N,
                                                 seed=series_seed(seed, 1)))
        outdir.mkdir(parents=True, exist_ok=True)
        files = {name: str(outdir / f"{name}.csv") for name in ("cascade", "prices", "fgn")}
        _write_csv(Path(files["cascade"]), f"cascade a={a!r} n_max={CLI_N_MAX}", cascade)
        _write_csv(Path(files["prices"]), f"prices exp(cumsum(0.01 fGn)) hurst={PRICE_HURST}",
                   prices)
        _write_csv(Path(files["fgn"]), f"fgn hurst={SWEEP_HURST}", fgn)
        meta = {"a": a, "n_max": CLI_N_MAX, "price_hurst": PRICE_HURST,
                "sweep_hurst": SWEEP_HURST, "n_prices": int(prices.size),
                "n_fgn": int(fgn.size), "m_max": SWEEP_M_MAX, "files": files}
        return {}, meta

    raise ValueError(f"unknown workload {workload!r}")


def save(outdir: Path, arrays: dict, meta: dict) -> None:
    import numpy as np

    outdir.mkdir(parents=True, exist_ok=True)
    if arrays:
        np.savez(outdir / "inputs.npz", **arrays)
    (outdir / "meta.json").write_text(json.dumps(meta))


def load(outdir: Path):
    import numpy as np

    meta = json.loads((outdir / "meta.json").read_text())
    npz = outdir / "inputs.npz"
    if not npz.exists():
        return {}, meta
    with np.load(npz) as data:
        return {k: data[k] for k in data.files}, meta


def main(argv: list[str]) -> int:
    workload, seed, outdir = argv[0], int(argv[1]), Path(argv[2])
    t0 = time.perf_counter()
    import mffdfa  # noqa: F401  (the import is what is being timed)
    t1 = time.perf_counter()
    arrays, meta = build(workload, seed, outdir)
    t2 = time.perf_counter()
    save(outdir, arrays, meta)
    print(json.dumps({"import_s": t1 - t0, "setup_s": t2 - t0}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
