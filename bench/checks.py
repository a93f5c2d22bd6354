"""Output checks made apart from the program.

Nothing here calls mffdfa.  The expected values come from closed forms
(the binomial cascade's tau(q) and its q-derivative), from the documented
default configuration, and from a plain per-segment reimplementation of
the flexible detrending that the vectorised program must agree with.

Every check returns a list of problems; an empty list means it passed.
"""

from __future__ import annotations

import numpy as np

#: acceptance test A3: cascade alpha(q) and delta_alpha within 0.1 of theory
CASCADE_TOL = 0.1
CASCADE_Q_MAX = 5.0
#: acceptance test A2: mean h(2) of fGn within 0.05 of the generating H
HURST_TOL = 0.05
#: relative agreement of F_q(s) with the per-segment reference loop
REFERENCE_RTOL = 1e-10
#: one series of 10^4 points (log returns, each sweep-m row): h(2) within
#: this of the generating H.  Its seed-to-seed standard deviation is about
#: 0.015, so only a broken path fails (prices analysed as returns give ~1.5)
SERIES_HURST_TOL = 0.1

#: default configuration: q from -10 to 10 in steps of 0.2, 30 log-uniform
#: integer scales from 30 to N // 10, overlap factor k = 2
Q_GRID = np.arange(-50, 51) * 0.2
S_MIN, N_SCALES, K = 30, 30, 2
TIE_EPS = 1e-12
A8_KEYS = {"config", "hurst", "spectrum", "delta_alpha", "diagnostics"}


def cascade_alpha(a: float, q):
    """alpha(q) = tau'(q) for tau(q) = -log2(a^q + (1-a)^q), that is
    -(a^q ln a + (1-a)^q ln(1-a)) / ((a^q + (1-a)^q) ln 2)."""
    q = np.asarray(q, dtype=float)
    la, lb = np.log(a), np.log1p(-a)
    w = 1.0 / (1.0 + np.exp(q * (lb - la)))          # a^q / (a^q + (1-a)^q)
    return -(w * la + (1.0 - w) * lb) / np.log(2.0)


def cascade_delta_alpha(a: float) -> float:
    alpha = cascade_alpha(a, Q_GRID)
    return float(alpha.max() - alpha.min())


def h_at(q, h, q0: float) -> float:
    return float(np.asarray(h)[int(np.argmin(np.abs(np.asarray(q) - q0)))])


def check_q_grid(q) -> list[str]:
    q = np.asarray(q, dtype=float)
    if q.shape != Q_GRID.shape or not np.allclose(q, Q_GRID, rtol=0.0, atol=1e-12):
        return [f"q grid is not -10..10 step 0.2 (got {q.size} nodes)"]
    if not np.any(q == 0.0):
        return ["q grid has no exact 0 node"]
    return []


def check_spectrum(q, h, alpha, f_alpha, delta_alpha) -> list[str]:
    """Properties any spectrum must have: finite, f(alpha(0)) = 1, width."""
    problems = check_q_grid(q)
    arrays = [np.asarray(v, dtype=float) for v in (h, alpha, f_alpha)]
    if not all(np.all(np.isfinite(v)) for v in arrays):
        return problems + ["non-finite h, alpha or f(alpha)"]
    h, alpha, f_alpha = arrays
    i0 = int(np.argmin(np.abs(np.asarray(q))))
    if abs(f_alpha[i0] - 1.0) > 1e-12:
        problems.append(f"f(alpha(0)) = {f_alpha[i0]!r}, not 1")
    if abs((alpha.max() - alpha.min()) - delta_alpha) > 1e-12:
        problems.append("delta_alpha differs from alpha_max - alpha_min")
    return problems


def check_cascade(a: float, q, alpha, delta_alpha) -> list[str]:
    """A3 against the closed form: alpha over |q| <= 5 and the width."""
    q = np.asarray(q, dtype=float)
    inner = np.abs(q) <= CASCADE_Q_MAX + 1e-9
    err = np.abs(np.asarray(alpha, dtype=float) - cascade_alpha(a, q))[inner]
    problems = []
    if err.max() > CASCADE_TOL:
        problems.append(f"cascade a={a}: sup |alpha - alpha_true| over |q|<=5 is {err.max():.4f}")
    width_err = abs(delta_alpha - cascade_delta_alpha(a))
    if width_err > CASCADE_TOL:
        problems.append(f"cascade a={a}: |delta_alpha - closed form| is {width_err:.4f}")
    return problems


def check_scales(scales, n: int) -> list[str]:
    s = np.asarray(scales)
    if (s.size > N_SCALES or s.size < 4 or s[0] != S_MIN or s[-1] != n // 10
            or np.any(np.diff(s) <= 0)):
        return [f"scale grid is not increasing integers from {S_MIN} to {n // 10}"]
    return []


def check_surface(values, excluded) -> list[str]:
    """F_q(s) non-decreasing in q at every scale that excluded no segment."""
    v = np.asarray(values, dtype=float)[:, np.asarray(excluded) == 0]
    if not np.all(np.isfinite(v)) or np.any(v <= 0.0):
        return ["F_q(s) not finite and positive at clean scales"]
    if np.any(np.diff(v, axis=0) < -1e-12 * v[1:]):
        return ["F_q(s) decreases in q at a clean scale"]
    return []


def reference_fluctuation(x, scales, q=Q_GRID, k: int = K) -> np.ndarray:
    """F_q(s) by a plain loop: one np.linalg.lstsq per segment and basis.

    Profile, overlapping windows (stride s // k), the basis set
    {t^2, sin(t^2), t^3} each with t and 1 (t = 1..s), best R^2 with ties
    to the earliest basis, and the power mean with its q = 0 log branch.
    Each segment is centred first: every basis holds the constant, so the
    residual is unchanged and the fit is better conditioned.
    """
    x = np.asarray(x, dtype=float)
    y = np.cumsum(x - x.mean())
    out = np.empty((len(q), len(scales)))
    for j, s in enumerate(int(v) for v in scales):
        t = np.arange(1, s + 1, dtype=float)
        designs = []
        for lead in (t * t, np.sin(t * t), t ** 3):
            A = np.column_stack([lead, t, np.ones(s)])
            designs.append(A / np.linalg.norm(A, axis=0))
        fsq = []
        for start in range(0, y.size - s + 1, s // k):
            seg = y[start:start + s]
            seg = seg - seg.mean()
            ss_tot = seg @ seg
            best_r2, best_ss = -np.inf, None
            for A in designs:
                coef = np.linalg.lstsq(A, seg, rcond=None)[0]
                resid = seg - A @ coef
                ss = resid @ resid
                r2 = 1.0 - ss / ss_tot
                if r2 > best_r2 + TIE_EPS:
                    best_r2, best_ss = r2, ss
            fsq.append(best_ss / s)
        fsq = np.array(fsq)
        for i, qq in enumerate(q):
            if qq == 0.0:
                out[i, j] = np.exp(np.mean(np.log(fsq)) / 2.0)
            else:
                out[i, j] = np.mean(fsq ** (qq / 2.0)) ** (1.0 / qq)
    return out


def check_reference(x, surface) -> list[str]:
    """The program's F_q(s) against the reference loop, within REFERENCE_RTOL."""
    ref = reference_fluctuation(x, surface.scales)
    rel = np.abs(np.asarray(surface.values) - ref) / ref
    worst = float(np.max(rel))
    if not worst <= REFERENCE_RTOL:
        return [f"F_q(s) differs from the reference loop by {worst:.3e} (relative)"]
    return []


def parse_csv_result(text: str):
    """The `analyze --format csv` table: (header scalars, column arrays)."""
    scalars, rows, names = {}, [], None
    for line in text.splitlines():
        if line.startswith("#"):
            key, sep, value = line[1:].partition("=")
            if sep and key.strip() == "delta_alpha":
                scalars["delta_alpha"] = float(value)
        elif names is None:
            names = line.split(",")
        elif line:
            rows.append([float(v) for v in line.split(",")])
    table = np.array(rows, dtype=float).reshape(-1, len(names or []))
    return scalars, {name: table[:, i] for i, name in enumerate(names or [])}
