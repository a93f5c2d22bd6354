"""Independent reference implementations the tests compare against.

Everything here is coded from the defining formulas, deliberately avoiding
the package's own machinery: plain loops, np.polyfit, mpmath normal
equations.  Slow is fine; independent is the point.
"""

import math
import sys

import mpmath
import numpy as np
from scipy.special import logsumexp

from mffdfa import InputError


def running_sum_profile(x):
    """Cumulative sum of (x - mean) via a plain Python loop."""
    x = list(map(float, x))
    mean = sum(x) / len(x)
    out, acc = [], 0.0
    for v in x:
        acc += v - mean
        out.append(acc)
    return np.asarray(out)


def read_lines(fh, path: str) -> np.ndarray:
    """The line loop: the reference for read_series' values, its warning and
    its line-numbered errors.  ``fh`` is open as ``utf-8-sig`` with
    ``errors="surrogateescape"``."""
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


def log_returns_direct(prices):
    return np.asarray([math.log(prices[i + 1]) - math.log(prices[i])
                       for i in range(len(prices) - 1)])


def r_squared_direct(y, fitted):
    y = np.asarray(y, dtype=float)
    fitted = np.asarray(fitted, dtype=float)
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    return 1.0 - ss_res / ss_tot


def r_squared_with_floor(ss_res, ss_tot, floor):
    """R^2 of fits from their sums of squares and noise floors.

    ss_res has shape (M,) or (n_bases, M).  A numerically constant segment
    (ss_tot <= floor) carries no variance to explain: a fit scores 1 when
    its residual sits at the floor too and 0 otherwise.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(ss_tot > floor, 1.0 - ss_res / ss_tot,
                        np.where(ss_res <= floor, 1.0, 0.0))


def best_basis_by_r_squared(ss_res, ss_tot, floor, tie_eps):
    """Per segment, the index along axis 0 of the highest R^2
    (``r_squared_with_floor``); R^2 within tie_eps of it go to the earliest."""
    r2 = r_squared_with_floor(ss_res, ss_tot, floor)
    return np.argmax(r2 >= r2.max(axis=0) - tie_eps, axis=0)


def segment_variance_direct(seg, trend):
    return sum((a - b) ** 2 for a, b in zip(seg, trend)) / len(seg)


def textbook_mfdfa(x, scales, q_values, m):
    """Classical MFDFA-m, one np.polyfit per segment.

    Non-overlapping windows from offset 0 (any tail shorter than s is
    dropped; no re-division from the series end).  Returns the F_q(s)
    matrix with shape (len(q_values), len(scales)).
    """
    x = np.asarray(x, dtype=float)
    y = np.cumsum(x - x.mean())
    F = np.empty((len(q_values), len(scales)))
    for j, s in enumerate(scales):
        n_seg = len(y) // s
        t = np.arange(1, s + 1, dtype=float)
        fsq = np.empty(n_seg)
        for v in range(n_seg):
            seg = y[v * s:(v + 1) * s]
            coeff = np.polyfit(t, seg, m)
            resid = seg - np.polyval(coeff, t)
            fsq[v] = np.mean(resid ** 2)
        for i, q in enumerate(q_values):
            if q == 0:
                F[i, j] = np.exp(np.mean(np.log(fsq)) / 2.0)
            else:
                F[i, j] = np.mean(fsq ** (q / 2.0)) ** (1.0 / q)
    return F


def power_means_per_q(fsq, q_values, lse=logsumexp):
    """F_q of one scale from its segment variances, one logsumexp per q.

    The per-q loop form of the aggregation: zero variances are dropped,
    q > 0 divides by every segment and q < 0 by the nonzero ones only, and
    q = 0 is the geometric mean.  Returns NaN everywhere when no variance
    is positive.  `lse(a, axis)` reduces each 1-D vector; SciPy's by default.
    """
    fsq = np.asarray(fsq, dtype=float)
    nonzero = fsq > 0.0
    m_nz = int(np.count_nonzero(nonzero))
    out = np.full(len(q_values), np.nan)
    if m_nz == 0:
        return out
    log_fsq = np.log(fsq[nonzero])
    for i, qq in enumerate(q_values):
        if qq == 0.0:
            out[i] = np.exp(log_fsq.mean() / 2.0)
        elif qq > 0.0:
            out[i] = np.exp((lse(qq / 2.0 * log_fsq, axis=0) - np.log(fsq.size)) / qq)
        else:
            out[i] = np.exp((lse(qq / 2.0 * log_fsq, axis=0) - np.log(m_nz)) / qq)
    return out


def dfa_rms(x, scales, m):
    """Plain DFA: sqrt of the average detrended variance per scale (q = 2)."""
    x = np.asarray(x, dtype=float)
    y = np.cumsum(x - x.mean())
    out = []
    for s in scales:
        n_seg = len(y) // s
        t = np.arange(1, s + 1, dtype=float)
        acc = 0.0
        for v in range(n_seg):
            seg = y[v * s:(v + 1) * s]
            resid = seg - np.polyval(np.polyfit(t, seg, m), t)
            acc += np.mean(resid ** 2)
        out.append(math.sqrt(acc / n_seg))
    return np.asarray(out)


def normal_equations_fitted(columns, y, dps=40):
    """Least-squares fitted values by solving A^T A c = A^T y in mpmath.

    `columns` is the list/array of design columns evaluated on the segment's
    abscissa.  High working precision stands in for exact arithmetic, which
    is what makes this a fair referee for the float implementation.
    """
    with mpmath.workdps(dps):
        A = mpmath.matrix([[mpmath.mpf(float(c[i])) for c in columns]
                           for i in range(len(y))])
        b = mpmath.matrix([mpmath.mpf(float(v)) for v in y])
        AtA = A.T * A
        Atb = A.T * b
        c = mpmath.lu_solve(AtA, Atb)
        fitted = A * c
        return np.asarray([float(v) for v in fitted])


def design(basis, s, abscissa="raw"):
    """A basis' design matrix (s, parameter_count): columns phi_1 ... phi_p,
    t, 1 on t = 1..s, which ``DesignFit`` hands every lead term, or on t/s
    under "normalized"."""
    t = np.arange(1, s + 1, dtype=float)
    if abscissa == "normalized":
        t /= s
    return np.column_stack([phi(t) for phi in basis.regressors] + [t, np.ones(s)])


def design_svd(s, bases):
    """A scale's design built with two SVDs per basis, as (B, spans,
    rank_deficient) in ``DesignFit``'s layout.

    Each basis' design is column-scaled and its rank decided by the
    max(shape) * eps * sigma_max cutoff on its SVD.  Past the first two,
    the left singular vectors of U^T [1, t] are the directions of the span
    orthogonal to the line.
    """
    t = np.arange(s) - (s - 1) / 2.0
    frame = np.column_stack([np.full(s, 1.0 / np.sqrt(s)), t / np.sqrt(t @ t)])
    Ws, rank_deficient = [], []
    for basis in bases:
        A = design(basis, s)
        norms = np.sqrt(np.einsum("ij,ij->j", A, A))
        norms[norms == 0.0] = 1.0
        A /= norms
        U, sv, _ = np.linalg.svd(A, full_matrices=False)
        rank = int(np.count_nonzero(sv > max(A.shape) * np.finfo(float).eps * sv[0]))
        U = U[:, :rank]
        V, _, _ = np.linalg.svd(U.T @ frame)
        Ws.append(U @ V[:, 2:])
        rank_deficient.append(rank < basis.parameter_count)
    ends = np.cumsum([2] + [W.shape[1] for W in Ws])
    spans = tuple(slice(int(a), int(b)) for a, b in zip(ends[:-1], ends[1:]))
    return np.concatenate([frame, *Ws], axis=1), spans, tuple(rank_deficient)


def _orthonormal_twice(Q, j, v):
    """v less its projection on Q's first j columns, taken off twice, normalised."""
    for _ in range(2):
        v -= Q[:, :j] @ (Q[:, :j].T @ v)
    return v / np.sqrt(v @ v)


def _ss_res_on(segments, Q):
    """Residual sums of squares per row after projecting off the mean and
    the orthonormal columns of Q (np.longdouble), twice."""
    R = np.asarray(segments, dtype=np.longdouble)
    R = R - R.mean(axis=1, keepdims=True)
    for _ in range(2):
        R = R - (R @ Q) @ Q.T
    return np.sum(R * R, axis=1)


def ss_res_extended(segments, design):
    """Residual sums of squares of least squares per row, in np.longdouble.

    `segments` holds one segment per row and `design` one regressor per
    column, both float64.  Each row is centred, then projected off an
    orthonormal basis of the design's span built by Gram-Schmidt with every
    column orthogonalised twice; the residual is orthogonalised twice as
    well.  The design must have full column rank.
    """
    A = np.asarray(design, dtype=np.longdouble)[:, ::-1]
    Q = np.zeros_like(A)
    for j in range(A.shape[1]):
        Q[:, j] = _orthonormal_twice(Q, j, A[:, j].copy())
    return _ss_res_on(segments, Q)


def orthopoly_extended(s, m):
    """Orthonormal polynomials of degrees 0 ... m on s equispaced points,
    as (s, m + 1) columns in np.longdouble.

    Vandermonde with Arnoldi (Brubeck, Nakatsukasa & Trefethen, SIAM Rev.
    63, 405, 2021): column k is x times column k - 1, orthogonalised twice
    against every earlier column and normalised, with x the centred
    abscissa scaled to [-1, 1].  No power of the abscissa is formed.
    """
    x = np.arange(s, dtype=np.longdouble) - np.longdouble(s - 1) / 2
    x /= x[-1]
    Q = np.zeros((s, m + 1), dtype=np.longdouble)
    Q[:, 0] = 1 / np.sqrt(np.longdouble(s))
    for k in range(1, m + 1):
        Q[:, k] = _orthonormal_twice(Q, k, x * Q[:, k - 1])
    return Q


def ss_res_polynomial(segments, m):
    """Residual sums of squares per row of the least-squares polynomial of
    order m, in np.longdouble, from ``orthopoly_extended``."""
    return _ss_res_on(segments, orthopoly_extended(np.shape(segments)[1], m))


def popcount_cascade(a, n_max):
    """Binomial cascade via str.count popcounts, no vectorization."""
    return np.asarray([
        a ** bin(k).count("1") * (1 - a) ** (n_max - bin(k).count("1"))
        for k in range(2 ** n_max)
    ])


def powers_per_point_cascade(a, n_max):
    """Binomial cascade with both powers taken at every one of the 2^n_max
    points, not looked up from a table of n_max + 1 weights."""
    ones = np.bitwise_count(np.arange(2 ** n_max, dtype=np.uint32)).astype(np.int64)
    return a ** ones * (1.0 - a) ** (n_max - ones)


def cascade_oracle_mpmath(a, q_values, dps=50):
    """High-precision tau/alpha/f/h for the cascade, straight from the formulas."""
    with mpmath.workdps(dps):
        a = mpmath.mpf(a)
        b = 1 - a
        ln2 = mpmath.log(2)
        tau, alpha, f, h = [], [], [], []
        for q in map(mpmath.mpf, q_values):
            aq, bq = a ** q, b ** q
            t = -mpmath.log(aq + bq) / ln2
            al = -(aq * mpmath.log(a) + bq * mpmath.log(b)) / ((aq + bq) * ln2)
            tau.append(float(t))
            alpha.append(float(al))
            f.append(float(q * al - t))
            if q == 0:
                h.append(float(al))
            else:
                h.append(float((t + 1) / q))
        return (np.asarray(tau), np.asarray(alpha), np.asarray(f), np.asarray(h))
