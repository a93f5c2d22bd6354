"""Per-segment trend estimation.

One detrending rule: every candidate of a small basis set Q is fitted to
each segment and the winner is the least residual sum, which is the highest
R^2, since every candidate fits the same segment.
Classical MFDFA-m is the one-member set Q = {polynomial of order m}.

Every candidate model is linear in its parameters: its lead terms phi_j
plus the line b t + c, which every model carries without listing it.
So one least-squares kernel serves every candidate at once:

* One ``DesignFit`` per scale s serves every segment of the scale.
  B = [1/sqrt(s), e_t, W_1, W_2, ...] holds the constant, the centred line
  e_t and, per basis, W_b, an orthonormal basis of the rest of its span:
  one column per lead term, made orthogonal to the line and to its basis'
  earlier columns, from lead terms evaluated on t = 1..s.  A polynomial of
  order m lists the Chebyshev polynomials T_2 ... T_m as its lead terms.
* Each segment is first shifted by its own middle sample, Z = Y - y_mid.
  That is exact, since every design holds the constant, and a constant from
  inside the segment's range takes its level out of the rounding: errors
  then scale with the segment's spread, not with its offset.  Unlike the
  mean, the middle sample needs no pass along the row.
* One product C = B^T Z serves all bases.
  C_1 carries the offset left in Z and C_e the line; one rank-2 update
  removes both, R = Z - [1/sqrt(s), e_t] [C_1, C_e]^T.  ss_tot = |R|^2 +
  C_e^2, a sum with no cancellation, and ss_res of basis b is |R|^2 -
  |C_b|^2.
* Guard: where ss_res_b < RESIDUAL_GUARD * |R|^2 that difference has lost
  digits, and those segments take the explicit residual R - W_b W_b^T R.
  One test covers every basis of a block; most blocks have no such row.
* Noise floor: |y_t| <= |y_mid| + |Z|, with |Z|^2 = ss_tot + C_1^2, bounds
  a segment's floor from sums already at hand.  Only segments whose ss_tot
  does not clear that bound -- the numerically constant ones -- take the
  exact floor from their row's extremes, so they pick as the row rule does.
* A batch goes through in blocks of about BLOCK_VALUES values and at least
  two rows, so Z, R's one temporary and the products stay in cache.  The
  sums of about BLOCK_VALUES / 4 segments at a time are scored and reduced
  to the winners' F^2 before the next ones are taken: the only arrays of
  the batch's length are F^2 and the winning index, and the segments can
  be a strided view.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import InputError, NumericalError

#: residual sums within this share of ss_tot of the least tie (first in Q wins)
TIE_EPS = 1e-12

#: relative scatter below this counts as numerically constant: every fit ties
R2_ZERO_TOL = 1e-12

#: a residual sum below this share of the linear residual's is recomputed
#: explicitly: |R|^2 - |C_b|^2 carries an error of about eps * |R|^2, so the
#: difference keeps a relative accuracy of eps / RESIDUAL_GUARD ~ 2e-13
RESIDUAL_GUARD = 1e-3

#: every stage of an analysis works in blocks of about this many values
#: (256 KiB of float64): the profile's partial sums, the kernel's rows, the
#: scoring of its sums and the q sums.  Each pass over a block stays in a
#: core's cache, and no temporary grows with the series
BLOCK_VALUES = 2 ** 15

#: the abscissas the default Q can be written in: x = t or x = t/s, for t = 1..s
ABSCISSAS = ("raw", "normalized")

#: the largest fixed detrending order, for one analysis and for an m sweep
M_MAX = 10


def _noise_floor(Y: np.ndarray) -> np.ndarray:
    """Per row of Y, the sum-of-squares level indistinguishable from rounding
    on a constant segment of that row's magnitude."""
    peak = np.maximum(Y.max(axis=1), -Y.min(axis=1))
    return Y.shape[1] * (R2_ZERO_TOL * peak) ** 2


def _best_basis(ss_res: np.ndarray, ss_tot: np.ndarray, floor: np.ndarray) -> np.ndarray:
    """Per segment, the index along axis 0 of ss_res (n_bases, M) of the least
    residual sum, the highest R^2: the earliest within TIE_EPS * ss_tot of the
    least, or within the floor on a numerically constant segment (a tie)."""
    tol = np.where(ss_tot > floor, TIE_EPS * ss_tot, floor)
    return np.argmax(ss_res <= ss_res.min(axis=0) + tol, axis=0)


def _subtract_product(R: np.ndarray, C: np.ndarray, W: np.ndarray) -> None:
    """R -= C W^T in place, a column chunk at a time: the product's temporary
    is never larger than a block, and a block that fits takes one chunk."""
    step = max(1, BLOCK_VALUES // R.shape[0])
    for j in range(0, R.shape[1], step):
        R[:, j:j + step] -= C @ W[j:j + step].T


def _remove_span(R: np.ndarray, W: np.ndarray) -> None:
    """Subtract from the rows of R, in place, their projection on the
    orthonormal columns of W, in column chunks of a block (_subtract_product).

    The products run on a contiguous copy of W: BLAS takes another routine,
    and rounds differently, for a column strided by B's width, and the copy
    keeps the residual the same whichever B the design sits in.
    """
    W = np.ascontiguousarray(W)
    _subtract_product(R, R @ W, W)


def _kernel(Y: np.ndarray, design: DesignFit):
    """The detrending kernel, for the rows of Y (shape (M, s)) and every basis
    of the scale's design.

    Returns (ss_res, ss_tot, floor, R): residual sums of squares (number of
    bases, M), least where R^2 is highest, since every basis fits the same
    row; sums of squares about the row means, noise floors and the linear
    residuals R (M, s).  A floor is the row's own (_noise_floor) where ss_tot
    does not clear it by a margin, and elsewhere an upper bound on it, which
    puts the row in the same branch of _best_basis.
    """
    B = design.B
    s = Y.shape[1]
    mid = Y[:, s // 2]
    R = Y.copy()                    # Z, until the rank-2 update makes it R
    R -= mid[:, None]
    C = R @ B
    _subtract_product(R, C[:, :2], B[:, :2])
    rr = np.einsum("ij,ij->i", R, R)
    ss_res = np.empty((len(design.spans), Y.shape[0]))
    for b, cols in enumerate(design.spans):
        Cb = C[:, cols]
        np.subtract(rr, np.einsum("ij,ij->i", Cb, Cb), out=ss_res[b])
    low = ss_res < RESIDUAL_GUARD * rr
    if low.any():
        for b, cols in enumerate(design.spans):
            rows = np.flatnonzero(low[b])
            if rows.size:
                resid = R[rows]
                _remove_span(resid, B[:, cols])
                ss_res[b, rows] = np.einsum("ij,ij->i", resid, resid)
    ss_tot = rr + C[:, 1] ** 2
    # |y_t| <= |y_mid| + |Z| with |Z|^2 = ss_tot + C_1^2; the factor 2 covers
    # rounding, so rows whose ss_tot clears this bound clear their own floor
    floor = 2 * s * (R2_ZERO_TOL * (np.abs(mid) + np.sqrt(ss_tot + C[:, 0] ** 2))) ** 2
    near = np.flatnonzero(ss_tot <= floor)
    if near.size:
        floor[near] = _noise_floor(Y[near])
    return ss_res, ss_tot, floor, R


@dataclass(frozen=True)
class BasisFunction:
    """A trend model linear in its parameters: trend(t) = sum_j a_j phi_j(t) + b t + c.

    ``regressors`` lists only the lead terms phi_j, each called on an array
    t = 1..s of its own, which it may overwrite; every model carries the
    line b t + c: the detrending kernel centres each segment and removes its
    line before it looks at the rest of the span.
    """

    name: str
    regressors: tuple[Callable[[np.ndarray], np.ndarray], ...]

    @property
    def parameter_count(self) -> int:
        return len(self.regressors) + 2


def check_abscissa(abscissa: str) -> None:
    """Refuse an abscissa name outside ABSCISSAS."""
    if abscissa not in ABSCISSAS:
        raise InputError(f"abscissa must be one of {ABSCISSAS}, got {abscissa!r}")


def default_basis_set(abscissa: str = "raw") -> list[BasisFunction]:
    """The flexible basis set Q = {ax^2+bx+c, a sin(x^2)+bx+c, ax^3+bx+c} on
    x = t, or on x = t/s = t / t[-1] under "normalized": only the sine's span moves."""
    check_abscissa(abscissa)

    def on_x(lead):
        return lead if abscissa == "raw" else (lambda t: lead(np.divide(t, t[-1], out=t)))
    return [
        BasisFunction("quadratic", (on_x(lambda x: x * x),)),
        # the sine takes its square in place: a column less in a design's peak
        BasisFunction("sine", (on_x(lambda x: np.sin(y := x * x, out=y)),)),
        BasisFunction("cubic", (on_x(lambda x: x ** 3),)),
    ]


def check_order(m: int) -> None:
    """Refuse a fixed detrending order outside [1, M_MAX]."""
    if not 1 <= m <= M_MAX:
        raise InputError(f"detrending order m={m} outside [1, {M_MAX}]")


def polynomial_basis(m: int) -> BasisFunction:
    """Full polynomial of order m: lead terms T_2, ..., T_m (none for m = 1).

    T_j is the Chebyshev polynomial of t mapped affinely onto [-1, 1].
    With the line, T_2 ... T_m span what t^2 ... t^m span, but their
    columns stay well conditioned where t^m spans orders of magnitude.
    """
    check_order(m)
    return BasisFunction(f"poly{m}", tuple(_chebyshev(j) for j in range(2, m + 1)))


def _chebyshev(j: int) -> Callable[[np.ndarray], np.ndarray]:
    """T_j of an ascending t mapped affinely onto [-1, 1], as cos(j arccos u)."""
    def lead(t: np.ndarray) -> np.ndarray:
        u = 2.0 * t
        u -= t[0] + t[-1]
        u /= t[-1] - t[0]
        # a rounded endpoint may land just outside [-1, 1], where arccos is
        # NaN; two ufuncs clip it in less time than np.clip's one call
        np.minimum(u, 1.0, out=u)
        np.maximum(u, -1.0, out=u)
        np.arccos(u, out=u)
        u *= j
        return np.cos(u, out=u)
    return lead


def check_scale(s: int, bases: Sequence[BasisFunction]) -> None:
    """Refuse a segment length s not above every basis' parameter count: an
    exact fit leaves rounding noise as F^2."""
    for basis in bases:
        if s <= basis.parameter_count:
            raise InputError(f"segment length {s} not above the {basis.parameter_count} "
                             f"parameters of basis {basis.name!r}; raise s_min")


class DesignFit:
    """The least-squares directions of one scale s, for every basis of Q.

    B = [1/sqrt(s), e_t, W_1, W_2, ...] holds the constant, the centred line
    e_t, then each basis' W: an orthonormal basis (s, rank - 2) of the part
    of its span orthogonal to both.  ``spans[b]`` is the slice of B's
    columns that holds W_b.  All segments of the scale share B, and every
    segment must be longer than each basis has parameters (check_scale).

    Each lead term phi of a basis, in order, gives at most one column of
    W_b: phi(t) on t = 1..s, less its mean, its projection on e_t and its
    projections on the basis' earlier columns, all taken off twice, then
    normalised.  Once leaves an error along them of about eps times |phi(t)|
    over the remainder's norm, twice leaves eps ("twice is enough", Giraud,
    Langou & Rozloznik, Comput. Math. Appl. 50, 2005).  A remainder of norm
    at most s * eps * |phi(t)|, as of a phi that is zero, inside the line or
    inside the basis' earlier terms, gives no column and flags the basis in
    ``rank_deficient``.  Every column is written straight into B, which is
    trimmed only after a rank-deficient basis, and each term is called on an
    abscissa of its own, dropped once it returns.  So the build peaks at B
    plus 2 columns of s: the abscissa and phi's value, or the remainder and
    one temporary of its projection.
    """

    def __init__(self, s: int, bases: Sequence[BasisFunction]):
        if not bases:
            raise InputError("empty basis set")
        check_scale(s, bases)
        B = np.empty((s, 2 + sum(len(basis.regressors) for basis in bases)))
        c = np.arange(s) - (s - 1) / 2.0
        B[:, 0] = 1.0 / np.sqrt(s)
        B[:, 1] = c / np.sqrt(c @ c)
        del c                       # a column of its own in the peak, if kept
        e = B[:, 1]
        spans, rank_deficient = [], []
        end = 2
        for basis in bases:
            start = end
            for phi in basis.regressors:
                # each term gets an abscissa of its own, dropped as phi returns
                w = phi(np.arange(1, s + 1, dtype=float))
                size = np.sqrt(w @ w)
                # the mean as w.mean() computes it, without its call overhead,
                # taken off into a new array: phi may return an array it keeps
                w = w - w.sum() / s
                for again in (True, False):
                    w -= (e @ w) * e
                    if end > start:
                        W = B[:, start:end]
                        w -= W @ (W.T @ w)
                    if again:
                        w -= w.sum() / s
                rest = np.sqrt(w @ w)
                if rest > s * np.finfo(float).eps * size:
                    w /= rest
                    B[:, end] = w
                    end += 1
                del w               # a column more in the next term's peak, if kept
            spans.append(slice(start, end))
            rank_deficient.append(end - start < len(basis.regressors))
        self.B = B if end == B.shape[1] else B[:, :end].copy()
        self.spans = tuple(spans)
        self.rank_deficient = tuple(rank_deficient)


def batch_segment_variances(segments: np.ndarray, bases: Sequence[BasisFunction]):
    """Detrended variance F^2 for a batch of segments (rows, possibly a
    strided view of the profile) under their best basis of Q (Step 3).

    Every basis is fitted to every segment and the least residual sum wins,
    which is the highest R^2, since every candidate fits the same segment;
    ties go to the earliest basis (_best_basis).  Returns (variances, chosen,
    rank_deficient): chosen holds the 0-based winning basis index per
    segment, and rank_deficient flags each basis.
    All segments share the scale's one DesignFit.  A segment whose total sum
    of squares is not finite raises NumericalError: no sum can rank fits to it.
    """
    M, s = segments.shape
    design = DesignFit(s, bases)
    fsq, chosen = np.empty(M), np.empty(M, dtype=np.intp)
    # two rows at least: a one-row block turns both products into
    # matrix-vector passes over all of B
    rows = max(2, BLOCK_VALUES // s)
    # the sums of a group of whole blocks, about BLOCK_VALUES / 4 segments,
    # are scored at once: block by block, the scoring's calls would cost more
    # than its work.  Each block's residuals R are dropped as _kernel returns
    group = rows * max(1, BLOCK_VALUES // (4 * rows))
    for g in range(0, M, group):
        Y = segments[g:g + group]
        # an overflowing sum is refused below: the error is its one report
        with np.errstate(over="ignore", invalid="ignore"):
            sums = [_kernel(Y[i:i + rows], design)[:3] for i in range(0, len(Y), rows)]
        ss_res, ss_tot, floor = (np.concatenate(part, axis=-1) for part in zip(*sums))
        if not np.isfinite(ss_tot).all():
            raise NumericalError(f"segment sum of squares overflows at scale s={s}; "
                                 "rescale the input")
        best = _best_basis(ss_res, ss_tot, floor)
        chosen[g:g + group] = best
        fsq[g:g + group] = ss_res[best, np.arange(best.size)]
    fsq /= s
    return fsq, chosen, design.rank_deficient
