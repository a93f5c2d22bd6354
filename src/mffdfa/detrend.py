"""Per-segment trend estimation.

One detrending policy: every candidate of a small basis set Q is fitted to
each segment and the winner is picked by coefficient of determination.
Classical MFDFA-m is the one-member set Q = {polynomial of order m}.

Every candidate model is linear in its parameters: its lead terms phi_j
plus the line b t + c, which ``BasisFunction`` adds to every design itself.
So one least-squares kernel serves every candidate at once:

* One ``DesignFit`` per (s, abscissa) serves every segment of the scale.
  It keeps W_b, an orthonormal basis of the part of each basis' span
  orthogonal to {1, t}: one column per candidate of Q, m - 1 for a
  polynomial of order m.  A basis with one lead term phi (each candidate
  of the default Q, and order 2) gets its column in closed form: phi less
  its projections on the constant and the line, taken off twice, then
  normalised.  A remainder of norm at most s * eps |phi| gives no column
  and flags the basis rank-deficient.  A basis with more lead terms takes
  the SVD of its column-scaled design -- never raw normal equations, since
  a raw t^10 column at s ~ 10^4 spans ~40 orders of magnitude.  B holds
  each direction once, side by side: B = [1/sqrt(s), e_t, W_1, W_2, ...],
  the constant, the line, every W_b.
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
* Noise floor: |y_t| <= |y_mid| + |Z|, with |Z|^2 = ss_tot + C_1^2, bounds
  a segment's floor from sums already at hand.  Only segments whose ss_tot
  does not clear that bound -- the numerically constant ones -- take the
  exact floor from their row's extremes, so R^2 is what the row rule gives.
* A batch goes through in blocks of about BLOCK_VALUES values and at least
  two rows, so Z, R's one temporary and the products stay in cache.  The
  sums of about BLOCK_VALUES / 4 segments at a time are scored and reduced
  to the winners' F^2 before the next ones are taken: the only arrays of
  the batch's length are F^2 and the winning index, and the segments can
  be a strided view.

Fitted values are invariant to the column scaling, so results don't depend
on that internal convention.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import InputError, NumericalError

#: ties in R^2 below this are broken by position in Q (first wins)
TIE_EPS = 1e-12

#: relative scatter below this counts as numerically constant; a residual at
#: the same level counts as a perfect fit of such a segment
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

#: the within-segment abscissa conventions: t = 1..s, or t/s
ABSCISSAS = ("raw", "normalized")

#: the largest fixed detrending order, for one analysis and for an m sweep
M_MAX = 10


def _noise_floor(Y: np.ndarray) -> np.ndarray:
    """Per row of Y, the sum-of-squares level indistinguishable from rounding
    on a constant segment of that row's magnitude."""
    peak = np.maximum(Y.max(axis=1), -Y.min(axis=1))
    return Y.shape[1] * (R2_ZERO_TOL * peak) ** 2


def _r_squared(ss_tot: np.ndarray, floor: np.ndarray, ss_res: np.ndarray) -> np.ndarray:
    """R^2 of fits to M segments from their sums of squares and noise floors.

    ss_res has shape (M,) or (n_bases, M).  A numerically constant segment
    carries no variance to explain: a fit scores 1 when its residual sits
    at rounding level too and 0 otherwise.  The cutoff is relative, so
    selection is invariant under rescaling the segment.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(
            ss_tot > floor,
            1.0 - ss_res / ss_tot,
            np.where(ss_res <= floor, 1.0, 0.0),
        )


def _best_basis(r2: np.ndarray) -> np.ndarray:
    """Index along axis 0 of the highest R^2; ties within TIE_EPS go to the earliest."""
    return np.argmax(r2 >= r2.max(axis=0) - TIE_EPS, axis=0)


def _remove_span(R: np.ndarray, W: np.ndarray) -> None:
    """Subtract from the rows of R, in place, their projection on the
    orthonormal columns of W.

    The products run on a contiguous copy of W: BLAS takes another routine,
    and rounds differently, for a column strided by B's width, and the copy
    keeps the residual the same whichever B the design sits in.
    """
    W = np.ascontiguousarray(W)
    R -= (R @ W) @ W.T


def _kernel(Y: np.ndarray, design: DesignFit):
    """The detrending kernel, for the rows of Y (shape (M, s)) and every basis
    of the scale's design.

    Returns (ss_res, ss_tot, floor, R): residual sums of squares with shape
    (number of bases, M), total sums of squares about the row means, noise
    floors and the linear residuals R (M, s).  A floor is the row's own
    (_noise_floor) where ss_tot does not clear it by a margin, and elsewhere
    an upper bound on it, which puts the row in the same branch of
    _r_squared.
    """
    B = design.B
    s = Y.shape[1]
    mid = Y[:, s // 2]
    R = Y.copy()                    # Z, until the rank-2 update makes it R
    R -= mid[:, None]
    C = R @ B
    R -= C[:, :2] @ B[:, :2].T
    rr = np.einsum("ij,ij->i", R, R)
    ss_res = np.empty((len(design.spans), Y.shape[0]))
    for b, cols in enumerate(design.spans):
        Cb = C[:, cols]
        ss_res[b] = rr - np.einsum("ij,ij->i", Cb, Cb)
        low = np.flatnonzero(ss_res[b] < RESIDUAL_GUARD * rr)
        if low.size:
            resid = R[low]
            _remove_span(resid, B[:, cols])
            ss_res[b, low] = np.einsum("ij,ij->i", resid, resid)
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

    ``regressors`` lists only the lead terms phi_j; the line b t + c is part
    of every model, since the detrending kernel centres each segment and
    removes its line before it looks at the rest of the span.
    """

    name: str
    regressors: tuple[Callable[[np.ndarray], np.ndarray], ...]

    @property
    def parameter_count(self) -> int:
        return len(self.regressors) + 2

    def design(self, s: int, abscissa: str = "raw") -> np.ndarray:
        """Design matrix (s, parameter_count): columns phi_1 ... phi_p, t, 1.

        The abscissa is the within-segment index t = 1..s; "normalized"
        rescales it to t/s in (0, 1].  The distinction only matters for
        non-polynomial regressors such as sin(x^2) -- polynomial spans are
        unchanged by the rescaling.
        """
        t = _abscissa(s, abscissa)
        return np.column_stack([phi(t) for phi in self.regressors] + [t, np.ones(s)])


def _abscissa(s: int, abscissa: str) -> np.ndarray:
    """The within-segment abscissa t = 1..s, or t/s under "normalized"."""
    if abscissa not in ABSCISSAS:
        raise InputError(f"abscissa must be one of {ABSCISSAS}, got {abscissa!r}")
    t = np.arange(1, s + 1, dtype=float)
    if abscissa == "normalized":
        t /= s
    return t


def default_basis_set() -> list[BasisFunction]:
    """The flexible basis set Q = {ax^2+bx+c, a sin(x^2)+bx+c, ax^3+bx+c}."""
    return [
        BasisFunction("quadratic", (lambda t: t * t,)),
        BasisFunction("sine", (lambda t: np.sin(t * t),)),
        BasisFunction("cubic", (lambda t: t ** 3,)),
    ]


def check_order(m: int) -> None:
    """Refuse a fixed detrending order outside [1, M_MAX]."""
    if not 1 <= m <= M_MAX:
        raise InputError(f"detrending order m={m} outside [1, {M_MAX}]")


def polynomial_basis(m: int) -> BasisFunction:
    """Full polynomial of order m: lead terms t^m, ..., t^2 (none for m = 1)."""
    check_order(m)
    return BasisFunction(f"poly{m}", tuple((lambda t, j=j: t ** j) for j in range(m, 1, -1)))


def _one_term_direction(phi: Callable[[np.ndarray], np.ndarray], t: np.ndarray,
                        e: np.ndarray) -> np.ndarray:
    """The unit direction of phi(t) orthogonal to the constant and to the
    centred unit line e, as an (s, 1) column, in closed form.

    The two projections are taken off in turn, the constant's as the mean,
    and the pair twice: once leaves an error along them of about eps times
    |phi(t)| over the remainder's norm, twice leaves eps ("twice is
    enough", Giraud, Langou & Rozloznik, Comput. Math. Appl. 50, 2005).  A
    remainder of norm at most s * eps * |phi(t)|, as of a phi that is zero,
    gives no column: (s, 0).
    """
    s = len(t)
    w = phi(t)
    size = np.sqrt(w @ w)
    # the mean as w.mean() computes it, without its call overhead
    w = w - w.sum() / s             # a new array: phi(t) may be t itself
    w -= (e @ w) * e
    w -= w.sum() / s
    w -= (e @ w) * e
    rest = np.sqrt(w @ w)
    if rest <= s * np.finfo(float).eps * size:
        return np.empty((s, 0))
    w /= rest
    return w[:, None]


def _svd_directions(basis: BasisFunction, s: int, abscissa: str,
                    frame: np.ndarray) -> np.ndarray:
    """An orthonormal basis of the part of the basis' span orthogonal to the
    frame, from two SVDs.

    The design's columns are scaled to unit norm, its rank is decided by
    the usual max(shape) * eps * sigma_max cutoff and its numerical range
    is kept.
    """
    A = basis.design(s, abscissa)
    norms = np.sqrt(np.einsum("ij,ij->j", A, A))
    norms[norms == 0.0] = 1.0
    A /= norms
    U, sv, _ = np.linalg.svd(A, full_matrices=False)
    rank = int(np.count_nonzero(sv > max(A.shape) * np.finfo(float).eps * sv[0]))
    del A                           # only U is needed from here on
    U = U[:, :rank]
    # t and 1 are columns of A, so span(U) holds them: past the first two,
    # the left singular vectors of U^T [1, t] point away from both
    V, _, _ = np.linalg.svd(U.T @ frame)
    return U @ V[:, 2:]


class DesignFit:
    """The least-squares directions of one scale (s, abscissa), for every basis.

    B = [1/sqrt(s), e_t, W_1, W_2, ...] holds the constant, the centred line
    e_t, then each basis' W: an orthonormal basis (s, rank - 2) of the part
    of its span orthogonal to both.  ``spans[b]`` is the slice of B's
    columns that holds W_b.  All segments of the scale share B, and every
    segment must be longer than each basis has parameters: an exact fit
    leaves rounding noise as F^2.

    A basis with one lead term phi gets its one direction in closed form
    (_one_term_direction); a basis with none adds nothing.  A basis with
    two or more lead terms takes the SVD of its column-scaled design
    (_svd_directions).  Every direction is written straight into B, which
    is trimmed only when a basis is rank-deficient: it gives fewer
    directions than it has lead terms, and is flagged in
    ``rank_deficient``.  For one lead term that means a remainder of norm
    at most s * eps |phi|, as of a phi that is zero or inside the line.
    """

    def __init__(self, s: int, bases: Sequence[BasisFunction], abscissa: str):
        x = _abscissa(s, abscissa)
        B = np.empty((s, 2 + sum(len(basis.regressors) for basis in bases)))
        t = np.arange(s) - (s - 1) / 2.0
        B[:, 0] = 1.0 / np.sqrt(s)
        B[:, 1] = t / np.sqrt(t @ t)
        del t                       # a column of its own in the peak, if kept
        spans, rank_deficient = [], []
        end = 2
        for basis in bases:
            if s <= basis.parameter_count:
                raise InputError(f"segment length {s} not above the {basis.parameter_count} "
                                 f"parameters of basis {basis.name!r}; raise s_min")
            if len(basis.regressors) == 1:
                W = _one_term_direction(basis.regressors[0], x, B[:, 1])
            elif basis.regressors:
                W = _svd_directions(basis, s, abscissa, B[:, :2])
            else:
                W = B[:, :0]
            B[:, end:end + W.shape[1]] = W
            spans.append(slice(end, end + W.shape[1]))
            rank_deficient.append(W.shape[1] < len(basis.regressors))
            end += W.shape[1]
            del W                   # a column more in the next basis' peak, if kept
        self.B = B if end == B.shape[1] else B[:, :end].copy()
        self.spans = tuple(spans)
        self.rank_deficient = tuple(rank_deficient)


@dataclass(frozen=True)
class DetrendPolicy:
    """Per-segment winner-takes-all over the basis set Q, by R^2 (Step 3).

    Every basis of Q is fitted to every segment and the highest R^2 wins;
    ties within TIE_EPS go to the earliest basis, which keeps runs
    deterministic.  Classical MFDFA-m is the one-member set
    ``(polynomial_basis(m),)``, whose only basis wins every segment.
    """

    bases: tuple[BasisFunction, ...] = field(default_factory=lambda: tuple(default_basis_set()))
    abscissa: str = "raw"

    def __post_init__(self):
        if not self.bases:
            raise InputError("empty basis set")


def batch_segment_variances(segments: np.ndarray, policy: DetrendPolicy):
    """Detrended variance F^2 for a batch of segments (rows, possibly a
    strided view of the profile).

    Returns (variances, chosen, rank_deficient): chosen holds the 0-based
    winning basis index per segment, and rank_deficient flags each of the
    policy's bases.  All segments share the scale's one DesignFit, so its
    directions are built once per scale.  A segment whose total sum of
    squares is not finite raises NumericalError: no R^2 can rank fits to it.
    """
    M, s = segments.shape
    design = DesignFit(s, policy.bases, policy.abscissa)
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
        best = _best_basis(_r_squared(ss_tot, floor, ss_res))
        chosen[g:g + group] = best
        fsq[g:g + group] = ss_res[best, np.arange(best.size)]
    fsq /= s
    return fsq, chosen, design.rank_deficient
