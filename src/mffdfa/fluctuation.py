"""Per-segment variances and the q-order fluctuation function.

For each scale s the profile is cut into M partly overlapping segments,
each segment is detrended by its best basis of Q, and the detrended variances

    F^2(nu, s) = (1/s) sum_t (Y_t - trend_t)^2

are aggregated into the generalized fluctuation function

    F_q(s) = { (1/M) sum_nu [F^2]^{q/2} }^{1/q},       q != 0
    F_0(s) = exp{ (1/(2M)) sum_nu ln F^2 }.

The q = 0 branch is the q -> 0 limit of the power mean (the bare average
of ln F^2 is a log-scale quantity, not a fluctuation magnitude, hence the
1/2 in the exponent).  Segments with exactly zero variance would blow up
the q <= 0 moments, so they are dropped there with M reduced accordingly,
while for q > 0 they simply contribute nothing; exclusions are counted
per scale.  Note the guard is a compromise the aggregation formulas don't
know about: with exclusions present the q -> 0+ limit no longer matches
F_0, so power-mean monotonicity in q is only guaranteed exclusion-free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .detrend import BLOCK_VALUES, BasisFunction, batch_segment_variances
from .errors import InputError
from .segmentation import layout


#: the most q nodes a grid may hold
Q_NODES_MAX = 10_000


def logsumexp(a: np.ndarray, axis: int, peak: np.ndarray) -> np.ndarray:
    """log(sum(exp(a))) along axis, shifted by peak, a.max(axis) bit for bit,
    so exp cannot overflow: the caller knows the maxima without a pass over a."""
    # the peak with the summed axis kept as length 1; np.expand_dims costs 5 times more
    shifted = a - peak.reshape(a.shape[:axis] + (1,) + a.shape[axis:][1:])
    return np.log(np.exp(shifted, out=shifted).sum(axis=axis)) + peak


def default_q_grid(q_min: float = -10.0, q_max: float = 10.0,
                   step: float = 0.2) -> np.ndarray:
    """Uniform q grid, endpoints inclusive, with exact 0.0 when it lands there.

    The q = 0 node must compare equal to literal zero so the logarithmic
    branch is taken, hence the snap.  The step must divide q_max - q_min
    (to 1e-9 relative): otherwise the last node would miss q_max.
    """
    if not (0 < step < math.inf and -math.inf < q_min < q_max < math.inf):
        raise InputError(f"need finite q_min < q_max and a finite step > 0, "
                         f"got q_min={q_min} q_max={q_max} step={step}")
    steps = (q_max - q_min) / step
    if not steps < Q_NODES_MAX - 0.5:  # round(steps) + 1 nodes; refuses inf before round()
        raise InputError(f"q grid over {Q_NODES_MAX} nodes: (q_max - q_min) / step = {steps:.6g}")
    if abs(steps - round(steps)) > 1e-9 * steps:
        raise InputError(f"q step {step} does not divide q_max - q_min = {q_max - q_min}")
    n = int(round(steps)) + 1
    q = np.round(q_min + step * np.arange(n), 12)
    q[np.abs(q) < 1e-12] = 0.0
    return q


@dataclass(frozen=True)
class FluctuationSurface:
    """F_q(s) over the (q, scale) grid plus per-scale bookkeeping."""

    q_grid: np.ndarray
    scales: np.ndarray
    values: np.ndarray                    # shape (n_q, n_scales); NaN where unusable
    segment_counts: np.ndarray            # M_{s_k} per scale
    excluded_counts: np.ndarray           # zero-variance segments per scale
    usable: np.ndarray                    # per-scale: any positive variance at all
    selection_counts: np.ndarray          # (n_scales, |Q|): segments each basis won
    basis_names: tuple[str, ...]          # Q's bases, in order
    rank_deficient: np.ndarray            # (n_scales, |Q|): design rank below its parameters


def fluctuation_function(profile, scales, k: int, bases: tuple[BasisFunction, ...],
                         q_grid) -> FluctuationSurface:
    """Steps 2-4: segment, detrend, and aggregate over the scale grid.

    The segments of a scale are ``layout``'s strided view of the profile,
    which detrending reads a block of rows at a time; of a scale's arrays
    only F^2 and the winning basis have one entry per segment.
    At each scale the nonzero q are aggregated a block of rows at a time,
    one logsumexp over the (rows, M) matrix of q/2 * ln F^2 per block.  A
    block holds about BLOCK_VALUES / 3 values and at least one row, so its
    two temporaries stay in cache next to detrending's blocks, whatever the
    length of the q grid and the number of segments.  A row's peak is q/2
    times the largest ln F^2 for q > 0, the least for q < 0: rounding is
    monotone, so that is a.max() bit for bit, without a pass over the row.
    Each row is reduced on its own, in ascending segment order, so F_q(s)
    does not depend on how the rows are blocked.
    """
    y = np.asarray(profile, dtype=float)
    scales = np.asarray(scales, dtype=int)
    q = np.asarray(q_grid, dtype=float)

    q_nz = np.flatnonzero(q != 0.0)
    q_lse = q[q_nz]
    half, positive, lse = q_lse / 2.0, q_lse > 0.0, np.empty(q_nz.size)
    names = tuple(b.name for b in bases)
    n_bases = len(names)
    values = np.full((q.size, scales.size), np.nan)
    seg_counts = np.zeros(scales.size, dtype=int)
    excl_counts = np.zeros(scales.size, dtype=int)
    usable = np.zeros(scales.size, dtype=bool)
    rank_deficient = np.zeros((scales.size, n_bases), dtype=bool)
    sel_counts = np.zeros((scales.size, n_bases), dtype=int)

    for j, s in enumerate(scales):
        segments = layout(y, int(s), k)
        fsq, chosen, rank_deficient[j] = batch_segment_variances(segments, bases)
        seg_counts[j] = len(segments)
        sel_counts[j] = np.bincount(chosen, minlength=n_bases)

        nonzero = fsq > 0.0
        m_nz = int(np.count_nonzero(nonzero))
        excl_counts[j] = seg_counts[j] - m_nz
        if m_nz == 0:
            continue                      # unusable scale, stays NaN
        usable[j] = True
        log_fsq = np.log(fsq[nonzero])
        values[q == 0.0, j] = np.exp(log_fsq.mean() / 2.0)
        log_m = np.where(positive, np.log(seg_counts[j]), np.log(m_nz))
        peak = half * np.where(positive, log_fsq.max(), log_fsq.min())
        rows = max(1, BLOCK_VALUES // (3 * m_nz))
        for b in range(0, q_nz.size, rows):
            lse[b:b + rows] = logsumexp(half[b:b + rows, None] * log_fsq, 1, peak[b:b + rows])
        values[q_nz, j] = np.exp((lse - log_m) / q_lse)

    return FluctuationSurface(
        q_grid=q, scales=scales, values=values,
        segment_counts=seg_counts, excluded_counts=excl_counts,
        usable=usable, selection_counts=sel_counts, basis_names=names,
        rank_deficient=rank_deficient,
    )
