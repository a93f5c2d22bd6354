"""Window layout: partly overlapping segments and the scale grid.

A scale s and an overlap factor k define windows of length s advancing by
stride floor(s/k).  k = 1 recovers the classical non-overlapping division;
k = 2 (the default) doubles coverage without re-starting the division from
the series end.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import InputError


def check_overlap(s: int, k: int) -> None:
    """Refuse an overlap factor k outside [1, s], which leaves no stride floor(s/k)."""
    if k < 1:
        raise InputError(f"overlap factor k={k} must be at least 1")
    if k > s:
        raise InputError(f"scale s={s} is shorter than the overlap factor k={k}; "
                         "raise s_min or lower k")


def layout(profile: np.ndarray, s: int, k: int) -> np.ndarray:
    """The M_{s_k} windows of length s over the profile, as an (M, s) view.

    Stride is floor(s/k); windows run forward from offset 0 and any tail
    shorter than one stride is discarded, so M = floor((N - s)/stride) + 1.
    The rows are a read-only view, sliding_window_view(profile, s)[::stride]
    built in one call: nothing is copied.
    """
    N = len(profile)
    if s > N:
        raise InputError(f"scale s={s} exceeds series length N={N}")
    check_overlap(s, k)
    step, item = s // k, profile.strides[0]    # bytes from one sample to the next
    return as_strided(profile, ((N - s) // step + 1, s), (step * item, item), writeable=False)


#: the most scales a grid may ask for, as Q_NODES_MAX caps the q grid
N_SCALES_MAX = 10_000


def check_grid(s_min: int, s_max: int | None, n_scales: int, N: int | None = None) -> None:
    """Refuse a grid of no scales or over N_SCALES_MAX; an s_max or N of None is not known yet."""
    if n_scales > N_SCALES_MAX:
        raise InputError(f"scale grid over {N_SCALES_MAX} scales: n_scales={n_scales}")
    if not (n_scales >= 1 and 1 <= s_min and (s_max is None or s_min < s_max)
            and (N is None or s_max <= N)):
        raise InputError(f"need n_scales >= 1 and 1 <= s_min < s_max <= N, got "
                         f"n_scales={n_scales} s_min={s_min} s_max={s_max} N={N}")


def default_scale_grid(N: int, s_min: int = 30, s_max: int | None = None,
                       n_scales: int = 30) -> np.ndarray:
    """Approximately log-uniform integer scales in [s_min, s_max].

    s_max defaults to floor(N/10); rounding deduplicates the small end.  Only
    building the grid is checked here: DesignFit and analyze_series judge it.
    """
    if s_max is None:
        s_max = N // 10
    check_grid(s_min, s_max, n_scales, N)
    # sort and drop repeats; np.unique would load numpy.ma on first use
    grid = np.sort(np.rint(np.geomspace(s_min, s_max, n_scales)).astype(int))
    return grid[np.concatenate(([True], grid[1:] != grid[:-1]))]
