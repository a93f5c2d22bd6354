"""Input validation, log-return preprocessing and profile construction.

The analysis never works on the raw signal x(i) directly: everything
downstream sees the profile

    Y(j) = sum_{i<=j} (x_i - <x>),

i.e. the cumulative sum of the mean-subtracted series.  Mean subtraction
makes Y(N) vanish up to rounding, which is a cheap internal consistency
check (and a property the tests assert).
"""

from __future__ import annotations

import numpy as np

from .detrend import BLOCK_VALUES
from .errors import InputError


def as_series(values, name: str = "series") -> np.ndarray:
    """Validate raw input and return it as a float64 array.

    Rejects anything shorter than 2 samples and any non-finite entry,
    naming the first offending index -- silently imputing NaNs would
    change the fractal statistics we are trying to measure.
    """
    x = np.asarray(values, dtype=float)
    if x.ndim != 1:
        raise InputError(f"{name} must be one-dimensional, got shape {x.shape}")
    if x.size < 2:
        raise InputError(f"{name} needs at least 2 samples, got {x.size}")
    bad = np.flatnonzero(~np.isfinite(x))
    if bad.size:
        raise InputError(f"{name} has a non-finite value at index {bad[0]}")
    return x


def build_profile(series, *, exponent: int = 0) -> np.ndarray:
    """Step 1: turn a raw series times 2^-exponent into its profile Y(j), a
    float64 array.

    The mean and the partial sums are accumulated in the widest float the
    platform offers, then cast back to float64, BLOCK_VALUES samples at a
    time: no wide array outgrows a block.  The mean is NumPy's pairwise
    long-double sum of the whole series, replayed block by block
    (_wide_sum), so it equals the mean of a whole wide copy bit for bit.
    The partial sums run into the float64 result, each block starting from
    the last wide sum of the one before.  That is the addition a single
    running sum makes, so the result does not depend on the blocking.
    Each wide block, and the mean's sum, is scaled by 2^-exponent as two
    multiplications by powers of two within float64's range: exact in long
    double's exponent range, so a series of any magnitude can run at unit
    scale without a scaled copy.
    """
    x = as_series(series)
    half = -exponent // 2
    scale = (2.0 ** half, 2.0 ** (-exponent - half))
    mean = _wide_sum(x) * scale[0] * scale[1] / x.size
    profile = np.empty(x.size)
    carry = None                    # not 0.0, which would turn a leading -0.0 into +0.0
    for i in range(0, x.size, BLOCK_VALUES):
        wide = x[i:i + BLOCK_VALUES].astype(np.longdouble)
        wide *= scale[0]
        wide *= scale[1]
        wide -= mean
        if carry is not None:
            wide[0] += carry
        np.cumsum(wide, out=wide)
        profile[i:i + BLOCK_VALUES] = wide
        carry = wide[-1]
        del wide                    # a block more in the next block's peak, if kept
    return profile


def _wide_sum(x: np.ndarray) -> np.longdouble:
    """x.astype(np.longdouble).sum(), bit for bit, one block wide at a time.

    NumPy's pairwise sum of a contiguous run of n > 128 values adds the
    sums of its two parts, split at n // 2 rounded down to a multiple of 8
    (pairwise_sum in numpy/_core/src/umath/loops_utils.h.src).  Splitting
    the same way down to parts of at most BLOCK_VALUES values, and summing
    each part wide, replays that tree.
    """
    if x.size <= BLOCK_VALUES:
        return x.astype(np.longdouble).sum()
    half = x.size // 2 // 8 * 8
    return _wide_sum(x[:half]) + _wide_sum(x[half:])


def log_returns(prices) -> np.ndarray:
    """r(i) = ln p(i+1) - ln p(i); output is one sample shorter.

    Prices must be strictly positive.
    """
    p = as_series(prices, name="prices")
    bad = np.flatnonzero(p <= 0.0)
    if bad.size:
        raise InputError(f"prices must be strictly positive; offender at index {bad[0]}")
    return np.diff(np.log(p))
