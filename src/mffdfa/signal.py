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


def build_profile(series) -> np.ndarray:
    """Step 1: turn a raw series into its profile Y(j), a float64 array.

    The mean and the partial sums are accumulated in the widest float
    the platform offers (one deterministic pre-pass, no streaming), then
    cast back to float64.
    """
    x = as_series(series)
    wide = x.astype(np.longdouble)
    wide -= wide.mean()
    return np.cumsum(wide, out=wide).astype(float)


def log_returns(prices) -> np.ndarray:
    """r(i) = ln p(i+1) - ln p(i); output is one sample shorter.

    Prices must be strictly positive.
    """
    p = as_series(prices, name="prices")
    bad = np.flatnonzero(p <= 0.0)
    if bad.size:
        raise InputError(f"prices must be strictly positive; offender at index {bad[0]}")
    return np.diff(np.log(p))
