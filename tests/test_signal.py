import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mffdfa import InputError
from mffdfa.detrend import BLOCK_VALUES
from mffdfa.signal import build_profile, log_returns

import oracles

finite_series = arrays(
    np.float64, st.integers(2, 200),
    elements=st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
)


def test_profile_small_hand_case():
    prof = build_profile([1.0, 2.0, 3.0])
    assert prof.dtype == np.float64
    np.testing.assert_allclose(prof, [-1.0, -1.0, 0.0], atol=1e-15)


def test_profile_of_constant_series_is_zero():
    prof = build_profile(np.full(50, 3.7))
    np.testing.assert_allclose(prof, 0.0, atol=1e-12)


def test_profile_matches_running_sum_oracle(rng):
    x = rng.uniform(-1, 1, size=1000)
    np.testing.assert_allclose(build_profile(x),
                               oracles.running_sum_profile(x), atol=1e-10)


def test_profile_endpoint_returns_to_zero(rng):
    x = rng.standard_normal(10_000) * 37.0
    y = build_profile(x)
    assert abs(y[-1]) <= 1e-9 * x.size * np.abs(x).max()


def _one_pass_profile(x):
    """The profile as one wide running sum over the whole series."""
    wide = np.asarray(x, dtype=float).astype(np.longdouble)
    wide -= wide.mean()
    return np.cumsum(wide, out=wide).astype(float)


@pytest.mark.parametrize("n", [2, BLOCK_VALUES - 1, BLOCK_VALUES, BLOCK_VALUES + 1,
                               3 * BLOCK_VALUES + 5, 2 ** 20 + 3])
def test_profile_blocks_equal_one_running_sum(n):
    """Bit for bit, signed zeros included, whatever the blocks' boundaries.

    The integer series sums to exactly zero and starts with -0.0, so its
    profile starts with -0.0 too; the other one carries a large offset.
    The mean replays NumPy's pairwise sum of a whole wide copy, five
    levels deep at 2^20 + 3: a NumPy release that splits its sum elsewhere
    fails here instead of moving the profile's last bits.
    """
    rng = np.random.default_rng(n)
    ints = rng.integers(-1000, 1000, n).astype(float)
    ints[0] = -0.0
    ints[-1] = 0.0 - ints[1:-1].sum()        # +0.0 when the middle is empty
    assert np.signbit(_one_pass_profile(ints)[0])
    for x in (ints, 1e6 + rng.standard_normal(n)):
        assert build_profile(x).tobytes() == _one_pass_profile(x).tobytes()


@pytest.mark.parametrize("k", [-1000, -540, 300, 505, 1000])
def test_profile_scales_without_a_copy(k):
    """build_profile(x, exponent=e) is the profile of x 2^-e, bit for bit,
    wherever the scaled copy is exact."""
    x = np.ldexp(np.random.default_rng(k % 7).standard_normal(3 * BLOCK_VALUES + 5), k)
    e = int(np.frexp(np.abs(x).max())[1])
    assert build_profile(x, exponent=e).tobytes() == build_profile(np.ldexp(x, -e)).tobytes()


def test_profile_memory_is_the_profile_and_its_blocks():
    """At 2^20 points the profile peaks at its own 8N bytes plus at most two
    long-double blocks: no whole-series wide copy, for the mean or at an
    exponent."""
    x = 1e6 + np.random.default_rng(1).standard_normal(2 ** 20)
    for exponent in (0, 300):
        tracemalloc.start()
        try:
            build_profile(x, exponent=exponent)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * x.size + 2 * np.dtype(np.longdouble).itemsize * BLOCK_VALUES


def test_profile_length_matches_input(rng):
    x = rng.standard_normal(123)
    assert len(build_profile(x)) == 123


@given(finite_series, st.floats(-1e5, 1e5, allow_nan=False))
def test_profile_shift_invariance(x, c):
    base = build_profile(x)
    shifted = build_profile(x + c)
    scale = max(1.0, np.abs(base).max())
    np.testing.assert_allclose(shifted, base, atol=1e-9 * scale, rtol=1e-9)


@given(finite_series, st.floats(-100, 100, allow_nan=False))
def test_profile_linearity(x, c):
    base = build_profile(x)
    scaled = build_profile(c * x)
    tol = 1e-9 * max(1.0, abs(c) * np.abs(base).max())
    np.testing.assert_allclose(scaled, c * base, atol=tol, rtol=1e-9)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_profile_rejects_nonfinite_naming_index(bad):
    x = np.ones(10)
    x[4] = bad
    with pytest.raises(InputError, match="index 4"):
        build_profile(x)


def test_profile_rejects_too_short():
    with pytest.raises(InputError):
        build_profile([1.0])


def test_profile_rejects_a_two_dimensional_series():
    with pytest.raises(InputError, match=r"must be one-dimensional, got shape \(2, 50\)"):
        build_profile(np.ones((2, 50)))


def test_log_returns_exact_logs():
    np.testing.assert_allclose(log_returns([1.0, np.e, np.e ** 2]), [1.0, 1.0],
                               rtol=1e-15)


def test_log_returns_flat_price():
    np.testing.assert_allclose(log_returns([100.0, 100.0]), [0.0], atol=0)


def test_log_returns_matches_direct_oracle(rng):
    p = rng.uniform(5.0, 500.0, size=300)
    np.testing.assert_allclose(log_returns(p), oracles.log_returns_direct(p),
                               atol=1e-12)


def test_log_returns_output_length(rng):
    p = rng.uniform(1.0, 2.0, size=57)
    assert log_returns(p).size == 56


def test_log_returns_rejects_nonpositive_price():
    with pytest.raises(InputError, match="index 2"):
        log_returns([1.0, 2.0, 0.0, 3.0])


def test_log_returns_rejects_single_price():
    with pytest.raises(InputError):
        log_returns([42.0])
