import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from mffdfa import InputError
from mffdfa.segmentation import N_SCALES_MAX, default_scale_grid, layout


def _starts(N, s, k):
    """Window start offsets, read off the windows of the index series 0..N-1."""
    return layout(np.arange(N, dtype=float), s, k)[:, 0].astype(int)


def test_overlapping_example():
    starts = _starts(300, 100, 2)
    assert starts.tolist() == [0, 50, 100, 150, 200]
    assert starts.size == 5


def test_classical_example():
    starts = _starts(300, 100, 1)
    assert starts.tolist() == [0, 100, 200]
    assert starts.size == 3


def test_single_full_span_window():
    starts = _starts(100, 100, 4)
    assert starts.tolist() == [0]
    assert starts.size == 1


def test_layout_rejects_scale_beyond_series():
    with pytest.raises(InputError):
        layout(np.zeros(50), 100, 2)


def test_layout_rejects_k_above_s():
    with pytest.raises(InputError, match="lower k"):
        layout(np.zeros(500), 10, 11)


layout_args = st.integers(1, 400).flatmap(
    lambda N: st.tuples(
        st.just(N),
        st.integers(1, N),
    ).flatmap(lambda ns: st.tuples(st.just(ns[0]), st.just(ns[1]),
                                   st.integers(1, ns[1])))
)


@given(layout_args)
def test_layout_invariants(args):
    N, s, k = args
    starts = _starts(N, s, k)
    stride = s // k
    assert np.all(np.diff(starts) == stride)
    assert starts[0] == 0
    assert starts[-1] + s <= N
    assert starts.size == (N - s) // stride + 1


@given(layout_args)
def test_increasing_k_never_reduces_coverage(args):
    N, s, k = args
    if k + 1 <= s:
        assert _starts(N, s, k + 1).size >= _starts(N, s, k).size


@given(st.integers(1, 200).flatmap(
    lambda N: st.tuples(st.just(N), st.integers(1, N))))
def test_k1_reduces_to_classical_division(args):
    N, s = args
    starts = _starts(N, s, 1)
    assert starts.size == N // s
    assert starts.tolist() == [v * s for v in range(N // s)]


@pytest.mark.parametrize("N, s, k", [
    (300, 100, 2), (300, 100, 1), (1000, 30, 2), (1001, 30, 3), (97, 10, 10),
    (50, 7, 7), (64, 64, 1), (64, 64, 4), (12345, 1234, 2),
])
def test_strided_window_view_has_the_layout_starts(N, s, k):
    # fluctuation_function takes the segments of a scale as this view
    y = np.random.default_rng(N).standard_normal(N)
    segments = layout(y, s, k)
    starts = np.arange(0, N - s + 1, s // k)
    assert segments.shape == (starts.size, s)
    assert np.shares_memory(segments, y) and not segments.flags.writeable
    np.testing.assert_array_equal(segments, y[starts[:, None] + np.arange(s)])
    assert segments.strides == sliding_window_view(y, s)[::s // k].strides


def _profile_as(form: str, N: int) -> np.ndarray:
    base = np.random.default_rng(N).standard_normal(3 * N)
    if form == "read-only":
        y = base[:N].copy()
        y.flags.writeable = False
        return y
    return {"contiguous": base[:N], "every-third": base[::3],
            "reversed": base[:N][::-1], "float32": base[:N].astype(np.float32)}[form]


@pytest.mark.parametrize("form", ["contiguous", "read-only", "every-third", "reversed", "float32"])
@pytest.mark.parametrize("N, s, k", [(300, 100, 2), (1001, 30, 3), (64, 64, 4), (50, 7, 7),
                                     (10, 1, 1)])
def test_layout_is_the_strided_sliding_window_view(form, N, s, k):
    """Shape, strides, dtype, values and the read-only flag of
    sliding_window_view(y, s)[::s // k], on a contiguous profile and on a
    strided view of one; the profile keeps its own flag."""
    y = _profile_as(form, N)
    writeable = y.flags.writeable
    segments = layout(y, s, k)
    expected = sliding_window_view(y, s)[::s // k]
    assert (segments.shape, segments.strides, segments.dtype) == (
        expected.shape, expected.strides, expected.dtype)
    assert segments.tobytes() == expected.tobytes()
    assert np.shares_memory(segments, y)
    assert not segments.flags.writeable and y.flags.writeable == writeable


def test_default_grid_standard_parameters():
    grid = default_scale_grid(10_000)
    assert grid[0] == 30
    assert grid[-1] == 1000
    assert np.all(np.diff(grid) > 0)


def test_default_grid_exact_log_spacing():
    assert default_scale_grid(20_000, 10, 10_000, 4).tolist() == [10, 100, 1000, 10_000]


def test_default_grid_rejects_empty_range():
    with pytest.raises(InputError):
        default_scale_grid(10_000, 30, 30)


def test_default_grid_rejects_too_few_scales():
    # the grid needs one point; whether its scales suffice is for its users
    for n_scales in (0, -3):
        with pytest.raises(InputError):
            default_scale_grid(10_000, 30, 1000, n_scales)


def test_default_grid_refuses_too_many_scales():
    # before np.geomspace is asked for them: 10^12 floats would be 8 TB
    assert default_scale_grid(10_000, 30, 1000, N_SCALES_MAX).size <= 1000 - 30 + 1
    with pytest.raises(InputError, match="over 10000 scales: n_scales=1000000000000"):
        default_scale_grid(10_000, 30, 1000, 10 ** 12)


@pytest.mark.parametrize("N, s_min, s_max, n_scales", [
    (100, 1, 2, 30), (100, 4, 7, 50), (1000, 29, 31, 1000),
    (10 ** 7, 6_700_000, 6_700_009, 77),
    (10_000, 30, 1000, N_SCALES_MAX), (10 ** 7, 1, 10 ** 7, N_SCALES_MAX),
    (10 ** 7, 6_000_000, 10 ** 7, N_SCALES_MAX)])
def test_default_grid_is_the_sorted_unique_rounding(N, s_min, s_max, n_scales):
    """Rounded geomspace is already non-decreasing with exact ends, so dropping
    neighbouring repeats gives np.unique's grid without a sort."""
    expected = np.unique(np.rint(np.geomspace(s_min, s_max, n_scales)).astype(int))
    grid = default_scale_grid(N, s_min, s_max, n_scales)
    np.testing.assert_array_equal(grid, expected)
    assert grid[0] == s_min and grid[-1] == s_max


@given(st.integers(100, 50_000), st.integers(4, 50), st.integers(5, 60))
def test_default_grid_sorted_dedup_bounded(N, s_min, n_scales):
    s_max = N // 10
    if s_min >= s_max:
        return
    grid = default_scale_grid(N, s_min, s_max, n_scales)
    assert np.all(np.diff(grid) > 0)
    assert grid[0] >= s_min and grid[-1] <= s_max
