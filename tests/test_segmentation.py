import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from hypothesis import given
from hypothesis import strategies as st

from mffdfa import InputError, default_scale_grid, layout


def test_overlapping_example():
    win = layout(300, 100, 2)
    assert win.starts.tolist() == [0, 50, 100, 150, 200]
    assert win.count == 5


def test_classical_example():
    win = layout(300, 100, 1)
    assert win.starts.tolist() == [0, 100, 200]
    assert win.count == 3


def test_single_full_span_window():
    win = layout(100, 100, 4)
    assert win.starts.tolist() == [0]
    assert win.count == 1


def test_layout_rejects_scale_beyond_series():
    with pytest.raises(InputError):
        layout(50, 100, 2)


def test_layout_rejects_k_above_s():
    with pytest.raises(InputError, match="lower k"):
        layout(500, 10, 11)


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
    win = layout(N, s, k)
    stride = s // k
    assert np.all(np.diff(win.starts) == stride)
    assert win.starts[0] == 0
    assert win.starts[-1] + s <= N
    assert win.count == (N - s) // stride + 1


@given(layout_args)
def test_increasing_k_never_reduces_coverage(args):
    N, s, k = args
    if k + 1 <= s:
        assert layout(N, s, k + 1).count >= layout(N, s, k).count


@given(st.integers(1, 200).flatmap(
    lambda N: st.tuples(st.just(N), st.integers(1, N))))
def test_k1_reduces_to_classical_division(args):
    N, s = args
    win = layout(N, s, 1)
    assert win.count == N // s
    assert win.starts.tolist() == [v * s for v in range(N // s)]


@pytest.mark.parametrize("N, s, k", [
    (300, 100, 2), (300, 100, 1), (1000, 30, 2), (1001, 30, 3), (97, 10, 10),
    (50, 7, 7), (64, 64, 1), (64, 64, 4), (12345, 1234, 2),
])
def test_strided_window_view_has_the_layout_starts(N, s, k):
    # fluctuation_function takes the segments of a scale as this view
    y = np.arange(N, dtype=float)
    segments = sliding_window_view(y, s)[::s // k]
    win = layout(N, s, k)
    assert segments.shape == (win.count, s)
    np.testing.assert_array_equal(segments[:, 0], win.starts)
    np.testing.assert_array_equal(segments, y[win.starts[:, None] + np.arange(s)])


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
    # 3 requested points can never satisfy the >= 4 scale minimum
    with pytest.raises(InputError):
        default_scale_grid(10_000, 30, 1000, 3)


def test_default_grid_rejects_tiny_s_min():
    with pytest.raises(InputError):
        default_scale_grid(10_000, 3, 1000)


@given(st.integers(100, 50_000), st.integers(4, 50), st.integers(5, 60))
def test_default_grid_sorted_dedup_bounded(N, s_min, n_scales):
    s_max = N // 10
    if s_min >= s_max:
        return
    try:
        grid = default_scale_grid(N, s_min, s_max, n_scales)
    except InputError:
        return  # too few distinct integers in range: allowed outcome
    assert np.all(np.diff(grid) > 0)
    assert grid[0] >= s_min and grid[-1] <= s_max
