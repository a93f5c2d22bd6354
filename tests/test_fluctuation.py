import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mffdfa import (
    AnalysisConfig,
    CascadeSpec,
    InputError,
    NumericalError,
    analyze_series,
    generate_cascade,
)
from mffdfa.detrend import (BLOCK_VALUES, batch_segment_variances, default_basis_set,
                            polynomial_basis)
from mffdfa.fluctuation import default_q_grid, fluctuation_function, logsumexp
from mffdfa.segmentation import default_scale_grid, layout
from mffdfa.signal import build_profile
from mffdfa.spectrum import fit_hurst

import oracles


def _poly(m):
    """MFDFA-m detrending: the one-member basis set {poly_m}."""
    return (polynomial_basis(m),)


def test_default_q_grid_has_exact_nodes():
    q = default_q_grid()
    assert q.size == 101
    assert q[0] == -10.0 and q[-1] == 10.0
    assert 0.0 in q and 2.0 in q


def test_q_grid_rejects_bad_step():
    with pytest.raises(InputError):
        default_q_grid(0, 1, -0.1)


@pytest.mark.parametrize("step", [0.3, 7.0])
def test_q_grid_rejects_step_that_overshoots_q_max(step):
    with pytest.raises(InputError, match="does not divide"):
        default_q_grid(-10, 10, step)


def test_q_grid_caps_node_count():
    assert default_q_grid(0, 9999, 1).size == 10_000
    with pytest.raises(InputError, match="over 10000 nodes"):
        default_q_grid(0, 10_000, 1)


def _variances_vs_oracle(fit_one, segments, m):
    """Batched F^2 per row, and the direct sum over one fit per row."""
    variances, chosen, _ = batch_segment_variances(segments, _poly(m))
    assert np.all(chosen == 0)
    direct = [oracles.segment_variance_direct(seg, fit_one(
        seg, polynomial_basis(m)).fitted) for seg in segments]
    return variances, np.asarray(direct)


def test_segment_variance_perfect_detrend(fit_one):
    t = np.arange(1.0, 9.0)
    segments = np.stack([t, 3 * t * t - t + 5, -2.5 * t + 1])
    variances, direct = _variances_vs_oracle(fit_one, segments, 2)
    assert np.all(variances <= 1e-28 * np.mean(segments ** 2, axis=1))
    assert np.all(direct <= 1e-28 * np.mean(segments ** 2, axis=1))


def test_segment_variance_hand_case(fit_one):
    # the line through (1, 1), (2, -1), (3, 1), (4, -1) is 1 - 0.4 t, which
    # leaves residuals (0.4, -1.2, 1.2, -0.4): F^2 = 3.2 / 4
    variances, direct = _variances_vs_oracle(fit_one, np.array([[1.0, -1.0, 1.0, -1.0]]), 1)
    assert variances[0] == pytest.approx(0.8, rel=1e-12)
    assert direct[0] == pytest.approx(0.8, rel=1e-12)


def test_segment_variance_matches_direct_sum(fit_one, rng):
    segments = rng.standard_normal((5, 64))
    for m in (1, 2, 3):
        variances, direct = _variances_vs_oracle(fit_one, segments, m)
        np.testing.assert_allclose(variances, direct, rtol=1e-12)


def _package_lse(a, axis):
    """The package's logsumexp, given the maxima it is passed in production."""
    return logsumexp(a, axis, a.max(axis=axis))


def _white_profile(n=4000, seed=3):
    return build_profile(np.random.default_rng(seed).standard_normal(n))


def test_constant_variance_surface_is_flat_in_q(monkeypatch):
    # every segment variance equal -> every power mean equals sqrt(v)
    import mffdfa.fluctuation as fl
    v = 0.7303
    monkeypatch.setattr(fl, "batch_segment_variances",
                        lambda segments, bases: (np.full(len(segments), v),
                                                  np.zeros(len(segments), dtype=int), (False,)))
    prof = _white_profile()
    surface = fl.fluctuation_function(prof, default_scale_grid(4000), 2,
                                      _poly(2), default_q_grid())
    np.testing.assert_allclose(surface.values, np.sqrt(v), rtol=1e-12)


def test_q2_k1_equals_plain_dfa(rng):
    x = rng.standard_normal(3000)
    scales = default_scale_grid(3000, 16, 300, 12)
    surface = fluctuation_function(build_profile(x), scales, 1,
                                   _poly(2), np.array([2.0]))
    oracle = oracles.dfa_rms(x, scales, 2)
    np.testing.assert_allclose(surface.values[0], oracle, rtol=1e-12)


def test_k1_fixed_poly_matches_textbook_mfdfa(rng):
    x = rng.standard_normal(2000)
    scales = default_scale_grid(2000, 16, 200, 10)
    q = default_q_grid(-4, 4, 0.5)
    surface = fluctuation_function(build_profile(x), scales, 1,
                                   _poly(1), q)
    oracle = oracles.textbook_mfdfa(x, scales, q, 1)
    np.testing.assert_allclose(surface.values, oracle, rtol=1e-10)


@pytest.mark.parametrize("policy", [_poly(2), tuple(default_basis_set())])
def test_power_mean_monotone_in_q(policy, rng):
    x = rng.standard_normal(4000)
    surface = fluctuation_function(build_profile(x), default_scale_grid(4000),
                                   2, policy, default_q_grid())
    assert int(surface.excluded_counts.sum()) == 0
    diffs = np.diff(surface.values, axis=0)
    assert np.all(diffs >= -1e-12 * surface.values[:-1])


@pytest.mark.parametrize("policy", [_poly(3), tuple(default_basis_set())])
def test_homogeneity_under_input_scaling(policy, rng):
    x = rng.standard_normal(3000)
    scales = default_scale_grid(3000, 20, 300, 8)
    q = default_q_grid(-6, 6, 1.0)
    base = fluctuation_function(build_profile(x), scales, 2, policy, q)
    scaled = fluctuation_function(build_profile(1000.0 * x), scales, 2, policy, q)
    np.testing.assert_allclose(scaled.values, 1000.0 * base.values, rtol=1e-9)


def test_q_continuity_at_zero(rng):
    x = rng.standard_normal(5000)
    q = np.array([-0.01, 0.0, 0.01])
    surface = fluctuation_function(build_profile(x), default_scale_grid(5000),
                                   2, _poly(2), q)
    lo, mid, hi = surface.values
    assert np.all(np.abs(lo / mid - 1.0) < 0.01)
    assert np.all(np.abs(hi / mid - 1.0) < 0.01)
    assert np.all((lo <= mid + 1e-12) & (mid <= hi + 1e-12))


def _zero_variance_profile():
    # profile exactly zero on [0, 600): those segments carry F^2 = 0 exactly
    y = np.zeros(1200)
    y[600:] = np.sin(np.arange(600) * 0.7) * 50.0
    return y


def test_zero_variance_segments_are_counted_and_excluded():
    surface = fluctuation_function(_zero_variance_profile(), np.array([30, 40, 50, 60]),
                                   1, _poly(2), default_q_grid(-2, 2, 1.0))
    assert int(surface.excluded_counts.sum()) > 0
    assert np.all(surface.excluded_counts < surface.segment_counts)
    assert np.all(np.isfinite(surface.values))
    assert np.all(surface.values > 0)


@pytest.mark.parametrize("profile, scales, k, policy, excludes", [
    # s < 404 splits the 100 nonzero q into several blocks
    (_white_profile(10_000), default_scale_grid(10_000), 2, tuple(default_basis_set()), False),
    # exclusions make M differ between q > 0 and q < 0
    (_zero_variance_profile(), np.array([30, 40, 50, 60]), 1, _poly(2), True),
])
def test_aggregation_equals_per_q_loop(monkeypatch, profile, scales, k, policy, excludes):
    import mffdfa.fluctuation as fl
    recorded = []

    def recording(segments, bases):
        fsq, chosen, flags = batch_segment_variances(segments, bases)
        recorded.append(fsq)
        return fsq, chosen, flags

    monkeypatch.setattr(fl, "batch_segment_variances", recording)
    q = default_q_grid()
    surface = fl.fluctuation_function(profile, scales, k, policy, q)
    # the loop reduces with the package's logsumexp, so blocking must not move a bit
    expected = np.column_stack([oracles.power_means_per_q(fsq, q, _package_lse)
                                for fsq in recorded])
    np.testing.assert_array_equal(surface.values, expected)
    # and SciPy's logsumexp agrees to rounding
    scipy_loop = np.column_stack([oracles.power_means_per_q(fsq, q) for fsq in recorded])
    np.testing.assert_allclose(surface.values, scipy_loop, rtol=1e-14)
    assert (int(surface.excluded_counts.sum()) > 0) == excludes


@pytest.mark.parametrize("profile, scales, k, q, excludes", [
    (_white_profile(10_000), default_scale_grid(10_000), 2, default_q_grid(), False),
    # no node at q = 0, and nodes far beyond the default grid's
    (_white_profile(10_000), default_scale_grid(10_000), 2,
     np.array([-60.0, -3.1, -0.7, 0.3, 4.9, 60.0]), False),
    # exclusions: ln F^2 holds only the nonzero variances
    (_zero_variance_profile(), np.array([30, 40, 50, 60]), 1, default_q_grid(-2, 2, 0.5), True),
])
def test_logsumexp_given_the_exact_peak_moves_no_bit(profile, scales, k, q, excludes):
    """A row's peak taken as q/2 times the largest ln F^2 (q > 0) or the
    least (q < 0) is a.max() bit for bit: rounding a product by a fixed
    factor is monotone.  So the surface built from it has the bytes of the
    per-q loop, whose logsumexp takes each row's a.max()."""
    half = q[q != 0.0] / 2.0
    surface = fluctuation_function(profile, scales, k, _poly(2), q)
    excluded = 0
    for j, s in enumerate(scales):
        fsq, _, _ = batch_segment_variances(layout(profile, int(s), k), _poly(2))
        excluded += int(np.count_nonzero(fsq == 0.0))
        log_fsq = np.log(fsq[fsq > 0.0])
        a = half[:, None] * log_fsq
        peak = half * np.where(half > 0.0, log_fsq.max(), log_fsq.min())
        assert peak.tobytes() == a.max(axis=1).tobytes()
        expected = oracles.power_means_per_q(fsq, q, _package_lse)
        assert surface.values[:, j].tobytes() == expected.tobytes()
    assert (excluded > 0) == excludes


def test_logsumexp_matches_scipy_without_overflow(rng):
    from scipy.special import logsumexp as scipy_logsumexp
    a = rng.standard_normal((7, 300)) * np.array([1e-3, 1, 10, 100, 700, 1e4, 1e6])[:, None]
    out = _package_lse(a, 1)
    assert np.all(np.isfinite(out))
    np.testing.assert_allclose(out, scipy_logsumexp(a, axis=1), rtol=1e-14)
    assert out[3] == _package_lse(a[3], 0)


def _traced_peak(run):
    """Peak bytes that tracemalloc sees while run() works."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_aggregation_memory_stays_within_its_blocks(monkeypatch):
    """The q sums hold two temporaries of one block next to a few
    per-segment vectors, at every scale and for the whole q grid.

    At s = 30 the 2^17-point profile has more segments than a quarter of
    BLOCK_VALUES, and a block of BLOCK_VALUES / 3 values holds one row;
    larger scales stack rows.
    """
    import mffdfa.fluctuation as fl
    monkeypatch.setattr(fl, "batch_segment_variances",
                        lambda segments, bases: (np.linspace(0.5, 2.0, len(segments)),
                                                  np.zeros(len(segments), dtype=int), (False,)))
    n, k = 2 ** 17, 2
    profile = _white_profile(n)
    scales = default_scale_grid(n)
    M = len(layout(profile, int(scales[0]), k))
    assert M > BLOCK_VALUES // 4
    peak = _traced_peak(lambda: fl.fluctuation_function(profile, scales, k, _poly(2),
                                                        default_q_grid()))
    # a block's two temporaries, then F^2, the winners, the nonzero mask,
    # ln F^2 and its argument, and a margin for the (q, scale) tables
    assert peak <= 8 * (2 * max(BLOCK_VALUES // 3, M) + 6 * M)


def test_analysis_memory_stays_near_two_profiles():
    """analyze_series on 2^18 points peaks at about 2 x 8N bytes: the profile
    next to the smallest scale's per-segment vectors and block buffers.  No
    wide copy of the series sets it any more; the bound keeps its margin
    for a scale's designs."""
    x = generate_cascade(CascadeSpec(a=0.65, n_max=18))
    peak = _traced_peak(lambda: analyze_series(x, AnalysisConfig()))
    assert peak <= 2.25 * 8 * x.size


def test_out_of_band_analysis_memory_is_in_band_memory():
    """Every series runs at unit peak, scaled inside build_profile block by
    block: the series times 2^300 peaks within one block of the series as
    generated, not at a scaled copy of it."""
    x = generate_cascade(CascadeSpec(a=0.65, n_max=18))
    as_generated = _traced_peak(lambda: analyze_series(x, AnalysisConfig()))
    x = np.ldexp(x, 300)
    scaled = _traced_peak(lambda: analyze_series(x, AnalysisConfig()))
    assert scaled <= as_generated + 8 * BLOCK_VALUES


def test_all_zero_variance_raises_numerical_error():
    y = np.zeros(500)  # every segment excluded, no usable scale left
    surface = fluctuation_function(y, np.array([20, 30, 40, 50]), 2,
                                   _poly(2), default_q_grid(-2, 2, 1.0))
    assert not surface.usable.any()
    with pytest.raises(NumericalError, match="0 usable scales"):
        fit_hurst(surface)


def test_selection_counts_shape_and_total(rng):
    x = rng.standard_normal(2500)
    scales = default_scale_grid(2500, 20, 250, 6)
    surface = fluctuation_function(build_profile(x), scales, 2,
                                   tuple(default_basis_set()), default_q_grid(-2, 2, 1.0))
    assert surface.selection_counts.shape == (scales.size, 3)
    np.testing.assert_array_equal(surface.selection_counts.sum(axis=1),
                                  surface.segment_counts)
    assert surface.basis_names == ("quadratic", "sine", "cubic")


@given(st.integers(0, 2 ** 31), st.sampled_from([1, 2, 3, 4]))
@settings(max_examples=15)
def test_surface_invariants_random_walks(seed, k):
    x = np.random.default_rng(seed).standard_normal(1500)
    scales = default_scale_grid(1500, 16, 150, 8)
    q = default_q_grid(-5, 5, 1.0)
    surface = fluctuation_function(build_profile(x), scales, k,
                                   tuple(default_basis_set()), q)
    finite = surface.values[:, surface.usable]
    assert np.all(np.isfinite(finite)) and np.all(finite > 0)
    assert np.all(surface.segment_counts >= 1)
