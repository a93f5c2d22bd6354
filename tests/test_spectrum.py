import dataclasses
import warnings

import numpy as np
import pytest

from mffdfa import (
    AnalysisConfig,
    InputError,
    NumericalError,
    analyze_series,
    cascade_oracle,
    CascadeSpec,
    generate_cascade,
)
from mffdfa.fluctuation import FluctuationSurface, default_q_grid
from mffdfa.spectrum import GeneralizedHurst, fit_hurst, legendre_transform

import oracles


def _surface(scales, values, q):
    scales = np.asarray(scales)
    return FluctuationSurface(
        q_grid=np.asarray(q, dtype=float),
        scales=scales,
        values=np.asarray(values),
        segment_counts=np.full(scales.size, 10),
        excluded_counts=np.zeros(scales.size, dtype=int),
        usable=np.ones(scales.size, dtype=bool),
        selection_counts=np.full((scales.size, 1), 10),
        basis_names=("poly2",),
        rank_deficient=np.zeros((scales.size, 1), dtype=bool),
    )


def test_exact_power_law_recovers_slope():
    scales = np.array([30, 60, 120, 240, 480])
    q = default_q_grid(-3, 3, 1.0)
    values = np.tile(4.0 * scales ** 0.7, (q.size, 1))
    hurst = fit_hurst(_surface(scales, values, q))
    np.testing.assert_allclose(hurst.h, 0.7, rtol=1e-12)
    np.testing.assert_allclose(hurst.intercepts, np.log(4.0), rtol=1e-10)
    np.testing.assert_allclose(hurst.fit_r2, 1.0, atol=1e-12)


def test_fit_hurst_respects_s_range():
    scales = np.array([10, 20, 40, 80, 160, 320, 640, 1280])
    q = np.array([2.0])
    vals = scales ** 0.5
    vals = np.where(scales > 100, vals * (scales / 100.0) ** 0.2, vals)[None, :]
    full = fit_hurst(_surface(scales, vals, q)).h[0]
    lo = fit_hurst(_surface(scales, vals, q), s_range=(10, 100)).h[0]
    assert lo == pytest.approx(0.5, abs=1e-12)
    assert full > lo


@pytest.mark.parametrize("s_range", [None, (20, 700)])
def test_fit_hurst_matches_polyfit_per_q(rng, s_range):
    scales = np.array([10, 20, 40, 80, 160, 320, 640, 1280])
    q = default_q_grid(-4, 4, 0.5)
    values = np.exp(rng.normal(size=(q.size, scales.size))) * scales ** 0.6
    values[q == 1.0] = 1.0            # constant row: slope 0, R^2 = 1
    values[:, 3] = np.nan             # an unusable scale is left out
    surface = dataclasses.replace(_surface(scales, values, q), usable=np.isfinite(values[0]))
    hurst = fit_hurst(surface, s_range=s_range)

    keep = surface.usable.copy()
    if s_range is not None:
        keep &= (scales >= s_range[0]) & (scales <= s_range[1])
    ls = np.log(scales[keep].astype(float))
    for i in range(q.size):
        lf = np.log(values[i, keep])
        slope, intercept = np.polyfit(ls, lf, 1)
        resid = lf - (slope * ls + intercept)
        ss_tot = np.sum((lf - lf.mean()) ** 2)
        r2 = 1.0 - resid @ resid / ss_tot if ss_tot > 0 else 1.0
        assert hurst.h[i] == pytest.approx(slope, abs=1e-12)
        assert hurst.intercepts[i] == pytest.approx(intercept, abs=1e-12)
        assert hurst.fit_r2[i] == pytest.approx(r2, abs=1e-12)
    i1 = int(np.flatnonzero(q == 1.0)[0])
    assert hurst.h[i1] == 0.0 and hurst.fit_r2[i1] == 1.0


def test_fit_hurst_needs_four_scales():
    scales = np.array([10, 20, 40])
    q = np.array([2.0])
    with pytest.raises(NumericalError, match="at least 4"):
        fit_hurst(_surface(scales, scales[None, :] ** 0.5, q))


def test_monofractal_legendre_collapses():
    q = default_q_grid(-5, 5, 0.5)
    hurst = GeneralizedHurst(q_grid=q, h=np.full(q.size, 0.62),
                             intercepts=np.zeros(q.size), fit_r2=np.ones(q.size))
    spec = legendre_transform(hurst)
    np.testing.assert_allclose(spec.alpha, 0.62, atol=1e-12)
    np.testing.assert_allclose(spec.f_alpha, 1.0, atol=1e-12)
    assert spec.delta_alpha == pytest.approx(0.0, abs=1e-12)


def test_legendre_on_analytic_cascade_h():
    # feed the oracle's h(q) through the numerical transform: alpha at q=0
    # must hit the analytic value -(ln a + ln(1-a))/(2 ln 2)
    q = default_q_grid()
    oracle = cascade_oracle(0.65)
    hurst = GeneralizedHurst(q_grid=q, h=oracle.h(q),
                             intercepts=np.zeros(q.size), fit_r2=np.ones(q.size))
    spec = legendre_transform(hurst)
    alpha0 = -(np.log(0.65) + np.log(0.35)) / (2 * np.log(2))
    assert spec.alpha_at_q0 == pytest.approx(alpha0, abs=2e-4)
    assert spec.f_alpha[q == 0.0][0] == pytest.approx(1.0, abs=1e-12)
    # the finite grid saturates near the limit width 0.893; the one-sided
    # endpoint differences can overshoot it by O(step * h'' * q) ~ 1e-4
    width_limit = (np.log(0.65) - np.log(0.35)) / np.log(2)
    assert spec.delta_alpha < width_limit + 1e-3
    assert spec.delta_alpha > width_limit - 0.12


def test_alpha_monotone_on_cascade_fixture():
    q = default_q_grid()
    oracle = cascade_oracle(0.8)
    hurst = GeneralizedHurst(q_grid=q, h=oracle.h(q),
                             intercepts=np.zeros(q.size), fit_r2=np.ones(q.size))
    spec = legendre_transform(hurst)
    # non-increasing up to central-difference wiggle in the saturated tails
    assert np.all(np.diff(spec.alpha) <= 1e-5)


def test_legendre_needs_three_points():
    hurst = GeneralizedHurst(q_grid=np.array([0.0, 1.0]), h=np.array([0.5, 0.5]),
                             intercepts=np.zeros(2), fit_r2=np.ones(2))
    with pytest.raises(InputError, match="q grid of 2 nodes"):
        legendre_transform(hurst)


@pytest.mark.parametrize("q", [[-1.0, 0.0, 0.0, 1.0], [1.0, 0.0, -1.0]],
                         ids=["repeated", "descending"])
def test_legendre_refuses_a_grid_that_does_not_increase(q):
    """A repeated node would divide by zero in h'(q), with inf or NaN alpha."""
    q = np.asarray(q)
    hurst = GeneralizedHurst(q_grid=q, h=0.5 - 0.1 * q, intercepts=np.zeros(q.size),
                             fit_r2=np.ones(q.size))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match="q grid must be strictly increasing"):
            legendre_transform(hurst)


def test_width_monotone_in_cascade_parameter():
    q = default_q_grid()
    widths = []
    for a in (0.55, 0.65, 0.8):
        oracle = cascade_oracle(a)
        widths.append(oracle.alpha(np.array([-30.0]))[0] - oracle.alpha(np.array([30.0]))[0])
    assert widths[0] < widths[1] < widths[2]


def test_input_scale_invariance_end_to_end():
    x = generate_cascade(CascadeSpec(a=0.65, n_max=13))
    cfg = AnalysisConfig(method="mffdfa", q_min=-5, q_max=5, q_step=0.5)
    doc_a = analyze_series(x, cfg)
    doc_b = analyze_series(1000.0 * x, cfg)
    np.testing.assert_allclose(doc_b.hurst.h, doc_a.hurst.h, atol=1e-9)
    np.testing.assert_allclose(doc_b.spectrum.alpha, doc_a.spectrum.alpha, atol=1e-9)
    np.testing.assert_allclose(doc_b.spectrum.f_alpha, doc_a.spectrum.f_alpha, atol=1e-9)
    assert doc_b.spectrum.delta_alpha == pytest.approx(doc_a.spectrum.delta_alpha, abs=1e-9)
    # only the regression intercept may move, by exactly ln 1000
    np.testing.assert_allclose(doc_b.hurst.intercepts - doc_a.hurst.intercepts,
                               np.log(1000.0), atol=1e-9)


def test_f_alpha_peaks_at_one_at_q0():
    x = generate_cascade(CascadeSpec(a=0.65, n_max=13))
    doc = analyze_series(x, AnalysisConfig())
    q = doc.spectrum.q_grid
    assert doc.spectrum.f_alpha[q == 0.0][0] == pytest.approx(1.0, abs=1e-9)
    assert np.all(doc.spectrum.f_alpha <= 1.0 + 1e-9)


def test_oracle_h_matches_mpmath_reference():
    q = default_q_grid(-8, 8, 0.4)
    oracle = cascade_oracle(0.7)
    tau_ref, alpha_ref, f_ref, h_ref = oracles.cascade_oracle_mpmath(0.7, q)
    np.testing.assert_allclose(oracle.tau(q), tau_ref, atol=1e-12)
    np.testing.assert_allclose(oracle.alpha(q), alpha_ref, atol=1e-12)
    np.testing.assert_allclose(oracle.f_alpha(q), f_ref, atol=1e-12)
    np.testing.assert_allclose(oracle.h(q), h_ref, atol=1e-12)
