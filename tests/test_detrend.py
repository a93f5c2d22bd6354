import json
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mffdfa import (
    AnalysisConfig,
    InputError,
    NumericalError,
    analyze_series,
    generate_cascade,
    generate_fgn,
    CascadeSpec,
    FbmSpec,
)
from mffdfa.detrend import (
    ABSCISSAS,
    BLOCK_VALUES,
    M_MAX,
    R2_ZERO_TOL,
    RESIDUAL_GUARD,
    TIE_EPS,
    BasisFunction,
    DesignFit,
    _best_basis,
    _kernel,
    _noise_floor,
    batch_segment_variances,
    default_basis_set,
    polynomial_basis,
)
from mffdfa.fluctuation import default_q_grid, fluctuation_function
from mffdfa.segmentation import default_scale_grid, layout
from mffdfa.signal import build_profile

import oracles

segments = arrays(
    np.float64, st.integers(12, 120),
    elements=st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
)


def _t(n):
    return np.arange(1, n + 1, dtype=float)


def test_exact_quadratic_recovers_coefficients(fit_one):
    t = _t(60)
    y = 3 * t * t + 2 * t + 1
    fit = fit_one(y, default_basis_set()[0])
    np.testing.assert_allclose(fit.fitted, y, rtol=1e-10)
    assert fit.ss_res <= 1e-16 * np.sum(y ** 2)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_intercept_absorbs_constant_segment(fit_one):
    for basis in default_basis_set():
        fit = fit_one(np.full(40, 5.5), basis)
        np.testing.assert_allclose(fit.fitted, 5.5, atol=1e-10)
        assert fit.ss_res <= 1e-18


def test_cubic_matches_normal_equations_oracle(fit_one, rng):
    y = rng.standard_normal(50)
    basis = default_basis_set()[2]
    fit = fit_one(y, basis)
    oracle = oracles.normal_equations_fitted(oracles.design(basis, 50).T, y)
    assert np.linalg.norm(fit.fitted - oracle) <= 1e-8 * np.linalg.norm(oracle)


def test_rank_deficient_design_is_flagged(fit_one):
    dup = BasisFunction("dup", (lambda t: 2 * t,))
    fit = fit_one(np.arange(20.0), dup)
    assert fit.rank_deficient
    np.testing.assert_allclose(fit.fitted, np.arange(20.0), atol=1e-9)


def test_lead_terms_inside_the_line_add_no_direction(fit_one, rng):
    # a rank-deficient design whose span is exactly {1, t}
    dup = BasisFunction("dup", (lambda t: 2 * t,))
    design = DesignFit(20, [dup])
    assert design.rank_deficient == (True,) and design.B.shape == (20, 2)
    # a basis that lists t and 1 among its lead terms fits as the one that
    # does not, and is flagged
    listed = BasisFunction("listed", (lambda t: t * t, lambda t: t, np.ones_like))
    y = rng.standard_normal(30)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit_listed = fit_one(y, listed)
        assert DesignFit(30, [listed]).B.shape == (30, 3)
    fit_lead = fit_one(y, default_basis_set()[0])
    assert fit_listed.rank_deficient and not fit_lead.rank_deficient
    np.testing.assert_allclose(fit_listed.fitted, fit_lead.fitted, atol=1e-9)


def test_fit_rejects_short_segment(fit_one):
    with pytest.raises(InputError):
        fit_one(np.ones(2), default_basis_set()[0])
    # s == parameter_count fits exactly: no variance about the trend is left
    for basis in (default_basis_set()[0], polynomial_basis(1), polynomial_basis(10)):
        with pytest.raises(InputError, match="not above"):
            fit_one(np.arange(basis.parameter_count) ** 1.5, basis)


def _select(fit_one, segment):
    """The batched selection over the default Q on a one-row batch:
    (chosen index, that basis' fit)."""
    _, (chosen,), _ = batch_segment_variances(np.asarray(segment)[None, :],
                                              tuple(default_basis_set()))
    return int(chosen), fit_one(segment, default_basis_set()[chosen])


def test_r2_perfect_fit_is_one(fit_one, rng):
    c0, c1, c2 = rng.standard_normal(3)
    t = _t(30)
    y = c2 * t * t + c1 * t + c0
    fit = fit_one(y, default_basis_set()[0])
    assert fit.r_squared == 1.0
    assert fit.r_squared == pytest.approx(oracles.r_squared_direct(y, fit.fitted), abs=1e-12)


def test_r2_of_mean_prediction_is_zero(fit_one, rng):
    # scatter with nothing left in the quadratic's span but a level: the
    # fit predicts the mean
    basis = default_basis_set()[0]
    z = rng.standard_normal(25)
    y = z - fit_one(z, basis).fitted + 1.5
    fit = fit_one(y, basis)
    np.testing.assert_allclose(fit.fitted, y.mean(), rtol=1e-12)
    assert fit.r_squared == pytest.approx(0.0, abs=1e-12)
    assert fit.r_squared == pytest.approx(oracles.r_squared_direct(y, fit.fitted), abs=1e-12)


def test_r2_matches_direct_formula(fit_one, rng):
    y = rng.standard_normal(40)
    fit = fit_one(y, default_basis_set()[0])
    expected = oracles.r_squared_direct(y, fit.fitted)
    assert fit.r_squared == pytest.approx(expected, abs=1e-12)


def test_select_cubic_member_of_q(fit_one):
    t = _t(80)
    idx, fit = _select(fit_one, 5 * t ** 3 - t + 2)
    assert idx == 2
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_select_tie_break_on_constant_segment(fit_one):
    idx, fit = _select(fit_one, np.full(30, 2.25))
    assert idx == 0
    assert fit.ss_res <= 1e-18


def test_selection_fractions_on_cascade_profile():
    # the printed averages (25%, 45%, 30%) come with no stated k, grid or
    # abscissa; normalized abscissa over [30, 1000] reproduces them loosely,
    # while the raw convention almost never picks the sine (see README)
    prof = build_profile(generate_cascade(CascadeSpec(a=0.55, n_max=17)))
    scales = default_scale_grid(len(prof), 30, 1000)
    surface = fluctuation_function(
        prof, scales, 2, default_basis_set("normalized"), default_q_grid()
    )
    frac = surface.selection_counts.sum(axis=0) / surface.segment_counts.sum()
    np.testing.assert_allclose(frac, [0.25, 0.45, 0.30], atol=0.15)


@pytest.mark.parametrize("offset", [1.0, 1e8])
def test_bounded_floor_selects_as_the_row_floor(offset):
    """Rows whose scatter sits at 0.5-2 times their noise floor.

    The kernel takes each row's floor from an upper bound unless ss_tot
    fails to clear it; the exact row floor must still decide every row
    near it.  The peak sits at the row's end, away from the middle sample
    the bound is built on.
    """
    s, M = 122, 200
    rng = np.random.default_rng(3)
    g = rng.standard_normal((M, s))
    g[:, -1] = 1.5 * np.abs(g).max(axis=1)
    g -= g.mean(axis=1, keepdims=True)
    ratio = rng.uniform(0.5, 2.0, M)
    floor = s * (R2_ZERO_TOL * offset) ** 2
    Y = offset + g * np.sqrt(ratio * floor / np.einsum("ij,ij->i", g, g))[:, None]
    assert np.all(np.argmax(np.abs(Y), axis=1) == s - 1)

    bases = tuple(default_basis_set())
    ss_res, ss_tot, _, _ = _kernel(Y, DesignFit(s, bases))
    row_floor = _noise_floor(Y)
    above = ss_tot > row_floor
    assert 0.2 < above.mean() < 0.8
    expected = oracles.best_basis_by_r_squared(ss_res, ss_tot, row_floor, TIE_EPS)
    # rows above their floor pick by R^2, rows below tie and take basis 0
    assert np.any(expected[above] != 0) and np.all(expected[~above] == 0)
    _, chosen, _ = batch_segment_variances(Y, bases)
    np.testing.assert_array_equal(chosen, expected)


def test_blocks_select_as_the_whole_batch():
    """Scoring group by group against the kernel's sums gathered over the
    whole batch, then scored and picked at once.

    The batch spans several groups of blocks and holds rows that take the
    explicit residual, exact and near-constant rows, under a basis set with
    a rank-deficient member.  The reference reads the same row blocks: BLAS
    may round a row differently in a product with more rows.
    """
    s = 40
    rows = max(2, BLOCK_VALUES // s)
    rng = np.random.default_rng(8)
    walks = np.cumsum(rng.standard_normal((BLOCK_VALUES // 2, s)), axis=1)
    x = np.arange(1, s + 1) / s
    n_cubic = BLOCK_VALUES // 4
    cubics = (rng.uniform(1.0, 2.0, (n_cubic, 1)) * x ** 3
              + 1e-9 * rng.standard_normal((n_cubic, s)))
    level = rng.uniform(-1e3, 1e3, (40, 1))
    flat = np.vstack([np.repeat(level, s, axis=1),
                      level * (1.0 + 1e-13 * rng.standard_normal((40, s)))])
    Y = np.vstack([walks, cubics, flat])
    Y = Y[rng.permutation(len(Y))]
    bases = tuple(default_basis_set()) + (BasisFunction("line-again", (lambda t: 2.0 * t,)),)

    design = DesignFit(s, bases)
    sums = [_kernel(Y[i:i + rows], design)[:3] for i in range(0, len(Y), rows)]
    ss_res, ss_tot, floor = (np.concatenate(part, axis=-1) for part in zip(*sums))
    # the last basis adds no direction, so its ss_res is the linear residual
    # the guard compares with; the cubic rows fall below that share
    cubic, line = 2, 3
    assert np.count_nonzero(ss_res[cubic] < RESIDUAL_GUARD * ss_res[line]) >= n_cubic
    assert np.count_nonzero(ss_tot <= floor) >= 40
    expected = oracles.best_basis_by_r_squared(ss_res, ss_tot, floor, TIE_EPS)

    fsq, chosen, rank_deficient = batch_segment_variances(Y, bases)
    assert rank_deficient == (False, False, False, True)
    np.testing.assert_array_equal(chosen, expected)
    assert fsq.tobytes() == (ss_res[expected, np.arange(len(Y))] / s).tobytes()


def test_ties_within_tie_eps_go_to_the_earliest_basis():
    """Sums at the tie boundary, on rows of different ss_tot.

    A runner-up 0.5 TIE_EPS * ss_tot above the least ties with it and the
    earlier basis wins; one 2 TIE_EPS * ss_tot above loses to the least.  On
    a row under its floor every fit ties, and basis 0 wins over a smaller sum.
    """
    ss_tot = np.array([3.0, 1e6, 1e-30])
    floor = np.array([1e-20, 1e-14, 1e-28])
    least, gap = 0.25 * ss_tot, np.array([0.5, 2.0, 0.0]) * TIE_EPS * ss_tot
    ss_res = np.stack([least + gap, least, 0.5 * ss_tot])
    ss_res[:, 2] = [5e-31, 1e-31, 0.0]
    assert np.all(ss_tot[:2] > floor[:2]) and ss_tot[2] <= floor[2]
    np.testing.assert_array_equal(_best_basis(ss_res, ss_tot, floor), [0, 1, 0])
    np.testing.assert_array_equal(
        oracles.best_basis_by_r_squared(ss_res, ss_tot, floor, TIE_EPS), [0, 1, 0])


def test_overflowing_line_is_refused_not_ranked():
    """Only the line's term overflows: F^2 would stay finite, but with
    ss_tot = inf every R^2 reads 1 and the first basis would win."""
    t = np.arange(1.0, 101.0)
    segment = (6.93e151 * t + 2.6e144 * t ** 3)[None, :]
    with pytest.raises(NumericalError, match="at scale s=100"):
        batch_segment_variances(segment, tuple(default_basis_set()))
    _, chosen, _ = batch_segment_variances(segment * 2.0 ** -8, tuple(default_basis_set()))
    assert chosen.tolist() == [2]  # the cubic, as the segment is built


def test_huge_series_keep_their_selection(fgn_bank):
    """A series whose segment sums of squares would overflow, scaled by a
    factor that is not a power of two, selects as the unscaled series does."""
    x = fgn_bank(0.7, 10_000, 0)
    ref = analyze_series(x, AnalysisConfig())
    for c in (2.0 ** 500, 1e154):
        doc = analyze_series(x * c, AnalysisConfig())
        np.testing.assert_array_equal(doc.surface.selection_counts, ref.surface.selection_counts)
        np.testing.assert_allclose(doc.hurst.h, ref.hurst.h, rtol=0, atol=1e-12)


@pytest.mark.parametrize("hurst", [0.5, 0.7])
def test_same_answer_at_every_magnitude(fgn_bank, hurst):
    """x 2^k analyses as x does, for peaks from about 2^-1000 to 2^1000: every
    series runs at a peak in [1/2, 1), so the JSON is x's byte for byte but
    for the intercepts, which move by k ln 2, and F_q(s) is x's times 2^k
    exactly."""
    x = fgn_bank(hurst, 10_000, 0)
    ref = analyze_series(x, AnalysisConfig())
    expected = ref.to_dict()
    ref_intercepts = np.array(expected["hurst"].pop("intercepts"))
    for k in (-1000, -540, -64, -3, -1, 1, 3, 64, 300, 505, 1000):
        doc = analyze_series(np.ldexp(x, k), AnalysisConfig())
        got = doc.to_dict()
        np.testing.assert_allclose(got["hurst"].pop("intercepts"),
                                   ref_intercepts + k * np.log(2.0),
                                   rtol=0, atol=1e-12, err_msg=f"k={k}")
        assert json.dumps(got) == json.dumps(expected), k
        np.testing.assert_array_equal(doc.surface.values, np.ldexp(ref.surface.values, k),
                                      err_msg=f"k={k}")


def test_designs_hold_each_direction_once():
    """A scale's B holds the linear frame, then each basis' directions in
    Q's order, equal to the ones a design of that basis alone holds."""
    s = 50
    bases = default_basis_set()
    design = DesignFit(s, bases)
    assert design.B.shape == (s, 5) and design.B.flags.c_contiguous
    assert design.spans == (slice(2, 3), slice(3, 4), slice(4, 5))
    assert design.rank_deficient == (False, False, False)
    for basis, cols in zip(bases, design.spans):
        alone = DesignFit(s, [basis])
        np.testing.assert_array_equal(design.B[:, :2], alone.B[:, :2])
        np.testing.assert_array_equal(design.B[:, cols], alone.B[:, alone.spans[0]])


def test_design_memory_is_its_five_columns():
    """Building one scale's design under the default Q, on either abscissa,
    peaks at 7 columns of s values: B, filled in place, next to two more,
    the abscissa and a lead term's value, or the term's remainder and a
    temporary of its projection.  The design keeps B alone.  An abscissa
    shared by the terms, one divided by s into a new array, a sine that
    squares into an array of its own, the centred abscissa kept alive or
    one basis' W held apart from B would each add one column."""
    s = 2 ** 17
    for abscissa in ABSCISSAS:
        bases = default_basis_set(abscissa)
        tracemalloc.start()
        try:
            design = DesignFit(s, bases)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 7.5 * 8 * s, abscissa
        assert design.B.shape == (s, 5) and design.B.base is None
        assert [name for name, value in vars(design).items()
                if isinstance(value, np.ndarray)] == ["B"]


def test_long_rows_peak_at_the_design_and_two_rows():
    """A scale whose two-row block holds more than BLOCK_VALUES values peaks
    at B's 5 columns, the block's two rows of R and a little: the rank-2
    update's product runs in column chunks of a block, not over whole rows."""
    s = 2 ** 16 + 3
    assert 2 * s > BLOCK_VALUES
    segments = np.random.default_rng(3).standard_normal((4, s)).cumsum(axis=1)
    tracemalloc.start()
    try:
        batch_segment_variances(segments, default_basis_set())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 7.6 * 8 * s


def test_guarded_rows_peak_below_a_column_chunked_bound():
    """Rows whose quadratic fit trips the residual guard, at a scale whose
    two-row block outgrows BLOCK_VALUES, peak at B's 5 columns, the block's
    two rows of R, the guard's copies of those rows and of W, and a chunk:
    the guard takes its projection off in column chunks of a block, not as
    one product over whole rows (12 columns)."""
    s = 2 ** 16 + 3
    t = np.arange(1.0, s + 1.0)
    segments = 1e-3 * t * t + np.random.default_rng(3).standard_normal((4, s))
    design = DesignFit(s, default_basis_set())
    ss_res, _, _, R = _kernel(segments[:2], design)
    assert (ss_res[0] < RESIDUAL_GUARD * np.einsum("ij,ij->i", R, R)).all()
    del design, R
    tracemalloc.start()
    try:
        batch_segment_variances(segments, default_basis_set())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10.6 * 8 * s


def _written_on(abscissa, bases):
    """The bases with every lead term taken on x = t/s under "normalized", as
    a custom basis written for t/s divides t by t[-1] itself."""
    if abscissa == "raw":
        return list(bases)
    return [BasisFunction(b.name, tuple((lambda t, phi=phi: phi(t / t[-1]))
                                        for phi in b.regressors))
            for b in bases]


#: basis sets by name, each on an abscissa: the default Q, every fixed order
#: and a custom basis of two lead terms
BASIS_SETS = {
    "Q": default_basis_set,
    **{f"poly{m}": (lambda abscissa, m=m: _written_on(abscissa, [polynomial_basis(m)]))
       for m in range(1, M_MAX + 1)},
    "two-term": lambda abscissa: _written_on(abscissa, [
        BasisFunction("two-term", (lambda t: np.sin(t * t), lambda t: t ** 3))]),
}

#: the basis sets whose every basis has at most one lead term
ONE_TERM_SETS = {name: BASIS_SETS[name] for name in ("Q", "poly1", "poly2")}


def _principal_gap(Q1, Q2):
    """The 2-norm of the difference of the projectors on the spans of two
    orthonormal (s, k) matrices, the sine of their largest principal angle,
    without forming either projector."""
    return np.linalg.norm(Q2 - Q1 @ (Q1.T @ Q2), 2)


def _assert_spans_the_svd_reference(s, bases):
    """Each basis' [frame, W_b] spans what the two-SVD construction spans
    and is orthonormal, with the reference's spans and rank_deficient.  The
    W of different bases need not be orthogonal to one another."""
    design = DesignFit(s, bases)
    B, spans, rank_deficient = oracles.design_svd(s, bases)
    assert design.spans == spans and design.rank_deficient == rank_deficient
    for cols in spans:
        ours = np.hstack([design.B[:, :2], design.B[:, cols]])
        ref = np.hstack([B[:, :2], B[:, cols]])
        assert _principal_gap(ref, ours) <= 1e-12
        assert np.abs(ours.T @ ours - np.eye(ours.shape[1])).max() <= 1e-14


@pytest.mark.parametrize("abscissa", ABSCISSAS)
@pytest.mark.parametrize("s", [5, 30, 1000, 2 ** 17])
@pytest.mark.parametrize("name", ONE_TERM_SETS)
def test_one_term_directions_match_the_svd_reference(name, s, abscissa):
    _assert_spans_the_svd_reference(s, ONE_TERM_SETS[name](abscissa))


@pytest.mark.parametrize("name", BASIS_SETS)
def test_one_term_bases_take_no_svd(monkeypatch, name):
    """No basis, whatever its number of lead terms, runs an SVD."""
    def no_svd(*args, **kwargs):
        raise AssertionError("an SVD ran for a design")
    monkeypatch.setattr(np.linalg, "svd", no_svd)
    for abscissa in ABSCISSAS:
        bases = BASIS_SETS[name](abscissa)
        design = DesignFit(1000, bases)
        assert design.B.shape == (1000, 2 + sum(len(b.regressors) for b in bases))


@pytest.mark.parametrize("m", range(3, M_MAX + 1))
def test_many_term_bases_keep_the_svd_directions(m):
    """A basis with two or more lead terms spans, next to the frame, what
    the two SVDs of its column-scaled monomial design span."""
    for abscissa in ABSCISSAS:
        for s in (m + 2, 200, 2 ** 16 + 3):
            _assert_spans_the_svd_reference(s, _written_on(abscissa, [polynomial_basis(m)]))


@pytest.mark.parametrize("abscissa", ABSCISSAS)
def test_polynomial_directions_nest(abscissa):
    """poly m's B is the first m + 1 columns of poly10's, to the bit: each
    order adds one direction and leaves the lower ones as they were."""
    for s in (12, 30, 1000, 2 ** 16 + 3):
        top = DesignFit(s, _written_on(abscissa, [polynomial_basis(M_MAX)])).B
        for m in range(1, M_MAX):
            B = DesignFit(s, _written_on(abscissa, [polynomial_basis(m)])).B
            assert B.tobytes() == np.ascontiguousarray(top[:, :m + 1]).tobytes()


@pytest.mark.parametrize("abscissa", ABSCISSAS)
@pytest.mark.parametrize("s", [6, 12, 30, 1000])
def test_polynomial_lead_terms_are_chebyshev(s, abscissa):
    """poly10's lead terms are T_2 ... T_10 of the abscissa mapped onto
    [-1, 1], and finite: at each of these s, "normalized" maps an endpoint
    a rounding past +-1, where arccos gives NaN."""
    t = oracles.design(polynomial_basis(1), s, abscissa)[:, 0]
    u = np.linspace(-1.0, 1.0, s)
    for j, phi in enumerate(polynomial_basis(M_MAX).regressors, start=2):
        lead = phi(t)
        assert np.isfinite(lead).all()
        np.testing.assert_allclose(lead, np.polynomial.chebyshev.Chebyshev.basis(j)(u),
                                   rtol=0, atol=1e-13)


@pytest.mark.parametrize("lead", [np.zeros_like, lambda t: 2 * t, lambda t: 3 * t + 1],
                         ids=["zero", "2t", "3t+1"])
@pytest.mark.parametrize("abscissa", ABSCISSAS)
def test_lead_term_inside_the_line_is_flagged_without_a_warning(fit_one, rng, lead, abscissa):
    (basis,) = _written_on(abscissa, [BasisFunction("in-line", (lead,))])
    y = rng.standard_normal(40)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        design = DesignFit(40, [basis])
        fit = fit_one(y, basis)
    assert design.rank_deficient == (True,) and design.spans == (slice(2, 2),)
    np.testing.assert_array_equal(design.B, DesignFit(40, [polynomial_basis(1)]).B)
    assert fit.rank_deficient
    line = fit_one(y, polynomial_basis(1))
    np.testing.assert_allclose(fit.fitted, line.fitted, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("name", ONE_TERM_SETS)
def test_design_refuses_an_unknown_abscissa(name):
    """Q refuses to be written on an unknown abscissa, and a request refuses
    one under every method, a fixed order's included."""
    message = re.escape("abscissa must be one of ('raw', 'normalized'), got 'bogus'")
    if name == "Q":
        with pytest.raises(InputError, match=message):
            default_basis_set("bogus")
        config = {}
    else:
        config = {"method": "mfdfa", "m": int(name.removeprefix("poly"))}
    with pytest.raises(InputError, match=message):
        AnalysisConfig(abscissa="bogus", **config)


@pytest.mark.parametrize("method, m", [("mfdfa", 1), ("mfdfa", 3), ("mfdfa_overlap", 10)])
def test_fixed_order_output_does_not_depend_on_the_abscissa(fgn_bank, method, m):
    """Polynomial lead terms always see t = 1..s: a fixed-order run writes
    the same JSON under either abscissa, apart from the echoed setting."""
    x = fgn_bank(0.7, 10_000, 0)
    docs = {a: analyze_series(x, AnalysisConfig(method=method, m=m, abscissa=a)).to_dict()
            for a in ABSCISSAS}
    for abscissa, doc in docs.items():
        assert doc["config"].pop("abscissa") == abscissa
    assert json.dumps(docs["raw"]) == json.dumps(docs["normalized"])


def test_default_basis_set_shape():
    q_set = default_basis_set()
    assert len(q_set) == 3
    assert [b.parameter_count for b in q_set] == [3, 3, 3]


def test_basis_regressor_values_at_two():
    q_set = default_basis_set()
    # the design's row at t = 2
    assert oracles.design(q_set[0], 2)[1].tolist() == [4.0, 2.0, 1.0]
    vals = oracles.design(q_set[1], 2)[1].tolist()
    assert vals == [pytest.approx(np.sin(4.0)), 2.0, 1.0]


def test_polynomial_basis_linear():
    basis = polynomial_basis(1)
    # the design's row at t = 3
    assert oracles.design(basis, 3)[2].tolist() == [3.0, 1.0]
    assert basis.parameter_count == 2


def test_polynomial_basis_m2_spans_quadratic(fit_one, rng):
    y = rng.standard_normal(45)
    fit_a = fit_one(y, polynomial_basis(2))
    fit_b = fit_one(y, default_basis_set()[0])
    np.testing.assert_allclose(fit_a.fitted, fit_b.fitted, atol=1e-9)


def test_polynomial_basis_m10_against_exact_oracle(fit_one, rng):
    y = rng.standard_normal(30)
    basis = polynomial_basis(10)
    fit = fit_one(y, basis)
    oracle = oracles.normal_equations_fitted(oracles.design(basis, 30).T, y, dps=60)
    assert np.linalg.norm(fit.fitted - oracle) <= 1e-6 * np.linalg.norm(oracle)


def test_polynomial_basis_rejects_m0():
    with pytest.raises(InputError):
        polynomial_basis(0)
    with pytest.raises(InputError, match=f"m={M_MAX + 1} outside"):
        polynomial_basis(M_MAX + 1)


@given(segments)
def test_projection_idempotence(fit_one, y):
    fit = fit_one(y, default_basis_set()[2])
    refit = fit_one(fit.fitted, default_basis_set()[2])
    assert refit.ss_res <= 1e-12 * max(np.sum(fit.fitted ** 2), 1e-30)


@given(segments, st.floats(-50, 50), st.floats(-50, 50), st.floats(-50, 50))
def test_span_invariance(fit_one, y, c2, c1, c0):
    t = _t(y.size)
    basis = default_basis_set()[0]
    base = fit_one(y, basis).ss_res
    shifted = fit_one(y + c2 * t * t + c1 * t + c0, basis).ss_res
    assert shifted == pytest.approx(base, rel=1e-9, abs=1e-6 * max(base, 1.0))


@given(segments, st.floats(0.01, 1e3))
@settings(max_examples=60)
def test_selection_scale_invariance(fit_one, y, c):
    idx_a, fit_a = _select(fit_one, y)
    idx_b, fit_b = _select(fit_one, c * y)
    assert idx_a == idx_b
    assert fit_a.r_squared == pytest.approx(fit_b.r_squared, abs=1e-10)


@st.composite
def segment_batches(draw):
    """Rows of one length: random, constant, near-constant and scaled by 1e3."""
    s = draw(st.integers(12, 80))
    row = arrays(np.float64, s, elements=st.floats(-1e3, 1e3, allow_nan=False,
                                                    allow_infinity=False))
    rows = draw(st.lists(row, min_size=1, max_size=6))
    level = draw(st.floats(-1e3, 1e3).filter(lambda v: abs(v) > 1e-3))
    jitter = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))).standard_normal(s)
    rows += [np.full(s, level), level * (1.0 + 1e-13 * jitter), 1e3 * rows[0]]
    return np.stack(rows)


@given(segment_batches())
@settings(max_examples=60)
def test_row_alone_agrees_with_row_in_batch(batch):
    bases = tuple(default_basis_set())
    variances, chosen, _ = batch_segment_variances(batch, bases)
    for row, var, best in zip(batch, variances, chosen):
        alone, (idx,), _ = batch_segment_variances(row[None, :], bases)
        assert idx == best
        # a variance at rounding level (constant rows) comes out of the
        # one-row and the many-row product rounded differently, by up to
        # about 1e-29 * peak^2
        rounding = 1e-27 * np.abs(row).max() ** 2
        assert alone[0] == pytest.approx(var, rel=1e-12, abs=rounding)


def test_column_scaling_equivalence(fit_one, rng):
    """Pre-scaling a design column must not move the fitted values."""
    y = rng.standard_normal(70)
    plain = BasisFunction("plain", (lambda t: t ** 3,))
    scaled = BasisFunction("scaled", (lambda t: 1e-6 * t ** 3,))
    fit_a = fit_one(y, plain)
    fit_b = fit_one(y, scaled)
    np.testing.assert_allclose(fit_a.fitted, fit_b.fitted, rtol=1e-9, atol=1e-9)


def test_empty_basis_set_is_rejected():
    with pytest.raises(InputError, match="empty basis set"):
        batch_segment_variances(np.ones((1, 10)), ())


def _single_bases():
    """Every default basis on its own, and two fixed orders, as one-member sets."""
    return [(b,) for b in default_basis_set() + [polynomial_basis(m) for m in (1, 3)]]


def _batched_ss_res(segments, bases):
    variances, _, _ = batch_segment_variances(segments, bases)
    return variances * segments.shape[1]


def test_ss_res_matches_extended_precision():
    """Batched ss_res per basis against a twice-orthogonalised longdouble fit.

    Profile segments carry a large offset and a large linear trend next to a
    small residual, which is where an uncentred projection loses digits.
    Small scales take 150 copied windows at random starts; the two large
    scales take 8 rows of ``layout``'s strided view, which the kernel reads
    in blocks of two rows.
    """
    cascade = build_profile(generate_cascade(CascadeSpec(a=0.65, n_max=20)))
    white = generate_fgn(FbmSpec(hurst=0.5, length=200_000, seed=0))
    cases = []
    rng = np.random.default_rng(6)
    for name, profile in (("cascade", cascade), ("fgn", build_profile(white[:10_000]))):
        for s in (30, 122, 2042):
            starts = rng.integers(0, profile.size - s + 1, 150)
            cases.append((f"{name} s={s}", profile[starts[:, None] + np.arange(s)]))
    for name, profile in (("cascade", cascade), ("fgn", build_profile(white))):
        for s in (40_000, 2 ** 15 + 7):
            windows = layout(profile, s, 2)
            segs = windows[::windows.shape[0] // 8][:8]
            assert segs.shape == (8, s) and np.shares_memory(segs, profile)
            cases.append((f"{name} s={s} view", segs))
    for label, segs in cases:
        s = segs.shape[1]
        for bases in _single_bases():
            (basis,) = bases
            ref = oracles.ss_res_extended(segs, oracles.design(basis, s)).astype(float)
            np.testing.assert_allclose(_batched_ss_res(segs, bases), ref, rtol=1e-11,
                                       err_msg=f"{label} {basis.name}")


def test_near_exact_cubic_matches_extended_precision(rng):
    """a t^3 + b t + c plus 1e-10 scatter, at about 2000 times the scatter.

    The cubic fits leave far less than RESIDUAL_GUARD of the linear
    residual, so they take the explicit residual; |R|^2 - |C_b|^2 alone is
    off by about 1e-8 here.
    """
    s = 122
    x = np.arange(1, s + 1) / s
    a = rng.uniform(2e-6, 4e-6, 40) * rng.choice([-1.0, 1.0], 40)
    lines = rng.uniform(-1e-6, 1e-6, (40, 2)) @ np.stack([x, np.ones(s)])
    segs = a[:, None] * x ** 3 + lines + 1e-10 * rng.standard_normal((40, s))
    linear = oracles.ss_res_extended(segs, oracles.design(polynomial_basis(1), s)).astype(float)
    for bases in _single_bases():
        (basis,) = bases
        ref = oracles.ss_res_extended(segs, oracles.design(basis, s)).astype(float)
        if basis.name in ("cubic", "poly3"):
            assert np.all(ref < RESIDUAL_GUARD * linear)
        np.testing.assert_allclose(_batched_ss_res(segs, bases), ref, rtol=1e-11,
                                   err_msg=basis.name)


@pytest.mark.parametrize("m", [5, 8, 10])
def test_high_orders_match_extended_precision(m):
    """Batched ss_res of poly5, poly8 and poly10 against a long-double
    least-squares polynomial fit whose orthonormal columns come from an
    Arnoldi recurrence, not from ``polynomial_basis``' lead terms.

    The segments are windows at random starts of a cascade's profile and of
    a white-noise profile, 100 per scale and 16 at s = 10^4.
    """
    rng = np.random.default_rng(21)
    profiles = {"cascade": build_profile(generate_cascade(CascadeSpec(a=0.65, n_max=17))),
                "fgn": build_profile(generate_fgn(FbmSpec(hurst=0.5, length=100_000, seed=0)))}
    bases = (polynomial_basis(m),)
    for name, profile in profiles.items():
        for s in (30, 122, 1000, 10_000):
            starts = rng.integers(0, profile.size - s + 1, 16 if s == 10_000 else 100)
            segs = profile[starts[:, None] + np.arange(s)]
            ref = oracles.ss_res_polynomial(segs, m).astype(float)
            np.testing.assert_allclose(_batched_ss_res(segs, bases), ref, rtol=1e-11,
                                       err_msg=f"{name} s={s}")
