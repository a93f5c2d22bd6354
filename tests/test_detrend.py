import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mffdfa import (
    DetrendPolicy,
    InputError,
    default_basis_set,
    default_scale_grid,
    generate_cascade,
    generate_fgn,
    CascadeSpec,
    FbmSpec,
    build_profile,
    fluctuation_function,
    default_q_grid,
    layout,
    polynomial_basis,
)
from mffdfa.detrend import (
    BLOCK_VALUES,
    M_MAX,
    R2_ZERO_TOL,
    RESIDUAL_GUARD,
    BasisFunction,
    _best_basis,
    _designs,
    _kernel,
    _noise_floor,
    _r_squared,
    batch_segment_variances,
)

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
    oracle = oracles.normal_equations_fitted(basis.design(50).T, y)
    assert np.linalg.norm(fit.fitted - oracle) <= 1e-8 * np.linalg.norm(oracle)


def test_rank_deficient_design_is_flagged(fit_one):
    from mffdfa import BasisFunction
    dup = BasisFunction("dup", (lambda t: 2 * t,))
    fit = fit_one(np.arange(20.0), dup)
    assert fit.rank_deficient
    np.testing.assert_allclose(fit.fitted, np.arange(20.0), atol=1e-9)


def test_lead_terms_inside_the_line_add_no_direction(fit_one, rng):
    from mffdfa import BasisFunction
    # a rank-deficient design whose span is exactly {1, t}
    dup = BasisFunction("dup", (lambda t: 2 * t,))
    (op,), _ = _designs(20, [dup], "raw")
    assert op.rank_deficient and op.W.shape == (20, 0)
    # a basis that lists t and 1 among its lead terms fits as the one that
    # does not, and is flagged
    listed = BasisFunction("listed", (lambda t: t * t, lambda t: t, np.ones_like))
    y = rng.standard_normal(30)
    fit_listed = fit_one(y, listed)
    fit_lead = fit_one(y, default_basis_set()[0])
    assert fit_listed.rank_deficient and not fit_lead.rank_deficient
    assert _designs(30, [listed], "raw")[0][0].W.shape == (30, 1)
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
    _, (chosen,), _ = batch_segment_variances(np.asarray(segment)[None, :], DetrendPolicy())
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
        prof, scales, 2, DetrendPolicy(abscissa="normalized"), default_q_grid()
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

    policy = DetrendPolicy()
    ss_res, ss_tot, _, _ = _kernel(Y, *_designs(s, policy.bases, policy.abscissa))
    row_floor = _noise_floor(Y)
    above = ss_tot > row_floor
    assert 0.2 < above.mean() < 0.8
    expected = _best_basis(_r_squared(ss_tot, row_floor, ss_res))
    # rows above their floor pick by R^2, rows below tie and take basis 0
    assert np.any(expected[above] != 0) and np.all(expected[~above] == 0)
    _, chosen, _ = batch_segment_variances(Y, policy)
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
    policy = DetrendPolicy(tuple(default_basis_set())
                           + (BasisFunction("line-again", (lambda t: 2.0 * t,)),))

    ops, B = _designs(s, policy.bases, policy.abscissa)
    sums = [_kernel(Y[i:i + rows], ops, B)[:3] for i in range(0, len(Y), rows)]
    ss_res, ss_tot, floor = (np.concatenate(part, axis=-1) for part in zip(*sums))
    # the last basis adds no direction, so its ss_res is the linear residual
    # the guard compares with; the cubic rows fall below that share
    cubic, line = 2, 3
    assert np.count_nonzero(ss_res[cubic] < RESIDUAL_GUARD * ss_res[line]) >= n_cubic
    assert np.count_nonzero(ss_tot <= floor) >= 40
    expected = _best_basis(_r_squared(ss_tot, floor, ss_res))

    fsq, chosen, rank_deficient = batch_segment_variances(Y, policy)
    assert rank_deficient == (False, False, False, True)
    np.testing.assert_array_equal(chosen, expected)
    assert fsq.tobytes() == (ss_res[expected, np.arange(len(Y))] / s).tobytes()


def test_designs_hold_each_direction_once():
    """Each design's W is a view into the scale's B, equal to the W it builds alone."""
    s = 50
    bases = default_basis_set()
    ops, B = _designs(s, bases, "raw")
    assert B.shape == (s, 5)
    for basis, op in zip(bases, ops):
        assert np.shares_memory(op.W, B)
        np.testing.assert_array_equal(op.W, _designs(s, [basis], "raw")[0][0].W)


def test_default_basis_set_shape():
    q_set = default_basis_set()
    assert len(q_set) == 3
    assert [b.parameter_count for b in q_set] == [3, 3, 3]


def test_basis_regressor_values_at_two():
    q_set = default_basis_set()
    # the design's row at t = 2
    assert q_set[0].design(2)[1].tolist() == [4.0, 2.0, 1.0]
    vals = q_set[1].design(2)[1].tolist()
    assert vals == [pytest.approx(np.sin(4.0)), 2.0, 1.0]


def test_polynomial_basis_linear():
    basis = polynomial_basis(1)
    # the design's row at t = 3
    assert basis.design(3)[2].tolist() == [3.0, 1.0]
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
    oracle = oracles.normal_equations_fitted(basis.design(30).T, y, dps=60)
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
    variances, chosen, _ = batch_segment_variances(batch, DetrendPolicy())
    for row, var, best in zip(batch, variances, chosen):
        alone, (idx,), _ = batch_segment_variances(row[None, :], DetrendPolicy())
        assert idx == best
        # a variance at rounding level (constant rows) comes out of the
        # one-row and the many-row product rounded differently, by up to
        # about 1e-29 * peak^2
        rounding = 1e-27 * np.abs(row).max() ** 2
        assert alone[0] == pytest.approx(var, rel=1e-12, abs=rounding)


def test_column_scaling_equivalence(fit_one, rng):
    """Pre-scaling a design column must not move the fitted values."""
    from mffdfa import BasisFunction
    y = rng.standard_normal(70)
    plain = BasisFunction("plain", (lambda t: t ** 3,))
    scaled = BasisFunction("scaled", (lambda t: 1e-6 * t ** 3,))
    fit_a = fit_one(y, plain)
    fit_b = fit_one(y, scaled)
    np.testing.assert_allclose(fit_a.fitted, fit_b.fitted, rtol=1e-9, atol=1e-9)


def test_empty_basis_set_is_rejected():
    with pytest.raises(InputError, match="empty basis set"):
        batch_segment_variances(np.ones((1, 10)), DetrendPolicy(()))


def _single_basis_policies():
    """Every default basis on its own, and two fixed orders, as batch policies."""
    bases = default_basis_set() + [polynomial_basis(m) for m in (1, 3)]
    return [DetrendPolicy((b,)) for b in bases]


def _batched_ss_res(segments, policy):
    variances, _, _ = batch_segment_variances(segments, policy)
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
        for policy in _single_basis_policies():
            (basis,) = policy.bases
            ref = oracles.ss_res_extended(segs, basis.design(s)).astype(float)
            np.testing.assert_allclose(_batched_ss_res(segs, policy), ref, rtol=1e-11,
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
    linear = oracles.ss_res_extended(segs, polynomial_basis(1).design(s)).astype(float)
    for policy in _single_basis_policies():
        (basis,) = policy.bases
        ref = oracles.ss_res_extended(segs, basis.design(s)).astype(float)
        if basis.name in ("cubic", "poly3"):
            assert np.all(ref < RESIDUAL_GUARD * linear)
        np.testing.assert_allclose(_batched_ss_res(segs, policy), ref, rtol=1e-11,
                                   err_msg=basis.name)
