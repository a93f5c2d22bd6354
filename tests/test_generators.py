import dataclasses
import re

import numpy as np
import pytest

from mffdfa import (
    AnalysisConfig,
    CascadeSpec,
    FbmSpec,
    InputError,
    cascade_oracle,
    generate_cascade,
    generate_fgn,
)
from mffdfa.generators import fgn_autocovariance

import oracles


def test_h_half_is_iid_gaussian():
    x = generate_fgn(FbmSpec(hurst=0.5, length=10_000, seed=11))
    lag1 = np.corrcoef(x[:-1], x[1:])[0, 1]
    assert abs(lag1) < 0.03
    assert np.std(x) == pytest.approx(1.0, abs=0.05)


@pytest.mark.parametrize("n", [2, 3, 1000, 200_000])
@pytest.mark.parametrize("seed", [0, 7])
def test_h_half_is_exactly_the_scaled_normal_draws(n, seed):
    # white noise skips the O(N^2) recursion, which took about 79 s at
    # N = 200 000 on a 2-core machine; its values are the recursion's
    z = np.sqrt(fgn_autocovariance(0.5, n)[0]) * np.random.default_rng(seed).standard_normal(n)
    inc = generate_fgn(FbmSpec(hurst=0.5, length=n, seed=seed))
    path = generate_fgn(FbmSpec(hurst=0.5, length=n, seed=seed, output="path"))
    assert inc.tobytes() == z.tobytes()
    assert path.tobytes() == np.cumsum(z).tobytes()


def test_autocovariance_matches_closed_form():
    n = 10_000
    lags = np.arange(1, 6)
    for h in (0.9, 0.7):
        gamma = fgn_autocovariance(h, 7)
        est = np.zeros((10, lags.size))
        for seed in range(10):
            x = generate_fgn(FbmSpec(hurst=h, length=n, seed=seed))
            for i, k in enumerate(lags):
                est[seed, i] = np.mean(x[:-k] * x[k:])
        mean = est.mean(axis=0)
        se = est.std(axis=0, ddof=1) / np.sqrt(10)
        assert np.all(np.abs(mean - gamma[lags]) <= 3 * se), h


def test_fgn_sample_mean_is_stationary_about_zero():
    means = [generate_fgn(FbmSpec(hurst=0.7, length=5000, seed=s)).mean()
             for s in range(10)]
    se = np.std(means, ddof=1) / np.sqrt(10)
    assert abs(np.mean(means)) <= 3 * se + 1e-12


def test_fgn_deterministic_given_seed():
    a = generate_fgn(FbmSpec(hurst=0.3, length=500, seed=42))
    b = generate_fgn(FbmSpec(hurst=0.3, length=500, seed=42))
    np.testing.assert_array_equal(a, b)
    c = generate_fgn(FbmSpec(hurst=0.3, length=500, seed=43))
    assert not np.array_equal(a, c)


def test_path_is_cumsum_of_increments():
    inc = generate_fgn(FbmSpec(hurst=0.6, length=400, seed=5))
    path = generate_fgn(FbmSpec(hurst=0.6, length=400, seed=5, output="path"))
    np.testing.assert_allclose(path, np.cumsum(inc), rtol=1e-12)


@pytest.mark.parametrize("hurst", [0.5, 0.7])
def test_path_is_exactly_the_cumsum_of_the_increments(hurst):
    inc = generate_fgn(FbmSpec(hurst=hurst, length=1000, seed=5))
    path = generate_fgn(FbmSpec(hurst=hurst, length=1000, seed=5, output="path"))
    assert path.tobytes() == np.cumsum(inc).tobytes()


@pytest.mark.parametrize("output", ["increments", "path"])
def test_white_noise_holds_only_its_draws(output, traced_peak):
    """At H = 0.5 the generator allocates the N draws and nothing N-long
    besides: no autocovariance, and the path is summed in place."""
    n = 2 ** 20
    generate_fgn(FbmSpec(hurst=0.5, length=2, output=output))   # one-time imports
    peak = traced_peak(lambda: generate_fgn(FbmSpec(hurst=0.5, length=n, seed=1, output=output)))
    assert peak <= 1.1 * 8 * n, peak / (8 * n)


def test_only_correlated_noise_takes_the_autocovariance(monkeypatch):
    calls = []

    def autocovariance(hurst, n):
        if hurst == 0.5:
            raise AssertionError("white noise needs no autocovariance")
        calls.append(hurst)
        return fgn_autocovariance(hurst, n)

    monkeypatch.setattr("mffdfa.generators.fgn_autocovariance", autocovariance)
    for output in ("increments", "path"):
        generate_fgn(FbmSpec(hurst=0.5, length=100, output=output))
    generate_fgn(FbmSpec(hurst=0.7, length=100))
    assert calls == [0.7]


@pytest.mark.parametrize("h", [0.0, 1.0, -0.2, 1.7])
def test_fbm_spec_rejects_bad_hurst(h):
    with pytest.raises(InputError):
        FbmSpec(hurst=h, length=100)


@pytest.mark.parametrize("seed", [-1, 1.5, True, "3", None])
def test_fbm_spec_rejects_a_bad_seed(seed):
    with pytest.raises(InputError, match="seed must be a non-negative integer"):
        FbmSpec(hurst=0.7, length=20, seed=seed)


def test_fbm_spec_takes_a_numpy_integer_seed():
    """Stored as a plain int, as the spec's other integer fields are."""
    for seed in (np.int64(3), np.uint8(3)):
        spec = FbmSpec(hurst=0.7, length=20, seed=seed)
        assert type(spec.seed) is int
        assert generate_fgn(spec).tobytes() == generate_fgn(
            FbmSpec(hurst=0.7, length=20, seed=3)).tobytes()


@pytest.mark.parametrize("make, field", [
    (lambda: FbmSpec(hurst="0.7", length=20), "hurst"),
    (lambda: FbmSpec(hurst=None, length=20), "hurst"),
    (lambda: FbmSpec(hurst=0.7, length=20.5), "length"),
    (lambda: FbmSpec(hurst=0.7, length=True), "length"),
    (lambda: FbmSpec(hurst=0.7, length="20"), "length"),
    (lambda: CascadeSpec(a="0.7", n_max=3), "a"),
    (lambda: CascadeSpec(a=True, n_max=3), "a"),
    (lambda: CascadeSpec(a=0.65, n_max=3.5), "n_max"),
    (lambda: CascadeSpec(a=0.65, n_max=True), "n_max"),
    (lambda: CascadeSpec(a=0.65, n_max=np.float64(3.0)), "n_max"),
    (lambda: cascade_oracle("0.7"), "a"),
    (lambda: FbmSpec(hurst=0.7, length=1), "length"),
    (lambda: FbmSpec(hurst=0.7, length=20, output="bogus"), "output"),
])
def test_specs_refuse_what_they_cannot_generate(make, field):
    """A string, a bool, a fractional or too short count or an unknown output
    is refused as bad input that names its field, not taken as a number or
    left to fail as a TypeError."""
    with pytest.raises(InputError, match=rf"^{field} must be"):
        make()


def test_specs_take_numpy_numbers():
    np.testing.assert_array_equal(
        generate_fgn(FbmSpec(hurst=np.float64(0.7), length=np.int64(20))),
        generate_fgn(FbmSpec(hurst=0.7, length=20)))
    np.testing.assert_array_equal(
        generate_cascade(CascadeSpec(a=np.float32(0.75), n_max=np.int64(5))),
        generate_cascade(CascadeSpec(a=0.75, n_max=5)))
    # stored as plain Python numbers, as AnalysisConfig stores them
    fbm = FbmSpec(hurst=np.float32(0.5), length=np.int16(20))
    cascade = CascadeSpec(a=np.float32(0.75), n_max=np.int8(5))
    assert [type(v) for v in (fbm.hurst, fbm.length, cascade.a, cascade.n_max)] == [
        float, int, float, int]


#: every request with a constructor's valid keywords (None-default fields given a value)
REQUESTS = [(AnalysisConfig, {"s_max": 300, "fit_lo": 40, "fit_hi": 200}),
            (FbmSpec, {"hurst": 0.7, "length": 20}),
            (CascadeSpec, {"a": 0.65, "n_max": 3}),
            (cascade_oracle, {"a": 0.65})]


def _numeric_fields():
    for make, valid in REQUESTS:
        for f in dataclasses.fields(make):
            kind = f.type.removesuffix(" | None")
            if kind in ("int", "float"):
                value = valid.get(f.name, f.default)
                yield pytest.param(make, valid, f.name, kind, value, f.type.endswith(" | None"),
                                   id=f"{make.__name__}.{f.name}")


@pytest.mark.parametrize("make, valid, field, kind, value, nullable", list(_numeric_fields()))
def test_every_request_types_its_numbers_by_one_rule(make, valid, field, kind, value, nullable):
    """Each numeric field of AnalysisConfig, FbmSpec, CascadeSpec and the cascade
    oracle refuses a bool, a numeric string, a fraction for an integer and a
    None it is not annotated for, naming the field, and stores a NumPy scalar
    as a plain int or float.  seed is the one field with its own message: it
    must also be non-negative."""
    name = f"setting {field!r}" if make is AnalysisConfig else field
    noun = "a non-negative integer" if field == "seed" else {"int": "an integer",
                                                             "float": "a number"}[kind]
    bad = [True, str(value)] + [value + 0.5] * (kind == "int") + [None] * (not nullable)
    for wrong in bad:
        with pytest.raises(InputError, match=rf"^{re.escape(name)} must be {noun}"):
            make(**dict(valid, **{field: wrong}))
    numpy_value = np.int16(value) if kind == "int" else np.float64(value)
    stored = getattr(make(**dict(valid, **{field: numpy_value})), field)
    assert type(stored) is {"int": int, "float": float}[kind]
    assert stored == numpy_value


@pytest.mark.parametrize("n_max", [np.int8(10), np.int16(16), np.uint8(8)])
def test_cascade_takes_a_small_numpy_n_max(n_max):
    """2 ** n_max is taken on a plain int, so it cannot wrap in the small type."""
    x = generate_cascade(CascadeSpec(a=0.65, n_max=n_max))
    assert x.size == 2 ** int(n_max)
    assert x.tobytes() == generate_cascade(CascadeSpec(a=0.65, n_max=int(n_max))).tobytes()


@pytest.mark.parametrize("length", [2 ** 26 + 1, np.int64(10 ** 12), 10 ** 30])
def test_fbm_spec_refuses_more_than_the_memory_guard(length):
    """Refused when the spec is made, before anything is allocated."""
    with pytest.raises(InputError, match=r"^length must be in \[2, 2\^26\] \(the memory guard\)"):
        FbmSpec(hurst=0.5, length=length)
    assert FbmSpec(hurst=0.5, length=2 ** 26).length == 2 ** 26


@pytest.mark.parametrize("hurst", [0.3, 0.7, np.nextafter(0.5, 1.0)])
def test_fbm_spec_refuses_a_long_correlated_series(hurst):
    """At H != 0.5 the O(N^2) recursion caps the length at 2^17, when the
    spec is made; white noise keeps the memory guard's 2^26.  Only specs are
    made: nothing is generated at these sizes."""
    with pytest.raises(InputError, match=r"^length must be at most 2\^17 at hurst != 0\.5, "
                                         r"where the O\(N\^2\) recursion runs"):
        FbmSpec(hurst=hurst, length=2 ** 17 + 1)
    assert FbmSpec(hurst=hurst, length=2 ** 17).length == 2 ** 17
    assert FbmSpec(hurst=0.5, length=2 ** 17 + 1).length == 2 ** 17 + 1


@pytest.mark.parametrize("a", [0.55, (5 ** 0.5 - 1) / 2, 0.65, 0.7, 0.75, 0.8, 0.95])
@pytest.mark.parametrize("n_max", [1, 2, 7, 10, 13])
def test_cascade_table_lookup_gives_the_per_point_powers(a, n_max):
    """Looking the weights up by popcount moves no bit of the powers taken per point."""
    x = generate_cascade(CascadeSpec(a=a, n_max=n_max))
    assert x.tobytes() == oracles.powers_per_point_cascade(a, n_max).tobytes()


def test_cascade_hand_case():
    x = generate_cascade(CascadeSpec(a=0.65, n_max=2))
    np.testing.assert_allclose(x, [0.1225, 0.2275, 0.2275, 0.4225], rtol=1e-15)


def test_cascade_mass_conservation():
    for n_max in (5, 12, 20):
        x = generate_cascade(CascadeSpec(a=0.731, n_max=n_max))
        assert abs(x.sum() - 1.0) <= 1e-12


def test_cascade_length_and_reproducibility():
    spec = CascadeSpec(a=0.65, n_max=17)
    x = generate_cascade(spec)
    assert x.size == 131_072
    np.testing.assert_array_equal(x, generate_cascade(spec))


def test_cascade_matches_popcount_oracle():
    x = generate_cascade(CascadeSpec(a=0.62, n_max=10))
    np.testing.assert_allclose(x, oracles.popcount_cascade(0.62, 10), rtol=1e-15)


@pytest.mark.parametrize("a", [0.5, 1.0, 0.2, 0.3, np.nan])
def test_cascade_rejects_bad_parameter(a):
    with pytest.raises(InputError):
        CascadeSpec(a=a, n_max=5)
    with pytest.raises(InputError, match="must lie in"):
        cascade_oracle(a)


def test_cascade_rejects_oversized_n_max():
    with pytest.raises(InputError):
        CascadeSpec(a=0.65, n_max=27)


def test_oracle_normalization_identities():
    for a in (0.55, 0.65, 0.8, 0.93):
        oracle = cascade_oracle(a)
        assert oracle.tau(1.0) == pytest.approx(0.0, abs=1e-12)
        assert oracle.tau(0.0) == pytest.approx(-1.0, abs=1e-12)
        f_at_q0 = oracle.f_alpha(0.0)
        assert f_at_q0 == pytest.approx(1.0, abs=1e-12)


def test_oracle_alpha_limits():
    oracle = cascade_oracle(0.65)
    q_big = np.array([1e4])
    assert oracle.alpha(q_big)[0] == pytest.approx(-np.log(0.65) / np.log(2), abs=1e-9)
    assert oracle.alpha(-q_big)[0] == pytest.approx(-np.log(0.35) / np.log(2), abs=1e-9)


def test_oracle_h2_value():
    # (tau(2) + 1)/2 with tau(2) = -ln(0.65^2 + 0.35^2)/ln 2
    expected = (-np.log(0.65 ** 2 + 0.35 ** 2) / np.log(2) + 1.0) / 2.0
    assert cascade_oracle(0.65).h(2.0) == pytest.approx(expected, rel=1e-14)
    assert expected == pytest.approx(0.9379, abs=1e-4)


def test_oracle_self_consistency_dense_grid():
    q = np.linspace(-40, 40, 4001)
    for a in (0.55, 0.65, 0.8):
        oracle = cascade_oracle(a)
        lhs = oracle.f_alpha(q)
        rhs = q * oracle.alpha(q) - oracle.tau(q)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_oracle_h_continuity_at_zero():
    oracle = cascade_oracle(0.72)
    eps = 1e-7
    assert oracle.h(np.array([eps]))[0] == pytest.approx(float(oracle.h(0.0)), abs=1e-5)
