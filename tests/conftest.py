import functools
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from mffdfa import FbmSpec, generate_fgn
from mffdfa.detrend import DesignFit, _kernel, _remove_span

# Hypothesis' pytest plugin imports this module when it reports a failing
# example; it pulls in libcst, whose import raises a DeprecationWarning that
# `filterwarnings = error` would turn into an INTERNALERROR ending the run.
# Imported here once with that warning ignored, it is already loaded then.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401

# numerical property tests routinely outlive hypothesis' default deadline
settings.register_profile(
    "numeric",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("numeric")


@functools.lru_cache(maxsize=64)
def _fgn_cached(hurst: float, length: int, seed: int):
    x = generate_fgn(FbmSpec(hurst=hurst, length=length, seed=seed))
    x.setflags(write=False)
    return x


@pytest.fixture(scope="session")
def fgn_bank():
    """Memoized exact-fGn realizations shared by the slower tests."""
    return _fgn_cached


def _fit_one(segment, basis):
    # imported here: a copy of this file alone must load (test_pytest_setup)
    import oracles

    y = np.asarray(segment, dtype=float)
    design = DesignFit(y.size, [basis])
    ss_res, ss_tot, floor, R = _kernel(y[None, :], design)
    _remove_span(R, design.B[:, design.spans[0]])
    return SimpleNamespace(
        fitted=y - R[0],
        ss_res=float(ss_res[0, 0]),
        r_squared=float(oracles.r_squared_with_floor(ss_res[0], ss_tot, floor)[0]),
        rank_deficient=design.rank_deficient[0],
    )


@pytest.fixture(scope="session")
def fit_one():
    """Least-squares fit of one basis to one segment, the detrending kernel
    on a batch of one: fitted values, ss_res, r_squared, rank_deficient."""
    return _fit_one


@pytest.fixture
def report(capfd):
    """Print one uncaptured pass/fail line per acceptance criterion."""
    def _report(name: str, ok: bool, detail: str = ""):
        with capfd.disabled():
            print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return _report


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
