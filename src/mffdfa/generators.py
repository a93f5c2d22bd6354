"""Synthetic fixtures: exact fGn/fBm and the binomial multiplicative cascade.

Both generators exist so every estimator in the package can be checked
against something with known fractal properties: fractional Gaussian noise
is the canonical monofractal (h(q) = H for all q), and the deterministic
binomial cascade has a closed-form multifractal spectrum, exposed here as
an oracle.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InputError

LN2 = np.log(2.0)


@dataclass(frozen=True)
class FbmSpec:
    """Fractional Gaussian noise / Brownian motion request.

    output="increments" yields fGn (the stationary noise); "path" its
    cumulative sum, i.e. the fBm trajectory itself.
    """

    hurst: float
    length: int
    seed: int = 0
    output: str = "increments"

    def __post_init__(self):
        object.__setattr__(self, "hurst", _check_number("hurst", self.hurst, numbers.Real))
        if not 0.0 < self.hurst < 1.0:
            raise InputError(f"Hurst exponent must lie strictly in (0, 1), got {self.hurst}")
        object.__setattr__(self, "length", _check_number("length", self.length, numbers.Integral))
        if not 2 <= self.length <= 2 ** 26:
            raise InputError(f"length must be in [2, 2^26] (the memory guard), got {self.length}")
        if self.hurst != 0.5 and self.length > 2 ** 17:   # 4 times the time per doubling
            raise InputError(f"length must be at most 2^17 at hurst != 0.5, where the O(N^2) "
                             f"recursion runs (about 20 s at 2^17), got {self.length}")
        seed = self.seed
        if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
            raise InputError(f"seed must be a non-negative integer, got {seed!r}")
        object.__setattr__(self, "seed", int(seed))
        if self.output not in ("increments", "path"):
            raise InputError(f"output must be 'increments' or 'path', got {self.output!r}")


def _check_number(name: str, value, kind: type) -> int | float:
    """A spec field as a plain int or float (2 ** n_max wraps in a small NumPy integer);
    refused if not of the numbers ABC kind (NumPy numbers too), or a bool."""
    if isinstance(value, bool) or not isinstance(value, kind):
        noun = "an integer" if kind is numbers.Integral else "a real number"
        raise InputError(f"{name} must be {noun}, got {value!r}")
    return int(value) if kind is numbers.Integral else float(value)


def _check_cascade_a(a) -> float:
    """The cascade parameter a as a plain float in (0.5, 1)."""
    a = _check_number("a", a, numbers.Real)
    if not 0.5 < a < 1.0:
        raise InputError(f"cascade parameter a must lie in (0.5, 1), got {a}")
    return a


def fgn_autocovariance(hurst: float, n: int) -> np.ndarray:
    """Exact fGn autocovariance gamma(k) = (|k+1|^2H - 2|k|^2H + |k-1|^2H)/2."""
    k = np.arange(n, dtype=float)
    two_h = 2.0 * hurst
    return 0.5 * (np.abs(k + 1) ** two_h - 2.0 * np.abs(k) ** two_h + np.abs(k - 1) ** two_h)


def generate_fgn(spec: FbmSpec) -> np.ndarray:
    """Exact-covariance fGn via the sequential conditional-Gaussian recursion.

    Levinson-Durbin on the target autocovariance: at step m the new sample
    is drawn from its exact conditional distribution given the past, so the
    output has the fGn covariance exactly (not asymptotically).  O(N^2) time
    for correlated H: affordable at N ~ 10^4, refused above 2^17.  White noise
    (H = 0.5, where gamma is 1 at lag 0 and 0 beyond) is the seed's standard
    normal draws themselves, the values the recursion would give: O(N) time
    and no array but the draws, also for the path, which is summed in place.
    Deterministic given the seed.
    """
    n = spec.length
    x = z = np.random.default_rng(spec.seed).standard_normal(n)
    if spec.hurst != 0.5:
        gamma = fgn_autocovariance(spec.hurst, n)
        x = np.empty(n)
        phi = np.zeros(n)
        x[0] = np.sqrt(gamma[0]) * z[0]
        v = gamma[0]
        for m in range(1, n):
            kappa = (gamma[m] - phi[: m - 1] @ gamma[m - 1:0:-1]) / v
            phi[: m - 1] -= kappa * phi[: m - 1][::-1]
            phi[m - 1] = kappa
            v *= 1.0 - kappa * kappa
            x[m] = phi[:m] @ x[m - 1::-1] + np.sqrt(v) * z[m]
    return np.cumsum(x, out=x) if spec.output == "path" else x


@dataclass(frozen=True)
class CascadeSpec:
    """Deterministic binomial multiplicative cascade of 2^n_max points."""

    a: float
    n_max: int

    def __post_init__(self):
        object.__setattr__(self, "a", _check_cascade_a(self.a))
        object.__setattr__(self, "n_max", _check_number("n_max", self.n_max, numbers.Integral))
        if not 1 <= self.n_max <= 26:
            raise InputError(f"n_max={self.n_max} outside [1, 26] (2^26 is the memory guard)")


def generate_cascade(spec: CascadeSpec) -> np.ndarray:
    """x_k = a^{n(k-1)} (1-a)^{n_max - n(k-1)}, n(j) = ones in binary j.

    The n_max + 1 weights are powers, looked up by popcount, not products of
    factors, so the output is bit-reproducible and sums to 1 up to rounding.
    """
    k = np.arange(spec.n_max + 1)
    weights = spec.a ** k * (1.0 - spec.a) ** (spec.n_max - k)
    return weights[np.bitwise_count(np.arange(2 ** spec.n_max, dtype=np.uint32))]


@dataclass(frozen=True)
class CascadeOracle:
    """Closed-form multifractal characteristics of the binomial cascade.

    All four are vectorized callables of q.  tau uses the standard
    partition-function convention tau(0) = -1, tau(1) = 0; f satisfies
    f(q) = q alpha(q) - tau(q) identically.
    """

    a: float
    tau: Callable[[np.ndarray], np.ndarray]
    alpha: Callable[[np.ndarray], np.ndarray]
    f_alpha: Callable[[np.ndarray], np.ndarray]
    h: Callable[[np.ndarray], np.ndarray]


def cascade_oracle(a: float) -> CascadeOracle:
    """Analytic tau, alpha, f(alpha) and h(q) for cascade parameter a.

    Evaluated through logaddexp so extreme |q| cannot overflow a^q.
    """
    a = _check_cascade_a(a)
    la, lb = np.log(a), np.log1p(-a)

    def tau(q):
        q = np.asarray(q, dtype=float)
        return -np.logaddexp(q * la, q * lb) / LN2

    def alpha(q):
        q = np.asarray(q, dtype=float)
        lse = np.logaddexp(q * la, q * lb)
        w_a = np.exp(q * la - lse)
        w_b = np.exp(q * lb - lse)
        return -(w_a * la + w_b * lb) / LN2

    def f_alpha(q):
        q = np.asarray(q, dtype=float)
        return q * alpha(q) - tau(q)

    def h(q):
        q = np.asarray(q, dtype=float)
        safe_q = np.where(q == 0.0, 1.0, q)
        # the q -> 0 limit of (tau(q)+1)/q is alpha(0), by L'Hopital
        return np.where(q == 0.0, alpha(0.0), (tau(q) + 1.0) / safe_q)

    return CascadeOracle(a=a, tau=tau, alpha=alpha, f_alpha=f_alpha, h=h)
