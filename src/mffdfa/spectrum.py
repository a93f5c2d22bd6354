"""Scaling-law fit and the singularity spectrum.

The generalized Hurst exponent h(q) is the OLS slope of ln F_q(s) against
ln s.  The multifractal (singularity) spectrum follows by the Legendre-type
transform

    alpha = h(q) + q h'(q),      f(alpha) = q [alpha - h(q)] + 1,

with h'(q) taken as plain central differences on the q grid (one-sided at
the ends) -- no smoothing of h(q) beforehand.  The spectrum width
Delta_alpha = alpha_max - alpha_min is the headline multifractality
measure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericalError
from .fluctuation import FluctuationSurface


@dataclass(frozen=True)
class GeneralizedHurst:
    q_grid: np.ndarray
    h: np.ndarray
    intercepts: np.ndarray
    fit_r2: np.ndarray


@dataclass(frozen=True)
class SingularitySpectrum:
    q_grid: np.ndarray
    alpha: np.ndarray
    f_alpha: np.ndarray
    delta_alpha: float
    alpha_at_q0: float


def fit_hurst(surface: FluctuationSurface, s_range: tuple[float, float] | None = None
              ) -> GeneralizedHurst:
    """h(q), intercepts and per-q goodness of the log-log line.

    By default the regression runs over every usable scale; s_range
    optionally narrows it to [lo, hi] (inclusive) when a scaling window
    is known a priori.  Every q shares the design ln s, so one centred
    least-squares solve over the (n_q, n_kept) matrix of ln F_q(s) fits
    all the lines at once.  A row with no spread (ss_tot = 0) has slope 0
    and scores R^2 = 1.
    """
    keep = surface.usable.copy()
    if s_range is not None:
        lo, hi = s_range
        keep &= (surface.scales >= lo) & (surface.scales <= hi)
    if int(keep.sum()) < 4:
        raise NumericalError(f"{int(keep.sum())} usable scales in the fit window for the "
                             "h(q) regression; need at least 4")
    ls = np.log(surface.scales[keep].astype(float))
    lf = np.log(surface.values[:, keep])
    x = ls - ls.mean()
    lf_bar = lf.mean(axis=1)
    yc = lf - lf_bar[:, None]
    h = yc @ x / (x @ x)
    c0 = lf_bar - h * ls.mean()
    resid = yc - h[:, None] * x
    ss_res = np.einsum("ij,ij->i", resid, resid)
    ss_tot = np.einsum("ij,ij->i", yc, yc)
    with np.errstate(divide="ignore", invalid="ignore"):
        r2 = np.where(ss_tot > 0, 1.0 - ss_res / ss_tot, 1.0)
    return GeneralizedHurst(q_grid=surface.q_grid, h=h, intercepts=c0, fit_r2=r2)


def check_q_grid(q: np.ndarray) -> None:
    """The Legendre step differences h(q): the q grid needs 3 nodes, strictly increasing."""
    if q.size < 3:
        raise InputError(f"q grid of {q.size} nodes too short for finite differences (need 3)")
    if not np.all(np.diff(q) > 0):
        raise InputError("q grid must be strictly increasing")


def legendre_transform(hurst: GeneralizedHurst) -> SingularitySpectrum:
    """(alpha, f(alpha)) from h(q) by finite differences on the q grid."""
    q = hurst.q_grid
    check_q_grid(q)
    dh = np.gradient(hurst.h, q)
    alpha = hurst.h + q * dh
    f_alpha = q * (alpha - hurst.h) + 1.0
    i0 = int(np.argmin(np.abs(q)))
    return SingularitySpectrum(
        q_grid=q, alpha=alpha, f_alpha=f_alpha,
        delta_alpha=float(alpha.max() - alpha.min()),
        alpha_at_q0=float(alpha[i0]),
    )

