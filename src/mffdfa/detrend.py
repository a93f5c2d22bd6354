"""Per-segment trend estimation.

Two detrending policies coexist:

* a fixed polynomial of order m (classical MFDFA-m), and
* the flexible variant, where every candidate of a small basis set Q is
  fitted to each segment and the winner is picked by coefficient of
  determination.

Every candidate model is linear in its parameters, so a single least-squares
backend serves both policies.  Fits go through an SVD of the column-scaled
design matrix -- never raw normal equations, since a raw t^10 column at
s ~ 10^4 spans ~40 orders of magnitude.  Fitted values are invariant to the
column scaling, so results don't depend on that internal convention.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import InputError

#: ties in R^2 below this are broken by position in Q (first wins)
TIE_EPS = 1e-12

#: relative scatter below this counts as numerically constant; a residual at
#: the same level counts as a perfect fit of such a segment
R2_ZERO_TOL = 1e-12


def _noise_floor(peak, s):
    """Sum-of-squares level indistinguishable from rounding on a constant segment."""
    return s * (R2_ZERO_TOL * peak) ** 2


def _r_squared(Y: np.ndarray, ss_res: np.ndarray) -> np.ndarray:
    """R^2 of fits to the columns of Y (shape (s, M)) from their residual sums.

    ss_res has shape (M,) or (n_bases, M).  Numerically constant columns
    are scored as coefficient_of_determination describes.
    """
    ybar = Y.mean(axis=0)
    ss_tot = np.einsum("ij,ij->j", Y - ybar, Y - ybar)
    floor = _noise_floor(np.abs(Y).max(axis=0, initial=0.0), Y.shape[0])
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(
            ss_tot > floor,
            1.0 - ss_res / ss_tot,
            np.where(ss_res <= floor, 1.0, 0.0),
        )


def _best_basis(r2: np.ndarray) -> np.ndarray:
    """Index along axis 0 of the highest R^2; ties within TIE_EPS go to the earliest."""
    return np.argmax(r2 >= r2.max(axis=0) - TIE_EPS, axis=0)


@dataclass(frozen=True)
class BasisFunction:
    """A trend model linear in its parameters: trend(t) = sum_j c_j phi_j(t)."""

    name: str
    regressors: tuple[Callable[[np.ndarray], np.ndarray], ...]

    @property
    def parameter_count(self) -> int:
        return len(self.regressors)

    def design(self, s: int, abscissa: str = "raw") -> np.ndarray:
        """Design matrix (s rows, one column per regressor).

        The abscissa is the within-segment index t = 1..s; "normalized"
        rescales it to t/s in (0, 1].  The distinction only matters for
        non-polynomial regressors such as sin(x^2) -- polynomial spans are
        unchanged by the rescaling.
        """
        t = np.arange(1, s + 1, dtype=float)
        if abscissa == "normalized":
            t = t / s
        elif abscissa != "raw":
            raise InputError(f"unknown abscissa convention {abscissa!r}")
        return np.column_stack([phi(t) for phi in self.regressors])


def default_basis_set() -> list[BasisFunction]:
    """The flexible basis set Q = {ax^2+bx+c, a sin(x^2)+bx+c, ax^3+bx+c}."""
    one = np.ones_like
    return [
        BasisFunction("quadratic", (lambda t: t * t, lambda t: t, one)),
        BasisFunction("sine", (lambda t: np.sin(t * t), lambda t: t, one)),
        BasisFunction("cubic", (lambda t: t ** 3, lambda t: t, one)),
    ]


def polynomial_basis(m: int) -> BasisFunction:
    """Full polynomial of order m: regressors (t^m, ..., t, 1)."""
    if not 1 <= m <= 20:
        raise InputError(f"polynomial order m={m} outside [1, 20]")
    regs = tuple(
        [(lambda t, j=j: t ** j) for j in range(m, 1, -1)]
        + [lambda t: t, np.ones_like]
    )
    return BasisFunction(f"poly{m}", regs)


@dataclass(frozen=True)
class FitResult:
    fitted: np.ndarray
    ss_res: float
    r_squared: float
    rank_deficient: bool = False


class DesignFit:
    """Precomputed least-squares operator for one (basis, s, abscissa).

    Shares a single SVD across all segments of a scale, which is where the
    batched pipeline spends its time.  Rank decisions use the usual
    max(shape) * eps * sigma_max cutoff; rank-deficient designs fall back to
    the minimum-norm solution and are flagged.
    """

    def __init__(self, basis: BasisFunction, s: int, abscissa: str = "raw"):
        if s < basis.parameter_count:
            raise InputError(
                f"segment length {s} below parameter count "
                f"{basis.parameter_count} of basis {basis.name!r}"
            )
        A = basis.design(s, abscissa)
        norms = np.linalg.norm(A, axis=0)
        norms[norms == 0.0] = 1.0
        U, sv, _ = np.linalg.svd(A / norms, full_matrices=False)
        rcond = max(A.shape) * np.finfo(float).eps
        rank = int(np.count_nonzero(sv > rcond * sv[0]))
        self.basis = basis
        self._U = U[:, :rank]
        self.rank_deficient = rank < basis.parameter_count

    def fitted_many(self, Y: np.ndarray) -> np.ndarray:
        """Projections of the columns of Y (shape (s, M)) onto the span."""
        return self._U @ (self._U.T @ Y)

    def ss_res_many(self, Y: np.ndarray) -> np.ndarray:
        resid = Y - self.fitted_many(Y)
        return np.einsum("ij,ij->j", resid, resid)


def fit_least_squares(segment, basis: BasisFunction, abscissa: str = "raw") -> FitResult:
    """Least-squares fit of one basis to one segment."""
    y = np.asarray(segment, dtype=float)
    op = DesignFit(basis, y.size, abscissa)
    Y = y[:, None]
    fitted = op.fitted_many(Y)
    resid = Y - fitted
    ss_res = np.einsum("ij,ij->j", resid, resid)
    return FitResult(
        fitted=fitted[:, 0],
        ss_res=float(ss_res[0]),
        r_squared=float(_r_squared(Y, ss_res)[0]),
        rank_deficient=op.rank_deficient,
    )


def coefficient_of_determination(segment, fit: FitResult) -> float:
    """R^2 of a fit, with the degenerate ss_tot ~ 0 case pinned down.

    A (numerically) constant segment carries no variance to explain: the
    fit scores 1 when its residual sits at rounding level too and 0
    otherwise.  The cutoff is relative, so selection is invariant under
    rescaling the segment.
    """
    y = np.asarray(segment, dtype=float)
    return float(_r_squared(y[:, None], np.array([fit.ss_res]))[0])


def select_trend(segment, q_set: Sequence[BasisFunction],
                 abscissa: str = "raw") -> tuple[int, FitResult]:
    """Fit every basis in Q and keep the best by R^2 (Step 3).

    Returns the 1-based index into Q (matching the f_1..f_3 naming) and the
    winning fit.  R^2 ties within TIE_EPS go to the earliest basis, which
    keeps runs deterministic.
    """
    if not q_set:
        raise InputError("empty basis set")
    fits = [fit_least_squares(segment, b, abscissa) for b in q_set]
    chosen = int(_best_basis(np.array([f.r_squared for f in fits])))
    return chosen + 1, fits[chosen]


@dataclass(frozen=True)
class FixedPolynomial:
    """Classical detrending: the same order-m polynomial in every segment."""

    m: int = 2
    abscissa: str = "raw"

    def __post_init__(self):
        if not 1 <= self.m <= 10:
            raise InputError(f"detrending order m={self.m} outside the sweep range [1, 10]")

    def bases(self) -> list[BasisFunction]:
        return [polynomial_basis(self.m)]


@dataclass(frozen=True)
class FlexibleBasis:
    """Per-segment winner-takes-all over the basis set Q."""

    basis_set: tuple[BasisFunction, ...] = field(default_factory=lambda: tuple(default_basis_set()))
    abscissa: str = "raw"

    def bases(self) -> list[BasisFunction]:
        return list(self.basis_set)


DetrendPolicy = FixedPolynomial | FlexibleBasis


def batch_segment_variances(segments: np.ndarray, policy: DetrendPolicy):
    """Detrended variance F^2 for a batch of segments (rows).

    Returns (variances, chosen) where chosen holds the 0-based winning
    basis index per segment under the flexible policy and is None for the
    fixed one.  All segments share one design per basis, so the SVD cost
    is paid once per (scale, basis).
    """
    M, s = segments.shape
    Y = segments.T
    bases = policy.bases()
    ops = [DesignFit(b, s, policy.abscissa) for b in bases]
    if isinstance(policy, FixedPolynomial):
        ss_res = ops[0].ss_res_many(Y)
        return ss_res / s, None
    ss_res = np.stack([op.ss_res_many(Y) for op in ops])
    chosen = _best_basis(_r_squared(Y, ss_res))
    return ss_res[chosen, np.arange(M)] / s, chosen
