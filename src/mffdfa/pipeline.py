"""The library pipeline: one series in, one serializable result out.

``analyze_series`` chains profile -> segmentation -> detrending ->
fluctuation -> spectrum under an ``AnalysisConfig``; ``ResultDocument``
holds what it produced and renders it as JSON (top-level keys config,
hurst, spectrum, delta_alpha, diagnostics) or as a flat per-q CSV table.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

import numpy as np

from .detrend import (BasisFunction, check_abscissa, check_order, check_scale,
                      default_basis_set, polynomial_basis)
from .errors import InputError, NumericalError, plain_fields
from .fluctuation import FluctuationSurface, default_q_grid, fluctuation_function
from .segmentation import check_grid, check_overlap, default_scale_grid
from .signal import as_series, build_profile
from .spectrum import (GeneralizedHurst, SingularitySpectrum, check_q_grid, fit_hurst,
                       legendre_transform)

METHODS = ("mfdfa", "mfdfa_overlap", "mffdfa")


@dataclass(frozen=True)
class AnalysisConfig:
    """Fully specified analysis request, as it will run: every field has a
    usable default, a value must match its annotation (only ``int | None``
    fields take None), and k is stored as 1 under mfdfa."""

    method: str = "mffdfa"
    m: int = 2
    k: int = 2
    q_min: float = -10.0
    q_max: float = 10.0
    q_step: float = 0.2
    s_min: int = 30
    s_max: int | None = None          # None -> the scale grid's default
    n_scales: int = 30
    abscissa: str = "raw"
    fit_lo: int | None = None         # optional narrowing of the scaling fit
    fit_hi: int | None = None

    def __post_init__(self):
        plain_fields(self, name=lambda field: f"setting {field!r}")
        if self.method not in METHODS:
            raise InputError(f"unknown method {self.method!r}; pick one of {METHODS}")
        check_abscissa(self.abscissa)
        check_order(self.m)
        check_grid(self.s_min, self.s_max, self.n_scales)
        check_overlap(self.s_min, self.k)   # under every method; s_min is the smallest scale
        if self.method == "mfdfa":
            object.__setattr__(self, "k", 1)
        if self.fit_lo is not None and self.fit_hi is not None and self.fit_lo > self.fit_hi:
            raise InputError(f"fit window [{self.fit_lo}, {self.fit_hi}] is inverted; "
                             "need fit_lo <= fit_hi")
        check_q_grid(default_q_grid(self.q_min, self.q_max, self.q_step))
        check_scale(self.s_min, self.bases())

    def bases(self) -> tuple[BasisFunction, ...]:
        """The default Q on the abscissa under mffdfa; the one-member Q = {poly_m} otherwise."""
        if self.method == "mffdfa":
            return tuple(default_basis_set(self.abscissa))
        return (polynomial_basis(self.m),)

    def resolved(self, N: int, scales) -> dict:
        """The fields as run: the grid's largest scale, and N."""
        return dict(dataclasses.asdict(self), s_max=int(scales[-1]), N=N)


@dataclass(frozen=True)
class ResultDocument:
    """Everything one analysis produced, ready for serialization."""

    config: dict
    hurst: GeneralizedHurst
    spectrum: SingularitySpectrum
    surface: FluctuationSurface

    def selection_fractions(self) -> dict[str, float] | None:
        """Each basis' share of all segments; None for a one-member Q (nothing to report)."""
        totals = self.surface.selection_counts.sum(axis=0)
        if totals.size == 1:
            return None
        return dict(zip(self.surface.basis_names, (totals / totals.sum()).tolist()))

    def to_dict(self) -> dict:
        surface = self.surface

        def per_basis(table):           # (n_scales, |Q|) -> one list per basis name
            return {name: col.tolist() for name, col in zip(surface.basis_names, table.T)}
        diagnostics = {
            "scales": surface.scales.tolist(),
            "segment_counts": surface.segment_counts.tolist(),
            "excluded_counts": surface.excluded_counts.tolist(),
            "usable_scales": int(surface.usable.sum()),
            "rank_deficient": per_basis(surface.rank_deficient),
        }
        sel = self.selection_fractions()
        if sel:
            diagnostics["selection_fractions"] = sel
            diagnostics["selection_counts"] = per_basis(surface.selection_counts)
        return {
            "config": self.config,
            "hurst": {
                "q": self.hurst.q_grid.tolist(),
                "h": self.hurst.h.tolist(),
                "intercepts": self.hurst.intercepts.tolist(),
                "fit_r2": self.hurst.fit_r2.tolist(),
            },
            "spectrum": {
                "q": self.spectrum.q_grid.tolist(),
                "alpha": self.spectrum.alpha.tolist(),
                "f_alpha": self.spectrum.f_alpha.tolist(),
                "alpha_at_q0": self.spectrum.alpha_at_q0,
            },
            "delta_alpha": self.spectrum.delta_alpha,
            "diagnostics": diagnostics,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def to_csv(self) -> str:
        """Flat per-q table; scalars ride along as comment headers."""
        lines = [f"# delta_alpha = {self.spectrum.delta_alpha!r}"]
        lines += [f"# {key} = {self.config[key]}" for key in ("N", "method", "k")]
        sel = self.selection_fractions()
        if sel:
            lines.append("# selection_fractions: "
                         + " ".join(f"{k}={v:.6f}" for k, v in sel.items()))
        lines.append("q,h,intercept,fit_r2,alpha,f_alpha")
        for i, qq in enumerate(self.hurst.q_grid):
            lines.append(",".join(repr(float(v)) for v in (
                qq, self.hurst.h[i], self.hurst.intercepts[i],
                self.hurst.fit_r2[i], self.spectrum.alpha[i], self.spectrum.f_alpha[i],
            )))
        return "\n".join(lines) + "\n"


def analyze_series(x, config: AnalysisConfig, *, overwrite_x: bool = False) -> ResultDocument:
    """Run one series through the whole pipeline under ``config``, on x 2^-e
    for the exponent e of its peak, which build_profile scales exactly, block
    by block: x 2^k, if no value is subnormal, analyses as x does.

    x is left as it is by default.  With ``overwrite_x`` (after scipy.fft's
    flag of that name) the profile is built in x's own float64 buffer when
    that is writeable, with no second N-long array, and x's contents are
    unspecified afterwards; a read-only x gets a fresh profile."""
    x = as_series(x)
    top, bottom = x.max(), x.min()
    if top == bottom:
        raise NumericalError("degenerate series: zero variance")
    e = int(np.frexp(max(top, -bottom))[1])
    N = x.size
    profile = build_profile(x, exponent=e, out=x if overwrite_x and x.flags.writeable else None)
    del x                           # a copy as_series made, of a list say, goes here
    scales = default_scale_grid(N, config.s_min, config.s_max, config.n_scales)
    lo = config.fit_lo if config.fit_lo is not None else 0
    hi = config.fit_hi if config.fit_hi is not None else np.inf
    in_window = int(np.count_nonzero((scales >= lo) & (scales <= hi)))
    if in_window < 4:
        where = ("the grid holds " if in_window == scales.size else
                 f"fit window [{lo}, {hi}] holds {in_window} of the grid's ")
        raise InputError(f"{where}{scales.size} distinct scales in [{scales[0]}, {scales[-1]}] "
                         f"(n_scales={config.n_scales}); the h(q) regression needs at least 4")
    q = default_q_grid(config.q_min, config.q_max, config.q_step)
    surface = fluctuation_function(profile, scales, config.k, config.bases(), q)
    hurst = fit_hurst(surface, s_range=(lo, hi))
    spec = legendre_transform(hurst)
    # undo the scaling, exactly where representable (inf past the largest double)
    with np.errstate(over="ignore"):
        surface = dataclasses.replace(surface, values=np.ldexp(surface.values, e))
    hurst = dataclasses.replace(hurst, intercepts=hurst.intercepts + e * np.log(2.0))
    return ResultDocument(config=config.resolved(N, scales), hurst=hurst,
                          spectrum=spec, surface=surface)
