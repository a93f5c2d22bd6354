"""The library pipeline: one series in, one serializable result out.

``analyze_series`` chains profile -> segmentation -> detrending ->
fluctuation -> spectrum under an ``AnalysisConfig``; ``ResultDocument``
holds what it produced and renders it as JSON (top-level keys config,
hurst, spectrum, delta_alpha, diagnostics) or as a flat per-q CSV table.
"""

from __future__ import annotations

import dataclasses
import json
import numbers
from dataclasses import dataclass

import numpy as np

from .detrend import ABSCISSAS, M_MAX, DetrendPolicy, polynomial_basis
from .errors import InputError, NumericalError
from .fluctuation import FluctuationSurface, default_q_grid, fluctuation_function
from .segmentation import default_scale_grid
from .signal import as_series, build_profile
from .spectrum import GeneralizedHurst, SingularitySpectrum, fit_hurst, legendre_transform

METHODS = ("mfdfa", "mfdfa_overlap", "mffdfa")

#: per annotation: how an error names it, the values it accepts (NumPy scalars
#: among them; bool, an int to Python, is refused apart) and the type stored
_FIELD_TYPES = {"str": ("a string", str, str), "int": ("an integer", numbers.Integral, int),
                "float": ("a number", numbers.Real, float)}


@dataclass(frozen=True)
class AnalysisConfig:
    """Fully specified analysis request: every field has a usable default, and
    a value must match its annotation (only ``int | None`` fields take None)."""

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
        # the annotations are strings here (postponed evaluation, see the imports)
        for f in dataclasses.fields(self):
            value, nullable = getattr(self, f.name), f.type.endswith(" | None")
            if value is None and nullable:
                continue
            noun, accepted, plain = _FIELD_TYPES[f.type.removesuffix(" | None")]
            if isinstance(value, bool) or not isinstance(value, accepted):
                raise InputError(f"setting {f.name!r} must be {noun}"
                                 f"{' or null' if nullable else ''}, got {value!r}")
            object.__setattr__(self, f.name, plain(value))
        if self.method not in METHODS:
            raise InputError(f"unknown method {self.method!r}; pick one of {METHODS}")
        if self.abscissa not in ABSCISSAS:
            raise InputError(f"abscissa must be one of {ABSCISSAS}, got {self.abscissa!r}")
        if not 1 <= self.m <= M_MAX:
            raise InputError(f"detrending order m={self.m} outside the sweep range [1, {M_MAX}]")
        if self.fit_lo is not None and self.fit_hi is not None and self.fit_lo > self.fit_hi:
            raise InputError(f"fit window [{self.fit_lo}, {self.fit_hi}] is inverted; "
                             "need fit_lo <= fit_hi")

    def effective_k(self) -> int:
        return 1 if self.method == "mfdfa" else self.k

    def policy(self) -> DetrendPolicy:
        """The default Q under mffdfa; the one-member Q = {poly_m} otherwise."""
        if self.method == "mffdfa":
            return DetrendPolicy(abscissa=self.abscissa)
        return DetrendPolicy((polynomial_basis(self.m),), self.abscissa)

    def resolved(self, N: int, scales) -> dict:
        """The fields as run: the method's k, the grid's largest scale, and N."""
        return dict(dataclasses.asdict(self), s_max=int(scales[-1]),
                    k=self.effective_k(), N=N)

    def fit_range(self):
        return (self.fit_lo if self.fit_lo is not None else 0,
                self.fit_hi if self.fit_hi is not None else np.inf)


@dataclass(frozen=True)
class ResultDocument:
    """Everything one analysis produced, ready for serialization."""

    config: dict
    hurst: GeneralizedHurst
    spectrum: SingularitySpectrum
    surface: FluctuationSurface

    def to_dict(self) -> dict:
        diagnostics = {
            "scales": self.surface.scales.tolist(),
            "segment_counts": self.surface.segment_counts.tolist(),
            "excluded_counts": self.surface.excluded_counts.tolist(),
            "usable_scales": int(self.surface.usable.sum()),
            "rank_deficient": {
                name: col.tolist()
                for name, col in zip(self.surface.basis_names, self.surface.rank_deficient.T)
            },
        }
        # a one-member Q picks its only basis everywhere: nothing to report
        if len(self.surface.basis_names) > 1:
            totals = self.surface.selection_counts.sum(axis=0)
            frac = totals / max(int(totals.sum()), 1)
            diagnostics["selection_fractions"] = dict(zip(self.surface.basis_names, frac.tolist()))
            diagnostics["selection_counts"] = {
                name: col.tolist()
                for name, col in zip(self.surface.basis_names, self.surface.selection_counts.T)
            }
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
        sel = self.to_dict()["diagnostics"].get("selection_fractions")
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


def analyze_series(x, config: AnalysisConfig) -> ResultDocument:
    """Run one series through the whole pipeline under ``config``."""
    x = as_series(x)
    if np.ptp(x) == 0.0:
        raise NumericalError("degenerate series: zero variance")
    profile = build_profile(x)
    scales = default_scale_grid(x.size, config.s_min, config.s_max, config.n_scales)
    lo, hi = config.fit_range()
    in_window = int(np.count_nonzero((scales >= lo) & (scales <= hi)))
    if in_window < 4:
        raise InputError(f"fit window [{lo}, {hi}] holds {in_window} of the {scales.size} "
                         "grid scales; the h(q) regression needs at least 4")
    q = default_q_grid(config.q_min, config.q_max, config.q_step)
    surface = fluctuation_function(profile, scales, config.effective_k(), config.policy(), q)
    hurst = fit_hurst(surface, s_range=(lo, hi))
    spec = legendre_transform(hurst)
    return ResultDocument(config=config.resolved(x.size, scales), hurst=hurst,
                          spectrum=spec, surface=surface)
