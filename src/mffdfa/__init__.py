"""Multifractal detrended fluctuation analysis with overlapping windows
and flexible per-segment detrending.

The pipeline mirrors the textbook MFDFA steps -- profile, segmentation,
detrending, q-order aggregation, scaling fit, Legendre transform -- with
two modifications: segments may partly overlap (stride floor(s/k)), and
the trend model may be chosen per segment from a small basis set by
coefficient of determination instead of being one fixed polynomial.
"""

from .detrend import (
    BasisFunction,
    DetrendPolicy,
    default_basis_set,
    polynomial_basis,
)
from .errors import InputError, NumericalError
from .fluctuation import FluctuationSurface, default_q_grid, fluctuation_function
from .generators import (
    CascadeSpec,
    FbmSpec,
    cascade_oracle,
    fgn_autocovariance,
    generate_cascade,
    generate_fgn,
)
from .pipeline import AnalysisConfig, ResultDocument, analyze_series
from .segmentation import default_scale_grid, layout
from .signal import build_profile, log_returns
from .spectrum import GeneralizedHurst, fit_hurst, legendre_transform

__version__ = "0.1.0"

__all__ = [
    "AnalysisConfig", "ResultDocument", "analyze_series",
    "BasisFunction", "DetrendPolicy",
    "default_basis_set", "polynomial_basis",
    "InputError", "NumericalError",
    "FluctuationSurface", "default_q_grid", "fluctuation_function",
    "CascadeSpec", "FbmSpec", "cascade_oracle",
    "fgn_autocovariance", "generate_cascade", "generate_fgn",
    "default_scale_grid", "layout", "build_profile", "log_returns",
    "GeneralizedHurst", "fit_hurst", "legendre_transform",
    "__version__",
]


def __getattr__(name):
    # the command-line module loads on first access, so that
    # ``python -m mffdfa.cli`` does not find it already imported
    if name == "cli":
        import importlib
        return importlib.import_module(".cli", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
