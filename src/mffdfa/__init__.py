"""Multifractal detrended fluctuation analysis with overlapping windows
and flexible per-segment detrending.

The pipeline mirrors the textbook MFDFA steps -- profile, segmentation,
detrending, q-order aggregation, scaling fit, Legendre transform -- with
two modifications: segments may partly overlap (stride floor(s/k)), and
the trend model may be chosen per segment from a small basis set by
least residual sum of squares instead of being one fixed polynomial.
"""

from .errors import InputError, NumericalError
from .generators import CascadeSpec, FbmSpec, cascade_oracle, generate_cascade, generate_fgn
from .pipeline import AnalysisConfig, ResultDocument, analyze_series

__version__ = "0.1.0"

__all__ = [
    "AnalysisConfig", "analyze_series", "ResultDocument",
    "FbmSpec", "CascadeSpec", "generate_fgn", "generate_cascade", "cascade_oracle",
    "InputError", "NumericalError",
    "__version__",
]


def __getattr__(name):
    # the command-line module loads on first access, so that
    # ``python -m mffdfa.cli`` does not find it already imported
    if name == "cli":
        import importlib
        return importlib.import_module(".cli", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
