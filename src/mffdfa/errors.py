"""Exception types shared across the package, and the one typing rule of its requests.

Two failure families matter operationally: bad input (the caller can fix the
data or the flags) and numerical breakdown (the data defeated the estimator).
The CLI maps them to distinct exit codes, so keep the split honest.  Every
request (AnalysisConfig, FbmSpec, CascadeSpec, CascadeOracle) is typed by ``plain_fields``.
"""

import dataclasses
import numbers


class InputError(ValueError):
    """Invalid input data or configuration (CLI exit code 2)."""


class NumericalError(RuntimeError):
    """Estimation failed on valid-looking input, e.g. degenerate series or
    too few usable scales for the scaling regression (CLI exit code 3)."""


#: per annotation: how an error names it, the values it accepts (NumPy scalars
#: among them; bool, an int to Python, is refused apart) and the type stored
_FIELD_TYPES = {"str": ("a string", str, str), "int": ("an integer", numbers.Integral, int),
                "float": ("a number", numbers.Real, float)}


def plain_fields(obj, name=str) -> None:
    """Store each field of the frozen dataclass obj as the plain type of its string
    annotation (postponed evaluation), or refuse it as bad input under name(field);
    only ``X | None`` fields take None."""
    for f in dataclasses.fields(obj):
        value, nullable = getattr(obj, f.name), f.type.endswith(" | None")
        if value is None and nullable:
            continue
        noun, accepted, plain = _FIELD_TYPES[f.type.removesuffix(" | None")]
        if isinstance(value, bool) or not isinstance(value, accepted):
            raise InputError(f"{name(f.name)} must be {noun}"
                             f"{' or null' if nullable else ''}, got {value!r}")
        object.__setattr__(obj, f.name, plain(value))
