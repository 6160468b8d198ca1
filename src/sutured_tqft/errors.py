"""Exception types shared across the package, and the JSON checks
that raise them."""
from __future__ import annotations

__all__ = [
    "ValidationError",
    "InvalidSurfaceError",
    "InvalidDividingSetError",
    "InvalidGluingError",
    "InvalidChordDiagramError",
    "UnsupportedSurfaceError",
    "InternalConsistencyError",
    "json_field",
    "json_int",
]


class ValidationError(ValueError):
    """Input data fails a structural precondition."""


class InvalidSurfaceError(ValidationError):
    """Halfedge complex or its sutured marking is malformed."""


class InvalidDividingSetError(ValidationError):
    """Curve system or sign assignment violates the dividing-set axioms."""


class InvalidGluingError(ValidationError):
    """Boundary identification data is not a valid gluing."""


class InvalidChordDiagramError(ValidationError):
    """Matching data is not a noncrossing chord diagram."""


class UnsupportedSurfaceError(ValidationError):
    """Input is valid but outside the range this algorithm supports."""


class InternalConsistencyError(AssertionError):
    """A theorem-backed internal invariant failed; indicates a bug."""


def json_field(data, key: str, kind: type, error: type[ValidationError]):
    """``data[key]`` from a JSON object, checked to be a ``kind``: list (of
    integers) or dict.  Raises ``error`` otherwise."""
    if not isinstance(data, dict):
        raise error(f"expected a JSON object holding {key!r}")
    if key not in data:
        raise error(f"missing key {key!r}")
    value = data[key]
    if not isinstance(value, kind) or (
            kind is list and any(type(x) is not int for x in value)):
        what = "a list of integers" if kind is list else "a JSON object"
        raise error(f"{key!r} must be {what}")
    return value


def json_int(value) -> int:
    """An id read from JSON, which must be an integer proper: int() would
    truncate 0.5 and accept true.  Raises TypeError otherwise, for the
    loader to report as its own error."""
    if type(value) is not int:
        raise TypeError(f"id {value!r} is not an integer")
    return value
