"""The package's input rules that need no numpy: error classes, tolerances, number rules,
the shape of a matrix document and the plaquette-table cap.

``matrix_core`` and ``invariants`` import these names and export them as their own, so each
rule has this one implementation.  The CLI applies them to its flags and documents before
it loads numpy, so malformed input is refused without paying numpy's import.
"""

from __future__ import annotations

import math
import numbers

DEFAULT_UNITARITY_TOL = 1e-10
DEFAULT_EQUALITY_TOL = 1e-12

#: Most entries a plaquette table may have: the n = 64 table, 2016^2 entries (62 MB).
MAX_TABLE_ENTRIES = 2016**2


class ShapeError(ValueError):
    """Operand dimensions are incompatible."""


class DomainError(ValueError):
    """An argument lies outside the operation's domain."""


class StructureError(ValueError):
    """A composite value (factor chain, JSON document) is malformed."""


class PreconditionError(ValueError):
    """A documented precondition on the input data is violated."""


class ConsistencyError(ArithmeticError):
    """An internal numerical consistency check failed."""


def _is_int(value) -> bool:
    """Python and numpy integers but not bools: the package's rule for orders and indices."""
    return type(value) is int or isinstance(value, numbers.Integral) and not isinstance(value, bool)


def finite_real(value, what: str) -> float:
    """*value* as a float: a bool, a non-real, a non-finite value or an integer beyond the float
    range is a :class:`DomainError` naming *what*.  The package's rule for angles and phases."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise DomainError(f"{what} must be a real number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:
        raise DomainError(f"{what} must be finite, got a huge integer") from None
    if not math.isfinite(value):
        raise DomainError(f"{what} must be finite, got {value}")
    return value


def tolerance(value, what: str) -> float:
    """*value* as a tolerance: a finite real (:func:`finite_real`) that is not negative."""
    value = finite_real(value, what)
    if value < 0:
        raise DomainError(f"{what} must not be negative, got {value}")
    return value


def json_int(value, what: str) -> int:
    """An integer field of a JSON document; a bool, float or string is a :class:`StructureError`."""
    if not _is_int(value):
        raise StructureError(f"{what} must be an integer, got {value!r}")
    return int(value)


def json_float(value, what: str) -> float:
    """A number field of a JSON document; a bool, string or list is a :class:`StructureError`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise StructureError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer literal beyond the float range
        raise DomainError(f"{what} is too large for a float") from None


def json_floats(values, what: str) -> list:
    """A list field of JSON numbers, as floats; anything but a list is a :class:`StructureError`."""
    if not isinstance(values, list):
        raise StructureError(f"{what} must be a list of numbers, got {type(values).__name__}")
    return [json_float(v, f"{what} entry {i}") for i, v in enumerate(values)]


def matrix_document(obj) -> tuple:
    """The order n and the entry list of a matrix document ``{"n": n, "entries": [...]}``,
    checked to be a JSON object with an integer n >= 1 and a list of n^2 entries; the
    entries themselves are not read."""
    if not isinstance(obj, dict):
        raise StructureError("matrix document must be a JSON object")
    try:
        n = json_int(obj["n"], "'n'")
        entries = obj["entries"]
    except (KeyError, TypeError, ValueError) as exc:
        raise StructureError(f"matrix document missing/invalid field: {exc}") from exc
    if n < 1:
        raise DomainError(f"matrix order must be >= 1, got {n}")
    if not isinstance(entries, list) or len(entries) != n * n:
        actual = len(entries) if isinstance(entries, list) else "non-list"
        raise StructureError(f"'entries' must hold {n * n} pairs, got {actual}")
    return n, entries


def _require_table_order(n: int) -> None:
    """Refuse an order n whose m^2 plaquettes, m = n(n-1)/2, are over ``MAX_TABLE_ENTRIES``."""
    m = n * (n - 1) // 2
    if m * m > MAX_TABLE_ENTRIES:
        raise DomainError(f"order {n} needs {m * m} plaquettes, over the cap {MAX_TABLE_ENTRIES}")
