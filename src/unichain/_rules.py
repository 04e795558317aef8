"""The package's input rules that need no numpy: error classes, tolerances, number rules,
the order rules of chains, reorder targets, palindromes, panel lattices and zero textures, the
order caps of ``gen`` and plaquette tables, and the shape of each JSON document.

The layers import these names and export them as their own, so each rule has this one
implementation; a constructor and the reader of its document call the same rule.  The CLI
applies them to its flags and documents before it loads numpy, so malformed, oversized and
wrong-kind input is refused without paying numpy's import.
"""

from __future__ import annotations

import math
import numbers

DEFAULT_UNITARITY_TOL = 1e-10
DEFAULT_EQUALITY_TOL = 1e-12

#: Most entries a plaquette table may have: the n = 64 table, 2016^2 entries (62 MB).
MAX_TABLE_ENTRIES = 2016**2
#: Largest matrix order ``gen`` accepts; larger orders are refused before any allocation.
MAX_GEN_N = 1024

ASCENDING = "ascending"
DESCENDING = "descending"
CUSTOM = "custom"


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


def integer(value, what: str, lo: int, hi: int | None = None) -> int:
    """*value* as an int in lo..hi, no upper bound if *hi* is None: a non-integer by
    :func:`_is_int` (a bool, a float, a string) or one out of range is a :class:`DomainError`
    naming *what*.  The package's rule for orders, counts and seeds."""
    if not _is_int(value):
        raise DomainError(f"{what} must be an integer, got {value!r}")
    value = int(value)
    if value < lo or hi is not None and value > hi:
        bounds = f">= {lo}" if hi is None else f"in {lo}..{hi}"
        shown = value if abs(value) < 2**63 else "a huge integer"  # str() of one may raise
        raise DomainError(f"{what} must be an integer {bounds}, got {shown}")
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


def infer_order(orders) -> str:
    """Classify a factor-order sequence as ascending, descending or custom."""
    orders = list(orders)
    if orders == sorted(orders):
        return ASCENDING
    if orders == sorted(orders, reverse=True):
        return DESCENDING
    return CUSTOM


def chain_size(n: int, count: int) -> None:
    """Refuse a chain over n of *count* factors unless n >= 1 and count = n - 1.  A document
    compares its count before it reads any factor: n comes from outside and may be huge."""
    integer(n, "ambient dimension", 1)
    if count != n - 1:
        raise StructureError(
            f"chain must hold exactly one factor per order 2..{n}, got {count} factors"
        )


def chain_shape(n: int, orders: list, tag, left: int, right: int) -> None:
    """The shape rule of a chain over n: :func:`chain_size`; *orders*, the factor orders in
    product order, a permutation of 2..n that the order *tag* (ascending, descending, or
    custom for any permutation) names; and phase vectors of *left* and *right* entries, n each."""
    chain_size(n, len(orders))
    if sorted(orders) != list(range(2, n + 1)):
        raise StructureError(
            f"chain must hold exactly one factor per order 2..{n}, got orders {orders}"
        )
    if tag not in (ASCENDING, DESCENDING, CUSTOM):
        raise StructureError(f"unknown order tag {tag!r}")
    # n <= 2 chains are both ascending and descending; any tag but custom fits.
    if tag != CUSTOM and n > 2 and tag != infer_order(orders):
        raise StructureError(f"order tag {tag!r} does not match sequence {orders}")
    if left != n or right != n:
        raise StructureError(f"phase vectors must have length {n}, got {left} and {right}")


def char_length(k: int, size: int) -> None:
    """Refuse a characteristic vector of order k whose length *size* is not k - 1."""
    if size != k - 1:
        raise DomainError(
            f"characteristic vector for order {k} must have length {k - 1}, got {size}"
        )


def symmetric_shape(n: int, thetas, chars) -> int:
    """The shape rule of a palindrome of order n: an integer n >= 2 (:func:`integer`), n - 1
    angles and n - 1 vectors.  Returns n as an int."""
    n = integer(n, "order", 2)
    if len(thetas) != n - 1:
        raise StructureError(f"expected {n - 1} angles (theta_2..theta_{n}), got {len(thetas)}")
    if len(chars) != n - 1:
        raise StructureError(f"expected {n - 1} characteristic vectors, got {len(chars)}")
    return n


def _fields(obj, what: str, read) -> tuple:
    """``read(obj)``, the fields of the JSON object *obj*: a non-object, a missing field or a
    field that *read* refuses is a :class:`StructureError` naming *what*."""
    if not isinstance(obj, dict):
        raise StructureError(f"{what} must be a JSON object")
    try:
        return read(obj)
    except (KeyError, TypeError, ValueError) as exc:
        raise StructureError(f"{what} missing/invalid field: {exc}") from exc


def matrix_document(obj) -> tuple:
    """The order n and the entry list of a matrix document ``{"n": n, "entries": [...]}``,
    checked to be a JSON object with an integer n >= 1 and a list of n^2 entries; the
    entries themselves are not read."""
    n, entries = _fields(obj, "matrix document", lambda o: (json_int(o["n"], "'n'"), o["entries"]))
    integer(n, "matrix order", 1)
    if not isinstance(entries, list) or len(entries) != n * n:
        actual = len(entries) if isinstance(entries, list) else "non-list"
        raise StructureError(f"'entries' must hold {n * n} pairs, got {actual}")
    return n, entries


def _require_table_order(n: int) -> None:
    """Refuse an order n whose m^2 plaquettes, m = n(n-1)/2, are over ``MAX_TABLE_ENTRIES``."""
    m = n * (n - 1) // 2
    if m * m > MAX_TABLE_ENTRIES:
        raise DomainError(f"order {n} needs {m * m} plaquettes, over the cap {MAX_TABLE_ENTRIES}")


def _require_texture_order(n: int) -> None:
    """Refuse a zero-texture analysis of an order other than 4."""
    if n != 4:
        raise DomainError(f"zero-texture analysis is specific to n=4, got n={n}")


def _require_panel_order(n: int) -> None:
    """Refuse a panel lattice of an order below 2: it has no panel."""
    if n < 2:
        raise DomainError("panel lattice needs n >= 2")


def permutation(target, n: int) -> tuple:
    """*target* as a tuple of ints: integers by :func:`_is_int` holding each order 2..n once,
    or else a :class:`DomainError`.  The rule of a chain's reorder target."""
    target = list(target)
    if not all(map(_is_int, target)) or sorted(target) != list(range(2, n + 1)):
        raise DomainError(f"target {target} is not a permutation of 2..{n}")
    return tuple(map(int, target))


def chain_document(obj) -> tuple:
    """(n, tag, factors, alpha, beta) of a chain document, checked by :func:`chain_shape`:
    a JSON object with an integer n, whose n - 1 factors are counted before one is read.
    Each factor is (k, theta, char), k an integer, theta a finite number and char a list of
    k - 1 items, which are not read; alpha and beta are lists of n numbers."""
    n, tag, items, alpha, beta = _fields(obj, "decomposition document", lambda o: (
        json_int(o["n"], "'n'"), o["order"], o["factors"],
        json_floats(o["alpha"], "'alpha'"), json_floats(o["beta"], "'beta'"),
    ))
    if not isinstance(items, list):
        raise StructureError("'factors' must be a list")
    chain_size(n, len(items))
    factors = []
    for i, item in enumerate(items):
        k, theta, char = _fields(item, f"factor {i}", lambda f: (
            json_int(f["k"], "'k'"), json_float(f["theta"], "'theta'"), f["char"],
        ))
        if not isinstance(char, list):
            raise StructureError(f"expected a list of [re, im] pairs, got {type(char).__name__}")
        factors.append((k, finite_real(theta, "theta"), char))
    chain_shape(n, [k for k, _, _ in factors], tag, len(alpha), len(beta))
    for k, _, char in factors:
        char_length(k, len(char))
    return n, tag, factors, alpha, beta


def symmetric_document(obj) -> tuple:
    """(n, thetas, chars, half_angle) of a symmetric-parameter document, checked by
    :func:`symmetric_shape`: a JSON object with an integer n, n - 1 numbers ``thetas``, n - 1
    lists ``chars`` of 1 .. n - 1 numbers, and a bool ``half_angle``, true when absent."""
    n, thetas, chars, half_angle = _fields(obj, "symmetric-params document", lambda o: (
        json_int(o["n"], "'n'"), json_floats(o["thetas"], "'thetas'"), o["chars"],
        o.get("half_angle", True),
    ))
    if not isinstance(chars, list):
        raise StructureError(f"'chars' must be a list, got {type(chars).__name__}")
    symmetric_shape(n, thetas, chars)
    chars = [json_floats(xs, f"'chars' entry {i}") for i, xs in enumerate(chars)]
    for k, xs in enumerate(chars, start=2):
        char_length(k, len(xs))
    if not isinstance(half_angle, bool):
        raise StructureError(f"'half_angle' must be true or false, got {half_angle!r}")
    return n, thetas, chars, half_angle
