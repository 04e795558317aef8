"""Complex dense matrix utilities.

Unitarity checks, diagonal phase matrices, Haar-distributed random
unitaries and the ``[re, im]`` JSON codec for complex numbers.  Every
matrix in this package is a dense ``numpy.ndarray`` of dtype
``complex128``; matrix comparisons use the max-norm (largest absolute
entry), which is easy to reason about entry by entry at the small sizes
this library targets.

Matrix arguments are validated by :func:`require_square` or
:func:`require_unitary`; module-wide tolerances are
``DEFAULT_UNITARITY_TOL`` (1e-10) and ``DEFAULT_EQUALITY_TOL`` (1e-12).
All functions are pure; random sampling takes a mandatory seed and owns
its generator, so results are reproducible bit for bit.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

DEFAULT_UNITARITY_TOL = 1e-10
DEFAULT_EQUALITY_TOL = 1e-12

_TWO_PI = 2.0 * math.pi


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


def require_square(a) -> np.ndarray:
    """*a* as a 2-d, finite, square complex128 array (not copied if it is one already).

    Raises :class:`ShapeError` for a wrong shape, :class:`DomainError` for non-finite entries.
    """
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ShapeError(f"expected a 2-d matrix, got ndim={m.ndim}")
    if not np.isfinite(m).all():
        raise DomainError("matrix contains non-finite entries")
    if m.shape[0] != m.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {m.shape}")
    return m


def require_unitary(a, tol: float = DEFAULT_UNITARITY_TOL) -> np.ndarray:
    """:func:`require_square`, then :class:`DomainError` unless the defect is within *tol*."""
    m = require_square(a)
    if not _defect(m) <= tol:  # a nan tol rejects everything
        raise DomainError(f"input is not unitary within {tol}")
    return m


def maxnorm(a) -> float:
    """Largest absolute entry of *a* (0.0 for an empty array)."""
    a = np.asarray(a)
    return float(np.max(np.abs(a))) if a.size else 0.0


def max_abs_diff(a, b) -> float:
    """Max-norm of the entrywise difference of two equal-shape arrays."""
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        raise ShapeError(f"shape mismatch: {a.shape} vs {b.shape}")
    return maxnorm(a - b)


def unitarity_defect(a) -> float:
    """max(||a a^H - I||, ||a^H a - I||) in max-norm; input must be square."""
    return _defect(require_square(a))


def _defect(m: np.ndarray) -> float:
    """The defect of the checked square *m*, bit for bit the formula above: the diagonal of
    each fresh product (C-ordered, so ``reshape`` is a view) loses 1.0 in place, and an entry
    off the diagonal minus the identity's 0.0 is that entry."""
    h = m.conj().T
    products = m @ h, h @ m
    for g in products:
        g.reshape(-1)[:: m.shape[0] + 1] -= 1.0
    return max(float(np.abs(g).max(initial=0.0)) for g in products)


def wrap_angle(theta: float) -> float:
    """Reduce an angle to the canonical interval (-pi, pi]."""
    return math.pi - (math.pi - theta) % _TWO_PI


def wrap_angles(phases) -> np.ndarray:
    """Vectorised :func:`wrap_angle`."""
    phases = np.asarray(phases, dtype=float)
    return np.pi - np.mod(np.pi - phases, _TWO_PI)


def phase_vector(phases) -> np.ndarray:
    """Validate a sequence of real phases and return it as a float array."""
    p = np.asarray(phases, dtype=float)
    if p.ndim != 1:
        raise ShapeError(f"phase vector must be 1-d, got ndim={p.ndim}")
    if not np.all(np.isfinite(p)):
        raise DomainError("phase vector contains non-finite entries")
    return p


def phase_matrix(phases) -> np.ndarray:
    """Diagonal unitary diag(e^{i p_1}, ..., e^{i p_n})."""
    p = phase_vector(phases)
    return np.diag(np.exp(1j * p))


def haar_random(n: int, seed: int) -> np.ndarray:
    """Draw an n-by-n unitary from the Haar measure, deterministically.

    A matrix of independent standard complex Gaussians is QR-factorised
    and each column of Q is rescaled by the unit-modulus phase of the
    corresponding diagonal entry of R.  The rescaling makes the implied
    R-factor's diagonal real positive, which is what turns "QR of a
    Gaussian matrix" (biased) into an exactly Haar-distributed sample.

    The generator is PCG64 seeded with *seed*; identical (n, seed) give
    bitwise-identical output.  *n* and *seed* must be integers by the
    package's rule (a bool is not one) and *seed* non-negative; anything
    else, ``None`` included, is a :class:`DomainError`.
    """
    if not _is_int(n):
        raise DomainError(f"matrix order n must be an integer, got {n!r}")
    if n < 1:
        raise DomainError(f"matrix order must be >= 1, got {n}")
    if not _is_int(seed) or seed < 0:
        raise DomainError(f"seed must be a non-negative integer, got {seed!r}")
    rng = np.random.Generator(np.random.PCG64(seed))
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


# --- JSON interchange -------------------------------------------------------
#
# A complex number is the pair [re, im].  Matrix files are
# {"n": int, "entries": [[re, im], ...]} with entries in row-major order.
# Parsers reject wrong lengths, non-pairs, non-finite numbers, numbers that
# are strings or booleans, and orders that are not JSON integers.


def _is_int(value) -> bool:
    """Python and numpy integers but not bools: the package's rule for orders and indices."""
    return type(value) is int or isinstance(value, numbers.Integral) and not isinstance(value, bool)


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


def complex_to_pairs(values) -> list:
    """Serialise complex numbers to a list of [re, im] float pairs."""
    z = np.asarray(values, dtype=np.complex128).ravel()
    return np.stack((z.real, z.imag), axis=-1).tolist()


def complex_from_pairs(pairs, what: str = "entry") -> np.ndarray:
    """Parse a list of [re, im] pairs; *what* names an item in errors."""
    if not isinstance(pairs, list):
        raise StructureError(f"expected a list of [re, im] pairs, got {type(pairs).__name__}")
    out = np.empty(len(pairs), dtype=np.complex128)
    for i, pair in enumerate(pairs):
        if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
            raise StructureError(f"{what} {i} is not a [re, im] pair")
        re, im = pair
        if type(re) is not float or type(im) is not float:  # json.loads gives floats for most
            re = json_float(re, f"{what} {i} real part")
            im = json_float(im, f"{what} {i} imaginary part")
        if not (math.isfinite(re) and math.isfinite(im)):
            raise DomainError(f"{what} {i} is not finite: [{pair[0]}, {pair[1]}]")
        out[i] = complex(re, im)
    return out


def matrix_to_json_dict(a) -> dict:
    """Serialise a square matrix to its JSON document (plain dict)."""
    m = require_square(a)
    return {"n": m.shape[0], "entries": complex_to_pairs(m)}


def matrix_from_json_dict(obj) -> np.ndarray:
    """Parse and validate the JSON matrix document produced above."""
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
    return complex_from_pairs(entries).reshape(n, n)
