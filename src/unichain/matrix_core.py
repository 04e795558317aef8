"""Complex dense matrix utilities.

Unitarity checks, diagonal phase matrices, Haar-distributed random
unitaries and the ``[re, im]`` JSON codec for complex numbers.  Every
matrix in this package is a dense ``numpy.ndarray`` of dtype
``complex128``; matrix comparisons use the max-norm (largest absolute
entry), which is easy to reason about entry by entry at the small sizes
this library targets.

Matrix arguments are validated by :func:`require_square` or
:func:`require_unitary`; module-wide tolerances are
``DEFAULT_UNITARITY_TOL`` (1e-10) and ``DEFAULT_EQUALITY_TOL`` (1e-12).  These, the
exception classes and the number rules for scalars are defined in the numpy-free ``_rules``
and exported from here; array arguments follow the same rule through :func:`number_array`.
All functions are pure; random sampling takes a mandatory seed and owns
its generator, so results are reproducible bit for bit.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from ._rules import (  # noqa: F401  (the package exports the rules from here)
    DEFAULT_EQUALITY_TOL, DEFAULT_UNITARITY_TOL, ConsistencyError, DomainError,
    PreconditionError, ShapeError, StructureError, _is_int, finite_real, json_float,
    json_floats, json_int, matrix_document, tolerance,
)

_TWO_PI = 2.0 * math.pi


def number_array(a, dtype, what: str) -> np.ndarray:
    """*a* as an array of *dtype*, ``float`` or ``complex128`` (not copied if it is one
    already), by the package's number rule: a bool, a string, any other object, or a complex
    entry where *dtype* is real, is a :class:`DomainError` naming *what*.  An ndarray is
    judged by its dtype alone; other input entry by entry, so one bool among numbers counts."""
    real = dtype is float
    if isinstance(a, np.ndarray):
        bad = None if a.dtype.kind in ("iuf" if real else "iufc") else a.dtype
    else:
        a = np.asarray(a, dtype=object)
        number = numbers.Real if real else numbers.Complex
        types = dict.fromkeys(map(type, a.flat))  # in the order of their first entries
        bad = next((t.__name__ for t in types if issubclass(t, bool) or not issubclass(t, number)),
                   None)
    if bad is not None:
        raise DomainError(f"{what} entries must be {'real ' if real else ''}numbers, got {bad}")
    try:
        return np.asarray(a, dtype=dtype)
    except OverflowError:  # an integer beyond the float range
        raise DomainError(f"{what} contains non-finite entries") from None


def require_square(a) -> np.ndarray:
    """*a* as a 2-d, finite, square complex128 array (not copied if it is one already).

    Raises :class:`ShapeError` for a wrong shape, :class:`DomainError` for non-finite entries.
    """
    m = number_array(a, np.complex128, "matrix")
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
    p = number_array(phases, float, "phase vector")
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
    n, entries = matrix_document(obj)
    return complex_from_pairs(entries).reshape(n, n)
