"""Manifestly symmetric unitary matrices from the factor chain.

A factor is symmetric exactly when its generator is, i.e. when the
characteristic vector is purely imaginary: char = i * x with x real.
Products of such factors are not symmetric, but the palindromic chain

    V_sym = A_2 A_3 ... A_{n-1} A_n A_{n-1} ... A_3 A_2

is, and stays unitary.  Each order contributes k-1 real parameters (one
angle plus k-2 free components of a real unit vector), for n(n-1)/2 in
total.  By convention the inner (twice-occurring) factors carry half
angles so that the closed 3-by-3 form below and the palindrome agree on
the same angle values; the raw convention is kept behind a flag.

Angles are unrestricted reals here; distinct parameter sets may map to
the same matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._rules import ASCENDING, char_length, symmetric_document, symmetric_shape
from .matrix_core import DomainError, finite_real, integer, number_array
from .recursive_param import Decomposition, Factor, _as_char, _check_units, compose, embed


def sym_param_count(n: int) -> int:
    """Free real parameters of the symmetric construction: n(n-1)/2."""
    n = integer(n, "order", 2)
    return n * (n - 1) // 2


@dataclass(frozen=True, eq=False)
class SymmetricParams:
    """Angles and real characteristic vectors of a palindromic chain.

    ``thetas`` holds theta_2 .. theta_n.  ``chars`` holds the real unit vectors, read-only,
    in the layout of ``Decomposition.chars`` (column k - 2 the order-k vector), and
    ``real_chars`` are views of its columns.  The products apply the imaginary unit, keeping
    the parameter count manifest.  ``half_angle`` selects the half-angle convention.
    """

    n: int
    thetas: tuple
    real_chars: tuple
    half_angle: bool = True
    chars: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        thetas, chars = tuple(self.thetas), tuple(self.real_chars)
        object.__setattr__(self, "n", symmetric_shape(self.n, thetas, chars))
        if not isinstance(self.half_angle, bool):
            raise DomainError(f"half_angle must be a bool, got {self.half_angle!r}")
        thetas = tuple(finite_real(t, f"theta_{k}") for k, t in enumerate(thetas, start=2))
        object.__setattr__(self, "thetas", thetas)
        chars = _real_chars(chars)
        object.__setattr__(self, "chars", chars)
        object.__setattr__(self, "real_chars", tuple(chars[: i + 1, i] for i in range(len(chars))))

    def theta(self, k: int) -> float:
        return self.thetas[integer(k, "order", 2, self.n) - 2]

    def char(self, k: int) -> np.ndarray:
        return self.real_chars[integer(k, "order", 2, self.n) - 2]


def _real_chars(chars: tuple) -> np.ndarray:
    """One read-only array of the real vectors of orders 2 .. len(chars) + 1, checked in one pass.

    Column k - 2 of the zero-padded array holds the order-k vector, a chain's layout, so it
    goes through the one unit-vector rule.  On any failure the vectors are checked again one
    at a time, so the first failing vector raises its own error.
    """
    m = len(chars)
    packed = np.zeros((m, m), order="F")
    try:
        for i, xs in enumerate(chars):
            v = number_array(xs, float, "characteristic vector").ravel()
            char_length(i + 2, v.size)
            packed[: i + 1, i] = v
        _check_units(packed)
    except ValueError:  # DomainError is one
        for k, xs in enumerate(chars, start=2):
            _as_char(xs, k, float)
        raise
    packed.setflags(write=False)
    return packed


def sym_factor(k: int, theta: float, xs, n: int) -> np.ndarray:
    """Embedded symmetric factor of order k: char = i * xs, xs real unit."""
    return embed(Factor(n, k, theta, 1j * _as_char(xs, k, float)))


def compose_symmetric(p: SymmetricParams) -> np.ndarray:
    """Multiply out the palindrome A_2 ... A_n ... A_2 as B B^T.

    Inner factors use theta_k / 2 under the half-angle convention (they
    appear twice); the order-n factor always uses theta_n.  Each factor is
    its own transpose, so the palindrome is B B^T for the ascending chain
    B = A_2 ... A_{n-1} A_n(theta_n / 2), which :func:`compose` multiplies
    out.  numpy forms a matrix times its own transpose as one triangle and
    its mirror, so the result is exactly symmetric.
    """
    n = p.n
    thetas = np.multiply(p.thetas, 0.5 if p.half_angle else 1.0)
    thetas[-1] = 0.5 * p.thetas[-1]
    zeros = np.zeros(n)
    half = Decomposition._of(n, range(2, n + 1), thetas, 1j * p.chars, zeros, zeros, ASCENDING)
    b = compose(half)
    return b @ b.T


def v3sym_closed(theta2: float, theta3: float, xs) -> np.ndarray:
    """Closed form of the symmetric 3-by-3: A_2(t2/2) A_3(t3) A_2(t2/2).

    With u1 = cos(t2/2) x1 + i sin(t2/2) x2 and u2 = cos(t2/2) x2 +
    i sin(t2/2) x1 (unit vector u), the product collapses to a single
    displayed matrix in u.
    """
    xs = _as_char(xs, 3, float)
    c2, s2 = math.cos(theta2), math.sin(theta2)
    c3, s3 = math.cos(theta3), math.sin(theta3)
    cp, sp = math.cos(theta2 / 2), math.sin(theta2 / 2)
    u1 = cp * xs[0] + 1j * sp * xs[1]
    u2 = cp * xs[1] + 1j * sp * xs[0]
    return np.array(
        [
            [c2 - (1 - c3) * u1 * u1, 1j * s2 - (1 - c3) * u1 * u2, 1j * s3 * u1],
            [1j * s2 - (1 - c3) * u1 * u2, c2 - (1 - c3) * u2 * u2, 1j * s3 * u2],
            [1j * s3 * u1, 1j * s3 * u2, c3],
        ],
        dtype=np.complex128,
    )


def a4prime(theta2: float, theta4: float, ys) -> np.ndarray:
    """The conjugated order-4 factor A_2(t2/2)^-1 A_4(t4) A_2(t2/2)^-1.

    The first two components of the real vector y rotate into
    v1 = cos(t2/2) y1 - i sin(t2/2) y2, v2 = cos(t2/2) y2 - i sin(t2/2) y1
    while v3 = y3 is untouched; v keeps unit norm.
    """
    ys = _as_char(ys, 4, float)
    c2, s2 = math.cos(theta2), math.sin(theta2)
    c4, s4 = math.cos(theta4), math.sin(theta4)
    cp, sp = math.cos(theta2 / 2), math.sin(theta2 / 2)
    v1 = cp * ys[0] - 1j * sp * ys[1]
    v2 = cp * ys[1] - 1j * sp * ys[0]
    v3 = complex(ys[2])
    w = 1 - c4
    return np.array(
        [
            [c2 - w * v1 * v1, -1j * s2 - w * v1 * v2, -w * v1 * v3, 1j * s4 * v1],
            [-1j * s2 - w * v1 * v2, c2 - w * v2 * v2, -w * v2 * v3, 1j * s4 * v2],
            [-w * v1 * v3, -w * v2 * v3, 1 - w * v3 * v3, 1j * s4 * v3],
            [1j * s4 * v1, 1j * s4 * v2, 1j * s4 * v3, c4],
        ],
        dtype=np.complex128,
    )


def j_sym_n3(theta2: float, theta3: float, xs) -> float:
    """Invariant phase of the symmetric 3-by-3: c2 c3 s2 s3^2 x1 x2."""
    xs = _as_char(xs, 3, float)
    return float(
        math.cos(theta2)
        * math.cos(theta3)
        * math.sin(theta2)
        * math.sin(theta3) ** 2
        * xs[0]
        * xs[1]
    )


# --- JSON interchange -------------------------------------------------------
#
# {"n": int, "thetas": [real, ...], "chars": [[real, ...], ...],
#  "half_angle": bool}


def symmetric_params_to_json_dict(p: SymmetricParams) -> dict:
    return {
        "n": p.n,
        "thetas": [float(t) for t in p.thetas],
        "chars": [[float(v) for v in xs] for xs in p.real_chars],
        "half_angle": bool(p.half_angle),
    }


def symmetric_params_from_json_dict(obj) -> SymmetricParams:
    return SymmetricParams(*symmetric_document(obj))
