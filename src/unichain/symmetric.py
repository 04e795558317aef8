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
from dataclasses import dataclass

import numpy as np

from ._rules import char_length, symmetric_document, symmetric_shape
from .matrix_core import DomainError, finite_real, integer, number_array
from .recursive_param import Factor, _apply_block, _as_char, _check_units, embed


def sym_param_count(n: int) -> int:
    """Free real parameters of the symmetric construction: n(n-1)/2."""
    n = integer(n, "order", 2)
    return n * (n - 1) // 2


@dataclass(frozen=True, eq=False)
class SymmetricParams:
    """Angles and real characteristic vectors of a palindromic chain.

    ``thetas`` holds theta_2 .. theta_n; ``real_chars`` one real unit
    vector of length k-1 per order k = 2 .. n (the imaginary unit is
    applied inside :func:`sym_factor`, keeping the parameter count
    manifest).  ``half_angle`` selects the half-angle convention for the
    inner factors.
    """

    n: int
    thetas: tuple
    real_chars: tuple
    half_angle: bool = True

    def __post_init__(self):
        thetas, chars = tuple(self.thetas), tuple(self.real_chars)
        object.__setattr__(self, "n", symmetric_shape(self.n, thetas, chars))
        if not isinstance(self.half_angle, bool):
            raise DomainError(f"half_angle must be a bool, got {self.half_angle!r}")
        thetas = tuple(finite_real(t, f"theta_{k}") for k, t in enumerate(thetas, start=2))
        object.__setattr__(self, "thetas", thetas)
        object.__setattr__(self, "real_chars", _real_chars(chars))

    def theta(self, k: int) -> float:
        return self.thetas[k - 2]

    def char(self, k: int) -> np.ndarray:
        return self.real_chars[k - 2]


def _real_chars(chars: tuple) -> tuple:
    """Read-only copies of the real vectors of orders 2 .. len(chars) + 1, checked in one pass.

    Row k - 2 of one zero-padded array holds the order-k vector, so its transpose has a
    chain's layout and goes through the one unit-vector rule.  On any failure the vectors
    are checked again one at a time, so the first failing vector raises its own error.
    """
    m = len(chars)
    packed = np.zeros((m, m))
    try:
        for i, xs in enumerate(chars):
            v = number_array(xs, float, "characteristic vector").ravel()
            char_length(i + 2, v.size)
            packed[i, : i + 1] = v
        _check_units(packed.T)
    except ValueError:  # DomainError is one
        vectors = tuple(_as_char(xs, k, float) for k, xs in enumerate(chars, start=2))
    else:
        packed.setflags(write=False)
        vectors = tuple(packed[i, : i + 1] for i in range(m))
    for v in vectors:
        v.setflags(write=False)
    return vectors


def sym_factor(k: int, theta: float, xs, n: int) -> np.ndarray:
    """Embedded symmetric factor of order k: char = i * xs, xs real unit."""
    return embed(Factor(n, k, theta, 1j * _as_char(xs, k, float)))


def compose_symmetric(p: SymmetricParams) -> np.ndarray:
    """Multiply out the palindrome A_2 ... A_n ... A_2.

    Inner factors use theta_k / 2 under the half-angle convention (they
    appear twice); the order-n factor always uses theta_n.  The palindrome
    reads the same both ways, so left-multiplying its factors in sequence
    onto the identity gives the product.  Each vector and its conjugate are
    formed once, for both places of their order.
    """
    n = p.n
    scale = 0.5 if p.half_angle else 1.0
    chars = [1j * xs for xs in p.real_chars]
    conjs = [a.conj() for a in chars]
    v = np.eye(n, dtype=np.complex128)
    for k in (*range(2, n + 1), *range(n - 1, 1, -1)):
        theta = p.theta(k) if k == n else scale * p.theta(k)
        _apply_block(theta, chars[k - 2], conjs[k - 2], v)
    return v


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
