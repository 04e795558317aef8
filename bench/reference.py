"""Plain-numpy references for checking unichain's outputs.

Nothing here imports unichain: every check the benchmark makes compares
the library's output with a value computed independently from the
formulas in the package documentation, so a fast but wrong change shows
up as failed operations.  Reference work runs outside the timed
operations and is charged to no layer.
"""

from __future__ import annotations

import math

import numpy as np


def max_abs(a) -> float:
    """Largest absolute entry (0.0 for an empty array)."""
    a = np.asarray(a)
    return float(np.max(np.abs(a))) if a.size else 0.0


def unitarity_defect(x: np.ndarray) -> float:
    """max(|X X^H - I|, |X^H X - I|) in max-norm."""
    eye = np.eye(x.shape[0])
    return max(max_abs(x @ x.conj().T - eye), max_abs(x.conj().T @ x - eye))


def factor_block(theta: float, a: np.ndarray) -> np.ndarray:
    """k-by-k block [[I - (1-c)|a><a|, s|a>], [-s<a|, c]] of one chain factor."""
    k = a.size + 1
    c, s = math.cos(theta), math.sin(theta)
    out = np.empty((k, k), dtype=np.complex128)
    out[:-1, :-1] = np.eye(k - 1) - (1.0 - c) * np.outer(a, a.conj())
    out[:-1, -1] = s * a
    out[-1, :-1] = -s * a.conj()
    out[-1, -1] = c
    return out


def chain_matrix(thetas, chars, alpha, beta) -> np.ndarray:
    """Phi(alpha) A_2 ... A_n Phi(beta) for factors listed in ascending order."""
    v = np.diag(np.exp(1j * np.asarray(alpha, dtype=float)))
    for theta, a in zip(thetas, chars):
        k = len(a) + 1
        v[:, :k] = v[:, :k] @ factor_block(theta, np.asarray(a, dtype=np.complex128))
    return v * np.exp(1j * np.asarray(beta, dtype=float))[None, :]


def palindrome(thetas, real_chars, half_angle: bool = True) -> np.ndarray:
    """A_2 ... A_{n-1} A_n A_{n-1} ... A_2 with imaginary characteristic vectors."""
    n = len(thetas) + 1
    scale = 0.5 if half_angle else 1.0
    order = list(range(n - 1)) + list(range(n - 3, -1, -1))
    v = np.eye(n, dtype=np.complex128)
    for i in order:
        theta = thetas[i] if i == n - 2 else scale * thetas[i]
        a = 1j * np.asarray(real_chars[i], dtype=float)
        k = a.size + 1
        v[:, :k] = v[:, :k] @ factor_block(theta, a)
    return v


def pair_index(n: int, a: int, b: int) -> int:
    """Position of the 0-based pair a < b in ``np.triu_indices(n, 1)`` order."""
    return a * n - a * (a + 1) // 2 + (b - a - 1)


def plaquettes(x: np.ndarray) -> np.ndarray:
    """All X_aj X_bk conj(X_ak) conj(X_bj), rows a<b by columns j<k, as an m-by-m array."""
    r0, r1 = np.triu_indices(x.shape[0], 1)
    return (
        x[np.ix_(r0, r0)]
        * x[np.ix_(r1, r1)]
        * np.conj(x[np.ix_(r0, r1)])
        * np.conj(x[np.ix_(r1, r0)])
    )


def polygon_areas(x: np.ndarray) -> np.ndarray:
    """Shoelace areas of the row-pair polygons, then the column-pair ones."""
    r0, r1 = np.triu_indices(x.shape[0], 1)
    out = []
    for m in (x, x.T):
        sides = m[r0, :] * np.conj(m[r1, :])
        v = np.cumsum(sides, axis=1)
        v = np.concatenate([np.zeros((v.shape[0], 1)), v], axis=1)
        out.append(0.5 * np.abs(np.sum((np.conj(v[:, :-1]) * v[:, 1:]).imag, axis=1)))
    return np.concatenate(out)


def panels(x: np.ndarray) -> np.ndarray:
    """Nearest-neighbour plaquettes on the (n-1)-by-(n-1) grid."""
    return x[:-1, :-1] * x[1:, 1:] * np.conj(x[:-1, 1:]) * np.conj(x[1:, :-1])


def sextet(x: np.ndarray, rows, cols) -> float:
    """Im(X_aj X_bk X_cl conj(X_ak X_bl X_cj)), 0-based indices."""
    a, b, c = rows
    j, k, l = cols
    return float((x[a, j] * x[b, k] * x[c, l] * np.conj(x[a, k] * x[b, l] * x[c, j])).imag)


def random_unit(rng, length: int) -> np.ndarray:
    v = rng.standard_normal(length) + 1j * rng.standard_normal(length)
    return v / np.linalg.norm(v)


def texture_matrix(rng) -> np.ndarray:
    """A 4x4 unitary with zeros at (3,4) and (4,3): y3 = 0 and y orthogonal to x."""
    t2, t3, t4 = rng.uniform(0.3, 1.3, 3)
    x = random_unit(rng, 2)
    y = np.exp(1j * rng.uniform(-math.pi, math.pi)) * np.array([np.conj(x[1]), -np.conj(x[0]), 0.0])
    return chain_matrix((t2, t3, t4), (np.ones(1), x, y), np.zeros(4), np.zeros(4))
