"""Recursive factor-chain parameterisation of unitary matrices.

An n-by-n unitary X factorises as X = Phi(alpha) . V . Phi(beta) with
diagonal phase matrices Phi and

    V = A_2 A_3 ... A_n,

where the order-k factor A_k is block-diagonal: a k-by-k unitary block

    [[ I - (1 - cos t) |a><a| ,  sin t |a> ],
     [      -sin t <a|        ,   cos t   ]]

padded with the identity.  Each block carries one angle t and one unit
"characteristic vector" |a> of length k-1, has determinant 1, and is the
exponential exp(i t G) of a hermitian generator G with G^3 = G, so the
exponential series terminates:  exp(i t G) = I + i sin t G - (1 - cos t) G^2.

This module builds the factors, composes chains, inverts the construction
(peeling an arbitrary unitary into canonical parameters), reorders factors
(a lower-order factor tunnels through a higher-order one, rotating the
latter's characteristic vector; into any order at once, a'_k = L_t^-1 L_s a_k
with L_s, L_t the products of the lower-order factors left of k in the source
and the target, in two sweeps of O(n) kernel calls), and fixes the phase
gauge.  Every product with a factor goes through :func:`apply_factor`,
which uses the rank-2 form; :func:`block` and :func:`embed` are the dense
reference forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .matrix_core import (
    DEFAULT_EQUALITY_TOL,
    DEFAULT_UNITARITY_TOL,
    ConsistencyError,
    DomainError,
    ShapeError,
    StructureError,
    complex_from_pairs,
    complex_to_pairs,
    maxnorm,
    phase_matrix,
    phase_vector,
    require_square,
    require_unitary,
    wrap_angles,
)

#: Allowed deviation of a characteristic vector's Euclidean norm from 1.
CHAR_NORM_TOL = 1e-12

ASCENDING = "ascending"
DESCENDING = "descending"
CUSTOM = "custom"


def _as_char(a, k: int | None = None, dtype=np.complex128) -> np.ndarray:
    """Validate a characteristic vector of *dtype* entries: 1-d, finite, unit norm."""
    v = np.asarray(a, dtype=dtype).ravel()
    if v.size < 1:
        raise DomainError("characteristic vector must have length >= 1")
    if k is not None and v.size != k - 1:
        raise DomainError(
            f"characteristic vector for order {k} must have length {k - 1}, got {v.size}"
        )
    norm = float(np.linalg.norm(v))
    if not abs(norm - 1.0) <= CHAR_NORM_TOL:  # also catches nan and inf entries
        if not np.all(np.isfinite(v)):
            raise DomainError("characteristic vector contains non-finite entries")
        raise DomainError(f"characteristic vector norm {norm!r} is not 1 within {CHAR_NORM_TOL}")
    return v


@dataclass(frozen=True, eq=False)
class Factor:
    """One order-k factor of an ambient n-by-n chain.

    ``char`` is the unit characteristic vector of length k-1; ``theta``
    the factor's angle in radians.
    """

    ambient_n: int
    order_k: int
    theta: float
    char: np.ndarray

    def __post_init__(self):
        if self.ambient_n < 2:
            raise DomainError(f"ambient dimension must be >= 2, got {self.ambient_n}")
        if not (2 <= self.order_k <= self.ambient_n):
            raise DomainError(
                f"factor order must satisfy 2 <= k <= n, got k={self.order_k}, n={self.ambient_n}"
            )
        if not math.isfinite(self.theta):
            raise DomainError("theta must be finite")
        v = _as_char(self.char, self.order_k)
        v.setflags(write=False)
        object.__setattr__(self, "char", v)

    def with_char(self, char) -> "Factor":
        return Factor(self.ambient_n, self.order_k, self.theta, char)


@dataclass(frozen=True, eq=False)
class Generator:
    """Hermitian generator G of a factor: G^3 = G, tr G = 0, tr G^2 = 2."""

    matrix: np.ndarray
    n: int = field(init=False, repr=False)

    def __post_init__(self):
        g = require_square(self.matrix)
        if maxnorm(g - g.conj().T) > 1e-13:
            raise DomainError("generator is not hermitian within 1e-13")
        g3 = g @ g @ g
        if maxnorm(g3 - g) > 1e-12:
            raise DomainError("generator does not satisfy G^3 = G within 1e-12")
        if abs(np.trace(g)) > 1e-12:
            raise DomainError("generator trace is not 0 within 1e-12")
        if abs(np.trace(g @ g) - 2.0) > 1e-12:
            raise DomainError("generator squared trace is not 2 within 1e-12")
        g.setflags(write=False)
        object.__setattr__(self, "matrix", g)
        object.__setattr__(self, "n", g.shape[0])


def block(theta: float, a) -> np.ndarray:
    """The k-by-k unitary block for angle *theta* and unit vector *a*.

    Layout: top-left (k-1)x(k-1) is I - (1-cos)|a><a|, last column is
    sin * a over cos, last row is -sin <a| over cos.  Determinant is 1.
    """
    a = _as_char(a)
    k = a.size + 1
    c, s = math.cos(theta), math.sin(theta)
    out = np.empty((k, k), dtype=np.complex128)
    out[: k - 1, : k - 1] = np.eye(k - 1) - (1.0 - c) * np.outer(a, a.conj())
    out[: k - 1, k - 1] = s * a
    out[k - 1, : k - 1] = -s * a.conj()
    out[k - 1, k - 1] = c
    return out


def apply_factor(theta: float, a, m) -> np.ndarray:
    """``block(theta, a)`` applied to the first k = len(a) + 1 rows of *m*.

    *m* is a vector or a matrix with at least k rows and is not modified;
    rows from k on are copied unchanged.  The block is never formed: with
    the projection p = <a| m[:k-1] the top rows gain |a> ((cos - 1) p +
    sin m[k-1]) and row k becomes cos m[k-1] - sin p, O(k * columns).

    The other products follow from two identities: the adjoint of
    ``block(theta, a)`` is ``block(-theta, a)``, and its transpose is
    ``block(-theta, a.conj())``, so ``m @ block(theta, a)`` is
    ``apply_factor(-theta, a.conj(), m.T).T``.
    """
    return _apply_block(theta, _as_char(a), m)


def _apply_block(theta: float, a: np.ndarray, m) -> np.ndarray:
    """:func:`apply_factor` for an already validated characteristic vector."""
    k = a.size + 1
    out = np.array(m, dtype=np.complex128)
    if out.ndim not in (1, 2) or out.shape[0] < k:
        raise ShapeError(f"expected a vector or matrix with >= {k} rows, got shape {out.shape}")
    rows = out.reshape(out.shape[0], -1)
    c, s = math.cos(theta), math.sin(theta)
    p = a.conj() @ rows[: k - 1]
    rows[: k - 1] += a[:, None] * ((c - 1.0) * p + s * rows[k - 1])
    rows[k - 1] = c * rows[k - 1] - s * p
    return out


def embed(f: Factor) -> np.ndarray:
    """Embed a factor's block in the ambient dimension: diag(block, I)."""
    m = np.eye(f.ambient_n, dtype=np.complex128)
    m[: f.order_k, : f.order_k] = block(f.theta, f.char)
    return m


def generator(f: Factor) -> Generator:
    """Hermitian generator with block [[0, -i|a>], [i<a|, 0]] in the corner."""
    n, k = f.ambient_n, f.order_k
    g = np.zeros((n, n), dtype=np.complex128)
    g[: k - 1, k - 1] = -1j * f.char
    g[k - 1, : k - 1] = 1j * f.char.conj()
    return Generator(g)


def exp_generator(theta: float, g: Generator | np.ndarray) -> np.ndarray:
    """Closed-form exponential exp(i theta G) = I + i sin G - (1-cos) G^2."""
    if not isinstance(g, Generator):
        g = Generator(g)
    gm = g.matrix
    c, s = math.cos(theta), math.sin(theta)
    return np.eye(gm.shape[0]) + 1j * s * gm - (1.0 - c) * (gm @ gm)


def infer_order(orders) -> str:
    """Classify a factor-order sequence as ascending, descending or custom."""
    orders = list(orders)
    if orders == sorted(orders):
        return ASCENDING
    if orders == sorted(orders, reverse=True):
        return DESCENDING
    return CUSTOM


@dataclass(frozen=True, eq=False)
class Decomposition:
    """A factor chain with external phase vectors.

    ``factors`` holds exactly one factor per order k in {2, ..., n}, in
    left-to-right product order; ``order`` tags the sequence (ascending,
    descending, or custom for any other permutation) and must match it.
    The represented matrix is Phi(left) . prod(embed(f)) . Phi(right).
    """

    ambient_n: int
    factors: tuple
    left_phases: np.ndarray
    right_phases: np.ndarray
    order: str

    def __post_init__(self):
        n = self.ambient_n
        if n < 1:
            raise DomainError(f"ambient dimension must be >= 1, got {n}")
        factors = tuple(self.factors)
        object.__setattr__(self, "factors", factors)
        ks = [f.order_k for f in factors]
        # Compare the count first: n comes from outside and may be huge.
        if len(ks) != n - 1 or sorted(ks) != list(range(2, n + 1)):
            raise StructureError(
                f"chain must hold exactly one factor per order 2..{n}, got orders {ks}"
            )
        for f in factors:
            if f.ambient_n != n:
                raise StructureError(
                    f"factor of order {f.order_k} has ambient {f.ambient_n}, expected {n}"
                )
        if self.order not in (ASCENDING, DESCENDING, CUSTOM):
            raise StructureError(f"unknown order tag {self.order!r}")
        actual = infer_order(ks)
        # n <= 2 chains are both ascending and descending; any tag but custom fits.
        ambiguous = len(ks) <= 1
        if self.order != CUSTOM and not ambiguous and self.order != actual:
            raise StructureError(f"order tag {self.order!r} does not match sequence {ks}")
        left = phase_vector(self.left_phases)
        right = phase_vector(self.right_phases)
        if left.size != n or right.size != n:
            raise StructureError(
                f"phase vectors must have length {n}, got {left.size} and {right.size}"
            )
        left.setflags(write=False)
        right.setflags(write=False)
        object.__setattr__(self, "left_phases", left)
        object.__setattr__(self, "right_phases", right)

    def factor(self, k: int) -> Factor:
        """The (unique) factor of order *k*."""
        for f in self.factors:
            if f.order_k == k:
                return f
        raise StructureError(f"no factor of order {k}")

    @property
    def parameter_count(self) -> int:
        """Real parameters under the canonical counting: sum(2k-2) + n = n^2."""
        return sum(2 * f.order_k - 2 for f in self.factors) + self.ambient_n


def compose(d: Decomposition) -> np.ndarray:
    """Multiply out Phi(left) . embed(f_1) ... embed(f_m) . Phi(right).

    The factors are applied right to left onto Phi(right), O(n^3) in all.
    """
    v = phase_matrix(d.right_phases)
    for f in reversed(d.factors):
        v = _apply_block(f.theta, f.char, v)
    return np.exp(1j * d.left_phases)[:, None] * v


def decompose(x, tol: float = DEFAULT_UNITARITY_TOL) -> Decomposition:
    """Peel a unitary matrix into a descending chain with right phases.

    For k = n down to 2, on the shrinking working matrix M with corner
    M_kk and the rest of column k, col: theta_k = atan2(||col||, |M_kk|)
    lies in [0, pi/2] and keeps full relative accuracy at both ends of
    that range; beta_k = arg(M_kk); the characteristic vector is
    e^{-i beta_k} col / ||col||.  Left-multiplying by the inverse factor
    must then reduce row and column k to e^{i beta_k} times the unit
    vector -- checked, and reported as a :class:`ConsistencyError` beyond
    10 * tol -- after which row and column k are stripped.

    Degenerate steps are fixed by convention, only on exact zeros: a zero
    col takes the last basis vector as characteristic vector; a zero
    corner takes beta_k = 0.  Output: descending order, all-zero left
    phases, exactly n^2 real parameters, and compose(decompose(x)) = x
    within 10 * tol.
    """
    x = require_unitary(x, tol)
    n = x.shape[0]
    m = x.copy()
    factors = []
    betas = np.zeros(n)
    for k in range(n, 1, -1):
        corner, col = m[k - 1, k - 1], m[: k - 1, k - 1]
        norm = math.sqrt(np.vdot(col, col).real)
        theta = math.atan2(norm, abs(corner))
        beta = float(np.angle(corner)) if corner != 0 else 0.0
        if norm > 0:
            u = np.exp(-1j * beta) * col / norm
            u /= math.sqrt(np.vdot(u, u).real)  # norm is inexact once the squares of col underflow
        else:
            u = np.zeros(k - 1, dtype=np.complex128)
            u[k - 2] = 1.0
        factors.append(Factor(n, k, theta, u))
        m = _apply_block(-theta, factors[-1].char, m)
        phase = np.exp(1j * beta)
        residual = max(
            maxnorm(m[k - 1, : k - 1]),
            maxnorm(m[: k - 1, k - 1]),
            abs(m[k - 1, k - 1] - phase),
        )
        if residual > 10.0 * tol:
            raise ConsistencyError(
                f"factor extraction left residual {residual:.3e} at order {k}"
            )
        betas[k - 1] = beta
        m = m[: k - 1, : k - 1]
    betas[0] = float(np.angle(m[0, 0]))
    return Decomposition(
        ambient_n=n,
        factors=tuple(factors),
        left_phases=np.zeros(n),
        right_phases=betas,
        order=DESCENDING,
    )


def reorder_swap(left: Factor, right: Factor) -> tuple:
    """Flip an adjacent pair of factors, preserving the product.

    For orders r < s the pair (A_r, A_s) becomes (A'_s, A_r) with the
    higher-order characteristic vector rotated by the embedded lower
    block; for r > s it becomes (A_s, A''_r) with the inverse rotation.
    Angles never change.
    """
    if left.ambient_n != right.ambient_n:
        raise DomainError("factors live in different ambient dimensions")
    r, s = left.order_k, right.order_k
    if r == s:
        raise DomainError(f"cannot swap two factors of equal order {r}")
    if r < s:
        new_char = _apply_block(left.theta, left.char, right.char)
        return right.with_char(new_char / np.linalg.norm(new_char)), left
    new_char = _apply_block(-right.theta, right.char, left.char)
    return right, left.with_char(new_char / np.linalg.norm(new_char))


def reorder_chain(d: Decomposition, target) -> Decomposition:
    """Rearrange a chain into the *target* order sequence.

    *target* must be a permutation of {2, ..., n}; the composed matrix is
    unchanged and the angles are kept exactly.  A :func:`reorder_swap` never
    changes its lower-order factor, so the order-k vector becomes
    a'_k = L_t^-1 L_s a_k, with L_s (L_t) the product of the lower-order
    source (target) factors left of k.  Two sweeps over the zero-padded
    vector columns apply them (each factor's block right to left over the
    source; its inverse, with its final vector, left to right over the
    target): at most 2(n - 2) kernel calls, n - 2 for a monotone target.
    Factors whose order relative to every lower-order factor is kept come
    back as the same objects.
    """
    target = [int(k) for k in target]
    n = d.ambient_n
    if sorted(target) != list(range(2, n + 1)):
        raise DomainError(f"target {target} is not a permutation of 2..{n}")
    by_order = {f.order_k: f for f in d.factors}
    source = [f.order_k for f in d.factors]
    higher = ~np.tri(n - 1, dtype=bool)
    # Index k - 2 is order k; entry [l, k]: k is above l and right of it (source, target).
    s_up, t_up = (higher & (p[:, None] < p) for p in (np.argsort(source), np.argsort(target)))
    moved = (s_up != t_up).any(axis=0)  # some lower order changed sides of k
    # Column k - 2 holds the order-k vector; a block of order l touches only
    # the first l rows, so the padding of every higher order stays zero.
    chars = np.zeros((n - 1, n - 1), dtype=np.complex128, order="F")
    for k, f in by_order.items():
        chars[: k - 1, k - 2] = f.char

    def sweep(up, k, theta, a):  # the block onto the moved columns flagged in row k - 2
        cols = (up[k - 2] & moved).nonzero()[0]
        if cols.size:
            chars[:k, cols] = _apply_block(theta, a, chars[:k, cols])

    for k in reversed(source):
        sweep(s_up, k, by_order[k].theta, by_order[k].char)
    for k in target:
        a = by_order[k].char
        if moved[k - 2]:  # final: every lower-order target factor left of k is applied
            a = chars[: k - 1, k - 2]
            a /= np.linalg.norm(a)
        sweep(t_up, k, -by_order[k].theta, a)
    out = [by_order[k].with_char(chars[: k - 1, k - 2].copy()) if moved[k - 2] else by_order[k]
           for k in target]
    return replace(d, factors=tuple(out), order=infer_order(target))


def gauge_fix(d: Decomposition) -> Decomposition:
    """Rotate an ascending chain into the canonical phase gauge.

    Every characteristic vector's last component becomes real and >= 0
    (the order-2 scalar becomes exactly 1) by conjugating the whole chain
    with one diagonal phase matrix, whose phases are absorbed into the
    external left/right phase vectors.  The composed matrix is unchanged
    and the operation is idempotent.
    """
    n = d.ambient_n
    if infer_order(f.order_k for f in d.factors) != ASCENDING:
        raise DomainError("gauge fixing expects an ascending chain")
    # Solve phi_{k-1} - phi_k = -arg(last component of char_k), phi_n = 0.
    phi = np.zeros(n)
    for k in range(n, 1, -1):
        last = d.factors[k - 2].char[k - 2]
        phi[k - 2] = phi[k - 1] - float(np.angle(last))
    new_factors = []
    for f in d.factors:
        k = f.order_k
        rot = np.exp(1j * (phi[: k - 1] - phi[k - 1]))
        char = rot * f.char
        char[k - 2] = abs(f.char[k - 2])  # exactly real, >= 0
        if k == 2:
            char[0] = 1.0
        new_factors.append(f.with_char(char))
    return Decomposition(
        ambient_n=n,
        factors=tuple(new_factors),
        left_phases=wrap_angles(d.left_phases - phi),
        right_phases=wrap_angles(d.right_phases + phi),
        order=ASCENDING,
    )


def in_canonical_gauge(d: Decomposition) -> bool:
    """True iff *d* is ascending with phases pinned within ``DEFAULT_EQUALITY_TOL``."""
    tol = DEFAULT_EQUALITY_TOL
    if infer_order(f.order_k for f in d.factors) != ASCENDING:
        return False
    for f in d.factors:
        last = f.char[f.order_k - 2]
        if abs(last.imag) > tol or last.real < -tol:
            return False
    if d.ambient_n >= 2 and abs(d.factor(2).char[0] - 1.0) > tol:
        return False
    return True


# --- JSON interchange -------------------------------------------------------
#
# {"n": int, "order": "ascending"|"descending"|"custom",
#  "factors": [{"k": int, "theta": real, "char": [[re, im], ...]}, ...],
#  "alpha": [real, ...], "beta": [real, ...]}
#
# The factors array is in left-to-right product order; readers validate
# norms, counts and the order tag.


def decomposition_to_json_dict(d: Decomposition) -> dict:
    return {
        "n": d.ambient_n,
        "order": d.order,
        "factors": [
            {
                "k": f.order_k,
                "theta": float(f.theta),
                "char": complex_to_pairs(f.char),
            }
            for f in d.factors
        ],
        "alpha": [float(p) for p in d.left_phases],
        "beta": [float(p) for p in d.right_phases],
    }


def decomposition_from_json_dict(obj) -> Decomposition:
    if not isinstance(obj, dict):
        raise StructureError("decomposition document must be a JSON object")
    try:
        n = int(obj["n"])
        order = obj["order"]
        raw_factors = obj["factors"]
        alpha = [float(v) for v in obj["alpha"]]
        beta = [float(v) for v in obj["beta"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise StructureError(f"decomposition document missing/invalid field: {exc}") from exc
    if not isinstance(raw_factors, list):
        raise StructureError("'factors' must be a list")
    factors = []
    for i, rf in enumerate(raw_factors):
        try:
            k = int(rf["k"])
            theta = float(rf["theta"])
            raw_char = rf["char"]
        except (KeyError, TypeError, ValueError) as exc:
            raise StructureError(f"factor {i} missing/invalid field: {exc}") from exc
        char = complex_from_pairs(raw_char, f"factor {i} char entry")
        factors.append(Factor(n, k, theta, char))
    return Decomposition(
        ambient_n=n,
        factors=tuple(factors),
        left_phases=np.array(alpha),
        right_phases=np.array(beta),
        order=order,
    )
