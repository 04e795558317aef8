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
reference forms.  A chain is stored as arrays (see :class:`Decomposition`)
and its factors are read-only views of them, built on first read.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from ._rules import (  # noqa: F401  (the order tags and infer_order are exported here)
    ASCENDING, CUSTOM, DESCENDING, chain_document, chain_shape, char_length, infer_order,
    permutation,
)
from .matrix_core import (
    DEFAULT_EQUALITY_TOL,
    DEFAULT_UNITARITY_TOL,
    ConsistencyError,
    DomainError,
    ShapeError,
    StructureError,
    _is_int,
    complex_from_pairs,
    complex_to_pairs,
    finite_real,
    integer,
    maxnorm,
    number_array,
    phase_vector,
    require_square,
    require_unitary,
    wrap_angles,
)

#: Allowed deviation of a characteristic vector's Euclidean norm from 1.
CHAR_NORM_TOL = 1e-12

#: Entries of each per-order cache of the chain layer: the padding masks, two orders per
#: chain order (n for decompose's residual, n - 1 for the vector arrays), and the reorder
#: plans, one per pair of source and target order sequences, each holding at most
#: (n - 1)^2 column indices.  A cycle over eight chain orders keeps every mask resident.
_SHAPE_ENTRIES = 16


def _check_units(cols: np.ndarray) -> None:
    """The characteristic-vector rule: every column of *cols* is finite with unit norm."""
    off = np.abs(np.sqrt(np.add.reduce((cols.conj() * cols).real, axis=0)) - 1.0)
    if not off.max(initial=0.0) <= CHAR_NORM_TOL:  # also catches nan and inf entries
        j = int(np.argmax(~(off <= CHAR_NORM_TOL)))
        if not np.all(np.isfinite(cols[:, j])):
            raise DomainError("characteristic vector contains non-finite entries")
        norm = float(np.linalg.norm(cols[:, j]))
        raise DomainError(f"characteristic vector norm {norm!r} is not 1 within {CHAR_NORM_TOL}")


def _as_char(a, k: int | None = None, dtype=np.complex128) -> np.ndarray:
    """A validated copy of a characteristic vector of *dtype* entries (``complex128`` or
    ``float``, by :func:`number_array`'s rule): 1-d, finite, unit norm."""
    v = np.array(number_array(a, dtype, "characteristic vector")).ravel()
    if v.size < 1:
        raise DomainError("characteristic vector must have length >= 1")
    if k is not None:
        char_length(k, v.size)
    _check_units(v[:, None])
    return v


@functools.lru_cache(maxsize=_SHAPE_ENTRIES)
def _padding(m: int) -> np.ndarray:
    """The padding of an m-by-m vector array: the entries below the diagonal."""
    mask = np.tri(m, k=-1, dtype=bool)
    mask.setflags(write=False)
    return mask


def _check_chars(chars: np.ndarray) -> None:
    """Validate a chain's zero-padded vector array, column k - 2 the order-k vector."""
    if chars[_padding(len(chars))].any():
        raise DomainError("characteristic vector array has nonzero padding")
    _check_units(chars)


@dataclass(frozen=True, eq=False)
class Factor:
    """One order-k factor of an ambient n-by-n chain.

    ``char`` is the unit characteristic vector of length k-1, a read-only
    copy of the argument; ``theta`` the factor's angle in radians.  The
    factors of a :class:`Decomposition` are views of its arrays instead.
    """

    ambient_n: int
    order_k: int
    theta: float
    char: np.ndarray

    def __post_init__(self):
        n = integer(self.ambient_n, "ambient_n", 2)
        k = integer(self.order_k, "order_k", 2, n)
        object.__setattr__(self, "ambient_n", n)
        object.__setattr__(self, "order_k", k)
        object.__setattr__(self, "theta", finite_real(self.theta, "theta"))
        v = _as_char(self.char, k)
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
    a = _as_char(a)
    k = a.size + 1
    out = np.array(number_array(m, np.complex128, "operand"))
    if out.ndim not in (1, 2) or out.shape[0] < k:
        raise ShapeError(f"expected a vector or matrix with >= {k} rows, got shape {out.shape}")
    _apply_block(theta, a, a.conj(), out.reshape(out.shape[0], -1))
    return out


def _apply_block(theta: float, a: np.ndarray, a_conj: np.ndarray, rows: np.ndarray) -> None:
    """:func:`apply_factor` in place on the first len(a) + 1 rows of the 2-d
    complex array *rows*, for an already validated characteristic vector *a*
    and its conjugate *a_conj*, which a caller may form once for a whole chain."""
    k = a.size + 1
    c, s = math.cos(theta), math.sin(theta)
    top, last = rows[: k - 1], rows[k - 1]
    p = a_conj @ top
    q = (c - 1.0) * p
    q += s * last
    top += a[:, None] * q
    last *= c
    last -= s * p


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


@dataclass(frozen=True, eq=False)
class Decomposition:
    """A factor chain with external phase vectors.

    ``factors`` holds exactly one factor per order k in {2, ..., n}, in
    left-to-right product order; ``order`` tags the sequence (ascending,
    descending, or custom for any other permutation) and must match it.
    The represented matrix is Phi(left) . prod(embed(f)) . Phi(right).

    The chain is stored as read-only arrays: ``orders``, the product order;
    ``thetas``, entry k - 2 the order-k angle; and ``chars``, the
    zero-padded (n-1)-by-(n-1) array whose column k - 2 holds the order-k
    vector.  The constructor copies its input into them and checks the
    vectors once per chain.  ``factors`` are read-only views of them,
    built on first read.
    """

    ambient_n: int
    factors: tuple
    left_phases: np.ndarray
    right_phases: np.ndarray
    order: str
    orders: np.ndarray = field(init=False, repr=False)
    thetas: np.ndarray = field(init=False, repr=False)
    chars: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n = integer(self.ambient_n, "ambient_n", 1)
        object.__setattr__(self, "ambient_n", n)
        factors = tuple(self.factors)
        ks = [f.order_k for f in factors]
        left = phase_vector(self.left_phases).copy()
        right = phase_vector(self.right_phases).copy()
        chain_shape(n, ks, self.order, left.size, right.size)
        thetas = np.zeros(n - 1)
        chars = np.zeros((n - 1, n - 1), dtype=np.complex128, order="F")
        for f in factors:
            if f.ambient_n != n:
                raise StructureError(
                    f"factor of order {f.order_k} has ambient {f.ambient_n}, expected {n}"
                )
            thetas[f.order_k - 2] = f.theta
            chars[: f.order_k - 1, f.order_k - 2] = f.char
        self._store(ks, thetas, chars, left, right)

    @classmethod
    def _of(cls, n, orders, thetas, chars, left, right, order) -> "Decomposition":
        """A chain on arrays the package built, shapes unchecked."""
        d = object.__new__(cls)
        d.__dict__.update(ambient_n=n, order=order)
        d._store(orders, thetas, chars, left, right)
        return d

    def _store(self, orders, thetas, chars, left, right):
        """Check *chars* and freeze the arrays; the factors are built on first read."""
        _check_chars(chars)
        orders = np.array(orders, dtype=np.intp)
        for a in (orders, thetas, chars, left, right):
            a.setflags(write=False)
        self.__dict__.pop("factors", None)
        self.__dict__.update(
            left_phases=left, right_phases=right, orders=orders, thetas=thetas, chars=chars
        )

    def __getattr__(self, name):
        """Build ``factors`` on first read: one view of the arrays per order."""
        state = self.__dict__
        if name != "factors" or "chars" not in state:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        n, ts, chars = self.ambient_n, self.thetas.tolist(), self.chars
        factors = []
        for k in self.orders.tolist():
            f = object.__new__(Factor)
            f.__dict__.update(ambient_n=n, order_k=k, theta=ts[k - 2], char=chars[: k - 1, k - 2])
            factors.append(f)
        state["factors"] = factors = tuple(factors)
        return factors

    def factor(self, k: int) -> Factor:
        """The (unique) factor of order *k*, an integer by the package's rule."""
        if not _is_int(k):
            raise DomainError(f"order must be an integer, got {k!r}")
        orders = self.orders.tolist()
        if k not in orders:
            raise StructureError(f"no factor of order {k}")
        return self.factors[orders.index(k)]

    @property
    def parameter_count(self) -> int:
        """Real parameters under the canonical counting: sum(2k-2) + n = n^2."""
        return sum(2 * k - 2 for k in self.orders.tolist()) + self.ambient_n


def compose(d: Decomposition) -> np.ndarray:
    """Multiply out Phi(left) . embed(f_1) ... embed(f_m) . Phi(right).

    The factors are applied right to left onto Phi(right), O(n^3) in all.
    """
    v = np.diag(np.exp(1j * d.right_phases))
    thetas, chars = d.thetas.tolist(), d.chars
    conj = chars.conj()
    for k in reversed(d.orders.tolist()):
        _apply_block(thetas[k - 2], chars[: k - 1, k - 2], conj[: k - 1, k - 2], v)
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
    within 10 * tol.  *tol* is a finite real >= 0.
    """
    return _peel(require_unitary(x, tol), tol)


def _peel(x: np.ndarray, tol: float) -> Decomposition:
    """:func:`decompose` of the checked unitary *x*."""
    n = x.shape[0]
    w = x.copy()  # M is its leading k-by-k block
    thetas = np.zeros(n - 1)
    chars = np.zeros((n - 1, n - 1), dtype=np.complex128, order="F")
    betas = np.zeros(n)
    for k in range(n, 1, -1):
        m = w[:k, :k]
        corner, col = m.item(k - 1, k - 1), m[: k - 1, k - 1]
        norm = math.sqrt(np.vdot(col, col).real)
        theta = math.atan2(norm, abs(corner))
        beta = float(np.arctan2(corner.imag, corner.real)) if corner else 0.0  # np.angle's formula
        u = chars[: k - 1, k - 2]
        if norm > 0:  # e^{-i beta} first: numpy's complex product is not symmetric in its operands
            np.multiply(np.exp(-1j * beta), col, out=u)
            u /= norm
            u /= math.sqrt(np.vdot(u, u).real)  # norm is inexact once the squares of col underflow
        else:
            u[k - 2] = 1.0
        thetas[k - 2] = theta
        _apply_block(-theta, u, u.conj(), m)
        betas[k - 1] = beta
    betas[0] = float(np.angle(w[0, 0]))
    # Step k leaves its residual in what it strips: row k left of the
    # diagonal, column k above it, and the corner against e^{i beta_k}.
    a = np.abs(w)
    residuals = np.maximum(
        np.where(_padding(n), np.maximum(a, a.T), 0.0).max(axis=1),
        np.abs(np.diagonal(w) - np.exp(1j * betas)),
    )
    failed = np.flatnonzero(residuals[1:] > 10.0 * tol)
    if failed.size:  # the first order peeled, as a step-by-step check would find
        k = int(failed[-1]) + 2
        raise ConsistencyError(
            f"factor extraction left residual {residuals[k - 1]:.3e} at order {k}"
        )
    return Decomposition._of(n, range(n, 1, -1), thetas, chars, np.zeros(n), betas, DESCENDING)


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
    lower, upper, theta = (left, right, left.theta) if r < s else (right, left, -right.theta)
    v = upper.char[:, None].copy()
    _apply_block(theta, lower.char, lower.char.conj(), v)
    rotated = upper.with_char(v[:, 0] / np.linalg.norm(v))
    return (rotated, left) if r < s else (right, rotated)


def _columns(work: np.ndarray) -> tuple:
    """Entry l - 2 for each order l: the columns flagged in row l - 2 of *work*, as None
    when there are none, a slice when they are contiguous, else a read-only index array."""
    if not work.size:  # n = 1: argmax refuses an empty row
        return ()
    lo, hi = work.argmax(axis=1).tolist(), (len(work) - work[:, ::-1].argmax(axis=1)).tolist()
    cols = []
    for row, c, a, b in zip(work, work.sum(axis=1).tolist(), lo, hi):
        if not c:
            cols.append(None)
        elif b - a == c:
            cols.append(slice(a, b))
        else:
            # On immutable bytes: no caller can make a cached index array writeable.
            cols.append(np.frombuffer(row.nonzero()[0].tobytes(), dtype=np.intp))
    return tuple(cols)


@functools.lru_cache(maxsize=_SHAPE_ENTRIES)
def _sweep_plan(source: tuple, target: tuple) -> tuple:
    """:func:`reorder_chain`'s plan from the *source* to the *target* order sequence,
    tuples of Python ints: the source sweep's (l, columns) steps, right to left; the
    target sweep's (k, moved, columns) steps, left to right, columns None when order k
    reaches no moved column; and the target's order tag.  A moved column is the vector of
    an order that some lower order changes sides of; only moved columns change."""
    ranks = np.argsort([source, target], axis=1)  # of order k at k - 2 (source, target)
    # Entry [l - 2, k - 2]: k is above l and right of it (source, target).
    s_up, t_up = _padding(len(source)).T & (ranks[:, :, None] < ranks[:, None, :])
    moved = (s_up != t_up).any(axis=0)
    s_cols, t_cols = _columns(s_up & moved), _columns(t_up & moved)
    moved = moved.tolist()
    return (
        tuple((l, s_cols[l - 2]) for l in reversed(source) if s_cols[l - 2] is not None),
        tuple(
            (k, moved[k - 2], t_cols[k - 2])
            for k in target if moved[k - 2] or t_cols[k - 2] is not None
        ),
        infer_order(target),
    )


def _sweep(chars: np.ndarray, theta: float, a: np.ndarray, a_conj: np.ndarray, l: int, cols):
    """Apply the order-l block of *a* to the columns *cols* of *chars* in place."""
    sub = chars[:l, cols]  # a view when cols is a slice, else a copy to write back
    _apply_block(theta, a, a_conj, sub)
    if not isinstance(cols, slice):
        chars[:l, cols] = sub


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
    Which columns each factor reaches depends only on the two order
    sequences, so the plan of the sweeps is built once per pair of them and
    kept in a bounded cache of immutable entries.  The source sweep
    conjugates the source vectors once for the whole chain; the target
    sweep conjugates each vector when it is final.
    The result holds no link to *d*: its factors are views of its own arrays.
    """
    n = d.ambient_n
    target = permutation(target, n)
    sources, targets, order = _sweep_plan(tuple(d.orders.tolist()), target)
    src, thetas = d.chars, d.thetas.tolist()
    # Column k - 2 holds the order-k vector; a block of order l touches only
    # the first l rows, so the padding of every higher order stays zero.
    chars = np.array(src, order="F")
    if sources:
        conj = src.conj()
        for l, cols in sources:
            _sweep(chars, thetas[l - 2], src[: l - 1, l - 2], conj[: l - 1, l - 2], l, cols)
    for k, moved, cols in targets:
        a = src[: k - 1, k - 2]
        if moved:  # final: every lower-order target factor left of k is applied
            a = chars[: k - 1, k - 2]
            re, im = a.real, a.imag
            a /= math.sqrt(re.dot(re) + im.dot(im))  # np.linalg.norm's formula
        if cols is not None:
            _sweep(chars, -thetas[k - 2], a, a.conj(), k, cols)
    return Decomposition._of(n, target, d.thetas, chars, d.left_phases, d.right_phases, order)


def gauge_fix(d: Decomposition) -> Decomposition:
    """Rotate an ascending chain into the canonical phase gauge.

    Every characteristic vector's last component becomes real and >= 0
    (the order-2 scalar becomes exactly 1) by conjugating the whole chain
    with one diagonal phase matrix, whose phases are absorbed into the
    external left/right phase vectors.  The composed matrix is unchanged
    and the operation is idempotent.
    """
    n = d.ambient_n
    if infer_order(d.orders.tolist()) != ASCENDING:
        raise DomainError("gauge fixing expects an ascending chain")
    # Solve phi_{k-1} - phi_k = -arg(last component of char_k), phi_n = 0:
    # the last components are the diagonal of the vector array, and 0.0 -
    # the reversed running sum rounds like the running difference.
    last = np.diagonal(d.chars)
    phi = np.zeros(n)
    phi[:-1] = 0.0 - np.cumsum(np.angle(last)[::-1])[::-1]
    # Row i of column k - 2 turns by e^{i (phi[i] - phi[k - 1])}; padding stays 0.
    chars = np.multiply(np.exp(1j * (phi[:-1, None] - phi[1:])), d.chars, order="F")
    # Exactly real, >= 0; hypot rounds like a scalar abs, numpy's complex abs may not.
    np.fill_diagonal(chars, np.hypot(last.real, last.imag))
    if n >= 2:
        chars[0, 0] = 1.0
    return Decomposition._of(
        n, d.orders, d.thetas, chars,
        wrap_angles(d.left_phases - phi), wrap_angles(d.right_phases + phi), ASCENDING,
    )


def in_canonical_gauge(d: Decomposition) -> bool:
    """True iff *d* is ascending with phases pinned within ``DEFAULT_EQUALITY_TOL``."""
    tol = DEFAULT_EQUALITY_TOL
    if infer_order(d.orders.tolist()) != ASCENDING:
        return False
    last = np.diagonal(d.chars)
    if np.any(np.abs(last.imag) > tol) or np.any(last.real < -tol):
        return False
    return d.ambient_n < 2 or abs(d.chars[0, 0] - 1.0) <= tol


# --- JSON interchange -------------------------------------------------------
#
# {"n": int, "order": "ascending"|"descending"|"custom",
#  "factors": [{"k": int, "theta": real, "char": [[re, im], ...]}, ...],
#  "alpha": [real, ...], "beta": [real, ...]}
#
# The factors array is in left-to-right product order; ``_rules.chain_document``
# checks the counts, the orders and the order tag, and the reader the vectors.


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
    """The chain of a document that ``_rules.chain_document`` passes; its vectors are decoded
    into the chain's arrays and checked once, with the chain."""
    n, tag, factors, alpha, beta = chain_document(obj)
    thetas = np.zeros(n - 1)
    chars = np.zeros((n - 1, n - 1), dtype=np.complex128, order="F")
    for i, (k, theta, pairs) in enumerate(factors):
        thetas[k - 2] = theta
        chars[: k - 1, k - 2] = complex_from_pairs(pairs, f"factor {i} char entry")
    orders = [k for k, _, _ in factors]
    left, right = phase_vector(np.array(alpha)), phase_vector(np.array(beta))
    return Decomposition._of(n, orders, thetas, chars, left, right, tag)
