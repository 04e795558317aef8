"""Rephasing-invariant phase algebra of unitary matrices.

The smallest quantities of a unitary V that survive multiplication by
diagonal phase matrices on either side are the fourth-order products

    V_aj V_bk conj(V_ak) conj(V_bj)

over a row pair (a, b) and a column pair (j, k); their imaginary parts
(a b; j k) detect non-removable phases and their real parts <a b; j k>
are invariant companions.  This module computes them, reduces sixth-order
invariants to them, organises the nearest-neighbour ones into a panel
lattice with its six unitarity relations (n = 4), evaluates the closed
forms available from the factor-chain parameterisation for n = 3 and
n = 4, analyses two-zero textures, and measures unitarity-triangle areas.

All row/column indices in this module are 1-based, matching the standard
notation for mixing matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .matrix_core import (
    DEFAULT_EQUALITY_TOL,
    DomainError,
    PreconditionError,
    require_square,
    require_unitary,
    wrap_angle,
)
from .recursive_param import (
    ASCENDING,
    Decomposition,
    decompose,
    gauge_fix,
    infer_order,
    reorder_chain,
)

#: Smallest modulus a matrix element may have to divide the panel relations.
RELATION_ZERO_TOL = 1e-9
#: Largest condition number of the panel relation system that is still solved.
RELATION_COND_LIMIT = 1e12
#: Largest |imaginary part| a plaquette of a zero texture may have to count as vanishing.
TEXTURE_VANISH_TOL = 1e-10


def count_independent_phases(n: int) -> int:
    """Number of independent invariant phases of an n-by-n unitary."""
    if n < 1:
        raise DomainError(f"matrix order must be >= 1, got {n}")
    return (n - 1) * (n - 2) // 2


def _check_indices(idx, n: int, what: str) -> tuple:
    """The 1-based indices *idx* as a tuple of ints, checked to lie in 1..n and differ."""
    out = tuple(int(i) for i in idx)
    if not all(1 <= i <= n for i in out):
        raise DomainError(f"{what} indices {idx} out of range 1..{n}")
    if len(set(out)) != len(out):
        raise DomainError(f"{what} indices must be distinct, got {idx}")
    return out


def _mul(ar, ai, br, bi) -> tuple:
    """(re, im) of (ar + i ai)(br + i bi), in numpy's scalar order of operations."""
    re = ar * br
    re -= ai * bi
    im = ar * bi
    im += ai * br
    return re, im


def _quartet(aj, bk, ak, bj) -> tuple:
    """(re, im) of ((aj bk) conj(ak)) conj(bj) for complex scalars or arrays, bit
    for bit the scalar product of each entry (numpy's vectorised complex
    multiply may fuse multiply-adds, so it is not used)."""
    pr, pi = _mul(aj.real, aj.imag, bk.real, bk.imag)
    qr, qi = _mul(pr, pi, ak.real, -ak.imag)
    return _mul(qr, qi, bj.real, -bj.imag)


@dataclass(frozen=True)
class Plaquette:
    """One canonical fourth-order invariant.

    Stored with rows and cols sorted ascending; other orientations are
    reconstructed by :meth:`oriented` (one swap conjugates the value, so
    the imaginary part is antisymmetric and the real part symmetric).
    """

    rows: tuple
    cols: tuple
    value: complex

    @property
    def re(self) -> float:
        return self.value.real

    @property
    def im(self) -> float:
        return self.value.imag

    def oriented(self, rows, cols) -> complex:
        """Value for any orientation of the same row/column index sets."""
        if set(rows) != set(self.rows) or set(cols) != set(self.cols):
            raise DomainError(
                f"orientation {rows}/{cols} does not match plaquette {self.rows}/{self.cols}"
            )
        flips = (tuple(rows) != self.rows) + (tuple(cols) != self.cols)
        return self.value.conjugate() if flips == 1 else self.value


def plaquette(x, rows, cols) -> Plaquette:
    """The invariant for row pair *rows* and column pair *cols* of *x*."""
    x = require_square(x)
    n = x.shape[0]
    (a, b), (j, k) = _check_indices(rows, n, "row"), _check_indices(cols, n, "column")
    value = complex(*_quartet(x[a - 1, j - 1], x[b - 1, k - 1], x[a - 1, k - 1], x[b - 1, j - 1]))
    p = Plaquette(tuple(sorted((a, b))), tuple(sorted((j, k))), value)
    return Plaquette(p.rows, p.cols, p.oriented((a, b), (j, k)))


@dataclass(frozen=True, eq=False)
class PlaquetteTable:
    """All [n(n-1)/2]^2 canonical plaquettes of one matrix.

    ``values`` is a read-only m-by-m complex array, m = n(n-1)/2, indexed by
    row pair and column pair in ``combinations`` order; ``values.ravel()``
    follows :meth:`keys`.
    """

    n: int
    values: np.ndarray

    def __len__(self) -> int:
        return self.values.size

    def keys(self) -> list:
        pairs = list(combinations(range(1, self.n + 1), 2))
        return [(rows, cols) for rows in pairs for cols in pairs]

    def _pair(self, pair, what: str) -> tuple:
        """The sorted pair and its position in ``combinations`` order."""
        a, b = sorted(_check_indices(pair, self.n, what))
        return (a, b), (a - 1) * (2 * self.n - a) // 2 + b - a - 1

    def get(self, rows, cols) -> Plaquette:
        rows, r = self._pair(rows, "row")
        cols, c = self._pair(cols, "column")
        return Plaquette(rows, cols, complex(self.values[r, c]))

    def value(self, rows, cols) -> complex:
        """Complex value in the requested (possibly non-canonical) orientation."""
        return self.get(rows, cols).oriented(tuple(rows), tuple(cols))

    def im(self, rows, cols) -> float:
        return self.value(rows, cols).imag

    def re(self, rows, cols) -> float:
        return self.value(rows, cols).real

    def max_abs_diff(self, other: "PlaquetteTable") -> float:
        """Largest entrywise |difference| (``hypot``, as ``abs`` of a complex); 0.0 for n < 2."""
        if other.n != self.n:
            raise DomainError("tables belong to different matrix orders")
        peaks = []
        for _, rows in _row_blocks(self.n):  # bounded temporaries, exact maximum
            diff = self.values[rows] - other.values[rows]
            peaks.append(np.max(np.hypot(diff.real, diff.imag)))
        return float(np.max(peaks, initial=0.0))


def _row_blocks(n: int):
    """Each first row a with the slice of its row pairs (a, b > a), in ``combinations`` order."""
    for a in range(n - 1):
        start = a * (2 * n - a - 1) // 2
        yield a, slice(start, start + n - 1 - a)


def plaquette_table(x) -> PlaquetteTable:
    x = require_unitary(x)
    n = x.shape[0]
    j, k = np.triu_indices(n, 1)
    xj, xk = x[:, j], x[:, k]
    values = np.empty((j.size, j.size), dtype=np.complex128)
    # One block of row pairs (a, b > a) at a time keeps temporaries small.
    for a, rows in _row_blocks(n):
        values.real[rows], values.imag[rows] = _quartet(xj[a], xk[a + 1 :], xk[a], xj[a + 1 :])
    values.setflags(write=False)
    return PlaquetteTable(n=n, values=values)


def reduce_sextet(x, rows, cols) -> tuple:
    """Reduce a sixth-order invariant to fourth-order ones.

    Returns (lhs, rhs) where lhs = Im(V_aj V_bk V_cl conj(V_ak V_bl V_cj))
    for row triple (a, b, c) and column triple (j, k, l), and rhs is the
    reduction [(ab, jk)<bc, jl> + <ab, jk>(bc, jl)] / |V_bj|^2.  Both are
    returned so callers can compare them; they agree whenever the pivot
    V_bj is nonzero beyond ``DEFAULT_EQUALITY_TOL``; a smaller pivot is a
    :class:`PreconditionError`.
    """
    x = require_square(x)
    n = x.shape[0]
    a, b, c = _check_indices(rows, n, "row")
    j, k, l = _check_indices(cols, n, "column")
    pivot = abs(x[b - 1, j - 1])
    if pivot <= DEFAULT_EQUALITY_TOL:
        raise PreconditionError(
            f"pivot element V[{b},{j}] has modulus {pivot:.3e} <= {DEFAULT_EQUALITY_TOL}; "
            "reduction undefined"
        )
    lhs = (
        x[a - 1, j - 1]
        * x[b - 1, k - 1]
        * x[c - 1, l - 1]
        * np.conj(x[a - 1, k - 1] * x[b - 1, l - 1] * x[c - 1, j - 1])
    ).imag
    p1 = plaquette(x, (a, b), (j, k)).oriented((a, b), (j, k))
    p2 = plaquette(x, (b, c), (j, l)).oriented((b, c), (j, l))
    rhs = (p1.imag * p2.real + p1.real * p2.imag) / pivot**2
    return float(lhs), float(rhs)


# --- omega phases and chain symmetries (n = 4, 5) ---------------------------


@dataclass(frozen=True)
class OmegaSet:
    """The (n-1)(n-2)/2 invariant phase combinations of an ascending chain."""

    n: int
    omegas: tuple


def _ascending_chars(d: Decomposition) -> dict:
    if infer_order(f.order_k for f in d.factors) != ASCENDING:
        raise DomainError("expected an ascending chain")
    return {f.order_k: f.char for f in d.factors}


def omega_from_params(d: Decomposition) -> OmegaSet:
    """Assemble the invariant phases from component arguments.

    For n = 4, with x the order-3 and y the order-4 characteristic
    vectors: omega_1 = arg x2 - arg x1, omega_2 = arg y2 - arg y1,
    omega_3 = arg x2 + arg y3 - arg y2.  For n = 5 the order-5 vector z
    adds three more combinations.  Values are wrapped into (-pi, pi];
    they are unchanged by the chain symmetries of :func:`apply_symmetry`.
    """
    if d.ambient_n not in (4, 5):
        raise DomainError(f"omega phases are defined for n in {{4, 5}}, got n={d.ambient_n}")
    chars = _ascending_chars(d)
    px = np.angle(chars[3])
    py = np.angle(chars[4])
    if d.ambient_n == 4:
        omegas = (
            px[1] - px[0],
            py[1] - py[0],
            px[1] + py[2] - py[1],
        )
    else:
        pz = np.angle(chars[5])
        omegas = (
            px[1] - px[0],
            py[1] - py[0],
            pz[1] - pz[0],
            px[1] + py[2] - py[1],
            px[1] + pz[2] - pz[1],
            py[2] + pz[3] - pz[2],
        )
    return OmegaSet(n=d.ambient_n, omegas=tuple(wrap_angle(float(w)) for w in omegas))


_SYMMETRIES = ("S1", "S2", "S3")


def apply_symmetry(d: Decomposition, which: str, phase: float) -> Decomposition:
    """Transform chain parameters by one of the rephasing symmetries.

    S1 multiplies the order-3 vector by e^{i phase} and compensates on
    the last components rotated through it (y3, and z3 for n = 5); S2
    does the same one order up; S3 (n = 5 only) rephases the order-5
    vector.  The composed matrix changes only by external phase matrices,
    so every plaquette is unchanged.
    """
    n = d.ambient_n
    if n not in (4, 5):
        raise DomainError(f"chain symmetries are defined for n in {{4, 5}}, got n={n}")
    if which not in _SYMMETRIES or (which == "S3" and n == 4):
        raise DomainError(f"unsupported symmetry {which!r} for n={n}")
    chars = {k: v.copy() for k, v in _ascending_chars(d).items()}
    rot = np.exp(1j * phase)
    if which == "S1":
        chars[3] = chars[3] * rot
        chars[4][2] = chars[4][2] / rot
        if n == 5:
            chars[5][2] = chars[5][2] / rot
    elif which == "S2":
        chars[4] = chars[4] * rot
        if n == 5:
            chars[5][3] = chars[5][3] / rot
    else:
        chars[5] = chars[5] * rot
    # Unit-phase multiplication preserves the norm to machine precision,
    # so the vectors are not renormalised.
    new_factors = tuple(
        f.with_char(chars[f.order_k]) if f.order_k in (3, 4, 5) else f for f in d.factors
    )
    return d.replace(factors=new_factors)


# --- panel lattice and the six unitarity relations (n = 4) ------------------


@dataclass(frozen=True)
class PanelLattice:
    """Nearest-neighbour plaquettes P_ab = R_ab + i J_ab on an (n-1)^2 grid."""

    n: int
    panels: np.ndarray

    @property
    def J(self) -> np.ndarray:
        return self.panels.imag

    @property
    def R(self) -> np.ndarray:
        return self.panels.real

    def panel(self, a: int, b: int) -> complex:
        """P_ab, 1-based: the plaquette of rows (a, a+1) and columns (b, b+1)."""
        return complex(self.panels[a - 1, b - 1])


def panel_lattice(x) -> PanelLattice:
    x = require_unitary(x)
    n = x.shape[0]
    if n < 2:
        raise DomainError("panel lattice needs n >= 2")
    panels = np.empty((n - 1, n - 1), dtype=np.complex128)
    panels.real, panels.imag = _quartet(x[:-1, :-1], x[1:, 1:], x[:-1, 1:], x[1:, :-1])
    panels.setflags(write=False)
    return PanelLattice(n=n, panels=panels)


# Denominators |V_rc V_r'c'|^2 of the six relations, as 1-based entry pairs.
_RELATION_DENOMS = (
    ((1, 2), (2, 2)),
    ((3, 3), (3, 4)),
    ((2, 1), (2, 2)),
    ((3, 3), (4, 3)),
    ((3, 2), (3, 3)),
    ((2, 3), (3, 3)),
)

# The unknowns of the relations: the panels outside the basis J11, J22, J33.
_DEPENDENT_PANELS = ((1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2))


def _relation_system(x) -> tuple:
    """The six panel relations of a 4-by-4 unitary as a linear system.

    Returns (A, b, J_direct): the relations read A @ u = b in the unknowns
    u = (J12, J13, J21, J23, J31, J32), 1-based panel labels, whose
    directly computed values are J_direct.  Every matrix element appearing
    in a denominator must be nonzero beyond ``RELATION_ZERO_TOL``.
    """
    x = require_square(x)
    if x.shape[0] != 4:
        raise DomainError(f"the six panel relations are specific to n=4, got n={x.shape[0]}")
    lat = panel_lattice(x)
    J, R = lat.J, lat.R
    m = []
    for (r1, c1), (r2, c2) in _RELATION_DENOMS:
        for (r, c) in ((r1, c1), (r2, c2)):
            if abs(x[r - 1, c - 1]) <= RELATION_ZERO_TOL:
                raise PreconditionError(
                    f"matrix element V[{r},{c}] has modulus {abs(x[r - 1, c - 1]):.3e} "
                    f"<= {RELATION_ZERO_TOL}; the panel relations divide by it"
                )
        m.append(abs(x[r1 - 1, c1 - 1] * x[r2 - 1, c2 - 1]) ** 2)
    a = np.zeros((6, 6))
    b = np.zeros(6)
    a[0, 1], a[0, 0], b[0] = 1.0, -(1 + R[0, 0] / m[0]), (R[0, 1] / m[0]) * J[0, 0]
    a[1, 1], a[1, 3], b[1] = 1.0, -(1 + R[2, 2] / m[1]), (R[1, 2] / m[1]) * J[2, 2]
    a[2, 4], a[2, 2], b[2] = 1.0, -(1 + R[0, 0] / m[2]), (R[1, 0] / m[2]) * J[0, 0]
    a[3, 4], a[3, 5], b[3] = 1.0, -(1 + R[2, 2] / m[3]), (R[2, 1] / m[3]) * J[2, 2]
    a[4, 0], a[4, 5], b[4] = 1.0, -(R[1, 1] / m[4]), (1 + R[2, 1] / m[4]) * J[1, 1]
    a[5, 2], a[5, 3], b[5] = 1.0, -(R[1, 1] / m[5]), (1 + R[1, 2] / m[5]) * J[1, 1]
    j_direct = np.array([J[p - 1, q - 1] for p, q in _DEPENDENT_PANELS])
    return a, b, j_direct


def panel_relation_residuals(x) -> np.ndarray:
    """LHS - RHS of the six panel unitarity relations of a 4-by-4 unitary.

    All six vanish (to rounding) for exactly unitary input.  Requires
    every matrix element appearing in a denominator to be nonzero beyond
    ``RELATION_ZERO_TOL``.
    """
    a, b, j_direct = _relation_system(x)
    return a @ j_direct - b


def basis_solve_n4(x) -> dict:
    """Solve the six panel relations for the dependent imaginary parts.

    Given the basis {J_11, J_22, J_33} (and the real parts and moduli,
    which are invariant data), returns the six remaining J_ab of the
    4-by-4 panel lattice, keyed by (a, b).  The relations couple the
    unknowns in a single cycle, so they are solved as one 6-by-6 linear
    system; a near-singular system (condition number above
    ``RELATION_COND_LIMIT``, degenerate moduli) is reported as unsolvable
    together with the directly computed panel values.
    """
    a, b, j_direct = _relation_system(x)
    cond = np.linalg.cond(a)
    if not np.isfinite(cond) or cond > RELATION_COND_LIMIT:
        direct = dict(zip(_DEPENDENT_PANELS, (float(v) for v in j_direct)))
        raise PreconditionError(
            f"panel relation system is singular (cond={cond:.3e}); "
            f"directly computed panels: {direct}"
        )
    u = np.linalg.solve(a, b)
    return dict(zip(_DEPENDENT_PANELS, (float(v) for v in u)))


# --- closed forms from the chain parameters ---------------------------------


def _require_pinned_order2(d: Decomposition, tol: float = 1e-9):
    chars = _ascending_chars(d)
    if abs(chars[2][0] - 1.0) > tol:
        raise DomainError(
            "closed forms assume the order-2 characteristic scalar is pinned to 1 "
            "(canonical gauge); run gauge_fix first"
        )
    return chars


def closed_form_j_n3(d: Decomposition) -> float:
    """The unique invariant of a 3-by-3 chain: c2 c3 s2 s3^2 Im(conj(x1) x2)."""
    if d.ambient_n != 3:
        raise DomainError(f"expected n=3, got n={d.ambient_n}")
    chars = _require_pinned_order2(d)
    t2, t3 = d.factor(2).theta, d.factor(3).theta
    x = chars[3]
    scale = math.cos(t2) * math.cos(t3) * math.sin(t2) * math.sin(t3) ** 2
    return float(scale * (np.conj(x[0]) * x[1]).imag)


def closed_forms_n4(d: Decomposition) -> tuple:
    """Closed forms for the (34,34) and (34,24) invariants of an n=4 chain.

    Only moduli of the characteristic components and the omega phases
    enter:

        (34,34) = c3 c4 s3 s4^2 |y3| (|x2 y2| sin w3 + |x1 y1| sin(w3+w2-w1))
        (34,24) = c4 s3 s4^2 |x2 y2| (s3 |x1 y1| sin(w1-w2) - c3 |y3| sin w3)
    """
    if d.ambient_n != 4:
        raise DomainError(f"expected n=4, got n={d.ambient_n}")
    chars = _require_pinned_order2(d)
    t3, t4 = d.factor(3).theta, d.factor(4).theta
    c3, s3 = math.cos(t3), math.sin(t3)
    c4, s4 = math.cos(t4), math.sin(t4)
    x, y = np.abs(chars[3]), np.abs(chars[4])
    w1, w2, w3 = omega_from_params(d).omegas
    p3434 = c3 * c4 * s3 * s4**2 * y[2] * (
        x[1] * y[1] * math.sin(w3) + x[0] * y[0] * math.sin(w3 + w2 - w1)
    )
    p3424 = c4 * s3 * s4**2 * x[1] * y[1] * (
        s3 * x[0] * y[0] * math.sin(w1 - w2) - c3 * y[2] * math.sin(w3)
    )
    return float(p3434), float(p3424)


# --- unitarity triangles -----------------------------------------------------


def triangle_areas(x) -> list:
    """Areas of the row- and column-orthogonality polygons.

    For every row pair (a, b) the sides are V_aj conj(V_bj), j = 1..n
    (and analogously down columns); unitarity closes the polygon.  For
    n = 3 every polygon is a triangle of area |J|/2.  Returns a list of
    (("rows"|"cols", i, j), area) with 1-based indices.
    """
    x = require_unitary(x)
    n = x.shape[0]
    a, b = np.triu_indices(n, 1)
    pairs = list(zip(a.tolist(), b.tolist()))
    out = []
    # Columns are rows of a C-contiguous transpose, so both kinds of sides come
    # from one complex product; vertices 0, s_1, s_1 + s_2, ... per polygon,
    # shoelace terms Im(conj(v_i) v_i+1) summed in order along each polygon.
    for kind, v in (("rows", x), ("cols", np.ascontiguousarray(x.T))):
        vertices = np.zeros((len(pairs), n + 1), dtype=np.complex128)
        np.cumsum(v[a] * np.conj(v[b]), axis=1, out=vertices[:, 1:])
        vr, vi = vertices.real, vertices.imag
        terms = vr[:, :-1] * vi[:, 1:] - vi[:, :-1] * vr[:, 1:]
        areas = np.abs(0.5 * np.cumsum(terms, axis=1)[:, -1])
        out += [((kind, i + 1, j + 1), area) for (i, j), area in zip(pairs, areas)]
    return out


# --- two-zero textures (n = 4) ----------------------------------------------


@dataclass(frozen=True)
class ZeroTextureReport:
    """Invariant structure of a 4-by-4 unitary with two off-grid zeros.

    All index-carrying fields refer to the standard frame, the row/column
    relabelling that puts the vanishing entries at positions (1, 4) and
    (4, 1).  ``J`` and ``J_prime`` are the (12;12) and (34;34) invariants
    there; ``ratio`` is the closed-form prediction -s4^2/s3^2 for
    J'/J obtained by re-parameterising the matrix; ``sign_pattern`` maps
    each canonical plaquette to its place in the {+-J, +-J', J+J', 0}
    classification; ``triangle_areas`` holds the eight non-degenerate
    triangle areas (labelled, standard frame).
    """

    J: float
    J_prime: float
    ratio: float
    vanishing_count: int
    sign_pattern: dict
    triangle_areas: tuple
    J_closed_form: float
    J_prime_closed_form: float
    modulus_ratio_sq: dict
    zeros: tuple
    row_map: tuple
    col_map: tuple


#: The eight triangle pairs of the standard texture frame.
_TEXTURE_TRIANGLES = (
    ("rows", 1, 2),
    ("rows", 1, 3),
    ("rows", 2, 4),
    ("rows", 3, 4),
    ("cols", 1, 2),
    ("cols", 1, 3),
    ("cols", 2, 4),
    ("cols", 3, 4),
)


def _texture_permutation(x: np.ndarray, tol: float) -> tuple:
    """Row/column orders mapping the two zeros to (1, 4) and (4, 1)."""
    n = x.shape[0]
    zero_pos = [(r, c) for r in range(n) for c in range(n) if abs(x[r, c]) <= tol]
    if len(zero_pos) != 2:
        raise DomainError(
            f"texture needs exactly two entries below {tol}, found {len(zero_pos)} "
            f"at {[(r + 1, c + 1) for r, c in zero_pos]}"
        )
    (r1, c1), (r2, c2) = sorted(zero_pos)
    if r1 == r2 or c1 == c2:
        raise DomainError(
            f"zero entries must lie on distinct rows and columns, got "
            f"({r1 + 1},{c1 + 1}) and ({r2 + 1},{c2 + 1})"
        )
    other_rows = sorted(set(range(n)) - {r1, r2})
    other_cols = sorted(set(range(n)) - {c1, c2})
    row_order = [r1, *other_rows, r2]
    col_order = [c2, *other_cols, c1]
    return tuple(row_order), tuple(col_order), ((r1 + 1, c1 + 1), (r2 + 1, c2 + 1))


def zero_texture_analysis(x, tol: float = 1e-9) -> ZeroTextureReport:
    """Analyse a 4-by-4 unitary whose two zeros share no row or column.

    The matrix is relabelled so the zeros sit at (1, 4) and (4, 1); there
    19 of the 36 imaginary invariants vanish and the remaining ones chain
    into +-J, +-J' and J+J'.  The closed forms come from relabelling once
    more so the zeros sit at (3, 4)/(4, 3), peeling that matrix into an
    ascending canonical chain and evaluating

        J = c2 c3 c4 s2 s3^2 Im(conj(x1) x2),
        J' = -c2 c3 c4 s2 s4^2 Im(conj(x1) x2),

    whence J'/J = -s4^2/s3^2.  Entries at most *tol* in modulus count as
    zeros; ``vanishing_count`` counts the imaginary parts at most
    ``TEXTURE_VANISH_TOL``.
    """
    x = require_unitary(x)
    if x.shape[0] != 4:
        raise DomainError(f"zero-texture analysis is specific to n=4, got n={x.shape[0]}")
    row_order, col_order, zeros = _texture_permutation(x, tol)
    std = x[np.ix_(row_order, col_order)]
    nonzero_min = min(
        abs(std[r, c]) for r in range(4) for c in range(4) if (r, c) not in ((0, 3), (3, 0))
    )
    if nonzero_min <= tol:
        raise DomainError(
            f"all entries off the texture must exceed {tol}; smallest is {nonzero_min:.3e}"
        )

    table = plaquette_table(std)
    j_val = table.im((1, 2), (1, 2))
    jp_val = table.im((3, 4), (3, 4))

    ims = table.values.imag.ravel()
    vanishing = np.count_nonzero(np.abs(ims) <= TEXTURE_VANISH_TOL)
    # Each entry takes the label of the nearest candidate, the first on ties.
    labels = ("0", "+J", "-J", "+J'", "-J'", "J+J'")
    targets = np.array([0.0, j_val, -j_val, jp_val, -jp_val, j_val + jp_val])
    nearest = np.argmin(np.abs(ims[:, None] - targets), axis=1).tolist()
    sign_pattern = {key: labels[i] for key, i in zip(table.keys(), nearest)}

    areas = dict(triangle_areas(std))
    tri = tuple((label, areas[label]) for label in _TEXTURE_TRIANGLES)

    # Closed forms: relabel rows/cols 1 <-> 3 so the zeros move to (3,4)/(4,3),
    # then peel into an ascending canonical chain.
    calc = std[np.ix_((2, 1, 0, 3), (2, 1, 0, 3))]
    chain = gauge_fix(reorder_chain(decompose(calc), range(2, 5)))
    t2, t3, t4 = (chain.factor(k).theta for k in (2, 3, 4))
    c2, s2 = math.cos(t2), math.sin(t2)
    c3, s3 = math.cos(t3), math.sin(t3)
    c4, s4 = math.cos(t4), math.sin(t4)
    xchar = chain.factor(3).char
    im_x = (np.conj(xchar[0]) * xchar[1]).imag
    j_closed = c2 * c3 * c4 * s2 * s3**2 * im_x
    jp_closed = -c2 * c3 * c4 * s2 * s4**2 * im_x
    if s3 <= tol:
        raise DomainError("texture is degenerate: the order-3 angle vanishes")
    ratio = -(s4**2) / s3**2

    ab = np.abs(std)
    modulus_ratio_sq = {
        "corner_products_rows": (ab[1, 3] * ab[2, 3] / (ab[1, 0] * ab[2, 0])) ** 2,
        "corner_products_cols": (ab[3, 1] * ab[3, 2] / (ab[0, 1] * ab[0, 2])) ** 2,
        "modulus_sums_rows": (
            (ab[1, 3] ** 2 + ab[2, 3] ** 2) / (ab[0, 1] ** 2 + ab[0, 2] ** 2)
        )
        ** 2,
        "modulus_sums_cols": (
            (ab[3, 1] ** 2 + ab[3, 2] ** 2) / (ab[1, 0] ** 2 + ab[2, 0] ** 2)
        )
        ** 2,
    }

    return ZeroTextureReport(
        J=float(j_val),
        J_prime=float(jp_val),
        ratio=float(ratio),
        vanishing_count=int(vanishing),
        sign_pattern=sign_pattern,
        triangle_areas=tri,
        J_closed_form=float(j_closed),
        J_prime_closed_form=float(jp_closed),
        modulus_ratio_sq={k: float(v) for k, v in modulus_ratio_sq.items()},
        zeros=zeros,
        row_map=tuple(i + 1 for i in row_order),
        col_map=tuple(i + 1 for i in col_order),
    )
