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

import functools
import math
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import recursive_param as rp
from ._rules import (  # noqa: F401
    MAX_TABLE_ENTRIES, _require_panel_order, _require_table_order, _require_texture_order,
)
from .matrix_core import (
    DEFAULT_EQUALITY_TOL,
    DEFAULT_UNITARITY_TOL,
    DomainError,
    PreconditionError,
    _is_int,
    finite_real,
    integer,
    require_square,
    require_unitary,
    tolerance,
    wrap_angle,
)

#: Smallest modulus a matrix element may have to divide the panel relations.
RELATION_ZERO_TOL = 1e-9
#: Largest condition number of the panel relation system that is still solved.
RELATION_COND_LIMIT = 1e12
#: Largest |imaginary part| a plaquette of a zero texture may have to count as vanishing.
TEXTURE_VANISH_TOL = 1e-10
#: Largest |order-2 scalar - 1| of a chain the closed forms accept as pinned to 1.
PINNED_SCALAR_TOL = 1e-9
#: Most entries one block of the plaquette-table and polygon-area kernels computes at once:
#: small orders take one block, and every temporary of a block stays within 64 KB.
_BLOCK_ENTRIES = 8192


def count_independent_phases(n: int) -> int:
    """Number of independent invariant phases of an n-by-n unitary."""
    n = integer(n, "matrix order", 1)
    return (n - 1) * (n - 2) // 2


def _check_indices(idx, n: int, what: str, count: int, distinct: bool = True) -> tuple:
    """The 1-based indices *idx* as a tuple of ints, checked to be *count* integers (numpy
    integers count, bools do not) in 1..n, and distinct unless *distinct* is false."""
    out = tuple(idx)
    if len(out) != count:
        raise DomainError(f"{what} indices must be {count} integers, got {idx}")
    if not all(_is_int(i) for i in out):
        raise DomainError(f"{what} indices must be integers, got {idx}")
    out = tuple(int(i) for i in out)
    if not all(1 <= i <= n for i in out):
        raise DomainError(f"{what} indices {idx} out of range 1..{n}")
    if distinct and len(set(out)) != len(out):
        raise DomainError(f"{what} indices must be distinct, got {idx}")
    return out


def _mul_conj(ar, ai, br, bi) -> tuple:
    """(re, im) of (ar + i ai) conj(br + i bi), bit for bit Python's complex product: its
    ar br - ai (-bi) and ar (-bi) + ai br round exactly as the sums below, since negation is
    exact.  numpy's vectorised complex multiply may fuse multiply-adds, so it is not used."""
    re = ar * br
    re += ai * bi
    im = ai * br
    im -= ar * bi
    return re, im


def _sides(re, im, a, b) -> tuple:
    """(re, im) of the polygon sides p = V[a] conj(V[b]) of V = re + i im, a and b row indices;
    plaquettes are Q_ab,jk = p_ab(j) conj(p_ab(k))."""
    return _mul_conj(re[a], im[a], re[b], im[b])


def _read_only(*arrays) -> tuple:
    """*arrays*, made read-only: the cached index arrays below are shared by every call."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


@functools.lru_cache(maxsize=8)
def _pair_indices(n: int) -> tuple:
    """The 0-based index pairs (j, k), j < k, of order n in ``combinations`` order."""
    return _read_only(*np.triu_indices(n, 1))


def _plaquette_value(x, rows, cols) -> complex:
    """The plaquette of sorted 1-based *rows* and *cols* of the complex array *x*, from its
    two sides, as the table kernel forms every entry."""
    (a, b), (j, k) = rows, cols
    sides = []  # re and im of the sides j and k
    for c in (j, k):
        p, q = x.item(a - 1, c - 1), x.item(b - 1, c - 1)
        sides += _mul_conj(p.real, p.imag, q.real, q.imag)
    return complex(*_mul_conj(*sides))


def _orient(value: complex, rows, cols) -> complex:
    """The canonical (sorted-pair) plaquette *value* in the orientation *rows*, *cols*: one
    swapped pair conjugates it, two swaps or none leave it."""
    return value.conjugate() if (rows[0] > rows[1]) != (cols[0] > cols[1]) else value


def _pair_position(pair: tuple, n: int) -> int:
    """The position of the 1-based order-n index pair, either way round, in ``combinations``
    order."""
    a, b = sorted(pair)
    return (a - 1) * (2 * n - a) // 2 + b - a - 1


def plaquette(x, rows, cols) -> complex:
    """The invariant of row pair *rows* and column pair *cols* of *x*, in that orientation."""
    x = require_square(x)
    n = x.shape[0]
    rows, cols = _check_indices(rows, n, "row", 2), _check_indices(cols, n, "column", 2)
    return _orient(_plaquette_value(x, sorted(rows), sorted(cols)), rows, cols)


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

    def value(self, rows, cols) -> complex:
        """The plaquette of row pair *rows* and column pair *cols*, in that orientation."""
        n = self.n
        rows, cols = _check_indices(rows, n, "row", 2), _check_indices(cols, n, "column", 2)
        entry = self.values[_pair_position(rows, n), _pair_position(cols, n)]
        return _orient(complex(entry), rows, cols)


@functools.lru_cache(maxsize=8)
def _table_blocks(n: int) -> tuple:
    """Row pairs per block of the order-n table kernel, the run lengths of its first sides and
    the flat indices of its second: entry (r, c) of a block takes sides j_c and k_c of the
    block's row pair r, and in ``combinations`` order j_c is side j for n - 1 - j entries."""
    j, k = _pair_indices(n)
    step = max(1, _BLOCK_ENTRIES // max(j.size, 1))
    offsets = np.arange(min(step, j.size))[:, None] * n
    return (step, *_read_only(np.arange(n - 1, -1, -1), offsets + k))


def _table_rows(x: np.ndarray) -> Iterator:
    """The plaquettes of the checked square matrix *x*, (rows, re, im) per block of row pairs
    *rows*, m = n(n-1)/2 columns each.  The call refuses an order over the table cap and
    builds the m-by-n side matrix; each block is computed as it is read."""
    n = x.shape[0]
    _require_table_order(n)
    m = n * (n - 1) // 2
    # Row and column pairs share ``combinations`` order; one m-by-n side matrix.
    j, k = _pair_indices(n)
    sr, si = _sides(x.real, x.imag, j, k)
    step, runs, take_k = _table_blocks(n)
    # Blocks of whole row pairs, at most _BLOCK_ENTRIES entries: small tables take one block
    # and large ones keep every temporary cache-sized.  Flat ``take`` gathers cost the same
    # per entry however few row pairs a block holds; the first sides are runs of repeats.
    def blocks():
        for start in range(0, m, step):
            rows = slice(start, start + step)
            br, bi = sr[rows], si[rows]
            tk = take_k[: len(br)]
            ar, ai = br.repeat(runs, axis=1), bi.repeat(runs, axis=1)
            cr, ci = br.take(tk), bi.take(tk)
            # _mul_conj(ar, ai, cr, ci) in place on the fresh gathers, product for product.
            re = ar * cr
            cr *= ai
            ai *= ci
            re += ai
            ar *= ci
            cr -= ar
            yield rows, re, cr

    return blocks()


def plaquette_table(x) -> PlaquetteTable:
    """All canonical plaquettes of a unitary of order at most 64 (``MAX_TABLE_ENTRIES``)."""
    return _plaquette_table(require_unitary(x))


def _plaquette_table(x: np.ndarray) -> PlaquetteTable:
    """:func:`plaquette_table` of the checked unitary *x*."""
    n = x.shape[0]
    blocks = _table_rows(x)  # sides first: their temporaries are freed before the table exists
    values = np.empty((n * (n - 1) // 2,) * 2, dtype=np.complex128)
    for rows, re, im in blocks:
        values.real[rows], values.imag[rows] = re, im
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
    a, b, c = _check_indices(rows, n, "row", 3)
    j, k, l = _check_indices(cols, n, "column", 3)
    pivot = abs(x[b - 1, j - 1])
    if pivot <= DEFAULT_EQUALITY_TOL:
        raise PreconditionError(
            f"pivot element V[{b},{j}] has modulus {pivot:.3e} <= {DEFAULT_EQUALITY_TOL}; "
            "reduction undefined"
        )
    v = x.item  # Python complex products round as numpy's scalar ones
    lhs = (
        v(a - 1, j - 1)
        * v(b - 1, k - 1)
        * v(c - 1, l - 1)
        * (v(a - 1, k - 1) * v(b - 1, l - 1) * v(c - 1, j - 1)).conjugate()
    ).imag
    p1, p2 = (
        _orient(_plaquette_value(x, sorted(r), sorted(s)), r, s)
        for r, s in (((a, b), (j, k)), ((b, c), (j, l)))
    )
    rhs = (p1.imag * p2.real + p1.real * p2.imag) / pivot**2
    return float(lhs), float(rhs)


# --- omega phases and chain symmetries (every order) ------------------------


@dataclass(frozen=True)
class OmegaSet:
    """The (n-1)(n-2)/2 invariant phase combinations of an ascending chain."""

    n: int
    omegas: tuple


def _ascending_chars(d: rp.Decomposition) -> np.ndarray:
    """The vector array of an ascending chain: column k - 2 holds the order-k vector."""
    if rp.infer_order(d.orders.tolist()) != rp.ASCENDING:
        raise DomainError("expected an ascending chain")
    return d.chars


def omega_from_params(d: rp.Decomposition) -> OmegaSet:
    """Assemble the invariant phases from component arguments.

    With arg[i, k-2] the argument of component i+1 of the order-k vector,
    the (n-1)(n-2)/2 phases, none for n <= 2, are the singles arg[1, k-2] -
    arg[0, k-2] for k = 3..n, then the pairs arg[k-2, k-2] + arg[k-1, l-2] -
    arg[k-2, l-2] for 3 <= k < l <= n.  For n = 4, with x the order-3 and y
    the order-4 vector: arg x2 - arg x1, arg y2 - arg y1, arg x2 + arg y3 -
    arg y2.  Values are wrapped into (-pi, pi]; they are unchanged by
    rephasing and by the chain symmetries of :func:`apply_symmetry`.
    """
    n = d.ambient_n
    arg = np.angle(_ascending_chars(d)).tolist()
    orders = range(3, n + 1)
    omegas = [arg[1][k - 2] - arg[0][k - 2] for k in orders] + [
        arg[k - 2][k - 2] + arg[k - 1][l - 2] - arg[k - 2][l - 2]
        for k, l in combinations(orders, 2)
    ]
    return OmegaSet(n=n, omegas=tuple(wrap_angle(w) for w in omegas))


def apply_symmetry(d: rp.Decomposition, which: str, phase: float) -> rp.Decomposition:
    """Transform chain parameters by one of the rephasing symmetries.

    S_i, with k = i + 2, multiplies the order-k vector by e^{i phase} and
    divides component k of every higher-order vector by it; *which* is one
    of the names "S1" to "S{n-2}".  The composed matrix changes only by
    external phase matrices, so every plaquette is unchanged.
    """
    n = d.ambient_n
    names = [f"S{k - 2}" for k in range(3, n + 1)]
    if which not in names:
        raise DomainError(f"unsupported symmetry {which!r} for n={n}")
    rot = np.exp(1j * finite_real(phase, "symmetry phase"))
    k = names.index(which) + 3
    chars = np.asfortranarray(np.triu(_ascending_chars(d)))  # gauge_fix may pad with -0.0
    chars[: k - 1, k - 2] *= rot
    chars[k - 1 : k, k - 1 :] /= rot  # row k - 1 is absent for the top order k = n
    # Unit-phase multiplication preserves the norm to machine precision,
    # so the vectors are not renormalised.
    return rp.Decomposition._of(
        n, d.orders, d.thetas, chars, d.left_phases, d.right_phases, d.order
    )


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
        a, b = _check_indices((a, b), self.n - 1, "panel", 2, distinct=False)
        return complex(self.panels[a - 1, b - 1])


def panel_lattice(x) -> PanelLattice:
    x = require_unitary(x)
    _require_panel_order(x.shape[0])
    return _panel_lattice(x)


def _panel_lattice(x: np.ndarray) -> PanelLattice:
    """:func:`panel_lattice` of the checked unitary *x*, n >= 2."""
    n = x.shape[0]
    # Sides of adjacent rows (a, a+1); panel (a, b) pairs sides b and b+1.
    sr, si = _sides(x.real, x.imag, slice(None, -1), slice(1, None))
    panels = np.empty((n - 1, n - 1), dtype=np.complex128)
    panels.real, panels.imag = _mul_conj(sr[:, :-1], si[:, :-1], sr[:, 1:], si[:, 1:])
    panels.setflags(write=False)
    return PanelLattice(n=n, panels=panels)


# The unknowns of the relations: the panels outside the basis J11, J22, J33.
_DEPENDENT_PANELS = ((1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2))

# The six relations in 1-based panel labels: (unknown U, coupled panel C, basis panel B, whether
# the 1 joins the coupling term).  A row reads J_U - (1 + R_B/m) J_C = (R_C/m) J_B, or else
# J_U - (R_B/m) J_C = (1 + R_C/m) J_B; m = |V_rc V_r'c'|^2 over the two entries C and B share
# (panel (p, q) covers rows p, p + 1 and columns q, q + 1).
_RELATIONS = (
    ((1, 3), (1, 2), (1, 1), True),
    ((1, 3), (2, 3), (3, 3), True),
    ((3, 1), (2, 1), (1, 1), True),
    ((3, 1), (3, 2), (3, 3), True),
    ((1, 2), (3, 2), (2, 2), False),
    ((2, 1), (2, 3), (2, 2), False),
)
_RELATION_ENTRIES = tuple(  # (r, c) and (r', c') of each relation's m, row-major
    [(r, c) for r in range(max(p, s), min(p, s) + 2) for c in range(max(q, t), min(q, t) + 2)]
    for _, (p, q), (s, t), _ in _RELATIONS
)


def _relation_system(x: np.ndarray, lat: PanelLattice | None = None) -> tuple:
    """The six panel relations of the checked 4-by-4 unitary *x* as a linear system.

    Returns (A, b, J_direct): the relations read A @ u = b in the unknowns
    u = (J12, J13, J21, J23, J31, J32), 1-based panel labels, whose
    directly computed values are J_direct.  Every matrix element appearing
    in a denominator must be nonzero beyond ``RELATION_ZERO_TOL``.  The
    panels are those of *lat*, or of a lattice built here.
    """
    if x.shape[0] != 4:
        raise DomainError(f"the six panel relations are specific to n=4, got n={x.shape[0]}")
    panels = (_panel_lattice(x) if lat is None else lat).panels.tolist()
    panel = {(p + 1, q + 1): v for p, row in enumerate(panels) for q, v in enumerate(row)}
    a, b = np.zeros((6, 6)), np.zeros(6)
    for i, (unknown, coupled, basis, one_couples) in enumerate(_RELATIONS):
        (r1, c1), (r2, c2) = shared = _RELATION_ENTRIES[i]
        for r, c in shared:
            if abs(x[r - 1, c - 1]) <= RELATION_ZERO_TOL:
                raise PreconditionError(
                    f"matrix element V[{r},{c}] has modulus {abs(x[r - 1, c - 1]):.3e} "
                    f"<= {RELATION_ZERO_TOL}; the panel relations divide by it"
                )
        m = abs(x[r1 - 1, c1 - 1] * x[r2 - 1, c2 - 1]) ** 2
        pb, pc = panel[basis], panel[coupled]
        rb, rc = pb.real / m, pc.real / m
        a[i, _DEPENDENT_PANELS.index(unknown)] = 1.0
        a[i, _DEPENDENT_PANELS.index(coupled)] = -(1 + rb) if one_couples else -rb
        b[i] = (rc if one_couples else 1 + rc) * pb.imag
    j_direct = np.array([panel[p].imag for p in _DEPENDENT_PANELS])
    return a, b, j_direct


def _solve_relations(system: tuple) -> dict:
    """:func:`basis_solve_n4` of the relation *system* of :func:`_relation_system`."""
    a, b, j_direct = system
    cond = np.linalg.cond(a)
    if not np.isfinite(cond) or cond > RELATION_COND_LIMIT:
        direct = dict(zip(_DEPENDENT_PANELS, (float(v) for v in j_direct)))
        raise PreconditionError(
            f"panel relation system is singular (cond={cond:.3e}); "
            f"directly computed panels: {direct}"
        )
    u = np.linalg.solve(a, b)
    return dict(zip(_DEPENDENT_PANELS, (float(v) for v in u)))


def panel_relation_residuals(x) -> np.ndarray:
    """LHS - RHS of the six panel unitarity relations of a 4-by-4 unitary.

    All six vanish (to rounding) for exactly unitary input.  Requires
    every matrix element appearing in a denominator to be nonzero beyond
    ``RELATION_ZERO_TOL``.
    """
    a, b, j_direct = _relation_system(require_unitary(x))
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
    return _solve_relations(_relation_system(require_unitary(x)))


# --- closed forms from the chain parameters ---------------------------------


def _require_pinned_order2(d: rp.Decomposition) -> np.ndarray:
    """The vector array of an ascending chain whose order-2 scalar is 1 within
    ``PINNED_SCALAR_TOL``."""
    chars = _ascending_chars(d)
    if abs(chars[0, 0] - 1.0) > PINNED_SCALAR_TOL:
        raise DomainError(
            "closed forms assume the order-2 characteristic scalar is pinned to 1 "
            "(canonical gauge); run gauge_fix first"
        )
    return chars


def closed_form_j_n3(d: rp.Decomposition) -> float:
    """The unique invariant of a 3-by-3 chain: c2 c3 s2 s3^2 Im(conj(x1) x2)."""
    if d.ambient_n != 3:
        raise DomainError(f"expected n=3, got n={d.ambient_n}")
    x = _require_pinned_order2(d)[:, 1]
    t2, t3 = d.thetas.tolist()
    scale = math.cos(t2) * math.cos(t3) * math.sin(t2) * math.sin(t3) ** 2
    return float(scale * (np.conj(x[0]) * x[1]).imag)


def closed_forms_n4(d: rp.Decomposition) -> tuple:
    """Closed forms for the (34,34) and (34,24) invariants of an n=4 chain.

    Only moduli of the characteristic components and the omega phases
    enter:

        (34,34) = c3 c4 s3 s4^2 |y3| (|x2 y2| sin w3 + |x1 y1| sin(w3+w2-w1))
        (34,24) = c4 s3 s4^2 |x2 y2| (s3 |x1 y1| sin(w1-w2) - c3 |y3| sin w3)
    """
    if d.ambient_n != 4:
        raise DomainError(f"expected n=4, got n={d.ambient_n}")
    chars = _require_pinned_order2(d)
    t3, t4 = d.thetas[1:].tolist()
    c3, s3 = math.cos(t3), math.sin(t3)
    c4, s4 = math.cos(t4), math.sin(t4)
    x, y = np.abs(chars[:2, 1]), np.abs(chars[:, 2])
    w1, w2, w3 = omega_from_params(d).omegas
    p3434 = c3 * c4 * s3 * s4**2 * y[2] * (
        x[1] * y[1] * math.sin(w3) + x[0] * y[0] * math.sin(w3 + w2 - w1)
    )
    p3424 = c4 * s3 * s4**2 * x[1] * y[1] * (
        s3 * x[0] * y[0] * math.sin(w1 - w2) - c3 * y[2] * math.sin(w3)
    )
    return float(p3434), float(p3424)


# --- unitarity triangles -----------------------------------------------------


@functools.lru_cache(maxsize=8)
def _polygons(n: int) -> tuple:
    """The order-n polygons, row polygons first, in blocks, and their ("rows"|"cols", i, j)
    labels.  Polygon p takes its side factors from columns first_p and second_p of [V^T | V];
    a block is (its polygons, the slice of its first columns, their run lengths, its second
    columns), since the first columns ascend in runs of repeats."""
    a, b = _pair_indices(n)
    pairs = list(zip((a + 1).tolist(), (b + 1).tolist()))
    labels = tuple((kind, i, j) for kind in ("rows", "cols") for i, j in pairs)
    first, second = np.concatenate((a, a + n)), np.concatenate((b, b + n))
    # Polygons per block: an even count, as 2m is, so no block holds one polygon alone (the
    # reduction of a single column would sum pairwise).
    width = 2 * max(1, _BLOCK_ENTRIES // (2 * n))
    blocks = []
    for start in range(0, first.size, width):
        cols = slice(start, start + width)
        lo = int(first[start])
        runs, seconds = _read_only(np.bincount(first[cols] - lo), second[cols])
        blocks.append((cols, slice(lo, lo + runs.size), runs, seconds))
    return tuple(blocks), labels


def triangle_areas(x) -> list:
    """Areas of the row- and column-orthogonality polygons.

    For every row pair (a, b) the sides are V_aj conj(V_bj), j = 1..n
    (and analogously down columns); unitarity closes the polygon.  For
    n = 3 every polygon is a triangle of area |J|/2.  Returns a list of
    (("rows"|"cols", i, j), area) with 1-based indices.
    """
    return _triangle_areas(require_unitary(x))


def _triangle_areas(x: np.ndarray) -> list:
    """:func:`triangle_areas` of the checked unitary *x*."""
    n = x.shape[0]
    blocks, labels = _polygons(n)
    # Rows are columns of the transpose, so one array covers both kinds: column p of the
    # C-ordered sides holds polygon p's sides in order.  Cumulative sums down the columns
    # are the vertices v_1 .. v_n (v_0 = 0 adds a zero term), and add.reduce over the
    # leading axis adds the shoelace terms Im(conj(v_i) v_i+1) row after row, in order.
    re = np.concatenate((x.real.T, x.real), axis=1)
    im = np.concatenate((x.imag.T, x.imag), axis=1)
    areas = np.empty(len(labels))
    for cols, a, runs, b in blocks:
        firsts = re[:, a].repeat(runs, axis=1), im[:, a].repeat(runs, axis=1)
        vr, vi = _mul_conj(*firsts, re.take(b, axis=1), im.take(b, axis=1))
        np.cumsum(vr, axis=0, out=vr)
        np.cumsum(vi, axis=0, out=vi)
        terms = vr[:-1] * vi[1:]
        terms -= vi[:-1] * vr[1:]
        np.add.reduce(terms, axis=0, out=areas[cols])
    areas *= 0.5
    return list(zip(labels, np.abs(areas).tolist()))


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
    triangle areas (labelled, standard frame).  Fields run in ``zerotexture``'s key order.
    """

    J: float
    J_prime: float
    ratio: float
    vanishing_count: int
    J_closed_form: float
    J_prime_closed_form: float
    modulus_ratio_sq: dict
    zeros: tuple
    row_map: tuple
    col_map: tuple
    sign_pattern: dict
    triangle_areas: tuple


#: The eight triangles of the standard texture frame: the same four pairs of rows and of columns.
_TEXTURE_TRIANGLES = tuple(
    (kind, i, j) for kind in ("rows", "cols") for i, j in ((1, 2), (1, 3), (2, 4), (3, 4))
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
    ``TEXTURE_VANISH_TOL``.  *tol* is a finite real >= 0.
    """
    tol = tolerance(tol, "tol")
    x = require_square(x)
    _require_texture_order(x.shape[0])  # refused before the unitarity check
    x = require_unitary(x)
    row_order, col_order, zeros = _texture_permutation(x, tol)
    std = x[np.ix_(row_order, col_order)]
    nonzero_min = min(
        abs(std[r, c]) for r in range(4) for c in range(4) if (r, c) not in ((0, 3), (3, 0))
    )
    if nonzero_min <= tol:
        raise DomainError(
            f"all entries off the texture must exceed {tol}; smallest is {nonzero_min:.3e}"
        )

    table = _plaquette_table(std)  # std permutes the checked x: not checked again
    j_val = table.value((1, 2), (1, 2)).imag
    jp_val = table.value((3, 4), (3, 4)).imag

    ims = table.values.imag.ravel()
    vanishing = np.count_nonzero(np.abs(ims) <= TEXTURE_VANISH_TOL)
    # Each entry takes the label of the nearest candidate, the first on ties.
    labels = ("0", "+J", "-J", "+J'", "-J'", "J+J'")
    targets = np.array([0.0, j_val, -j_val, jp_val, -jp_val, j_val + jp_val])
    nearest = np.argmin(np.abs(ims[:, None] - targets), axis=1).tolist()
    sign_pattern = {key: labels[i] for key, i in zip(table.keys(), nearest)}

    areas = dict(_triangle_areas(std))
    tri = tuple((label, areas[label]) for label in _TEXTURE_TRIANGLES)

    # Closed forms: relabel rows/cols 1 <-> 3 so the zeros move to (3,4)/(4,3),
    # then peel into an ascending canonical chain.
    calc = std[np.ix_((2, 1, 0, 3), (2, 1, 0, 3))]
    chain = rp.gauge_fix(rp.reorder_chain(rp._peel(calc, DEFAULT_UNITARITY_TOL), range(2, 5)))
    t2, t3, t4 = chain.thetas.tolist()
    c2, s2 = math.cos(t2), math.sin(t2)
    c3, s3 = math.cos(t3), math.sin(t3)
    c4, s4 = math.cos(t4), math.sin(t4)
    x1, x2 = chain.chars[:2, 1]
    im_x = (np.conj(x1) * x2).imag
    j_closed = c2 * c3 * c4 * s2 * s3**2 * im_x
    jp_closed = -c2 * c3 * c4 * s2 * s4**2 * im_x
    if s3 <= tol:
        raise DomainError("texture is degenerate: the order-3 angle vanishes")
    ratio = -(s4**2) / s3**2

    corners, sums = zip(*(  # one rule: the column ratios are the row ratios of |V|^T
        ((m[1, 3] * m[2, 3] / (m[1, 0] * m[2, 0])) ** 2,
         ((m[1, 3] ** 2 + m[2, 3] ** 2) / (m[0, 1] ** 2 + m[0, 2] ** 2)) ** 2)
        for m in (np.abs(std), np.abs(std).T)
    ))
    keys = [f"{q}_{kind}" for q in ("corner_products", "modulus_sums") for kind in ("rows", "cols")]
    modulus_ratio_sq = dict(zip(keys, corners + sums))

    return ZeroTextureReport(
        J=float(j_val),
        J_prime=float(jp_val),
        ratio=float(ratio),
        vanishing_count=int(vanishing),
        J_closed_form=float(j_closed),
        J_prime_closed_form=float(jp_closed),
        modulus_ratio_sq={k: float(v) for k, v in modulus_ratio_sq.items()},
        zeros=zeros,
        row_map=tuple(i + 1 for i in row_order),
        col_map=tuple(i + 1 for i in col_order),
        sign_pattern=sign_pattern,
        triangle_areas=tri,
    )
