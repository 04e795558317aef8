"""The array kernels of the invariants layer against scalar formulas, bit for bit.

Plaquette tables, panel lattices and triangle areas are computed on whole
arrays; every entry must equal the scalar product or shoelace sum it
stands for exactly (``==``), so outputs do not depend on the layout.
"""

import tracemalloc
from functools import partial
from itertools import combinations

import numpy as np
import pytest

from helpers import texture_matrix
from unichain import invariants
from unichain.invariants import (
    MAX_TABLE_ENTRIES,
    panel_lattice,
    plaquette,
    plaquette_table,
    reduce_sextet,
    triangle_areas,
)
from unichain.matrix_core import DomainError, haar_random


def _inputs():
    cases = []
    for n in (1, 2, 3, 5, 8):
        cases += [(f"haar{n}-{seed}", haar_random(n, seed)) for seed in (0, 1)]
        cases.append((f"eye{n}", np.eye(n, dtype=complex)))
        perm = np.random.default_rng(n).permutation(n)
        cases.append((f"perm{n}", np.eye(n, dtype=complex)[perm]))
    for seed in (0, 1):
        cases.append((f"texture-{seed}", texture_matrix(np.random.default_rng(seed))))
    return cases


INPUTS = _inputs()
IDS = [name for name, _ in INPUTS]
MATRICES = [x for _, x in INPUTS]


def scalar_sides(u, v):
    """Polygon sides u_j conj(v_j) as Python complex products."""
    return [complex(p) * complex(q).conjugate() for p, q in zip(u, v)]


def scalar_quartet(x, rows, cols):
    """V_aj V_bk conj(V_ak) conj(V_bj) as the Python product of two sides,
    (V_aj conj(V_bj)) conj(V_ak conj(V_bk))."""
    (a, b), (j, k) = ((i - 1 for i in rows), (i - 1 for i in cols))
    sides = scalar_sides(x[a], x[b])
    return sides[j] * sides[k].conjugate()


def scalar_shoelace(sides):
    """Polygon area from its Python complex edges, vertex by vertex."""
    total, vertex = 0.0, 0j
    for side in sides:
        nxt = vertex + side
        total += (vertex.conjugate() * nxt).imag
        vertex = nxt
    return abs(0.5 * total)


def pairs(n):
    return list(combinations(range(1, n + 1), 2))


@pytest.mark.parametrize("x", MATRICES, ids=IDS)
def test_table_entries_equal_scalar_plaquettes(x):
    table = plaquette_table(x)
    keys = table.keys()
    assert len(keys) == len(table) == table.values.size
    for key, value in zip(keys, table.values.ravel()):
        assert value == plaquette(x, *key) == scalar_quartet(x, *key)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8])
def test_scalar_and_table_plaquettes_agree_in_every_orientation(n):
    x = haar_random(n, 21)
    table = plaquette_table(x)
    for rows, cols in table.keys():
        for r in (rows, rows[::-1]):
            for c in (cols, cols[::-1]):
                assert plaquette(x, r, c) == table.value(r, c)


@pytest.mark.parametrize("x", MATRICES, ids=IDS)
def test_panels_equal_four_element_formula(x):
    n = x.shape[0]
    if n < 2:
        with pytest.raises(DomainError):
            panel_lattice(x)
        return
    lat = panel_lattice(x)
    assert lat.panels.shape == (n - 1, n - 1)
    for a in range(1, n):
        for b in range(1, n):
            assert lat.panel(a, b) == scalar_quartet(x, (a, a + 1), (b, b + 1))


@pytest.mark.parametrize("x", MATRICES, ids=IDS)
def test_areas_equal_scalar_shoelace(x):
    n = x.shape[0]
    expected = [
        (("rows", a, b), scalar_shoelace(scalar_sides(x[a - 1], x[b - 1]))) for a, b in pairs(n)
    ] + [
        (("cols", j, k), scalar_shoelace(scalar_sides(x[:, j - 1], x[:, k - 1])))
        for j, k in pairs(n)
    ]
    got = triangle_areas(x)
    assert [label for label, _ in got] == [label for label, _ in expected]
    assert all(type(i) is int for (_, *idx), _ in got for i in idx)
    assert [area for _, area in got] == [area for _, area in expected]


class TestTableContract:
    def test_keys_follow_combinations_order(self):
        for n in (1, 2, 4):
            t = plaquette_table(haar_random(n, 3))
            assert t.keys() == [(r, c) for r in pairs(n) for c in pairs(n)]
            m = n * (n - 1) // 2
            assert len(t) == m * m and t.values.shape == (m, m)

    def test_order_cap(self):
        assert len(plaquette_table(haar_random(64, 1))) == MAX_TABLE_ENTRIES
        with pytest.raises(DomainError, match=f"over the cap {MAX_TABLE_ENTRIES}"):
            plaquette_table(haar_random(65, 1))

    def test_values_read_only(self):
        t = plaquette_table(haar_random(4, 3))
        assert t.values.dtype == np.complex128
        assert not t.values.flags.writeable
        with pytest.raises(ValueError):
            t.values[0, 0] = 0.0

    def test_orientation_rules(self):
        x = haar_random(5, 7)
        t = plaquette_table(x)
        canonical = plaquette(x, (2, 4), (1, 5))
        assert plaquette(x, (4, 2), (5, 1)) == canonical
        assert t.value((2, 4), (1, 5)) == canonical
        assert t.value((4, 2), (1, 5)) == canonical.conjugate()
        assert t.value((2, 4), (5, 1)) == canonical.conjugate()
        assert t.value((4, 2), (5, 1)) == canonical
        assert t.value((4, 2), (1, 5)).imag == -canonical.imag
        assert t.value((4, 2), (1, 5)).real == canonical.real

    def test_bad_pairs_rejected(self):
        t = plaquette_table(haar_random(4, 3))
        for rows, cols in (((1, 1), (1, 2)), ((1, 2), (0, 2)), ((1, 5), (1, 2))):
            with pytest.raises(DomainError):
                t.value(rows, cols)


# The kernels work in blocks of at most 8192 entries: the n = 16 table takes 2 blocks of row
# pairs and the n = 24 table 10; the polygons of n = 24 take 2 blocks and those of n = 64 32.


@pytest.mark.parametrize("n", [16, 24])
def test_blocked_table_equals_scalar_plaquettes(n):
    x = haar_random(n, 11)
    table = plaquette_table(x)
    assert table.values.flags.c_contiguous and not table.values.flags.writeable
    sides = {rows: scalar_sides(x[rows[0] - 1], x[rows[1] - 1]) for rows in pairs(n)}
    expected = [
        sides[rows][j - 1] * sides[rows][k - 1].conjugate()
        for rows in pairs(n)
        for j, k in pairs(n)
    ]
    assert table.values.ravel().tolist() == expected


@pytest.mark.parametrize("n", [24, 64])
def test_blocked_areas_equal_scalar_shoelace(n):
    # Some block boundary falls inside a run of polygons that share their first column.
    blocks, _ = invariants._polygons(n)
    assert any(a.stop - 1 == b.start for (_, a, _, _), (_, b, _, _) in zip(blocks, blocks[1:]))
    x = haar_random(n, 12)
    expected = [scalar_shoelace(scalar_sides(x[a - 1], x[b - 1])) for a, b in pairs(n)] + [
        scalar_shoelace(scalar_sides(x[:, j - 1], x[:, k - 1])) for j, k in pairs(n)
    ]
    assert [area for _, area in triangle_areas(x)] == expected


def test_table_temporaries_bounded():
    # Besides the 65 MB table itself, an n = 64 table needs only cache-sized blocks.
    x = haar_random(64, 1)
    tracemalloc.start()
    try:
        table = plaquette_table(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - table.values.nbytes <= 4_000_000


class TestIndexArguments:
    """Indices are integers, numpy's included; floats, bools and strings are refused, not
    truncated or counted as 1."""

    X = haar_random(5, 2)
    BAD = [
        ((1.9, 2.2), (1, 3)),
        ((1, 2), (1.0, 3)),
        ((True, 2), (1, 3)),
        ((1, 2), (np.bool_(True), 3)),
        (("1", 2), (1, 3)),
    ]

    @pytest.mark.parametrize("rows, cols", BAD)
    def test_plaquette_and_table_refuse(self, rows, cols):
        table = plaquette_table(self.X)
        for lookup in (partial(plaquette, self.X), table.value):
            with pytest.raises(DomainError, match="must be integers"):
                lookup(rows, cols)

    @pytest.mark.parametrize(
        "rows, cols",
        [((True, 2, 3), (1, 2, 4)), ((1, 2, 3), (1, 2.0, 4)), ((1, 2.5, 3), (1, 2, 4))],
    )
    def test_reduce_sextet_refuses(self, rows, cols):
        with pytest.raises(DomainError, match="must be integers"):
            reduce_sextet(self.X, rows, cols)

    def test_refusal_names_the_argument(self):
        with pytest.raises(DomainError, match="column indices must be integers"):
            plaquette(self.X, (1, 2), (1, 2.0))
        with pytest.raises(DomainError, match="row indices must be integers"):
            reduce_sextet(self.X, (1, 2, np.float64(3)), (1, 2, 3))

    def test_numpy_integers_accepted(self):
        table = plaquette_table(self.X)
        rows, cols = (np.int64(4), np.int32(2)), (np.uint8(1), np.int16(5))
        assert plaquette(self.X, rows, cols) == plaquette(self.X, (4, 2), (1, 5))
        assert table.value(rows, cols) == table.value((4, 2), (1, 5))
        triple = (np.int64(2), np.int64(1), np.int64(4))
        assert reduce_sextet(self.X, triple, triple) == reduce_sextet(self.X, (2, 1, 4), (2, 1, 4))


@pytest.mark.parametrize("n", [3, 5, 16])
def test_sextet_lhs_is_the_numpy_scalar_product(n):
    x = haar_random(n, 14)
    rng = np.random.default_rng(n)
    for _ in range(200):
        (a, b, c), (j, k, l) = (rng.choice(n, 3, replace=False) for _ in range(2))
        lhs = (x[a, j] * x[b, k] * x[c, l] * np.conj(x[a, k] * x[b, l] * x[c, j])).imag
        assert reduce_sextet(x, (a + 1, b + 1, c + 1), (j + 1, k + 1, l + 1))[0] == lhs


@pytest.mark.parametrize("n", [3, 4, 8, 24])
def test_sextet_reduction_from_oriented_plaquettes(n, monkeypatch):
    # rhs equals the reduction written with oriented plaquette() values, bit for bit, while
    # reduce_sextet itself forms its two plaquettes without calling plaquette().
    x = haar_random(n, 13)
    rng = np.random.default_rng(n)
    cases = []
    while len(cases) < 20:
        rows = tuple(int(i) + 1 for i in rng.choice(n, 3, replace=False))
        cols = tuple(int(i) + 1 for i in rng.choice(n, 3, replace=False))
        (a, b, c), (j, k, l) = rows, cols
        if abs(x[b - 1, j - 1]) > 1e-6:
            p1 = plaquette(x, (a, b), (j, k))
            p2 = plaquette(x, (b, c), (j, l))
            rhs = (p1.imag * p2.real + p1.real * p2.imag) / abs(x[b - 1, j - 1]) ** 2
            cases.append((rows, cols, float(rhs)))

    def forbidden(*args, **kwargs):
        raise AssertionError("reduce_sextet called plaquette()")

    monkeypatch.setattr(invariants, "plaquette", forbidden)
    for rows, cols, rhs in cases:
        assert reduce_sextet(x, rows, cols)[1] == rhs
