"""The array kernels of the invariants layer against scalar formulas, bit for bit.

Plaquette tables, panel lattices and triangle areas are computed on whole
arrays; every entry must equal the scalar product or shoelace sum it
stands for exactly (``==``), so outputs do not depend on the layout.
"""

from itertools import combinations

import numpy as np
import pytest

from helpers import texture_matrix
from unichain.invariants import (
    MAX_TABLE_ENTRIES,
    panel_lattice,
    plaquette,
    plaquette_table,
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
        assert value == plaquette(x, *key).value == scalar_quartet(x, *key)


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
        p = t.get((4, 2), (5, 1))
        assert (p.rows, p.cols, p.value) == ((2, 4), (1, 5), canonical.value)
        assert t.value((2, 4), (1, 5)) == canonical.value
        assert t.value((4, 2), (1, 5)) == canonical.value.conjugate()
        assert t.value((2, 4), (5, 1)) == canonical.value.conjugate()
        assert t.value((4, 2), (5, 1)) == canonical.value
        assert t.im((4, 2), (1, 5)) == -canonical.im
        assert t.re((4, 2), (1, 5)) == canonical.re

    def test_bad_pairs_rejected(self):
        t = plaquette_table(haar_random(4, 3))
        for rows, cols in (((1, 1), (1, 2)), ((1, 2), (0, 2)), ((1, 5), (1, 2))):
            with pytest.raises(DomainError):
                t.get(rows, cols)

    def test_max_abs_diff(self):
        t4 = plaquette_table(haar_random(4, 3))
        with pytest.raises(DomainError):
            t4.max_abs_diff(plaquette_table(haar_random(3, 3)))
        assert t4.max_abs_diff(t4) == 0.0
        one = plaquette_table(np.eye(1, dtype=complex))
        assert len(one) == 0 and one.max_abs_diff(one) == 0.0
        other = plaquette_table(haar_random(4, 4))
        expected = max(abs(t4.value(*k) - other.value(*k)) for k in t4.keys())
        assert t4.max_abs_diff(other) == expected

    @pytest.mark.parametrize("n", [2, 3, 5, 16])
    def test_max_abs_diff_row_blocks_exact(self, n):
        a, b = plaquette_table(haar_random(n, 5)), plaquette_table(haar_random(n, 6))
        diff = a.values - b.values  # the whole-array form, as abs(complex) per entry
        assert a.max_abs_diff(b) == float(np.max(np.hypot(diff.real, diff.imag)))
