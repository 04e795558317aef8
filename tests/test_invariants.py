import math
from itertools import combinations

import numpy as np
import pytest

from helpers import pinned_chain_n4, random_ascending_chain, random_char, texture_matrix
from unichain import matrix_core
from unichain.matrix_core import (
    DomainError,
    PreconditionError,
    haar_random,
    max_abs_diff,
    maxnorm,
    phase_matrix,
    wrap_angle,
)
from unichain.invariants import (
    apply_symmetry,
    basis_solve_n4,
    closed_form_j_n3,
    closed_forms_n4,
    count_independent_phases,
    omega_from_params,
    panel_lattice,
    panel_relation_residuals,
    plaquette,
    plaquette_table,
    reduce_sextet,
    triangle_areas,
    zero_texture_analysis,
)
from unichain.recursive_param import (
    ASCENDING,
    Decomposition,
    Factor,
    compose,
    decompose,
    gauge_fix,
    reorder_chain,
)


def levi_civita(p):
    sign = 1
    p = list(p)
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            if p[i] > p[j]:
                sign = -sign
    return sign


class TestPlaquette:
    def test_2x2_imaginary_part_vanishes(self):
        for seed in range(5):
            x = haar_random(2, seed)
            assert abs(plaquette(x, (1, 2), (1, 2)).imag) < 1e-15

    def test_identity_matrix(self):
        assert plaquette(np.eye(4), (1, 3), (2, 4)) == 0.0

    def test_repeated_index_rejected(self):
        with pytest.raises(DomainError):
            plaquette(np.eye(3), (1, 1), (1, 2))
        with pytest.raises(DomainError):
            plaquette(np.eye(3), (1, 2), (5, 2))

    def test_wrong_index_count_rejected(self):
        x = haar_random(4, 3)
        for rows, cols, what in (((1, 2, 3), (1, 2), "row"), ((1, 2), (1,), "column")):
            with pytest.raises(DomainError, match=f"{what} indices must be 2 integers"):
                plaquette(x, rows, cols)

    def test_orientation_signs(self):
        x = haar_random(4, 3)
        base = plaquette(x, (1, 3), (2, 4))
        # one swap conjugates, two swaps restore
        assert plaquette(x, (3, 1), (2, 4)) == base.conjugate()
        assert plaquette(x, (1, 3), (4, 2)) == base.conjugate()
        assert plaquette(x, (3, 1), (4, 2)) == base

    def test_direct_value_any_orientation(self):
        x = haar_random(5, 4)
        for rows in ((2, 4), (4, 2)):
            for cols in ((1, 5), (5, 1)):
                direct = (
                    x[rows[0] - 1, cols[0] - 1]
                    * x[rows[1] - 1, cols[1] - 1]
                    * np.conj(x[rows[0] - 1, cols[1] - 1])
                    * np.conj(x[rows[1] - 1, cols[0] - 1])
                )
                assert abs(plaquette(x, rows, cols) - direct) < 1e-15


class TestPlaquetteTable:
    def test_counts(self):
        assert len(plaquette_table(haar_random(4, 0))) == 36
        assert len(plaquette_table(haar_random(3, 0))) == 9
        assert len(plaquette_table(haar_random(5, 0))) == 100

    def test_rephasing_invariance(self):
        rng = np.random.Generator(np.random.PCG64(1))
        for n in (3, 4, 5):
            x = haar_random(n, 10 + n)
            base = plaquette_table(x)
            for _ in range(5):
                left = phase_matrix(rng.uniform(-math.pi, math.pi, n))
                right = phase_matrix(rng.uniform(-math.pi, math.pi, n))
                assert max_abs_diff(base.values, plaquette_table(left @ x @ right).values) < 1e-12

    def test_rejects_non_unitary(self):
        with pytest.raises(DomainError):
            plaquette_table(np.ones((3, 3)))

    def test_wrong_index_count_rejected(self):
        table = plaquette_table(haar_random(4, 0))
        with pytest.raises(DomainError, match="row indices must be 2 integers"):
            table.value((1, 2, 3), (1, 2))
        with pytest.raises(DomainError, match="column indices must be 2 integers"):
            table.value((1, 2), (3,))


class TestEpsilonStructure:
    def test_all_nine_follow_single_j(self):
        for seed in range(10):
            x = haar_random(3, 100 + seed)
            t = plaquette_table(x)
            j = t.value((1, 2), (1, 2)).imag
            for rows in combinations(range(1, 4), 2):
                for cols in combinations(range(1, 4), 2):
                    grow = ({1, 2, 3} - set(rows)).pop()
                    gcol = ({1, 2, 3} - set(cols)).pop()
                    sign = levi_civita((grow, *rows)) * levi_civita((gcol, *cols))
                    assert abs(t.value(rows, cols).imag - sign * j) < 1e-13


def _side_identity_inputs():
    cases = []
    for n in (3, 5, 8):
        cases += [(f"haar{n}-{seed}", haar_random(n, 200 + seed)) for seed in (0, 1)]
        perm = np.random.default_rng(n).permutation(n)
        cases.append((f"perm{n}", np.eye(n, dtype=complex)[perm]))
    cases += [(f"texture-{seed}", texture_matrix(np.random.default_rng(seed))) for seed in (0, 1)]
    # An order whose table (7 blocks) and polygon (2 blocks) kernels run in several blocks.
    cases.append(("haar22-blocks", haar_random(22, 200)))
    return cases


SIDE_CASES = _side_identity_inputs()


class TestSideIdentities:
    """Q_ab,jk = p_ab(j) conj(p_ab(k)) with the sides p_ab(j) = V_aj conj(V_bj)
    of a closed polygon, for every n."""

    @pytest.mark.parametrize("x", [x for _, x in SIDE_CASES], ids=[name for name, _ in SIDE_CASES])
    def test_row_sums_close_the_polygon(self, x):
        # sum_{k != j} Q_ab,jk = p_ab(j) conj(-p_ab(j)) = -|V_aj|^2 |V_bj|^2, imaginary part 0
        n = x.shape[0]
        t = plaquette_table(x)
        for a, b in combinations(range(1, n + 1), 2):
            for j in range(1, n + 1):
                total = sum(t.value((a, b), (j, k)) for k in range(1, n + 1) if k != j)
                expected = -abs(x[a - 1, j - 1]) ** 2 * abs(x[b - 1, j - 1]) ** 2
                assert abs(total.real - expected) <= 1e-15
                assert abs(total.imag) <= 1e-15

    @pytest.mark.parametrize("x", [x for _, x in SIDE_CASES], ids=[name for name, _ in SIDE_CASES])
    def test_polygon_areas_from_the_table(self, x):
        # area = 1/2 |sum_{j<k} J_ab,jk| for rows (a, b); 1/2 |sum_{a<b} J_ab,jk| for columns (j, k)
        n = x.shape[0]
        t = plaquette_table(x)
        pairs = list(combinations(range(1, n + 1), 2))
        for (kind, i, j), area in triangle_areas(x):
            if kind == "rows":
                total = sum(t.value((i, j), cols).imag for cols in pairs)
            else:
                total = sum(t.value(rows, (i, j)).imag for rows in pairs)
            assert abs(area - abs(total) / 2) <= 1e-15


class TestSextetReduction:
    def test_identity_matrix(self):
        # pivot V[2,2] = 1 with rows (1,2,3), cols (2,1,3)
        lhs, rhs = reduce_sextet(np.eye(3), (1, 2, 3), (2, 1, 3))
        assert lhs == 0.0 and rhs == 0.0

    def test_random_4x4(self):
        for seed in range(20):
            x = haar_random(4, 200 + seed)
            lhs, rhs = reduce_sextet(x, (1, 2, 3), (1, 2, 3))
            assert abs(lhs - rhs) < 1e-12

    def test_random_5x5_random_indices(self):
        rng = np.random.Generator(np.random.PCG64(2))
        worst = 0.0
        for trial in range(100):
            x = haar_random(5, 300 + trial)
            rows = tuple(int(i) + 1 for i in rng.choice(5, 3, replace=False))
            cols = tuple(int(i) + 1 for i in rng.choice(5, 3, replace=False))
            if abs(x[rows[1] - 1, cols[0] - 1]) <= 1e-6:
                continue
            lhs, rhs = reduce_sextet(x, rows, cols)
            worst = max(worst, abs(lhs - rhs))
        assert worst < 1e-11

    def test_vanishing_pivot_rejected(self):
        x = np.eye(3)
        with pytest.raises(PreconditionError):
            reduce_sextet(x, (1, 2, 3), (1, 2, 3))  # pivot V[2,1] = 0

    def test_bad_indices_rejected(self):
        with pytest.raises(DomainError):
            reduce_sextet(np.eye(4), (1, 1, 2), (1, 2, 3))

    def test_wrong_index_count_rejected(self):
        x = haar_random(4, 5)
        with pytest.raises(DomainError, match="column indices must be 3 integers"):
            reduce_sextet(x, (1, 2, 3), (1, 2))
        with pytest.raises(DomainError, match="row indices must be 3 integers"):
            reduce_sextet(x, (1, 2, 3, 4), (1, 2, 3))


class TestOmega:
    def test_real_positive_components_give_zero(self):
        factors = (
            Factor(4, 2, 0.4, [1.0]),
            Factor(4, 3, 0.7, [0.6, 0.8]),
            Factor(4, 4, 1.0, [0.48, 0.6, 0.64]),
        )
        d = Decomposition(4, factors, np.zeros(4), np.zeros(4), ASCENDING)
        assert maxnorm(omega_from_params(d).omegas) == 0.0

    def test_direct_substitution(self):
        x = np.array([0.6 * np.exp(0.1j), 0.8 * np.exp(0.3j)])
        factors = (
            Factor(4, 2, 0.4, [1.0]),
            Factor(4, 3, 0.7, x),
            Factor(4, 4, 1.0, [0.48, 0.6, 0.64]),
        )
        d = Decomposition(4, factors, np.zeros(4), np.zeros(4), ASCENDING)
        om = omega_from_params(d).omegas
        assert abs(om[0] - 0.2) < 1e-15
        assert abs(om[1]) < 1e-15
        assert abs(om[2] - 0.3) < 1e-15

    def test_direct_substitution_n5(self):
        # Hand-set component phases of the order-3, -4 and -5 vectors x, y, z.
        px, py, pz = (0.1, 0.3), (0.2, -0.1, 0.4), (0.05, 0.25, -0.2, 3.0)
        moduli = ((0.6, 0.8), (0.48, 0.6, 0.64), (0.5, 0.5, 0.5, 0.5))
        factors = (Factor(5, 2, 0.4, [1.0]),) + tuple(
            Factor(5, k, 0.3 * k, np.array(m) * np.exp(1j * np.array(p)))
            for k, m, p in zip((3, 4, 5), moduli, (px, py, pz))
        )
        d = Decomposition(5, factors, np.zeros(5), np.zeros(5), ASCENDING)
        expected = (
            px[1] - px[0],
            py[1] - py[0],
            pz[1] - pz[0],
            px[1] + py[2] - py[1],
            px[1] + pz[2] - pz[1],
            py[2] + pz[3] - pz[2] - 2 * math.pi,  # 3.6, wrapped into (-pi, pi]
        )
        om = omega_from_params(d).omegas
        assert len(om) == 6
        for got, want in zip(om, expected):
            assert abs(got - want) < 1e-15

    def test_invariance_under_symmetries(self):
        rng = np.random.Generator(np.random.PCG64(3))
        d = random_ascending_chain(rng, 4)
        base = omega_from_params(d).omegas
        d2 = apply_symmetry(apply_symmetry(d, "S1", 0.7), "S2", -1.3)
        for a, b in zip(base, omega_from_params(d2).omegas):
            assert abs(a - b) < 1e-14

    def test_n5_count_and_invariance(self):
        rng = np.random.Generator(np.random.PCG64(4))
        d = random_ascending_chain(rng, 5)
        base = omega_from_params(d).omegas
        assert len(base) == count_independent_phases(5) == 6
        d2 = apply_symmetry(d, "S1", 0.9)
        d2 = apply_symmetry(d2, "S2", -0.4)
        d2 = apply_symmetry(d2, "S3", 1.8)
        for a, b in zip(base, omega_from_params(d2).omegas):
            assert abs(a - b) < 1e-14

    def test_n3_single_phase(self):
        rng = np.random.Generator(np.random.PCG64(5))
        d = random_ascending_chain(rng, 3)
        x = d.chars[:, 1]
        (w,) = omega_from_params(d).omegas
        assert abs(wrap_angle(w - (np.angle(x[1]) - np.angle(x[0])))) < 1e-15

    @pytest.mark.parametrize("n", [1, 2])
    def test_no_phases_below_n3(self, n):
        d = random_ascending_chain(np.random.Generator(np.random.PCG64(n)), n)
        assert omega_from_params(d).omegas == ()


def canonical_chain(x):
    """The canonical chain of *x*: decompose, reorder ascending, fix the gauge."""
    n = x.shape[0]
    return gauge_fix(reorder_chain(decompose(x), range(2, n + 1)))


def max_wrapped_diff(a, b) -> float:
    assert len(a) == len(b)
    return max((abs(wrap_angle(p - q)) for p, q in zip(a, b)), default=0.0)


class TestEveryOrder:
    """Omega phases and chain symmetries by the one index rule, beyond n = 4, 5."""

    @pytest.mark.parametrize("n", [3, 6, 8, 16])
    def test_count(self, n):
        d = canonical_chain(haar_random(n, 60 + n))
        assert len(omega_from_params(d).omegas) == count_independent_phases(n)

    @pytest.mark.parametrize("n", [3, 6, 8, 16])
    def test_rephasing_invariance(self, n):
        rng = np.random.Generator(np.random.PCG64(70 + n))
        x = haar_random(n, 70 + n)
        d1, d2 = (phase_matrix(rng.uniform(-math.pi, math.pi, n)) for _ in range(2))
        base = omega_from_params(canonical_chain(x)).omegas
        moved = omega_from_params(canonical_chain(d1 @ x @ d2)).omegas
        assert max_wrapped_diff(base, moved) < 1e-13

    @pytest.mark.parametrize("n", [3, 6, 8, 16])
    def test_every_symmetry(self, n):
        rng = np.random.Generator(np.random.PCG64(80 + n))
        d = canonical_chain(haar_random(n, 80 + n))
        base, table = omega_from_params(d).omegas, plaquette_table(compose(d))
        for i in range(1, n - 1):
            out = apply_symmetry(d, f"S{i}", rng.uniform(-math.pi, math.pi))
            assert max_wrapped_diff(base, omega_from_params(out).omegas) < 1e-14
            assert max_abs_diff(table.values, plaquette_table(compose(out)).values) < 1e-15

    def test_closed_form_n3_from_omega(self):
        for seed in range(10):
            d = canonical_chain(haar_random(3, 90 + seed))
            t2, t3 = d.thetas.tolist()
            x1, x2 = np.abs(d.chars[:, 1])
            (w1,) = omega_from_params(d).omegas
            expected = (
                math.cos(t2) * math.cos(t3) * math.sin(t2) * math.sin(t3) ** 2
                * x1 * x2 * math.sin(w1)
            )
            assert abs(closed_form_j_n3(d) - expected) < 1e-15


# Entries (row, column) of ``chars`` each symmetry multiplies by e^{i phase}, then those it
# divides by it: S_i turns the order-(i+2) vector (column i) and, in row i + 1, every
# higher-order vector back.
_SYMMETRY_ENTRIES = {
    (4, "S1"): ({(0, 1), (1, 1)}, {(2, 2)}),
    (4, "S2"): ({(0, 2), (1, 2), (2, 2)}, set()),
    (5, "S1"): ({(0, 1), (1, 1)}, {(2, 2), (2, 3)}),
    (5, "S2"): ({(0, 2), (1, 2), (2, 2)}, {(3, 3)}),
    (5, "S3"): ({(0, 3), (1, 3), (2, 3), (3, 3)}, set()),
}


class TestApplySymmetry:
    @pytest.mark.parametrize("n, which", sorted(_SYMMETRY_ENTRIES))
    def test_only_named_entries_change(self, n, which):
        rng = np.random.Generator(np.random.PCG64(40 + n))
        d = random_ascending_chain(rng, n)
        phase = 0.9
        rot = np.exp(1j * phase)
        out = apply_symmetry(d, which, phase)
        turned, turned_back = _SYMMETRY_ENTRIES[n, which]
        for r in range(n - 1):
            for c in range(n - 1):
                before, after = d.chars[r, c], out.chars[r, c]
                if (r, c) in turned:
                    assert abs(after - before * rot) < 1e-15
                elif (r, c) in turned_back:
                    assert abs(after - before / rot) < 1e-15
                else:
                    assert np.array([after]).tobytes() == np.array([before]).tobytes()
        assert np.array_equal(out.thetas, d.thetas) and out.order == d.order
        assert np.array_equal(out.left_phases, d.left_phases)
        assert np.array_equal(out.right_phases, d.right_phases)

    def test_zero_phase_is_identity(self):
        rng = np.random.Generator(np.random.PCG64(6))
        d = random_ascending_chain(rng, 4)
        out = apply_symmetry(d, "S1", 0.0)
        for a, b in zip(out.factors, d.factors):
            assert max_abs_diff(a.char, b.char) == 0.0

    def test_s1_table_invariance_n4(self):
        rng = np.random.Generator(np.random.PCG64(7))
        d = random_ascending_chain(rng, 4)
        base = plaquette_table(compose(d))
        out = apply_symmetry(d, "S1", 0.7)
        assert max_abs_diff(base.values, plaquette_table(compose(out)).values) < 1e-12

    def test_s2_table_invariance_n4(self):
        rng = np.random.Generator(np.random.PCG64(8))
        d = random_ascending_chain(rng, 4)
        base = plaquette_table(compose(d))
        out = apply_symmetry(d, "S2", -2.1)
        assert max_abs_diff(base.values, plaquette_table(compose(out)).values) < 1e-12

    def test_s3_table_invariance_n5(self):
        rng = np.random.Generator(np.random.PCG64(9))
        d = random_ascending_chain(rng, 5)
        base = plaquette_table(compose(d))
        out = apply_symmetry(d, "S3", 1.1)
        assert max_abs_diff(base.values, plaquette_table(compose(out)).values) < 1e-12

    def test_all_symmetries_n5(self):
        rng = np.random.Generator(np.random.PCG64(10))
        d = random_ascending_chain(rng, 5)
        base = plaquette_table(compose(d))
        for which, phase in (("S1", 0.3), ("S2", -0.8), ("S3", 2.5)):
            d = apply_symmetry(d, which, phase)
        assert max_abs_diff(base.values, plaquette_table(compose(d)).values) < 1e-12

    def test_s1_defined_at_n3(self):
        d = random_ascending_chain(np.random.Generator(np.random.PCG64(11)), 3)
        out = apply_symmetry(d, "S1", 0.1)
        assert abs(out.chars[0, 1] - d.chars[0, 1] * np.exp(0.1j)) < 1e-15
        before, after = (plaquette_table(compose(c)).values for c in (d, out))
        assert max_abs_diff(before, after) < 1e-15

    @pytest.mark.parametrize("which", ["S0", "S3", "S01", "s1", "S1.0", " S1", "S\u0661", 1, None])
    def test_names_outside_s1_to_s_n_minus_2_rejected(self, which):
        d = random_ascending_chain(np.random.Generator(np.random.PCG64(11)), 4)
        with pytest.raises(DomainError, match="unsupported symmetry"):
            apply_symmetry(d, which, 0.1)

    @pytest.mark.parametrize("n", [1, 2])
    def test_no_symmetries_below_n3(self, n):
        d = random_ascending_chain(np.random.Generator(np.random.PCG64(n)), n)
        with pytest.raises(DomainError, match="unsupported symmetry"):
            apply_symmetry(d, "S1", 0.1)

    def test_non_finite_phase_rejected(self):
        d = random_ascending_chain(np.random.Generator(np.random.PCG64(12)), 4)
        for phase in (math.inf, -math.inf, math.nan, 10**400, -(10**400)):
            with pytest.raises(DomainError, match="phase must be finite"):
                apply_symmetry(d, "S1", phase)

    @pytest.mark.parametrize("phase", ["0.5", None, True, 0.5j, [0.5]])
    def test_non_real_phase_rejected(self, phase):
        d = random_ascending_chain(np.random.Generator(np.random.PCG64(12)), 4)
        with pytest.raises(DomainError, match="phase must be a real number"):
            apply_symmetry(d, "S1", phase)

    def test_integer_and_numpy_phases_accepted(self):
        d = random_ascending_chain(np.random.Generator(np.random.PCG64(12)), 4)
        want = apply_symmetry(d, "S1", 1.0).chars.tobytes()
        for phase in (1, np.int64(1), np.float64(1.0)):
            assert apply_symmetry(d, "S1", phase).chars.tobytes() == want


class TestPanelLattice:
    def test_grid_shape(self):
        assert panel_lattice(haar_random(4, 1)).panels.shape == (3, 3)
        assert panel_lattice(haar_random(6, 1)).panels.shape == (5, 5)

    def test_identity_all_zero(self):
        assert maxnorm(panel_lattice(np.eye(4)).panels) == 0.0

    def test_p11_direct(self):
        x = haar_random(4, 2)
        direct = x[0, 0] * x[1, 1] * np.conj(x[0, 1]) * np.conj(x[1, 0])
        assert abs(panel_lattice(x).panel(1, 1) - direct) < 1e-15

    def test_matches_plaquettes(self):
        x = haar_random(4, 3)
        lat = panel_lattice(x)
        t = plaquette_table(x)
        for (a, b), rows, cols in (
            ((1, 1), (1, 2), (1, 2)),
            ((1, 2), (1, 2), (2, 3)),
            ((2, 2), (2, 3), (2, 3)),
            ((3, 2), (3, 4), (2, 3)),
        ):
            assert abs(lat.panel(a, b).imag - t.value(rows, cols).imag) < 1e-15

    @pytest.mark.parametrize(
        "a, b, message",
        [
            (0, 0, "out of range 1..3"),
            (-1, 1, "out of range 1..3"),
            (4, 1, "out of range 1..3"),
            (1, 4, "out of range 1..3"),
            (True, 1, "must be integers"),
            (1.5, 1, "must be integers"),
        ],
    )
    def test_labels_outside_1_to_n_minus_1_rejected(self, a, b, message):
        lat = panel_lattice(haar_random(4, 3))
        with pytest.raises(DomainError, match=f"panel indices .*{message}"):
            lat.panel(a, b)

    def test_equal_and_numpy_labels_accepted(self):
        lat = panel_lattice(haar_random(4, 3))
        assert lat.panel(np.int64(3), np.int32(3)) == complex(lat.panels[2, 2])
        assert lat.panel(1, 1) == complex(lat.panels[0, 0])

    def test_order_1_refused_after_the_unitarity_check(self):
        with pytest.raises(DomainError, match="^panel lattice needs n >= 2$"):
            panel_lattice(np.array([[1j]]))
        with pytest.raises(DomainError, match="^input is not unitary"):
            panel_lattice(np.array([[2.0]]))


class TestPanelRelations:
    def test_z_identity_oracle(self):
        # For any complex triple, |z_b|^2 Im(z_a conj(z_c)) =
        # Re(z_a conj(z_b)) Im(z_b conj(z_c)) + Im(z_a conj(z_b)) Re(z_b conj(z_c)).
        rng = np.random.Generator(np.random.PCG64(12))
        for _ in range(50):
            za, zb, zc = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            lhs = abs(zb) ** 2 * (za * np.conj(zc)).imag
            rhs = (za * np.conj(zb)).real * (zb * np.conj(zc)).imag + (
                za * np.conj(zb)
            ).imag * (zb * np.conj(zc)).real
            assert abs(lhs - rhs) < 1e-12

    def test_first_relation_via_row_pair_sides(self):
        # Rebuild relation 1 independently from the row-(1,2) side products
        # and compare with the op's residual definition.
        x = haar_random(4, 13)
        z = x[0, :] * np.conj(x[1, :])
        m = abs(z[1]) ** 2
        j11 = (z[0] * np.conj(z[1])).imag
        r11 = (z[0] * np.conj(z[1])).real
        j12 = (z[1] * np.conj(z[2])).imag
        r12 = (z[1] * np.conj(z[2])).real
        j13 = (z[2] * np.conj(z[3])).imag
        residual = j13 - (1 + r11 / m) * j12 - (r12 / m) * j11
        assert abs(residual - panel_relation_residuals(x)[0]) < 1e-15

    def test_haar_residuals_small(self):
        for seed in range(20):
            assert maxnorm(panel_relation_residuals(haar_random(4, 400 + seed))) < 1e-12

    def test_real_orthogonal_residuals_exact_zero(self):
        rng = np.random.Generator(np.random.PCG64(14))
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        assert maxnorm(panel_relation_residuals(q.astype(complex))) == 0.0

    def test_hundred_haar(self):
        worst = 0.0
        for seed in range(100):
            worst = max(worst, maxnorm(panel_relation_residuals(haar_random(4, 500 + seed))))
        assert worst < 1e-11

    def test_vanishing_denominator_rejected(self):
        x = np.eye(4, dtype=complex)
        x[1, 1] = 0.0
        x[1, 2] = 1.0
        x[2, 1] = -1.0
        x[2, 2] = 0.0
        with pytest.raises(PreconditionError):
            panel_relation_residuals(x)

    def test_wrong_order_rejected(self):
        with pytest.raises(DomainError):
            panel_relation_residuals(haar_random(3, 0))


class TestBasisSolve:
    def test_matches_direct_panels(self):
        for seed in range(20):
            x = haar_random(4, 600 + seed)
            lat = panel_lattice(x)
            solved = basis_solve_n4(x)
            for (a, b), v in solved.items():
                assert abs(v - lat.J[a - 1, b - 1]) < 1e-10

    def test_orthogonal_gives_zeros(self):
        rng = np.random.Generator(np.random.PCG64(15))
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        solved = basis_solve_n4(q.astype(complex))
        assert maxnorm(list(solved.values())) < 1e-12

    def test_symmetric_matrix_pairs(self):
        # For a symmetric unitary the solved off-diagonal panels pair up.
        from unichain.symmetric import SymmetricParams, compose_symmetric

        rng = np.random.Generator(np.random.PCG64(16))
        chars = []
        for k in range(2, 5):
            v = rng.standard_normal(k - 1)
            chars.append(v / np.linalg.norm(v))
        p = SymmetricParams(4, tuple(rng.uniform(0.4, 1.2, 3)), tuple(chars))
        x = compose_symmetric(p)
        solved = basis_solve_n4(x)
        assert abs(solved[(1, 2)] - solved[(2, 1)]) < 1e-10
        assert abs(solved[(1, 3)] - solved[(3, 1)]) < 1e-10
        assert abs(solved[(2, 3)] - solved[(3, 2)]) < 1e-10


class TestClosedForms:
    def test_n3_zero_cases(self):
        z2 = Decomposition(
            3,
            (Factor(3, 2, 0.0, [1.0]), Factor(3, 3, 0.8, random_char(np.random.Generator(np.random.PCG64(17)), 2))),
            np.zeros(3),
            np.zeros(3),
            ASCENDING,
        )
        assert closed_form_j_n3(z2) == 0.0
        real_x = Decomposition(
            3,
            (Factor(3, 2, 0.5, [1.0]), Factor(3, 3, 0.8, [0.6, 0.8])),
            np.zeros(3),
            np.zeros(3),
            ASCENDING,
        )
        assert closed_form_j_n3(real_x) == 0.0

    def test_n3_matches_plaquette(self):
        rng = np.random.Generator(np.random.PCG64(18))
        for _ in range(20):
            t2, t3 = rng.uniform(0.1, 1.4, 2)
            x = random_char(rng, 2)
            d = Decomposition(
                3,
                (Factor(3, 2, t2, [1.0]), Factor(3, 3, t3, x)),
                np.zeros(3),
                np.zeros(3),
                ASCENDING,
            )
            j = closed_form_j_n3(d)
            t = plaquette_table(compose(d))
            assert abs(j - t.value((1, 2), (1, 2)).imag) < 1e-13

    def test_n3_from_decompose(self):
        x = haar_random(3, 19)
        d = gauge_fix(reorder_chain(decompose(x), range(2, 4)))
        assert abs(closed_form_j_n3(d) - plaquette_table(x).value((1, 2), (1, 2)).imag) < 1e-13

    def test_n3_requires_pinned_scalar(self):
        rng = np.random.Generator(np.random.PCG64(20))
        d = Decomposition(
            3,
            (Factor(3, 2, 0.5, [np.exp(0.3j)]), Factor(3, 3, 0.8, random_char(rng, 2))),
            np.zeros(3),
            np.zeros(3),
            ASCENDING,
        )
        with pytest.raises(DomainError):
            closed_form_j_n3(d)

    def test_n4_zero_cases(self):
        d = Decomposition(
            4,
            (
                Factor(4, 2, 0.4, [1.0]),
                Factor(4, 3, 0.9, [0.6, 0.8]),
                Factor(4, 4, 1.1, [0.48, 0.6, 0.64]),
            ),
            np.zeros(4),
            np.zeros(4),
            ASCENDING,
        )
        assert closed_forms_n4(d) == (0.0, 0.0)  # all phases zero
        rng = np.random.Generator(np.random.PCG64(21))
        d0 = Decomposition(
            4,
            (
                Factor(4, 2, 0.4, [1.0]),
                Factor(4, 3, 0.9, random_char(rng, 2)),
                Factor(4, 4, 0.0, random_char(rng, 3)),
            ),
            np.zeros(4),
            np.zeros(4),
            ASCENDING,
        )
        a, b = closed_forms_n4(d0)
        assert a == 0.0 and b == 0.0  # sin(theta_4) = 0

    def test_n4_matches_plaquettes(self):
        rng = np.random.Generator(np.random.PCG64(22))
        for _ in range(100):
            d = pinned_chain_n4(rng)
            t = plaquette_table(compose(d))
            f3434, f3424 = closed_forms_n4(d)
            assert abs(f3434 - t.value((3, 4), (3, 4)).imag) < 1e-12
            assert abs(f3424 - t.value((3, 4), (2, 4)).imag) < 1e-12

    def test_tables_depend_only_on_moduli_and_omegas(self):
        rng = np.random.Generator(np.random.PCG64(23))
        for _ in range(10):
            d = pinned_chain_n4(rng)
            base = plaquette_table(compose(d))
            other = apply_symmetry(d, "S1", rng.uniform(-math.pi, math.pi))
            other = apply_symmetry(other, "S2", rng.uniform(-math.pi, math.pi))
            # same component moduli, same omegas, different raw phases
            for k in (3, 4):
                assert max_abs_diff(np.abs(other.factor(k).char), np.abs(d.factor(k).char)) < 1e-15
            assert max_abs_diff(base.values, plaquette_table(compose(other)).values) < 1e-12


class TestTriangleAreas:
    def test_identity(self):
        assert all(area == 0.0 for _, area in triangle_areas(np.eye(4)))

    def test_n3_all_equal_half_j(self):
        for seed in range(10):
            x = haar_random(3, 700 + seed)
            j = plaquette_table(x).value((1, 2), (1, 2)).imag
            areas = triangle_areas(x)
            assert len(areas) == 6
            for _, area in areas:
                assert abs(area - abs(j) / 2) < 1e-13

    def test_pair_labels(self):
        labels = [pair for pair, _ in triangle_areas(np.eye(3))]
        assert ("rows", 1, 2) in labels and ("cols", 2, 3) in labels


class TestZeroTexture:
    def test_constructed_texture_report(self):
        rng = np.random.Generator(np.random.PCG64(24))
        for _ in range(10):
            v = texture_matrix(rng)
            rep = zero_texture_analysis(v)
            assert rep.vanishing_count == 19
            assert abs(rep.J_prime / rep.J - rep.ratio) < 1e-11
            assert abs(rep.J - rep.J_closed_form) < 1e-11
            assert abs(rep.J_prime - rep.J_prime_closed_form) < 1e-11

    def test_sign_pattern_chains(self):
        rng = np.random.Generator(np.random.PCG64(25))
        v = texture_matrix(rng)
        rep = zero_texture_analysis(v)
        expected_j = {
            ((1, 2), (1, 2)): "+J",
            ((1, 2), (1, 3)): "-J",
            ((1, 2), (2, 3)): "+J",
            ((1, 3), (1, 2)): "-J",
            ((1, 3), (1, 3)): "+J",
            ((1, 3), (2, 3)): "-J",
            ((2, 3), (1, 2)): "+J",
            ((2, 3), (1, 3)): "-J",
        }
        expected_jp = {
            ((2, 3), (2, 4)): "-J'",
            ((2, 3), (3, 4)): "+J'",
            ((2, 4), (2, 3)): "-J'",
            ((2, 4), (2, 4)): "+J'",
            ((2, 4), (3, 4)): "-J'",
            ((3, 4), (2, 3)): "+J'",
            ((3, 4), (2, 4)): "-J'",
            ((3, 4), (3, 4)): "+J'",
        }
        for key, label in expected_j.items():
            assert rep.sign_pattern[key] == label, key
        for key, label in expected_jp.items():
            assert rep.sign_pattern[key] == label, key
        assert rep.sign_pattern[((2, 3), (2, 3))] == "J+J'"
        zero_labels = [l for l in rep.sign_pattern.values() if l == "0"]
        assert len(zero_labels) == 19

    def test_center_panel_is_sum(self):
        rng = np.random.Generator(np.random.PCG64(26))
        v = texture_matrix(rng)
        rep = zero_texture_analysis(v)
        row_order = [i - 1 for i in rep.row_map]
        col_order = [i - 1 for i in rep.col_map]
        std = v[np.ix_(row_order, col_order)]
        t = plaquette_table(std)
        assert abs(t.value((2, 3), (2, 3)).imag - (rep.J + rep.J_prime)) < 1e-12

    def test_modulus_ratios(self):
        rng = np.random.Generator(np.random.PCG64(27))
        v = texture_matrix(rng)
        rep = zero_texture_analysis(v)
        target = (rep.J_prime / rep.J) ** 2
        for value in rep.modulus_ratio_sq.values():
            assert abs(value - target) < 1e-11

    def test_triangle_areas_split(self):
        rng = np.random.Generator(np.random.PCG64(28))
        v = texture_matrix(rng)
        rep = zero_texture_analysis(v)
        assert len(rep.triangle_areas) == 8
        half_j = abs(rep.J) / 2
        half_jp = abs(rep.J_prime) / 2
        j_count = sum(1 for _, a in rep.triangle_areas if abs(a - half_j) < 1e-11)
        jp_count = sum(1 for _, a in rep.triangle_areas if abs(a - half_jp) < 1e-11)
        assert j_count >= 4 and jp_count >= 4 and j_count + jp_count >= 8

    def test_decomposed_moduli_relations(self):
        # |y1| = |x2| and |y2| = |x1| for the re-extracted chain of the
        # calculation frame, y3 = 0.
        rng = np.random.Generator(np.random.PCG64(29))
        v = texture_matrix(rng)  # zeros already at (3,4),(4,3)
        chain = gauge_fix(reorder_chain(decompose(v), range(2, 5)))
        x = np.abs(chain.factor(3).char)
        y = np.abs(chain.factor(4).char)
        assert abs(y[0] - x[1]) < 1e-12
        assert abs(y[1] - x[0]) < 1e-12
        assert y[2] < 1e-12

    def test_permuted_placements(self):
        rng = np.random.Generator(np.random.PCG64(30))
        v = texture_matrix(rng)
        for _ in range(5):
            rp = rng.permutation(4)
            cp = rng.permutation(4)
            w = v[np.ix_(rp, cp)]
            rep = zero_texture_analysis(w)
            assert rep.vanishing_count == 19
            assert abs(rep.J - rep.J_closed_form) < 1e-11
            assert abs(rep.J_prime - rep.J_prime_closed_form) < 1e-11
            assert abs(rep.J_prime / rep.J - rep.ratio) < 1e-11

    def test_rejects_wrong_zero_count(self):
        with pytest.raises(DomainError):
            zero_texture_analysis(haar_random(4, 31))  # no zeros at all

    def test_rejects_aligned_zeros(self):
        x = np.eye(4, dtype=complex)  # many zeros sharing rows/columns
        with pytest.raises(DomainError):
            zero_texture_analysis(x)

    def test_rejects_wrong_order(self):
        with pytest.raises(DomainError):
            zero_texture_analysis(haar_random(3, 32))

    def test_order_refused_before_the_unitarity_check(self, monkeypatch):
        def defect(m):
            raise AssertionError("the order was checked after the unitarity defect")

        monkeypatch.setattr(matrix_core, "_defect", defect)
        with pytest.raises(DomainError, match="specific to n=4, got n=5"):
            zero_texture_analysis(np.ones((5, 5)))


class TestValidateOnce:
    """A public call checks its matrix once; the work nested in it runs on the checked array."""

    @pytest.mark.parametrize(
        "call",
        [
            zero_texture_analysis,
            panel_relation_residuals,
            basis_solve_n4,
            plaquette_table,
            triangle_areas,
            panel_lattice,
            decompose,
        ],
    )
    def test_one_unitarity_check_per_call(self, call, monkeypatch):
        texture = call is zero_texture_analysis  # the relations divide by every entry
        x = texture_matrix(np.random.default_rng(3)) if texture else haar_random(4, 3)
        defect, checked = matrix_core._defect, []

        def counting(m):
            checked.append(m)
            return defect(m)

        monkeypatch.setattr(matrix_core, "_defect", counting)
        call(x)
        assert len(checked) == 1


class TestCountIndependentPhases:
    def test_reference_values(self):
        assert count_independent_phases(3) == 1
        assert count_independent_phases(4) == 3
        assert count_independent_phases(5) == 6

    def test_small_orders(self):
        assert count_independent_phases(1) == 0
        assert count_independent_phases(2) == 0

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            count_independent_phases(0)

    @pytest.mark.parametrize("n", [2.5, 3.0, True, "4", None])
    def test_rejects_non_integers(self, n):
        with pytest.raises(DomainError, match="matrix order must be an integer"):
            count_independent_phases(n)

    def test_numpy_integers_accepted(self):
        assert count_independent_phases(np.int64(4)) == 3
        assert type(count_independent_phases(np.int64(5))) is int
