import itertools
import math

import numpy as np
import pytest

from unichain.matrix_core import (
    DomainError,
    ShapeError,
    StructureError,
    haar_random,
    max_abs_diff,
    maxnorm,
    phase_matrix,
    unitarity_defect,
    wrap_angles,
)
from unichain.recursive_param import (
    ASCENDING,
    CUSTOM,
    DESCENDING,
    Decomposition,
    Factor,
    Generator,
    apply_factor,
    block,
    compose,
    decompose,
    decomposition_from_json_dict,
    decomposition_to_json_dict,
    embed,
    exp_generator,
    gauge_fix,
    generator,
    in_canonical_gauge,
    infer_order,
    reorder_chain,
    reorder_swap,
)


def random_char(rng, length):
    v = rng.standard_normal(length) + 1j * rng.standard_normal(length)
    return v / np.linalg.norm(v)


def random_factor(rng, n, k):
    return Factor(n, k, rng.uniform(0, math.pi), random_char(rng, k - 1))


def random_chain(rng, n, order=ASCENDING):
    ks = range(2, n + 1) if order == ASCENDING else range(n, 1, -1)
    factors = tuple(random_factor(rng, n, k) for k in ks)
    return Decomposition(
        ambient_n=n,
        factors=factors,
        left_phases=rng.uniform(-math.pi, math.pi, n),
        right_phases=rng.uniform(-math.pi, math.pi, n),
        order=order,
    )


EPS = np.finfo(float).eps
#: Angles at and near both ends of [0, pi/2]; 1e-160 has a column norm whose square underflows.
EDGE_ANGLES = (0.0, 1e-160, 1e-12, 1e-9, 1e-7, 1e-5, 1e-3, math.pi / 2 - 1e-9, math.pi / 2)


def edge_chain(rng, n):
    """Ascending chain with angles from EDGE_ANGLES and some exactly-zero vector components."""
    factors = []
    for k in range(2, n + 1):
        v = random_char(rng, k - 1)
        zero = rng.random(k - 1) < 1 / 3
        zero[rng.integers(k - 1)] = False
        v[zero] = 0.0
        factors.append(Factor(n, k, rng.choice(EDGE_ANGLES), v / np.linalg.norm(v)))
    left, right = rng.uniform(-math.pi, math.pi, (2, n))
    return Decomposition(n, tuple(factors), left, right, ASCENDING)


def eq27_matrices(t2, t3, t4, x, y):
    """The three n=4 factors written out entry by entry, as an independent
    oracle for block/embed/compose."""
    c2, s2 = math.cos(t2), math.sin(t2)
    c3, s3 = math.cos(t3), math.sin(t3)
    c4, s4 = math.cos(t4), math.sin(t4)
    x1, x2 = x
    y1, y2, y3 = y
    m2 = np.array(
        [[c2, s2, 0, 0], [-s2, c2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], dtype=complex
    )
    w3 = 1 - c3
    m3 = np.array(
        [
            [1 - w3 * x1 * np.conj(x1), -w3 * x1 * np.conj(x2), s3 * x1, 0],
            [-w3 * x2 * np.conj(x1), 1 - w3 * x2 * np.conj(x2), s3 * x2, 0],
            [-s3 * np.conj(x1), -s3 * np.conj(x2), c3, 0],
            [0, 0, 0, 1],
        ],
        dtype=complex,
    )
    w4 = 1 - c4
    m4 = np.array(
        [
            [1 - w4 * y1 * np.conj(y1), -w4 * y1 * np.conj(y2), -w4 * y1 * np.conj(y3), s4 * y1],
            [-w4 * y2 * np.conj(y1), 1 - w4 * y2 * np.conj(y2), -w4 * y2 * np.conj(y3), s4 * y2],
            [-w4 * y3 * np.conj(y1), -w4 * y3 * np.conj(y2), 1 - w4 * y3 * np.conj(y3), s4 * y3],
            [-s4 * np.conj(y1), -s4 * np.conj(y2), -s4 * np.conj(y3), c4],
        ],
        dtype=complex,
    )
    return m2, m3, m4


class TestBlock:
    def test_zero_angle(self):
        rng = np.random.Generator(np.random.PCG64(0))
        a = random_char(rng, 3)
        assert max_abs_diff(block(0.0, a), np.eye(4)) == 0.0

    def test_order2_rotation(self):
        t = 0.63
        c, s = math.cos(t), math.sin(t)
        assert max_abs_diff(block(t, [1.0]), [[c, s], [-s, c]]) == 0.0

    def test_order3_explicit_entries(self):
        rng = np.random.Generator(np.random.PCG64(1))
        x = random_char(rng, 2)
        t3 = 0.81
        _, m3, _ = eq27_matrices(0.0, t3, 0.0, x, [1, 0, 0])
        assert max_abs_diff(block(t3, x), m3[:3, :3]) < 1e-15

    def test_rejects_unnormalised(self):
        with pytest.raises(DomainError):
            block(0.3, [0.5, 0.5])

    def test_unitary_det_one(self):
        rng = np.random.Generator(np.random.PCG64(2))
        for k in range(2, 7):
            b = block(rng.uniform(0, math.pi), random_char(rng, k - 1))
            assert unitarity_defect(b) <= 1e-12
            assert abs(np.linalg.det(b) - 1.0) < 1e-12


class TestEmbed:
    def test_full_order_equals_block(self):
        rng = np.random.Generator(np.random.PCG64(3))
        f = random_factor(rng, 4, 4)
        assert max_abs_diff(embed(f), block(f.theta, f.char)) == 0.0

    def test_identity_padding(self):
        rng = np.random.Generator(np.random.PCG64(4))
        f = random_factor(rng, 5, 3)
        m = embed(f)
        assert max_abs_diff(m[3:, 3:], np.eye(2)) == 0.0
        assert maxnorm(m[:3, 3:]) == 0.0 and maxnorm(m[3:, :3]) == 0.0

    def test_order2_in_n4(self):
        m2, _, _ = eq27_matrices(0.44, 0, 0, [1, 0], [1, 0, 0])
        assert max_abs_diff(embed(Factor(4, 2, 0.44, [1.0])), m2) == 0.0

    def test_unitarity(self):
        rng = np.random.Generator(np.random.PCG64(5))
        for _ in range(20):
            k = rng.integers(2, 7)
            f = random_factor(rng, 6, int(k))
            m = embed(f)
            assert max_abs_diff(m @ m.conj().T, np.eye(6)) < 1e-13

    def test_det_one(self):
        rng = np.random.Generator(np.random.PCG64(6))
        for _ in range(20):
            f = random_factor(rng, 5, int(rng.integers(2, 6)))
            assert abs(np.linalg.det(embed(f)) - 1.0) < 1e-12

    def test_inverse_is_negated_angle(self):
        rng = np.random.Generator(np.random.PCG64(7))
        f = random_factor(rng, 5, 4)
        inv = embed(Factor(f.ambient_n, f.order_k, -f.theta, f.char))
        assert max_abs_diff(embed(f) @ inv, np.eye(5)) < 1e-13

    def test_order_exceeding_ambient_rejected(self):
        with pytest.raises(DomainError):
            Factor(3, 4, 0.1, [1, 0, 0] / np.linalg.norm([1, 0, 0]))


class TestApplyFactor:
    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    @pytest.mark.parametrize("theta", [0.0, 1e-12, 0.7, math.pi / 2, 2.5])
    @pytest.mark.parametrize("shape", ["vector", "matrix"])
    def test_matches_dense_embed(self, n, theta, shape):
        rng = np.random.Generator(np.random.PCG64(n))
        cols = (n,) if shape == "vector" else (n, n + 1)
        m = rng.standard_normal(cols) + 1j * rng.standard_normal(cols)
        for k in range(2, n + 1):
            f = Factor(n, k, theta, random_char(rng, k - 1))
            out = apply_factor(theta, f.char, m)
            assert out.shape == m.shape
            assert max_abs_diff(out, embed(f) @ m) <= 1e-14
            assert max_abs_diff(apply_factor(-theta, f.char, out), m) <= 1e-14

    def test_transpose_identity(self):
        rng = np.random.Generator(np.random.PCG64(30))
        f = random_factor(rng, 4, 3)
        m = rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))
        right = apply_factor(-f.theta, f.char.conj(), m.T).T
        assert max_abs_diff(right, m @ embed(f)) <= 1e-14

    def test_rejects_too_few_rows(self):
        with pytest.raises(ShapeError):
            apply_factor(0.3, [0.6, 0.8], np.eye(2))


class TestGenerator:
    def test_pauli_form(self):
        g = generator(Factor(2, 2, 0.5, [1.0]))
        assert max_abs_diff(g.matrix, [[0, -1j], [1j, 0]]) == 0.0

    def test_traces(self):
        rng = np.random.Generator(np.random.PCG64(8))
        for _ in range(20):
            g = generator(random_factor(rng, 6, int(rng.integers(2, 7)))).matrix
            assert abs(np.trace(g)) < 1e-13
            assert abs(np.trace(g @ g) - 2.0) < 1e-13

    def test_hermitian_and_cubic(self):
        rng = np.random.Generator(np.random.PCG64(9))
        g = generator(random_factor(rng, 5, 4)).matrix
        assert max_abs_diff(g, g.conj().T) == 0.0
        assert max_abs_diff(g @ g @ g, g) < 1e-13

    def test_rejects_non_generator(self):
        with pytest.raises(DomainError):
            Generator(np.diag([2.0, -2.0]))


class TestExpGenerator:
    def test_zero_angle(self):
        g = generator(Factor(3, 3, 1.0, [0.6, 0.8]))
        assert max_abs_diff(exp_generator(0.0, g), np.eye(3)) == 0.0

    def test_matches_power_series(self):
        # Oracle: 60 terms of sum (i t G)^m / m!.
        rng = np.random.Generator(np.random.PCG64(10))
        for _ in range(10):
            n = int(rng.integers(2, 7))
            k = int(rng.integers(2, n + 1))
            f = random_factor(rng, n, k)
            g = generator(f)
            t = rng.uniform(-math.pi, math.pi)
            series = np.eye(n, dtype=complex)
            term = np.eye(n, dtype=complex)
            for m in range(1, 60):
                term = term @ (1j * t * g.matrix) / m
                series = series + term
            assert max_abs_diff(exp_generator(t, g), series) < 1e-12

    def test_abelian_in_theta(self):
        rng = np.random.Generator(np.random.PCG64(11))
        g = generator(random_factor(rng, 4, 3))
        ti, tj = 0.7, -1.9
        lhs = exp_generator(ti, g) @ exp_generator(tj, g)
        assert max_abs_diff(lhs, exp_generator(ti + tj, g)) < 1e-12

    def test_equals_embed(self):
        rng = np.random.Generator(np.random.PCG64(12))
        for _ in range(20):
            n = int(rng.integers(2, 7))
            f = random_factor(rng, n, int(rng.integers(2, n + 1)))
            assert max_abs_diff(exp_generator(f.theta, generator(f)), embed(f)) < 1e-13

    def test_validates_raw_matrix(self):
        with pytest.raises(DomainError):
            exp_generator(0.5, np.diag([2.0, -2.0]))


class TestCompose:
    def test_trivial_chain_is_identity(self):
        factors = tuple(Factor(4, k, 0.0, np.eye(k - 1)[:, 0]) for k in range(2, 5))
        d = Decomposition(4, factors, np.zeros(4), np.zeros(4), ASCENDING)
        assert max_abs_diff(compose(d), np.eye(4)) == 0.0

    def test_matches_explicit_triple_product(self):
        rng = np.random.Generator(np.random.PCG64(13))
        x = random_char(rng, 2)
        y = random_char(rng, 3)
        t2, t3, t4 = 0.31, 0.87, 1.21
        m2, m3, m4 = eq27_matrices(t2, t3, t4, x, y)
        factors = (Factor(4, 2, t2, [1.0]), Factor(4, 3, t3, x), Factor(4, 4, t4, y))
        d = Decomposition(4, factors, np.zeros(4), np.zeros(4), ASCENDING)
        assert max_abs_diff(compose(d), m2 @ m3 @ m4) < 1e-14

    def test_theta4_zero_reduces_to_n3(self):
        rng = np.random.Generator(np.random.PCG64(14))
        x = random_char(rng, 2)
        t2, t3 = 0.5, 1.1
        f4 = (
            Factor(4, 2, t2, [1.0]),
            Factor(4, 3, t3, x),
            Factor(4, 4, 0.0, [0, 0, 1]),
        )
        v4 = compose(Decomposition(4, f4, np.zeros(4), np.zeros(4), ASCENDING))
        f3 = (Factor(3, 2, t2, [1.0]), Factor(3, 3, t3, x))
        v3 = compose(Decomposition(3, f3, np.zeros(3), np.zeros(3), ASCENDING))
        assert max_abs_diff(v4[:3, :3], v3) < 1e-15
        assert max_abs_diff(v4[3, :], [0, 0, 0, 1]) == 0.0

    def test_external_phases(self):
        rng = np.random.Generator(np.random.PCG64(15))
        d = random_chain(rng, 4)
        expected = phase_matrix(d.left_phases)
        for f in d.factors:
            expected = expected @ embed(f)
        expected = expected @ phase_matrix(d.right_phases)
        assert max_abs_diff(compose(d), expected) < 1e-15

    def test_duplicate_order_rejected(self):
        rng = np.random.Generator(np.random.PCG64(16))
        bad = (random_factor(rng, 3, 2), random_factor(rng, 3, 2))
        with pytest.raises(StructureError):
            Decomposition(3, bad, np.zeros(3), np.zeros(3), ASCENDING)

    def test_missing_order_rejected(self):
        rng = np.random.Generator(np.random.PCG64(17))
        bad = (random_factor(rng, 4, 2), random_factor(rng, 4, 4))
        with pytest.raises(StructureError):
            Decomposition(4, bad, np.zeros(4), np.zeros(4), CUSTOM)

    def test_order_tag_mismatch_rejected(self):
        rng = np.random.Generator(np.random.PCG64(18))
        factors = tuple(random_factor(rng, 4, k) for k in (2, 3, 4))
        with pytest.raises(StructureError):
            Decomposition(4, factors, np.zeros(4), np.zeros(4), DESCENDING)


class TestDecompose:
    def test_identity(self):
        d = decompose(np.eye(4))
        assert all(f.theta == 0.0 for f in d.factors)
        assert maxnorm(d.right_phases) == 0.0
        assert maxnorm(d.left_phases) == 0.0
        assert d.order == DESCENDING

    def test_pure_phase_matrix(self):
        beta = np.array([2.9, -0.4, 7.0, 1.2])
        d = decompose(phase_matrix(beta))
        assert all(f.theta == 0.0 for f in d.factors)
        assert max_abs_diff(d.right_phases, wrap_angles(beta)) < 1e-15

    def test_round_trip_haar(self):
        for n in range(2, 9):
            for seed in range(5):
                x = haar_random(n, 1000 * n + seed)
                d = decompose(x)
                assert max_abs_diff(compose(d), x) < 1e-10
                assert all(0.0 <= f.theta <= math.pi / 2 for f in d.factors)
                assert d.parameter_count == n * n

    def test_left_phases_all_zero(self):
        d = decompose(haar_random(5, 77))
        assert maxnorm(d.left_phases) == 0.0

    def test_rejects_non_unitary(self):
        with pytest.raises(DomainError):
            decompose(np.full((3, 3), 0.5 + 0.1j))

    def test_n1(self):
        d = decompose(np.array([[np.exp(0.7j)]]))
        assert d.factors == ()
        assert abs(d.right_phases[0] - 0.7) < 1e-15

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 16])
    def test_round_trip_edge_angles_and_zero_components(self, n):
        rng = np.random.Generator(np.random.PCG64(n))
        for _ in range(20):
            x = compose(edge_chain(rng, n))
            assert max_abs_diff(compose(decompose(x)), x) <= 10 * n * EPS

    @pytest.mark.parametrize("theta", [1e-9, 1e-7, 1e-5])
    def test_small_angles_recovered_to_full_precision(self, theta):
        rng = np.random.Generator(np.random.PCG64(7))
        for n in (2, 3, 4, 5, 8, 16):
            factors = tuple(Factor(n, k, theta, random_char(rng, k - 1)) for k in range(n, 1, -1))
            right = rng.uniform(-math.pi, math.pi, n)
            d = decompose(compose(Decomposition(n, factors, np.zeros(n), right, DESCENDING)))
            assert max(abs(f.theta - theta) for f in d.factors) <= 1e-15

    def test_permuted_phase_matrices(self):
        rng = np.random.Generator(np.random.PCG64(11))
        perms = [list(p) for n in range(1, 5) for p in itertools.permutations(range(n))]
        perms += [list(rng.permutation(n)) for n in (8, 16) for _ in range(5)]
        perms += [list(range(n)) for n in (8, 16)]
        for p in perms:
            n = len(p)
            phases = phase_matrix(rng.uniform(-math.pi, math.pi, n))
            for x in (np.eye(n)[p], np.eye(n)[p] @ phases):
                assert max_abs_diff(compose(decompose(x)), x) <= 10 * n * EPS


class TestReorderSwap:
    def test_zero_angle_lower_factor_passes_through(self):
        rng = np.random.Generator(np.random.PCG64(19))
        lower = Factor(5, 2, 0.0, [1.0])
        upper = random_factor(rng, 5, 4)
        new_left, new_right = reorder_swap(lower, upper)
        assert new_right is lower
        assert max_abs_diff(new_left.char, upper.char) == 0.0
        assert new_left.theta == upper.theta

    def test_product_preserved_low_high(self):
        rng = np.random.Generator(np.random.PCG64(20))
        f2 = random_factor(rng, 5, 2)
        f4 = random_factor(rng, 5, 4)
        s_new, r_new = reorder_swap(f2, f4)
        assert s_new.order_k == 4 and r_new.order_k == 2
        lhs = embed(f2) @ embed(f4)
        rhs = embed(s_new) @ embed(r_new)
        assert max_abs_diff(lhs, rhs) < 1e-12

    def test_product_preserved_high_low(self):
        rng = np.random.Generator(np.random.PCG64(21))
        f5 = random_factor(rng, 6, 5)
        f3 = random_factor(rng, 6, 3)
        s_new, r_new = reorder_swap(f5, f3)
        assert s_new.order_k == 3 and r_new.order_k == 5
        assert max_abs_diff(embed(f5) @ embed(f3), embed(s_new) @ embed(r_new)) < 1e-12

    def test_double_swap_is_involution(self):
        rng = np.random.Generator(np.random.PCG64(22))
        a = random_factor(rng, 5, 3)
        b = random_factor(rng, 5, 5)
        c, d = reorder_swap(a, b)
        e, f = reorder_swap(c, d)
        assert max_abs_diff(e.char, a.char) < 1e-12 and e.theta == a.theta
        assert max_abs_diff(f.char, b.char) < 1e-12 and f.theta == b.theta

    def test_angles_unchanged(self):
        rng = np.random.Generator(np.random.PCG64(23))
        a = random_factor(rng, 4, 2)
        b = random_factor(rng, 4, 3)
        c, d = reorder_swap(a, b)
        assert {c.theta, d.theta} == {a.theta, b.theta}

    def test_equal_orders_rejected(self):
        rng = np.random.Generator(np.random.PCG64(24))
        with pytest.raises(DomainError):
            reorder_swap(random_factor(rng, 4, 3), random_factor(rng, 4, 3))


def _swap_fold(d, target):
    """The adjacent-swap path of reorder_chain, one public reorder_swap per pair."""
    seq = list(d.factors)
    for pos, want in enumerate(target):
        j = next(i for i in range(pos, len(seq)) if seq[i].order_k == want)
        while j > pos:
            seq[j - 1], seq[j] = reorder_swap(seq[j - 1], seq[j])
            j -= 1
    return seq


def _chain(factors):
    n = factors[0].ambient_n
    return Decomposition(n, tuple(factors), np.zeros(n), np.zeros(n), CUSTOM)


def _edge_factor(n, k, i):
    """Order-k factor with theta 0, pi/2 or generic and exact zeros in its vector."""
    theta = (0.0, math.pi / 2, 0.9)[i % 3]
    char = np.zeros(k - 1, dtype=complex)
    if k > 2 and i % 2:
        char[[0, k - 2]] = [math.sqrt(0.5), 1j * math.sqrt(0.5)]
    else:
        char[i % (k - 1)] = 1.0
    return Factor(n, k, theta, char)


def assert_matches_swap_fold(d, target):
    moved = reorder_chain(d, target)
    out = moved.factors
    ref = _swap_fold(d, target)
    assert [f.order_k for f in out] == [f.order_k for f in ref] == list(target)
    assert [f.theta for f in out] == [f.theta for f in ref]
    for a, b in zip(out, ref):
        assert max_abs_diff(a.char, b.char) < 1e-14
        # A factor no swap rotated comes back as the same object, in both.
        assert (a is b) == any(b is f for f in d.factors)
    assert max_abs_diff(compose(moved), compose(d)) < 1e-11


class TestReorderChain:
    def test_identity_target(self):
        rng = np.random.Generator(np.random.PCG64(25))
        d = random_chain(rng, 5)
        out = reorder_chain(d, range(2, 6))
        for a, b in zip(out.factors, d.factors):
            assert a is b
            assert max_abs_diff(a.char, b.char) == 0.0

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_swap_fold_every_permutation(self, n):
        from itertools import permutations

        rng = np.random.Generator(np.random.PCG64(40 + n))
        for source in permutations(range(2, n + 1)):
            d = _chain([random_factor(rng, n, k) for k in source])
            for target in permutations(range(2, n + 1)):
                assert_matches_swap_fold(d, target)

    @pytest.mark.parametrize("n", [8, 16, 64])
    def test_matches_swap_fold_monotone(self, n):
        rng = np.random.Generator(np.random.PCG64(50 + n))
        for order in (ASCENDING, DESCENDING):
            d = random_chain(rng, n, order)
            assert_matches_swap_fold(d, range(2, n + 1))
            assert_matches_swap_fold(d, range(n, 1, -1))

    def test_matches_swap_fold_edge_parameters(self):
        from itertools import permutations

        n = 5
        for shift in range(3):
            for source in permutations(range(2, n + 1)):
                d = _chain([_edge_factor(n, k, k + shift) for k in source])
                for target in ([2, 3, 4, 5], [5, 4, 3, 2], [3, 5, 2, 4], [4, 2, 5, 3]):
                    assert_matches_swap_fold(d, target)
        for n in (8, 16):
            d = _chain([_edge_factor(n, k, k) for k in range(n, 1, -1)])
            assert_matches_swap_fold(d, range(2, n + 1))

    def test_descending_to_ascending(self):
        rng = np.random.Generator(np.random.PCG64(26))
        d = random_chain(rng, 5, order=DESCENDING)
        out = reorder_chain(d, range(2, 6))
        assert out.order == ASCENDING
        assert max_abs_diff(compose(out), compose(d)) < 1e-11

    def test_all_permutations_preserve_product_and_angles(self):
        from itertools import permutations

        rng = np.random.Generator(np.random.PCG64(27))
        d = random_chain(rng, 5)
        base = compose(d)
        thetas = sorted(f.theta for f in d.factors)
        for perm in permutations(range(2, 6)):
            out = reorder_chain(d, perm)
            assert [f.order_k for f in out.factors] == list(perm)
            assert max_abs_diff(compose(out), base) < 1e-11
            assert sorted(f.theta for f in out.factors) == thetas

    def test_invalid_target_rejected(self):
        rng = np.random.Generator(np.random.PCG64(28))
        d = random_chain(rng, 4)
        with pytest.raises(DomainError):
            reorder_chain(d, [2, 3, 3])

    def test_custom_tag(self):
        rng = np.random.Generator(np.random.PCG64(29))
        d = random_chain(rng, 4)
        out = reorder_chain(d, [3, 2, 4])
        assert out.order == CUSTOM
        assert infer_order([3, 2, 4]) == CUSTOM


class TestGaugeFix:
    def test_canonical_input_unchanged(self):
        rng = np.random.Generator(np.random.PCG64(30))
        d = gauge_fix(random_chain(rng, 4))
        again = gauge_fix(d)
        for a, b in zip(again.factors, d.factors):
            assert max_abs_diff(a.char, b.char) < 1e-14
        assert max_abs_diff(again.left_phases, d.left_phases) < 1e-14
        assert max_abs_diff(again.right_phases, d.right_phases) < 1e-14

    def test_pins_last_components(self):
        rng = np.random.Generator(np.random.PCG64(31))
        d = random_chain(rng, 4)
        g = gauge_fix(d)
        for f in g.factors:
            last = f.char[f.order_k - 2]
            assert last.imag == 0.0
            assert last.real >= 0.0
        assert g.factor(2).char[0] == 1.0
        assert in_canonical_gauge(g)

    def test_product_preserved(self):
        rng = np.random.Generator(np.random.PCG64(32))
        for n in (3, 4, 5):
            d = random_chain(rng, n)
            assert max_abs_diff(compose(gauge_fix(d)), compose(d)) < 1e-11

    def test_free_phase_count(self):
        # After pinning one component per characteristic vector, the free
        # phases left are sum_{k=3..n}(k-2) = (n-1)(n-2)/2.
        for n in range(2, 8):
            free = sum(k - 2 for k in range(2, n + 1))
            assert free == (n - 1) * (n - 2) // 2

    def test_round_trip_from_decompose(self):
        x = haar_random(5, 321)
        d = reorder_chain(decompose(x), range(2, 6))
        g = gauge_fix(d)
        assert max_abs_diff(compose(g), x) < 1e-11

    def test_requires_ascending(self):
        rng = np.random.Generator(np.random.PCG64(33))
        d = random_chain(rng, 4, order=DESCENDING)
        with pytest.raises(DomainError):
            gauge_fix(d)


class TestDecompositionJson:
    def test_round_trip(self):
        x = haar_random(4, 55)
        d = decompose(x)
        doc = decomposition_to_json_dict(d)
        back = decomposition_from_json_dict(doc)
        assert max_abs_diff(compose(back), compose(d)) < 1e-14
        assert back.order == d.order

    def test_rejects_bad_norm(self):
        doc = {
            "n": 2,
            "order": "ascending",
            "factors": [{"k": 2, "theta": 0.3, "char": [[0.5, 0.0]]}],
            "alpha": [0.0, 0.0],
            "beta": [0.0, 0.0],
        }
        with pytest.raises(DomainError):
            decomposition_from_json_dict(doc)

    def test_rejects_wrong_phase_count(self):
        doc = {
            "n": 2,
            "order": "ascending",
            "factors": [{"k": 2, "theta": 0.3, "char": [[1.0, 0.0]]}],
            "alpha": [0.0],
            "beta": [0.0, 0.0],
        }
        with pytest.raises(StructureError):
            decomposition_from_json_dict(doc)

    def test_rejects_missing_factor_field(self):
        doc = {
            "n": 2,
            "order": "ascending",
            "factors": [{"k": 2, "char": [[1.0, 0.0]]}],
            "alpha": [0.0, 0.0],
            "beta": [0.0, 0.0],
        }
        with pytest.raises(StructureError):
            decomposition_from_json_dict(doc)

    @pytest.mark.parametrize(
        "char, error",
        [
            ([[1.0, 0.0, 0.0]], StructureError),
            ([1.0], StructureError),
            ([["a", 0.0]], StructureError),
            ([[float("nan"), 0.0]], DomainError),
            ([[float("inf"), 0.0]], DomainError),
        ],
    )
    def test_rejects_bad_char_pairs(self, char, error):
        doc = {
            "n": 2,
            "order": "ascending",
            "factors": [{"k": 2, "theta": 0.3, "char": char}],
            "alpha": [0.0, 0.0],
            "beta": [0.0, 0.0],
        }
        with pytest.raises(error):
            decomposition_from_json_dict(doc)
