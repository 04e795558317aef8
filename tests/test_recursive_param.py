import copy
import dataclasses
import gc
import itertools
import math
import pickle
import weakref

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

    @pytest.mark.parametrize(
        "n, k, char", [(3, 3.0, [1.0, 0.0]), (3, 2.5, [1.0]), (3.0, 2, [1.0]), (True, 2, [1.0])]
    )
    def test_non_integer_orders_rejected(self, n, k, char):
        with pytest.raises(DomainError, match="ambient_n and order_k must be integers"):
            Factor(n, k, 0.4, char)

    def test_numpy_integer_orders_accepted(self):
        f = Factor(np.int64(3), np.int32(3), 0.4, [1.0, 0.0])
        assert (f.ambient_n, f.order_k) == (3, 3)


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
    """The adjacent-swap path to *target*, one public reorder_swap per pair."""
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
        assert np.shares_memory(a.char, moved.chars)
        # A factor no swap rotated keeps the source's bits.
        if any(b is f for f in d.factors):
            assert a.char.tobytes() == b.char.tobytes()
    assert max_abs_diff(compose(moved), compose(d)) < 1e-11


class TestReorderChain:
    def test_identity_target(self):
        rng = np.random.Generator(np.random.PCG64(25))
        d = random_chain(rng, 5)
        out = reorder_chain(d, range(2, 6))
        assert out.chars.tobytes() == d.chars.tobytes()
        for a, b in zip(out.factors, d.factors):
            assert a is not b and a.theta == b.theta
            assert np.shares_memory(a.char, out.chars)
            assert max_abs_diff(a.char, b.char) == 0.0

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_swap_fold_every_permutation(self, n):
        from itertools import permutations

        rng = np.random.Generator(np.random.PCG64(40 + n))
        for source in permutations(range(2, n + 1)):
            d = _chain([random_factor(rng, n, k) for k in source])
            for target in permutations(range(2, n + 1)):
                assert_matches_swap_fold(d, target)

    @pytest.mark.parametrize("n", [8, 16, 32, 64])
    def test_matches_swap_fold_monotone(self, n):
        rng = np.random.Generator(np.random.PCG64(50 + n))
        for d in [random_chain(rng, n, order) for order in (ASCENDING, DESCENDING)]:
            assert_matches_swap_fold(d, range(2, n + 1))
            assert_matches_swap_fold(d, range(n, 1, -1))
            for _ in range(3 if n <= 32 else 0):  # mixed targets
                assert_matches_swap_fold(d, [int(k) for k in rng.permutation(np.arange(2, n + 1))])

    @pytest.mark.parametrize("n", [8, 16, 64])
    def test_kernel_calls_linear_in_n(self, n, monkeypatch):
        import unichain.recursive_param as rp

        calls = []
        kernel = rp._apply_block
        monkeypatch.setattr(rp, "_apply_block", lambda *args: calls.append(args) or kernel(*args))

        def count(d, target):
            calls.clear()
            reorder_chain(d, target)
            return len(calls)

        rng = np.random.Generator(np.random.PCG64(70 + n))
        asc, desc = (random_chain(rng, n, order) for order in (ASCENDING, DESCENDING))
        assert count(desc, range(2, n + 1)) == n - 2
        assert count(asc, range(n, 1, -1)) == n - 2
        for d in (asc, desc):
            for _ in range(5):
                assert count(d, rng.permutation(np.arange(2, n + 1))) <= 2 * (n - 2)

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

    @pytest.mark.parametrize(
        "target", [[4.9, 2.2, 3.7], [4.0, 2, 3], ["4", "2", "3"], [True, 4, 3], [np.float64(4), 2, 3]]
    )
    def test_non_integer_target_rejected(self, target):
        d = random_chain(np.random.Generator(np.random.PCG64(28)), 4)
        with pytest.raises(DomainError, match="target .* is not a permutation"):
            reorder_chain(d, target)

    def test_numpy_integer_target_accepted(self):
        d = random_chain(np.random.Generator(np.random.PCG64(28)), 4)
        out = reorder_chain(d, np.array([4, 2, 3]))
        assert out.orders.tolist() == [4, 2, 3]
        assert out.chars.tobytes() == reorder_chain(d, [4, 2, 3]).chars.tobytes()

    def test_custom_tag(self):
        rng = np.random.Generator(np.random.PCG64(29))
        d = random_chain(rng, 4)
        out = reorder_chain(d, [3, 2, 4])
        assert out.order == CUSTOM
        assert infer_order([3, 2, 4]) == CUSTOM


def _gauge_fix_by_factor(d):
    """gauge_fix as a loop that rebuilds one Factor per order: the reference for the array form."""
    n = d.ambient_n
    phi = np.zeros(n)
    for k in range(n, 1, -1):
        last = d.factors[k - 2].char[k - 2]
        phi[k - 2] = phi[k - 1] - float(np.angle(last))
    factors = []
    for f in d.factors:
        k = f.order_k
        char = np.exp(1j * (phi[: k - 1] - phi[k - 1])) * f.char
        char[k - 2] = abs(f.char[k - 2])
        if k == 2:
            char[0] = 1.0
        factors.append(f.with_char(char))
    left, right = wrap_angles(d.left_phases - phi), wrap_angles(d.right_phases + phi)
    return Decomposition(n, tuple(factors), left, right, ASCENDING)


class TestGaugeFix:
    @pytest.mark.parametrize("n", [2, 3, 5, 16, 64])
    def test_bit_identical_to_factor_loop_and_idempotent(self, n):
        rng = np.random.Generator(np.random.PCG64(35 + n))
        chains = [reorder_chain(decompose(haar_random(n, 500 + i)), range(2, n + 1)) for i in range(3)]
        chains += [edge_chain(rng, n) for _ in range(3)]
        for d in chains:
            got, ref = gauge_fix(d), _gauge_fix_by_factor(d)
            assert [f.theta for f in got.factors] == [f.theta for f in ref.factors]
            for a, b in zip(got.factors, ref.factors):
                assert np.array_equal(a.char, b.char)
            assert np.array_equal(got.left_phases, ref.left_phases)
            assert np.array_equal(got.right_phases, ref.right_phases)
            again = gauge_fix(got)
            for a, b in zip(again.factors, got.factors):
                assert np.array_equal(a.char, b.char)
            for a, b in ((again.left_phases, got.left_phases), (again.right_phases, got.right_phases)):
                assert np.max(np.abs(np.angle(np.exp(1j * (a - b))))) <= 1e-15

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


class TestChainStorage:
    """A chain is stored as arrays; its factors are read-only views of them."""

    def test_char_check_runs_once_per_chain(self, monkeypatch):
        import unichain.recursive_param as rp

        calls = []
        for name in ("_as_char", "_check_units"):
            check = getattr(rp, name, None)
            if check is not None:
                monkeypatch.setattr(
                    rp, name, lambda *a, _check=check, _name=name: calls.append(_name) or _check(*a)
                )
        n = 64
        x = haar_random(n, 64)
        d = decompose(x)
        asc = reorder_chain(d, range(2, n + 1))
        y = compose(gauge_fix(asc))
        assert max_abs_diff(y, x) < 1e-12
        # One check per chain built (decompose, reorder_chain, gauge_fix), none per factor.
        assert len(calls) == 3

    @pytest.mark.parametrize("n", [2, 5, 16])
    def test_decompose_and_compose_apply_one_block_per_order(self, n, monkeypatch):
        import unichain.recursive_param as rp

        calls = []
        kernel = rp._apply_block
        monkeypatch.setattr(rp, "_apply_block", lambda *args: calls.append(args) or kernel(*args))
        d = decompose(haar_random(n, 8))
        assert len(calls) == n - 1
        calls.clear()
        compose(d)
        assert len(calls) == n - 1

    def chains(self):
        rng = np.random.Generator(np.random.PCG64(36))
        d = decompose(haar_random(8, 9))
        asc = reorder_chain(d, range(2, 9))
        mixed = reorder_chain(asc, [5, 2, 8, 3, 7, 4, 6])
        doc = decomposition_to_json_dict(mixed)
        return [d, asc, mixed, gauge_fix(asc), random_chain(rng, 6), decomposition_from_json_dict(doc)]

    def test_factors_read_the_chain_arrays(self):
        for d in self.chains():
            arrays = (d.orders, d.thetas, d.chars, d.left_phases, d.right_phases)
            assert not any(a.flags.writeable for a in arrays)
            assert d.orders.tolist() == [f.order_k for f in d.factors]
            assert not np.tril(d.chars, -1).any()
            for f in d.factors:
                k = f.order_k
                assert not f.char.flags.writeable
                assert np.shares_memory(f.char, d.chars)
                assert f.theta == d.thetas[k - 2]
                assert np.array_equal(f.char, d.chars[: k - 1, k - 2])
                assert d.factor(k) is f

    def test_constructor_copies_its_input(self):
        rng = np.random.Generator(np.random.PCG64(38))
        n = 5
        chars = [random_char(rng, k - 1) for k in range(2, n + 1)]
        left, right = rng.uniform(-math.pi, math.pi, n), rng.uniform(-math.pi, math.pi, n)
        factors = tuple(Factor(n, k, 0.3 * k, a) for k, a in zip(range(2, n + 1), chars))
        d = Decomposition(n, factors, left, right, ASCENDING)
        before, stored = compose(d), d.chars.copy()
        for a in (*chars, left, right):
            a[:] = 7.0
        assert np.array_equal(d.chars, stored)
        assert np.array_equal(compose(d), before)

    @pytest.mark.parametrize("n", [3.0, True, "3"])
    def test_non_integer_ambient_n_rejected(self, n):
        factors = decompose(haar_random(3, 1)).factors
        with pytest.raises(DomainError, match="ambient_n must be an integer"):
            Decomposition(n, factors, np.zeros(3), np.zeros(3), DESCENDING)

    def test_numpy_integer_ambient_n_accepted(self):
        d = decompose(haar_random(3, 1))
        c = Decomposition(np.int64(3), d.factors, np.zeros(3), d.right_phases, DESCENDING)
        assert c.chars.tobytes() == d.chars.tobytes()
        assert np.array_equal(compose(c), compose(d))

    def test_chain_check_rules_and_messages(self):
        import unichain.recursive_param as rp

        good = decompose(haar_random(4, 11)).chars
        rp._check_chars(good)
        cases = [
            ((0, 1), 0.5, "norm"),
            ((1, 2), np.nan, "non-finite"),
            ((2, 0), 1e-3, "padding"),
        ]
        for (i, j), value, message in cases:
            bad = np.array(good)
            bad[i, j] = value
            with pytest.raises(DomainError, match=message):
                rp._check_chars(bad)


class TestLazyFactors:
    """A chain builds its factor views on first read, from its own arrays only."""

    def unread(self):
        d = decompose(haar_random(6, 12))
        return d, reorder_chain(d, [4, 2, 6, 3, 5])

    def test_nothing_built_until_read(self):
        d, r = self.unread()
        g = gauge_fix(reorder_chain(d, range(2, 7)))
        assert not any("factors" in vars(c) for c in (d, r, g))
        assert r.factor(6) is r.factors[2]
        assert "factors" in vars(r)

    def test_reading_a_reordered_chain_builds_nothing_in_its_source(self):
        d, r = self.unread()
        before = dict(vars(d))
        r.factors
        assert vars(d) == before

    def test_source_freed_once_reordered(self):
        d, r = self.unread()
        ref, y = weakref.ref(d), compose(d)
        del d
        assert ref() is None  # no reference cycle: freed without a collection
        assert max_abs_diff(compose(r), y) < 1e-12

    @pytest.mark.parametrize("source_first", [False, True])
    def test_unmoved_factors_keep_their_bits_in_either_read_order(self, source_first):
        d, r = self.unread()
        first = d.factors if source_first else None
        got = r.factors
        src = d.factors
        assert first is None or first is src
        assert not any(f is g for f in got for g in src)
        by_order = {g.order_k: g for g in src}
        kept = {f.order_k for f in got if f.char.tobytes() == by_order[f.order_k].char.tobytes()}
        assert kept == {2, 4}  # from 6, 5, 4, 3, 2 only 2 and 4 keep every lower order right
        again = reorder_chain(d, range(6, 1, -1))
        assert again.chars.tobytes() == d.chars.tobytes()
        for a, b in zip(again.factors, src):
            assert a.theta == b.theta and a.char.tobytes() == b.char.tobytes()

    @pytest.mark.parametrize(
        "clone",
        [
            copy.copy,
            copy.deepcopy,
            lambda c: pickle.loads(pickle.dumps(c)),
            lambda c: dataclasses.replace(c),
        ],
        ids=["copy", "deepcopy", "pickle", "replace"],
    )
    def test_clones_of_unread_chains(self, clone):
        d, r = self.unread()
        for chain in (d, r, gauge_fix(reorder_chain(d, range(2, 7)))):
            c = clone(chain)
            assert [f.order_k for f in c.factors] == chain.orders.tolist()
            assert np.array_equal(c.chars, chain.chars)
            assert np.array_equal(compose(c), compose(chain))
            for f in c.factors:
                assert np.array_equal(f.char, c.chars[: f.order_k - 1, f.order_k - 2])

    def test_repr_reads_the_factors(self):
        d = decompose(haar_random(3, 5))
        text = repr(d)
        assert text.startswith("Decomposition(ambient_n=3, factors=(Factor(ambient_n=3, order_k=3")
        assert "orders" not in text and "chars" not in text
        with pytest.raises(AttributeError, match="no attribute 'missing'"):
            d.missing

    def test_reorder_loop_keeps_no_source_alive(self):
        rng = np.random.Generator(np.random.PCG64(13))
        chain = decompose(haar_random(6, 14))
        refs = []
        for _ in range(50):
            refs.append(weakref.ref(chain))
            chain = reorder_chain(chain, rng.permutation(np.arange(2, 7)))
        gc.collect()
        assert sum(ref() is not None for ref in refs) == 0
        assert max_abs_diff(compose(chain), compose(decompose(haar_random(6, 14)))) < 1e-12


class TestDecompositionJson:
    @pytest.mark.parametrize(
        "n, k", [(3.9, 3.5), (3.9, 3), (3, 3.5), ("3", 3), (3, "3"), (True, 3), (3, True), (3.0, 3)]
    )
    def test_orders_must_be_json_integers(self, n, k):
        doc = decomposition_to_json_dict(decompose(haar_random(3, 12)))
        doc["n"] = n
        doc["factors"][0]["k"] = k  # descending: the order-3 factor
        with pytest.raises(StructureError, match="must be an integer"):
            decomposition_from_json_dict(doc)

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

    @pytest.mark.parametrize(
        "field, value",
        [
            ("theta", "0.5"),
            ("theta", True),
            ("char", [["1", 0.0]]),
            ("char", [[1.0, False]]),
            ("alpha", "00"),
            ("alpha", [0.0, "0"]),
            ("beta", [0.0, None]),
            ("beta", {"0": 0.0, "1": 0.0}),
        ],
    )
    def test_numbers_and_lists_must_be_json_numbers_and_lists(self, field, value):
        doc = {
            "n": 2,
            "order": "ascending",
            "factors": [{"k": 2, "theta": 0.5, "char": [[1.0, 0.0]]}],
            "alpha": [0.0, 0.0],
            "beta": [0.0, 0.0],
        }
        before = decomposition_from_json_dict(doc)
        assert before.thetas.tolist() == [0.5]
        (doc["factors"][0] if field in ("theta", "char") else doc)[field] = value
        with pytest.raises(StructureError, match="must be a (number|list)"):
            decomposition_from_json_dict(doc)
