import json
import math

import numpy as np
import pytest

from unichain.matrix_core import (
    DomainError,
    StructureError,
    max_abs_diff,
    phase_matrix,
    unitarity_defect,
)
from unichain.invariants import plaquette_table
from unichain.recursive_param import compose, decompose
from unichain.symmetric import (
    SymmetricParams,
    a4prime,
    compose_symmetric,
    j_sym_n3,
    sym_factor,
    sym_param_count,
    symmetric_params_from_json_dict,
    symmetric_params_to_json_dict,
    v3sym_closed,
)


def random_real_unit(rng, length):
    v = rng.standard_normal(length)
    return v / np.linalg.norm(v)


def random_params(rng, n, half_angle=True):
    return SymmetricParams(
        n,
        tuple(rng.uniform(0.1, 1.4, n - 1)),
        tuple(random_real_unit(rng, k - 1) for k in range(2, n + 1)),
        half_angle=half_angle,
    )


class TestSymFactor:
    def test_order2_display(self):
        t = 0.73
        c, s = math.cos(t), math.sin(t)
        expected = np.array(
            [[c, 1j * s, 0], [1j * s, c, 0], [0, 0, 1]], dtype=complex
        )
        assert max_abs_diff(sym_factor(2, t, [1.0], 3), expected) == 0.0

    def test_order3_display(self):
        # (2,1) entry reads -(1-c3) x1 x2, forced by symmetry of the factor.
        t = 0.51
        c, s = math.cos(t), math.sin(t)
        x1, x2 = 0.6, 0.8
        w = 1 - c
        expected = np.array(
            [
                [1 - w * x1 * x1, -w * x1 * x2, 1j * s * x1, 0],
                [-w * x1 * x2, 1 - w * x2 * x2, 1j * s * x2, 0],
                [1j * s * x1, 1j * s * x2, c, 0],
                [0, 0, 0, 1],
            ],
            dtype=complex,
        )
        assert max_abs_diff(sym_factor(3, t, [x1, x2], 4), expected) < 1e-15

    def test_zero_angle(self):
        assert max_abs_diff(sym_factor(3, 0.0, [0.6, 0.8], 5), np.eye(5)) == 0.0

    def test_symmetric_and_unitary(self):
        rng = np.random.Generator(np.random.PCG64(0))
        for k in range(2, 6):
            m = sym_factor(k, rng.uniform(0, math.pi), random_real_unit(rng, k - 1), 6)
            assert max_abs_diff(m, m.T) == 0.0
            assert unitarity_defect(m) < 1e-13

    def test_rejects_non_unit(self):
        with pytest.raises(DomainError):
            sym_factor(3, 0.4, [0.5, 0.5], 4)


class TestComposeSymmetric:
    def test_zero_angles(self):
        p = SymmetricParams(4, (0.0, 0.0, 0.0), ([1.0], [1.0, 0.0], [1.0, 0.0, 0.0]))
        assert max_abs_diff(compose_symmetric(p), np.eye(4)) == 0.0

    def test_symmetric_and_unitary_up_to_n6(self):
        rng = np.random.Generator(np.random.PCG64(1))
        for n in range(2, 7):
            for _ in range(5):
                v = compose_symmetric(random_params(rng, n))
                assert max_abs_diff(v, v.T) < 1e-12
                assert unitarity_defect(v) < 1e-11

    def test_n3_half_angle_matches_closed_form(self):
        rng = np.random.Generator(np.random.PCG64(2))
        for _ in range(10):
            t2, t3 = rng.uniform(0.1, 1.4, 2)
            xs = random_real_unit(rng, 2)
            p = SymmetricParams(3, (t2, t3), ([1.0], xs))
            assert max_abs_diff(compose_symmetric(p), v3sym_closed(t2, t3, xs)) < 1e-12

    def test_raw_convention(self):
        rng = np.random.Generator(np.random.PCG64(3))
        t2, t3 = 0.9, 0.4
        xs = random_real_unit(rng, 2)
        p = SymmetricParams(3, (t2, t3), ([1.0], xs), half_angle=False)
        direct = (
            sym_factor(2, t2, [1.0], 3)
            @ sym_factor(3, t3, xs, 3)
            @ sym_factor(2, t2, [1.0], 3)
        )
        assert max_abs_diff(compose_symmetric(p), direct) < 1e-15

    def test_n4_palindrome_identity(self):
        # A2 A3 A4 A3 A2 = V3sym(t3/2-core) . A'4 . V3sym(t3/2-core)
        rng = np.random.Generator(np.random.PCG64(4))
        t2, t3, t4 = rng.uniform(0.2, 1.3, 3)
        xs = random_real_unit(rng, 2)
        ys = random_real_unit(rng, 3)
        p = SymmetricParams(4, (t2, t3, t4), ([1.0], xs, ys))
        core = v3sym_closed(t2, t3 / 2, xs)
        pad = np.eye(4, dtype=complex)
        pad[:3, :3] = core
        expected = pad @ a4prime(t2, t4, ys) @ pad
        assert max_abs_diff(compose_symmetric(p), expected) < 1e-13

    def test_phase_sandwich_stays_symmetric(self):
        rng = np.random.Generator(np.random.PCG64(5))
        v = compose_symmetric(random_params(rng, 5))
        alpha = rng.uniform(-math.pi, math.pi, 5)
        x = phase_matrix(alpha) @ v @ phase_matrix(alpha)
        assert max_abs_diff(x, x.T) < 1e-12


class TestComposeSymmetricKernel:
    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_in_place_onto_one_array_with_each_vector_formed_once(self, n, monkeypatch):
        import unichain.symmetric as sym

        calls = []
        kernel = sym._apply_block
        monkeypatch.setattr(sym, "_apply_block", lambda *args: calls.append(args) or kernel(*args))
        p = random_params(np.random.Generator(np.random.PCG64(80 + n)), n)
        v = compose_symmetric(p)
        assert len(calls) == 2 * n - 3
        assert all(rows is v for _, _, _, rows in calls)
        for i in range(n - 2):  # order i + 2 appears at positions i and 2n - 4 - i
            assert calls[i][1] is calls[2 * n - 4 - i][1]
            assert calls[i][2] is calls[2 * n - 4 - i][2]  # its conjugate, formed once
        assert all(np.array_equal(a_conj, a.conj()) for _, a, a_conj, _ in calls)
        assert max_abs_diff(v, v.T) <= 1e-12


class TestV3SymClosed:
    def test_all_zero_angles(self):
        assert max_abs_diff(v3sym_closed(0.0, 0.0, [0.6, 0.8]), np.eye(3)) == 0.0

    def test_theta2_zero_reduces_to_factor(self):
        xs = [0.6, 0.8]
        t3 = 0.95
        assert max_abs_diff(v3sym_closed(0.0, t3, xs), sym_factor(3, t3, xs, 3)) == 0.0

    def test_matches_direct_product(self):
        rng = np.random.Generator(np.random.PCG64(6))
        for _ in range(20):
            t2, t3 = rng.uniform(-math.pi, math.pi, 2)
            xs = random_real_unit(rng, 2)
            direct = (
                sym_factor(2, t2 / 2, [1.0], 3)
                @ sym_factor(3, t3, xs, 3)
                @ sym_factor(2, t2 / 2, [1.0], 3)
            )
            assert max_abs_diff(v3sym_closed(t2, t3, xs), direct) < 1e-13

    def test_u_vector_unit_norm(self):
        t2 = 0.77
        cp, sp = math.cos(t2 / 2), math.sin(t2 / 2)
        x1, x2 = 0.28, math.sqrt(1 - 0.28**2)
        u1 = cp * x1 + 1j * sp * x2
        u2 = cp * x2 + 1j * sp * x1
        assert abs(abs(u1) ** 2 + abs(u2) ** 2 - 1.0) < 1e-14


class TestA4Prime:
    def test_theta2_zero_is_plain_factor(self):
        ys = [0.2, 0.7, math.sqrt(1 - 0.04 - 0.49)]
        t4 = 1.05
        assert max_abs_diff(a4prime(0.0, t4, ys), sym_factor(4, t4, ys, 4)) < 1e-15

    def test_matches_conjugation_product(self):
        rng = np.random.Generator(np.random.PCG64(7))
        for _ in range(20):
            t2, t4 = rng.uniform(-math.pi, math.pi, 2)
            ys = random_real_unit(rng, 3)
            inv2 = sym_factor(2, -t2 / 2, [1.0], 4)
            direct = inv2 @ sym_factor(4, t4, ys, 4) @ inv2
            assert max_abs_diff(a4prime(t2, t4, ys), direct) < 1e-13

    def test_v_vector_unit_norm(self):
        t2 = 0.6
        cp, sp = math.cos(t2 / 2), math.sin(t2 / 2)
        y1, y2, y3 = 0.48, 0.6, 0.64
        v1 = cp * y1 - 1j * sp * y2
        v2 = cp * y2 - 1j * sp * y1
        assert abs(abs(v1) ** 2 + abs(v2) ** 2 + y3**2 - 1.0) < 1e-14


class TestJSymN3:
    def test_zero_cases(self):
        assert j_sym_n3(0.4, 0.8, [1.0, 0.0]) == 0.0  # x2 = 0
        assert j_sym_n3(0.0, 0.8, [0.6, 0.8]) == 0.0  # s2 = 0

    def test_matches_plaquette(self):
        rng = np.random.Generator(np.random.PCG64(8))
        for _ in range(20):
            t2, t3 = rng.uniform(0.1, 1.4, 2)
            xs = random_real_unit(rng, 2)
            j = j_sym_n3(t2, t3, xs)
            t = plaquette_table(v3sym_closed(t2, t3, xs))
            assert abs(j - t.value((1, 2), (1, 2)).imag) < 1e-13

    def test_nonzero_for_generic_params(self):
        assert abs(j_sym_n3(0.5, 0.8, [0.6, 0.8])) > 1e-3


class TestSymParamCount:
    def test_values(self):
        assert sym_param_count(2) == 1
        assert sym_param_count(3) == 3
        assert sym_param_count(6) == 15

    def test_matches_stored_free_parameters(self):
        # angles: n-1; unit vectors: k-2 free components each
        for n in range(2, 8):
            assert sym_param_count(n) == (n - 1) + sum(k - 2 for k in range(2, n + 1))

    def test_rejects_small_order(self):
        with pytest.raises(DomainError):
            sym_param_count(1)

    @pytest.mark.parametrize("n", [3.0, "3", True])
    def test_rejects_non_integer_order(self, n):
        with pytest.raises(DomainError, match="order must be an integer"):
            sym_param_count(n)

    def test_numpy_integer_order_gives_int(self):
        assert type(sym_param_count(np.int64(3))) is int and sym_param_count(np.int64(3)) == 3


class TestSymmetricParamsValidation:
    def test_rejects_wrong_theta_count(self):
        with pytest.raises(StructureError):
            SymmetricParams(3, (0.1,), ([1.0], [0.6, 0.8]))

    def test_rejects_wrong_char_length(self):
        with pytest.raises(DomainError):
            SymmetricParams(3, (0.1, 0.2), ([1.0], [1.0]))

    def test_rejects_non_unit_char(self):
        with pytest.raises(DomainError):
            SymmetricParams(3, (0.1, 0.2), ([1.0], [0.5, 0.5]))

    @pytest.mark.parametrize(
        "chars, error, message",
        [
            # the first failing vector raises, whatever fails after it
            (([2.0], [1.0], "x"), DomainError, "norm 2.0 is not 1"),
            (([1.0], [1.0], [0.5, 0.5]), DomainError, "order 3 must have length 2, got 1"),
            (([1.0], [np.nan, 1.0], [0.5]), DomainError, "non-finite"),
            (([1.0], "ab", [0.5]), ValueError, "could not convert"),
            (([1.0], [0.6, 0.8], [0.0, 0.0, 1.5]), DomainError, "norm 1.5 is not 1"),
        ],
    )
    def test_first_failing_vector_reports(self, chars, error, message):
        with pytest.raises(error, match=message):
            SymmetricParams(4, (0.1, 0.2, 0.3), chars)

    @pytest.mark.parametrize("n", [3.0, "3", True])
    def test_rejects_non_integer_order(self, n):
        with pytest.raises(DomainError, match="order must be an integer"):
            SymmetricParams(n, (0.1, 0.2), ([1.0], [0.6, 0.8]))

    @pytest.mark.parametrize("thetas, message", [
        ((True, 0.2), "theta_2 must be a real number"),
        (("1", "2"), "theta_2 must be a real number"),
        ((0.1, 0.2j), "theta_3 must be a real number"),
        ((math.nan, 0.2), "theta_2 must be finite, got nan"),
        ((0.1, -math.inf), "theta_3 must be finite, got -inf"),
        ((0.1, 10**400), "theta_3 must be finite, got a huge integer"),
    ], ids=["bool", "strings", "complex", "nan", "-inf", "huge-int"])
    def test_angles_outside_the_finite_real_rule_rejected(self, thetas, message):
        with pytest.raises(DomainError, match=message):
            SymmetricParams(3, thetas, ([1.0], [0.6, 0.8]))

    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None, np.bool_(True)],
                             ids=["string-false", "string-true", "0", "1", "none", "numpy-bool"])
    def test_half_angle_must_be_a_bool(self, value):
        with pytest.raises(DomainError, match="half_angle must be a bool"):
            SymmetricParams(3, (0.1, 0.2), ([1.0], [0.6, 0.8]), half_angle=value)

    def test_vectors_checked_in_one_pass_are_read_only_copies(self):
        rng = np.random.Generator(np.random.PCG64(4))
        chars = [random_real_unit(rng, k - 1) for k in range(2, 9)]
        p = SymmetricParams(8, tuple(rng.uniform(0.1, 1.4, 7)), chars)
        for given, kept in zip(chars, p.real_chars):
            assert kept.tolist() == given.tolist() and not kept.flags.writeable
        chars[3][0] = 5.0
        assert p.real_chars[3][0] != 5.0


class TestDecomposeSymmetric:
    def test_round_trip_like_any_unitary(self):
        rng = np.random.Generator(np.random.PCG64(9))
        for n in (3, 4, 5):
            v = compose_symmetric(random_params(rng, n))
            d = decompose(v)
            assert max_abs_diff(compose(d), v) < 1e-10


class TestSymmetricJson:
    def test_round_trip(self):
        rng = np.random.Generator(np.random.PCG64(10))
        p = random_params(rng, 4)
        doc = symmetric_params_to_json_dict(p)
        back = symmetric_params_from_json_dict(doc)
        assert back.n == p.n and back.half_angle == p.half_angle
        assert max_abs_diff(compose_symmetric(back), compose_symmetric(p)) == 0.0

    def test_numpy_integer_order_round_trips(self):
        p = SymmetricParams(np.int64(3), (0.1, 0.2), ([1.0], [0.6, 0.8]))
        assert type(p.n) is int
        doc = json.loads(json.dumps(symmetric_params_to_json_dict(p)))
        back = symmetric_params_from_json_dict(doc)
        assert back.n == 3 and back.thetas == p.thetas

    def test_rejects_missing_field(self):
        with pytest.raises(StructureError):
            symmetric_params_from_json_dict({"n": 3, "chars": [[1.0]]})

    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None, [False]])
    def test_half_angle_must_be_a_json_boolean(self, value):
        doc = symmetric_params_to_json_dict(random_params(np.random.Generator(np.random.PCG64(12)), 3))
        doc["half_angle"] = value
        with pytest.raises(StructureError, match="'half_angle' must be true or false"):
            symmetric_params_from_json_dict(doc)

    def test_half_angle_absent_means_true(self):
        doc = symmetric_params_to_json_dict(random_params(np.random.Generator(np.random.PCG64(12)), 3))
        for value, expect in ((False, False), (True, True)):
            doc["half_angle"] = value
            assert symmetric_params_from_json_dict(doc).half_angle is expect
        del doc["half_angle"]
        assert symmetric_params_from_json_dict(doc).half_angle is True

    @pytest.mark.parametrize(
        "field, value",
        [("thetas", "12"), ("thetas", [0.5, "1"]), ("thetas", [True, 0.5]), ("chars", "x"),
         ("chars", ["1", [0.6, 0.8]]), ("chars", [[1.0], [0.6, "0.8"]]), ("chars", [[1.0], [[0.6, 0.8]]])],
    )
    def test_numbers_and_lists_must_be_json_numbers_and_lists(self, field, value):
        doc = {"n": 3, "thetas": [0.5, 1.0], "chars": [[1.0], [0.6, 0.8]]}
        symmetric_params_from_json_dict(doc)
        doc[field] = value
        with pytest.raises(StructureError, match=f"'{field}'"):
            symmetric_params_from_json_dict(doc)

    @pytest.mark.parametrize("n", [4.0, 4.5, "4", True])
    def test_order_must_be_a_json_integer(self, n):
        doc = symmetric_params_to_json_dict(random_params(np.random.Generator(np.random.PCG64(11)), 4))
        doc["n"] = n
        with pytest.raises(StructureError, match="must be an integer"):
            symmetric_params_from_json_dict(doc)
