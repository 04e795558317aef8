import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import texture_matrix
from unichain import (
    Decomposition,
    Factor,
    SymmetricParams,
    apply_factor,
    block,
    count_independent_phases,
    decompose,
    plaquette_table,
    sym_param_count,
    zero_texture_analysis,
)
from unichain._rules import integer
from unichain.matrix_core import (
    DomainError,
    ShapeError,
    StructureError,
    haar_random,
    json_float,
    json_floats,
    matrix_from_json_dict,
    matrix_to_json_dict,
    max_abs_diff,
    phase_matrix,
    require_square,
    require_unitary,
    unitarity_defect,
    wrap_angle,
)


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestIsUnitary:
    def test_identity(self):
        assert unitarity_defect(np.eye(5)) <= 1e-12

    def test_slightly_scaled_diagonal(self):
        # defect of diag(1, 1.0000001) is about 2e-7, far above 1e-12
        assert not unitarity_defect(np.diag([1.0, 1.0000001])) <= 1e-12

    def test_haar_outputs(self):
        for seed in range(100):
            assert unitarity_defect(haar_random(6, seed)) <= 1e-10

    def test_nonsquare_raises(self):
        with pytest.raises(ShapeError):
            unitarity_defect(np.ones((2, 3)))

    def test_require_square_returns_the_validated_array(self):
        m = require_square([[1, 0], [0, 1]])
        assert m.dtype == np.complex128 and m.shape == (2, 2)
        assert require_square(m) is m
        with pytest.raises(DomainError):
            require_square([[1.0, math.nan], [0.0, 1.0]])

    def test_require_unitary(self):
        x = haar_random(4, 0)
        assert require_unitary(x) is x
        with pytest.raises(DomainError, match="not unitary within 1e-12"):
            require_unitary(np.diag([1.0, 1.0000001]), 1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 16, 64])
    def test_defect_is_the_textbook_formula_bit_for_bit(self, n):
        u = haar_random(n, n)
        noise = random_complex(np.random.default_rng(n), (n, n))
        perm = np.eye(n, dtype=complex)[np.random.default_rng(n).permutation(n)]
        for m in (u, u.T, (1 + 1e-9) * u, u + 1e-7 * noise, perm):
            h, eye = m.conj().T, np.eye(n)
            expected = max(
                float(np.max(np.abs(m @ h - eye))), float(np.max(np.abs(h @ m - eye)))
            )
            assert unitarity_defect(m) == expected


class TestPhaseMatrix:
    def test_zero_phases(self):
        assert max_abs_diff(phase_matrix(np.zeros(4)), np.eye(4)) == 0.0

    def test_pi_zero(self):
        assert max_abs_diff(phase_matrix([math.pi, 0.0]), np.diag([-1.0, 1.0])) < 1e-15

    def test_always_unitary(self):
        rng = np.random.Generator(np.random.PCG64(4))
        for _ in range(10):
            p = rng.uniform(-10, 10, size=5)
            assert unitarity_defect(phase_matrix(p)) < 1e-14

    def test_rejects_nonfinite(self):
        with pytest.raises(DomainError):
            phase_matrix([0.0, math.nan])


class TestHaarRandom:
    def test_n1_unit_modulus(self):
        x = haar_random(1, 9)
        assert x.shape == (1, 1)
        assert abs(abs(x[0, 0]) - 1.0) < 1e-12

    def test_deterministic(self):
        assert np.array_equal(haar_random(5, 1234), haar_random(5, 1234))

    def test_seed_sensitivity(self):
        assert not np.array_equal(haar_random(5, 1), haar_random(5, 2))

    def test_first_entry_second_moment(self):
        # Haar moment E|X_11|^2 = 1/n, checked by Monte Carlo at n=4.
        n, samples = 4, 10_000
        vals = np.empty(samples)
        for seed in range(samples):
            vals[seed] = abs(haar_random(n, seed)[0, 0]) ** 2
        se = vals.std(ddof=1) / math.sqrt(samples)
        assert abs(vals.mean() - 1.0 / n) < 3 * se

    def test_zero_order_raises(self):
        with pytest.raises(DomainError):
            haar_random(0, 1)

    # None once drew an unseeded matrix and True acted as seed 1; -1, 2.5 and "3" raised
    # numpy's own ValueError or TypeError.
    @pytest.mark.parametrize("seed", [None, True, False, -1, 2.5, "3", [1, 2]])
    def test_seed_outside_the_integer_rule_raises(self, seed):
        with pytest.raises(DomainError, match="seed must be an integer"):
            haar_random(3, seed)

    @pytest.mark.parametrize("n", [True, "2", 2.0, None])
    def test_order_outside_the_integer_rule_raises(self, n):
        with pytest.raises(DomainError, match="matrix order must be an integer"):
            haar_random(n, 1)

    def test_numpy_integers_pass(self):
        x = haar_random(np.int64(3), np.uint32(5))
        assert x.tobytes() == haar_random(3, 5).tobytes()


class TestWrapAngle:
    @settings(max_examples=200, deadline=None)
    @given(st.floats(min_value=-1e6, max_value=1e6))
    def test_range_and_equivalence(self, theta):
        w = wrap_angle(theta)
        assert -math.pi < w <= math.pi
        assert abs(complex(math.cos(w), math.sin(w)) - complex(math.cos(theta), math.sin(theta))) < 1e-9


class TestMatrixJson:
    def test_round_trip(self):
        x = haar_random(3, 11)
        doc = matrix_to_json_dict(x)
        assert max_abs_diff(matrix_from_json_dict(doc), x) == 0.0

    def test_rejects_wrong_length(self):
        with pytest.raises(StructureError):
            matrix_from_json_dict({"n": 2, "entries": [[1.0, 0.0]] * 3})

    def test_rejects_nonfinite(self):
        doc = {"n": 1, "entries": [[math.inf, 0.0]]}
        with pytest.raises(DomainError):
            matrix_from_json_dict(doc)

    def test_rejects_bad_order(self):
        with pytest.raises(DomainError):
            matrix_from_json_dict({"n": 0, "entries": []})

    def test_rejects_non_pair_entry(self):
        with pytest.raises(StructureError):
            matrix_from_json_dict({"n": 1, "entries": [[1.0, 0.0, 2.0]]})

    def test_rejects_missing_field(self):
        with pytest.raises(StructureError):
            matrix_from_json_dict({"entries": []})

    @pytest.mark.parametrize("n", [2.0, 2.5, "2", True, None, [2]])
    def test_order_must_be_a_json_integer(self, n):
        doc = matrix_to_json_dict(haar_random(2, 13))
        doc["n"] = n
        with pytest.raises(StructureError):
            matrix_from_json_dict(doc)

    @pytest.mark.parametrize("value", ["1", "0.5", True, False, None, [1.0], {"re": 1.0}])
    def test_entries_must_be_json_numbers(self, value):
        for pair in ([value, 0.0], [0.0, value]):
            with pytest.raises(StructureError, match="entry 0 (real|imaginary) part must be a number"):
                matrix_from_json_dict({"n": 1, "entries": [pair]})

    def test_json_numbers_parse_to_the_same_floats(self):
        values = [0, -0.0, 1, 2**60 + 1, 0.1, -1e-300, 5e-324, np.float64(0.3), np.int64(7)]
        assert [json_float(v, "x") for v in values] == [float(v) for v in values]
        assert all(type(json_float(v, "x")) is float for v in values)
        assert json_floats(values, "x") == [float(v) for v in values]
        doc = matrix_to_json_dict(haar_random(3, 14))
        assert matrix_from_json_dict(doc).tobytes() == haar_random(3, 14).tobytes()

    def test_json_number_checks(self):
        with pytest.raises(StructureError, match="'xs' must be a list of numbers, got str"):
            json_floats("00", "'xs'")
        with pytest.raises(StructureError, match="'xs' entry 1 must be a number, got True"):
            json_floats([0.5, True], "'xs'")
        with pytest.raises(DomainError, match="too large for a float"):
            json_float(10**400, "'x'")
        with pytest.raises(DomainError, match="not finite"):
            matrix_from_json_dict({"n": 1, "entries": [[float("inf"), 0.0]]})


class TestNumberRuleForArrays:
    """Array arguments follow the scalars' number rule: a bool, a string or another object
    among the entries is a DomainError, even one bool among numbers."""

    @pytest.mark.parametrize("call", [
        "Factor(3, 3, 0.1, ['1', '0'])",
        "Factor(3, 3, 0.1, [True, False])",
        "Factor(3, 3, 0.1, [1.0, np.bool_(False)])",
        "SymmetricParams(3, (0.1, 0.2), ([True], [False, True]))",
        "SymmetricParams(3, (0.1, 0.2), ([1.0], [0.6, 0.8j]))",
        "Decomposition(2, (Factor(2, 2, 0.1, [1.0]),), ['0.1', '0.2'], [0, 0], 'ascending')",
        "phase_matrix(['0.5', '1'])",
        "phase_matrix([0.5, True])",
        "phase_matrix([None])",
        "phase_matrix(np.array([0.5j]))",
        "decompose([[True, False], [False, True]])",
        "decompose([['1', '0'], ['0', '1']])",
        "decompose([[1.0, 0.0], [0.0, True]])",
        "plaquette_table(np.eye(3, dtype=bool))",
        "plaquette_table(np.eye(3).astype(object))",
        "require_square(np.array([['1', '0'], ['0', '1']]))",
        "apply_factor(0.3, ['1'], np.eye(2))",
        "apply_factor(0.3, [1.0], [[True, 0], [0, 1]])",
        "block(0.3, [True])",
    ])
    def test_refused(self, call):
        with pytest.raises(DomainError, match="entries must be (real )?numbers, got "):
            eval(call)

    def test_the_first_entry_that_is_not_a_number_is_named(self):
        with pytest.raises(DomainError, match="matrix entries must be numbers, got str$"):
            require_square([[1.0, "0"], [None, True]])
        with pytest.raises(DomainError, match="phase vector entries must be real numbers, got bool"):
            phase_matrix(np.eye(2, dtype=bool)[0])

    def test_an_ndarray_is_judged_by_its_dtype(self):
        # an object array is refused though each entry is a float; no entry is read
        with pytest.raises(DomainError, match="got object"):
            require_square(np.eye(2).astype(object))
        m = np.eye(3, dtype=np.complex128)
        assert require_square(m) is m

    def test_an_integer_beyond_the_float_range_is_not_finite(self):
        with pytest.raises(DomainError, match="matrix contains non-finite entries"):
            require_square([[10**400]])

    @pytest.mark.parametrize("dtype", [np.int8, np.int64, np.uint16, np.float32, np.float64])
    def test_numpy_integer_and_float_arrays_pass(self, dtype):
        eye = np.eye(3, dtype=dtype)
        assert decompose(eye).ambient_n == 3
        assert require_square(eye).tobytes() == np.eye(3, dtype=complex).tobytes()
        assert phase_matrix(np.zeros(3, dtype=dtype)).tobytes() == eye.astype(complex).tobytes()
        assert Factor(3, 3, 0.1, eye[0, :2]).char.tolist() == [1, 0]
        params = SymmetricParams(3, (0.1, 0.2), (eye[0, :1], eye[1, :2]))
        assert params.real_chars[1].tolist() == [0.0, 1.0]

    def test_lists_of_python_and_numpy_numbers_pass(self):
        assert require_square([[1, 0j], [np.float32(0), np.int64(1)]]).dtype == np.complex128
        assert phase_matrix([0, 0.0, np.float64(0)]).tobytes() == np.eye(3, dtype=complex).tobytes()
        assert Factor(3, 3, 0.1, [np.complex64(1), 0]).char.tolist() == [1, 0]


class TestToleranceRule:
    """The public tolerance parameters, and ``require_unitary``'s, are finite reals >= 0."""

    @pytest.mark.parametrize("tol", [math.inf, -math.inf, math.nan, -1.0, -1e-300, True,
                                     "1e-10", None, 10**400],
                             ids=["inf", "-inf", "nan", "-1", "-1e-300", "bool", "string",
                                  "none", "huge-int"])
    @pytest.mark.parametrize("function", [decompose, zero_texture_analysis, require_unitary],
                             ids=["decompose", "zero_texture_analysis", "require_unitary"])
    def test_refused(self, function, tol):
        x = texture_matrix(np.random.default_rng(2))
        with pytest.raises(DomainError, match="^tol must "):
            function(x, tol=tol)

    @pytest.mark.parametrize("a, tol", [(np.ones((2, 2)), math.inf), (np.eye(2), math.nan),
                                        ([["not", "a matrix"]], -1.0)],
                             ids=["ones-inf", "eye-nan", "before-the-matrix"])
    def test_require_unitary_applies_it_before_reading_the_matrix(self, a, tol):
        with pytest.raises(DomainError, match="^tol must "):
            require_unitary(a, tol)

    @pytest.mark.parametrize("tol", [0, 0.0, 1e-10, np.float64(1e-9), 1])
    def test_accepted(self, tol):
        assert decompose(np.eye(3), tol=tol).ambient_n == 3
        x = texture_matrix(np.random.default_rng(2))
        if 0 < tol < 1:  # the composed zeros are not all exact; 1 takes every entry for one
            assert zero_texture_analysis(x, tol=tol).vanishing_count == 19


#: Each public entry point that takes an order or a seed, as a call on that one argument.
_INTEGER_ARGUMENTS = {
    "haar_random-n": lambda v: haar_random(v, 1),
    "haar_random-seed": lambda v: haar_random(3, v),
    "count_independent_phases": count_independent_phases,
    "sym_param_count": sym_param_count,
    "SymmetricParams-n": lambda v: SymmetricParams(v, (0.1, 0.2), ([1.0], [0.6, 0.8])),
    "Factor-ambient_n": lambda v: Factor(v, 2, 0.1, [1.0]),
    "Factor-order_k": lambda v: Factor(4, v, 0.1, [0.6, 0.8]),
    "Decomposition-ambient_n": lambda v: Decomposition(
        v, (Factor(3, 2, 0.1, [1.0]), Factor(3, 3, 0.2, [0.6, 0.8])), [0, 0, 0], [0, 0, 0],
        "ascending",
    ),
}


class TestIntegerRule:
    """Orders, counts and seeds are integers in an inclusive range by one rule: a bool, a
    float, a string or None is a DomainError, and a numpy integer passes as an int."""

    @pytest.mark.parametrize("value, message", [
        (True, "an integer, got True"),
        (np.bool_(True), "an integer, got "),  # the repr differs between numpy versions
        (3.0, "an integer, got 3.0"),
        ("3", "an integer, got '3'"),
        (None, "an integer, got None"),
        (10**5000, "an integer in 1..9, got a huge integer"),
        (-10**5000, "an integer in 1..9, got a huge integer"),
        (0, "an integer in 1..9, got 0"),
        (10, "an integer in 1..9, got 10"),
    ], ids=["bool", "numpy-bool", "float", "string", "none", "huge", "huge-negative",
            "below", "above"])
    def test_refused(self, value, message):
        with pytest.raises(DomainError) as info:
            integer(value, "n", 1, 9)
        assert str(info.value).startswith("n must be " + message)

    @pytest.mark.parametrize("value", [1, 9, np.int64(1), np.uint8(9), np.int32(5)])
    def test_bounds_are_inclusive_and_the_result_an_int(self, value):
        out = integer(value, "n", 1, 9)
        assert type(out) is int and out == value

    def test_no_upper_bound_without_hi(self):
        assert integer(10**5000, "seed", 0) == 10**5000
        with pytest.raises(DomainError, match="^seed must be an integer >= 0, got -1$"):
            integer(-1, "seed", 0)

    @pytest.mark.parametrize("call", _INTEGER_ARGUMENTS.values(), ids=_INTEGER_ARGUMENTS)
    def test_public_entry_points(self, call):
        for value in (True, 3.0):
            with pytest.raises(DomainError, match="must be an integer, got "):
                call(value)
        call(np.int64(3))
