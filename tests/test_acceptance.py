"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute; every tolerance is pinned in the test body.
"""

import json
import math
from itertools import permutations

import numpy as np

from helpers import (
    pinned_chain_n4,
    random_ascending_chain,
    random_char,
    run_cli,
    texture_matrix,
)
from unichain.matrix_core import (
    haar_random,
    matrix_from_json_dict,
    matrix_to_json_dict,
    max_abs_diff,
    maxnorm,
    phase_matrix,
    unitarity_defect,
)
from unichain.invariants import (
    apply_symmetry,
    basis_solve_n4,
    closed_form_j_n3,
    closed_forms_n4,
    panel_lattice,
    panel_relation_residuals,
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
    exp_generator,
    generator,
    reorder_chain,
)
from unichain.symmetric import (
    SymmetricParams,
    a4prime,
    compose_symmetric,
    j_sym_n3,
    sym_factor,
    sym_param_count,
    v3sym_closed,
)


def report(num, description, worst, bound, extra_ok=True):
    ok = extra_ok and worst <= bound
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {num}: {description} (worst residual {worst:.3e}, bound {bound:g})")
    assert ok, f"criterion {num}: worst residual {worst:.3e} exceeds {bound:g} (extra_ok={extra_ok})"


def test_criterion_01_generator_closed_form():
    rng = np.random.Generator(np.random.PCG64(101))
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 7))
        k = int(rng.integers(2, n + 1))
        f = Factor(n, k, rng.uniform(-math.pi, math.pi), random_char(rng, k - 1))
        g = generator(f)
        t = rng.uniform(-math.pi, math.pi)
        series = np.eye(n, dtype=complex)
        term = np.eye(n, dtype=complex)
        for m in range(1, 60):
            term = term @ (1j * t * g.matrix) / m
            series = series + term
        worst = max(
            worst,
            max_abs_diff(exp_generator(t, g), series),
            abs(np.trace(g.matrix)),
            abs(np.trace(g.matrix @ g.matrix) - 2.0),
        )
    report(1, "generator closed form vs 60-term series; tr G = 0, tr G^2 = 2", worst, 1e-12)


def test_criterion_02_round_trip():
    worst = 0.0
    counts_ok = True
    angles_ok = True
    trial = 0
    for seed in range(200):
        n = 2 + seed % 7
        x = haar_random(n, 9000 + seed)
        d = decompose(x)
        worst = max(worst, max_abs_diff(compose(d), x))
        counts_ok = counts_ok and d.parameter_count == n * n
        angles_ok = angles_ok and all(0.0 <= f.theta <= math.pi / 2 for f in d.factors)
        trial += 1
    assert trial == 200
    report(
        2,
        "compose(decompose(X)) = X on 200 Haar draws, n=2..8; n^2 parameters; theta in [0, pi/2]",
        worst,
        1e-10,
        extra_ok=counts_ok and angles_ok,
    )


def test_criterion_03_reordering():
    rng = np.random.Generator(np.random.PCG64(103))
    worst = 0.0
    angles_ok = True
    for _ in range(3):
        d = random_ascending_chain(rng, 5)
        base = compose(d)
        thetas = sorted(f.theta for f in d.factors)
        for perm in permutations(range(2, 6)):
            out = reorder_chain(d, perm)
            worst = max(worst, max_abs_diff(compose(out), base))
            angles_ok = angles_ok and sorted(f.theta for f in out.factors) == thetas
    report(
        3,
        "all 24 factor orderings at n=5 preserve the product and the angle multiset",
        worst,
        1e-11,
        extra_ok=angles_ok,
    )


def test_criterion_04_rephasing_invariance():
    rng = np.random.Generator(np.random.PCG64(104))
    worst = 0.0
    for trial in range(100):
        n = 3 + trial % 3
        x = haar_random(n, 11000 + trial)
        base = plaquette_table(x)
        left = phase_matrix(rng.uniform(-math.pi, math.pi, n))
        right = phase_matrix(rng.uniform(-math.pi, math.pi, n))
        rephased = plaquette_table(left @ x @ right)
        worst = max(worst, max_abs_diff(base.values, rephased.values))
    report(4, "plaquette tables invariant under external rephasing, n=3,4,5, 100 trials", worst, 1e-12)


def _eps_sign(pair, n=3):
    missing = ({1, 2, 3} - set(pair)).pop()
    seq = (missing, *pair)
    sign = 1
    seq = list(seq)
    for i in range(3):
        for j in range(i + 1, 3):
            if seq[i] > seq[j]:
                sign = -sign
    return sign


def test_criterion_05_n3_structure():
    rng = np.random.Generator(np.random.PCG64(105))
    worst = 0.0
    pairs = ((1, 2), (1, 3), (2, 3))
    for _ in range(25):
        t2, t3 = rng.uniform(0.1, 1.4, 2)
        x = random_char(rng, 2)
        d = Decomposition(
            3,
            (Factor(3, 2, t2, [1.0]), Factor(3, 3, t3, x)),
            np.zeros(3),
            np.zeros(3),
            ASCENDING,
        )
        v = compose(d)
        table = plaquette_table(v)
        j = table.value((1, 2), (1, 2)).imag
        for rows in pairs:
            for cols in pairs:
                sign = _eps_sign(rows) * _eps_sign(cols)
                worst = max(worst, abs(table.value(rows, cols).imag - sign * j))
        for _, area in triangle_areas(v):
            worst = max(worst, abs(area - abs(j) / 2))
        worst = max(worst, abs(closed_form_j_n3(d) - j))
    report(
        5,
        "n=3: epsilon pattern around one J, six triangle areas |J|/2, closed form matches",
        worst,
        1e-13,
    )


def test_criterion_06_n4_closed_forms():
    rng = np.random.Generator(np.random.PCG64(106))
    worst = 0.0
    for _ in range(100):
        d = pinned_chain_n4(rng)
        table = plaquette_table(compose(d))
        f3434, f3424 = closed_forms_n4(d)
        worst = max(worst, abs(f3434 - table.value((3, 4), (3, 4)).imag))
        worst = max(worst, abs(f3424 - table.value((3, 4), (2, 4)).imag))
        # equal moduli + equal omegas => equal tables
        other = apply_symmetry(d, "S1", rng.uniform(-math.pi, math.pi))
        other = apply_symmetry(other, "S2", rng.uniform(-math.pi, math.pi))
        worst = max(worst, max_abs_diff(table.values, plaquette_table(compose(other)).values))
    report(
        6,
        "n=4 closed forms for (34,34), (34,24); tables depend only on moduli and omegas",
        worst,
        1e-12,
    )


def test_criterion_07_panel_system():
    worst_rel = 0.0
    worst_basis = 0.0
    for seed in range(100):
        x = haar_random(4, 13000 + seed)
        worst_rel = max(worst_rel, maxnorm(panel_relation_residuals(x)))
        lat = panel_lattice(x)
        for (a, b), v in basis_solve_n4(x).items():
            worst_basis = max(worst_basis, abs(v - lat.J[a - 1, b - 1]))
    ok = worst_rel <= 1e-12
    report(
        7,
        f"six panel relations (< 1e-12: worst {worst_rel:.3e}) and basis reconstruction on 100 Haar draws",
        worst_basis,
        1e-10,
        extra_ok=ok,
    )


def test_criterion_08_sextet_reduction():
    rng = np.random.Generator(np.random.PCG64(108))
    worst = 0.0
    done = 0
    attempts = 0
    while done < 100 and attempts < 2000:
        attempts += 1
        n = int(rng.integers(4, 6))
        x = haar_random(n, 15000 + attempts)
        rows = tuple(int(i) + 1 for i in rng.choice(n, 3, replace=False))
        cols = tuple(int(i) + 1 for i in rng.choice(n, 3, replace=False))
        if abs(x[rows[1] - 1, cols[0] - 1]) <= 1e-6:
            continue
        lhs, rhs = reduce_sextet(x, rows, cols)
        worst = max(worst, abs(lhs - rhs))
        done += 1
    assert done == 100
    report(8, "sextet reduction on 100 (matrix, index) draws with pivot > 1e-6", worst, 1e-11)


def test_criterion_09_zero_texture():
    rng = np.random.Generator(np.random.PCG64(109))
    worst = 0.0
    structure_ok = True
    expected_chain = {
        ((1, 2), (1, 2)): "+J",
        ((1, 2), (1, 3)): "-J",
        ((1, 2), (2, 3)): "+J",
        ((1, 3), (1, 2)): "-J",
        ((1, 3), (1, 3)): "+J",
        ((1, 3), (2, 3)): "-J",
        ((2, 3), (1, 2)): "+J",
        ((2, 3), (1, 3)): "-J",
        ((2, 3), (2, 4)): "-J'",
        ((2, 3), (3, 4)): "+J'",
        ((2, 4), (2, 3)): "-J'",
        ((2, 4), (2, 4)): "+J'",
        ((2, 4), (3, 4)): "-J'",
        ((3, 4), (2, 3)): "+J'",
        ((3, 4), (2, 4)): "-J'",
        ((3, 4), (3, 4)): "+J'",
        ((2, 3), (2, 3)): "J+J'",
    }
    worst_sum = 0.0  # the (23,23) = J + J' identity carries a tighter bound
    for _ in range(10):
        v = texture_matrix(rng)
        rep = zero_texture_analysis(v)
        structure_ok = structure_ok and rep.vanishing_count == 19
        for key, label in expected_chain.items():
            structure_ok = structure_ok and rep.sign_pattern[key] == label
        std = v[np.ix_([i - 1 for i in rep.row_map], [i - 1 for i in rep.col_map])]
        t = plaquette_table(std)
        worst_sum = max(worst_sum, abs(t.value((2, 3), (2, 3)).imag - (rep.J + rep.J_prime)))
        # ratio, closed forms, modulus ratios, areas at 1e-11
        worst = max(worst, abs(rep.J_prime / rep.J - rep.ratio))
        worst = max(worst, abs(rep.J - rep.J_closed_form))
        worst = max(worst, abs(rep.J_prime - rep.J_prime_closed_form))
        target = (rep.J_prime / rep.J) ** 2
        for value in rep.modulus_ratio_sq.values():
            worst = max(worst, abs(value - target))
        half_j, half_jp = abs(rep.J) / 2, abs(rep.J_prime) / 2
        areas = [a for _, a in rep.triangle_areas]
        j_areas = sum(1 for a in areas if abs(a - half_j) < 1e-11)
        jp_areas = sum(1 for a in areas if abs(a - half_jp) < 1e-11)
        structure_ok = structure_ok and j_areas >= 4 and jp_areas >= 4
    report(
        9,
        "zero texture: 19 vanishing invariants, sign chains, (23,23)=J+J' "
        f"(residual {worst_sum:.3e} <= 1e-12), ratio -s4^2/s3^2, modulus ratios, "
        "4+4 triangle areas",
        worst,
        1e-11,
        extra_ok=structure_ok and worst_sum <= 1e-12,
    )


def test_criterion_10_symmetric_construction():
    rng = np.random.Generator(np.random.PCG64(110))
    worst_sym = 0.0
    worst_uni = 0.0
    worst_closed = 0.0
    counts_ok = all(sym_param_count(n) == n * (n - 1) // 2 for n in range(2, 7))
    for n in range(2, 7):
        for _ in range(5):
            chars = tuple(
                (lambda v: v / np.linalg.norm(v))(rng.standard_normal(k - 1))
                for k in range(2, n + 1)
            )
            p = SymmetricParams(n, tuple(rng.uniform(0.1, 1.4, n - 1)), chars)
            v = compose_symmetric(p)
            worst_sym = max(worst_sym, max_abs_diff(v, v.T))
            worst_uni = max(worst_uni, unitarity_defect(v))
    for _ in range(20):
        t2, t3, t4 = rng.uniform(0.1, 1.4, 3)
        xs = rng.standard_normal(2)
        xs /= np.linalg.norm(xs)
        ys = rng.standard_normal(3)
        ys /= np.linalg.norm(ys)
        direct3 = (
            sym_factor(2, t2 / 2, [1.0], 3)
            @ sym_factor(3, t3, xs, 3)
            @ sym_factor(2, t2 / 2, [1.0], 3)
        )
        worst_closed = max(worst_closed, max_abs_diff(v3sym_closed(t2, t3, xs), direct3))
        inv2 = sym_factor(2, -t2 / 2, [1.0], 4)
        direct4 = inv2 @ sym_factor(4, t4, ys, 4) @ inv2
        worst_closed = max(worst_closed, max_abs_diff(a4prime(t2, t4, ys), direct4))
        j = j_sym_n3(t2, t3, xs)
        table = plaquette_table(v3sym_closed(t2, t3, xs))
        worst_closed = max(worst_closed, abs(j - table.value((1, 2), (1, 2)).imag))
    ok = worst_sym <= 1e-12 and worst_uni <= 1e-11 and counts_ok
    report(
        10,
        f"symmetric palindrome (symmetry {worst_sym:.3e} <= 1e-12, unitarity {worst_uni:.3e} "
        "<= 1e-11, n(n-1)/2 parameters); closed forms vs defining products",
        worst_closed,
        1e-13,
        extra_ok=ok,
    )


def test_criterion_11_cli():
    gen = run_cli(["gen", "--n", "4", "--seed", "7"])
    dec = run_cli(["decompose"], stdin=gen.stdout)
    comp = run_cli(["compose"], stdin=dec.stdout)
    pipeline_ok = gen.returncode == dec.returncode == comp.returncode == 0
    a = matrix_from_json_dict(json.loads(gen.stdout))
    b = matrix_from_json_dict(json.loads(comp.stdout))
    worst = max_abs_diff(a, b)

    verify_good = run_cli(["verify"], stdin=gen.stdout)
    x = a.copy()
    x[0, 0] += 1e-3
    verify_bad = run_cli(["verify"], stdin=json.dumps(matrix_to_json_dict(x)))
    exits_ok = verify_good.returncode == 0 and verify_bad.returncode == 2
    report(
        11,
        "CLI gen|decompose|compose round trip; verify exits 0 on Haar and 2 on perturbed input",
        worst,
        1e-10,
        extra_ok=pipeline_ok and exits_ok,
    )
