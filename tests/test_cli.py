import json
import math
import resource
import subprocess
import sys
import tracemalloc
from collections.abc import Iterator

import numpy as np
import pytest

from helpers import cli_env, run_cli, texture_matrix
from unichain import cli, matrix_core
from unichain import invariants as inv
from unichain.cli import MAX_GEN_N, main
from unichain.invariants import (
    MAX_TABLE_ENTRIES,
    omega_from_params,
    plaquette_table,
    triangle_areas,
)
from unichain.matrix_core import (
    haar_random,
    matrix_from_json_dict,
    matrix_to_json_dict,
    max_abs_diff,
    phase_matrix,
)
from unichain.recursive_param import (
    compose,
    decompose,
    decomposition_from_json_dict,
    decomposition_to_json_dict,
    gauge_fix,
    reorder_chain,
)


def write_matrix(tmp_path, name, x):
    path = tmp_path / name
    path.write_text(json.dumps(matrix_to_json_dict(x)))
    return str(path)


class TestPipeline:
    def test_gen_decompose_compose_round_trip(self):
        gen = run_cli(["gen", "--n", "4", "--seed", "7"])
        assert gen.returncode == 0
        dec = run_cli(["decompose"], stdin=gen.stdout)
        assert dec.returncode == 0
        comp = run_cli(["compose"], stdin=dec.stdout)
        assert comp.returncode == 0
        a = matrix_from_json_dict(json.loads(gen.stdout))
        b = matrix_from_json_dict(json.loads(comp.stdout))
        assert max_abs_diff(a, b) < 1e-10

    def test_canonical_gauge_pipeline(self):
        gen = run_cli(["gen", "--n", "5", "--seed", "3"])
        dec = run_cli(["decompose", "--order", "asc", "--gauge", "canonical"], stdin=gen.stdout)
        assert dec.returncode == 0
        doc = json.loads(dec.stdout)
        assert doc["order"] == "ascending"
        for f in doc["factors"]:
            re, im = f["char"][-1]
            assert im == 0.0 and re >= 0.0
        comp = run_cli(["compose"], stdin=dec.stdout)
        a = matrix_from_json_dict(json.loads(gen.stdout))
        b = matrix_from_json_dict(json.loads(comp.stdout))
        assert max_abs_diff(a, b) < 1e-10

    def test_canonical_with_descending_rejected(self):
        gen = run_cli(["gen", "--n", "3", "--seed", "1"])
        dec = run_cli(["decompose", "--gauge", "canonical"], stdin=gen.stdout)
        assert dec.returncode == 1
        assert "asc" in dec.stderr

    def test_canonical_with_descending_refused_before_reading(self, tmp_path, capsys, monkeypatch):
        from unichain import recursive_param

        refusal = "canonical gauge is defined on ascending chains"
        missing = str(tmp_path / "missing.json")
        assert main(["decompose", "--gauge", "canonical", "--order", "desc", "--in", missing]) == 1
        err = capsys.readouterr().err
        assert refusal in err and "cannot read" not in err

        def decompose(*args, **kwargs):
            raise AssertionError("decompose ran before the flags were checked")

        monkeypatch.setattr(recursive_param, "decompose", decompose)
        path = write_matrix(tmp_path, "m.json", haar_random(4, 1))
        assert main(["decompose", "--gauge", "canonical", "--in", path]) == 1
        assert refusal in capsys.readouterr().err

    def test_reorder(self):
        gen = run_cli(["gen", "--n", "4", "--seed", "9"])
        dec = run_cli(["decompose"], stdin=gen.stdout)
        reo = run_cli(["reorder", "--target", "3,2,4"], stdin=dec.stdout)
        assert reo.returncode == 0
        doc = json.loads(reo.stdout)
        assert [f["k"] for f in doc["factors"]] == [3, 2, 4]
        assert doc["order"] == "custom"
        comp = run_cli(["compose"], stdin=reo.stdout)
        a = matrix_from_json_dict(json.loads(gen.stdout))
        b = matrix_from_json_dict(json.loads(comp.stdout))
        assert max_abs_diff(a, b) < 1e-10


class TestVerify:
    def test_identity_matrix_all_residuals_zero(self, tmp_path):
        path = write_matrix(tmp_path, "id.json", np.eye(4, dtype=complex))
        res = run_cli(["verify", "--in", path])
        assert res.returncode == 0
        report = json.loads(res.stdout)
        assert report["ok"] is True
        assert report["max_residual"] == 0.0

    def test_haar_input_passes(self, tmp_path):
        path = write_matrix(tmp_path, "h.json", haar_random(4, 11))
        res = run_cli(["verify", "--in", path])
        assert res.returncode == 0
        report = json.loads(res.stdout)
        assert report["ok"] is True
        names = {c["name"] for c in report["checks"]}
        assert {"unitarity", "round_trip", "panel_relations", "basis_solve"} <= names

    def test_perturbed_input_exits_2(self, tmp_path):
        x = haar_random(4, 11).copy()
        x[0, 0] += 1e-3
        path = write_matrix(tmp_path, "bad.json", x)
        res = run_cli(["verify", "--in", path])
        assert res.returncode == 2
        assert "unitarity" in res.stderr

    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_tol_above_default_writes_the_report(self, tmp_path, capsys, n):
        # A defect of 4e-9 passes --tol 1e-8; the checks through the public invariant
        # functions, which admit a defect of at most 1e-10, are left out, and the chain
        # products miss their fixed 1e-11.
        x = haar_random(n, 5) * (1 + 2e-9)
        path = write_matrix(tmp_path, "loose.json", x)
        assert main(["verify", "--in", path, "--tol", "1e-8"]) == 2
        out, err = capsys.readouterr()
        report = json.loads(out)
        assert list(report) == ["n", "ok", "max_residual", "checks"] and report["ok"] is False
        checks = {c["name"]: c for c in report["checks"]}
        assert checks["unitarity"]["ok"] and checks["rephasing_invariance"]["ok"]
        assert "sextet_reduction" in checks
        assert not {"triangle_areas", "panel_relations", "basis_solve"} & set(checks)
        assert err.startswith("unichain verify: checks failed: reorder_product")

    @pytest.mark.parametrize("n", [2, 3, 5, 16, 24])
    def test_rephasing_residual_is_that_of_the_whole_tables(self, tmp_path, capsys, n):
        # The residual, compared a block at a time (one block up to n = 13, 2 at n = 16 and
        # 10 at n = 24), is bit for bit the largest |difference| of the two whole tables.
        x = haar_random(n, 5)
        path = write_matrix(tmp_path, "x.json", x)
        assert main(["verify", "--in", path, "--seed", "9"]) == 0
        checks = json.loads(capsys.readouterr().out)["checks"]
        residual = next(c["residual"] for c in checks if c["name"] == "rephasing_invariance")
        rng = np.random.Generator(np.random.PCG64(9))
        left, right = (phase_matrix(rng.uniform(-np.pi, np.pi, n)) for _ in range(2))
        d = plaquette_table(x).values - plaquette_table(left @ x @ right).values
        assert residual == float(np.max(np.hypot(d.real, d.imag)))

    def test_n64_holds_no_table(self, tmp_path):
        # Two whole 62 MB tables at n = 64 once; now one block of each at a time.
        path = write_matrix(tmp_path, "x.json", haar_random(64, 5))
        tracemalloc.start()
        try:
            code = main(["verify", "--in", path, "--out", str(tmp_path / "report.json")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak <= 20_000_000


class TestPanelCommand:
    def test_report_fields(self, tmp_path):
        path = write_matrix(tmp_path, "p.json", haar_random(4, 21))
        res = run_cli(["panel", "--in", path])
        assert res.returncode == 0
        report = json.loads(res.stdout)
        assert len(report["relation_residuals"]) == 6
        assert max(abs(r) for r in report["relation_residuals"]) < 1e-12
        assert set(report["basis_solve"]) == {"J12", "J13", "J21", "J23", "J31", "J32"}
        assert max(report["basis_residuals"].values()) < 1e-10

    def test_vanishing_element_exits_1(self, tmp_path):
        x = np.eye(4, dtype=complex)
        x[1, 1] = 0.0
        x[1, 2] = 1.0
        x[2, 1] = -1.0
        x[2, 2] = 0.0
        # V22 = 0 while V12 stays harmless only in some relations; the
        # command must refuse to divide.
        path = write_matrix(tmp_path, "z.json", x)
        res = run_cli(["panel", "--in", path])
        assert res.returncode == 1
        assert "divide" in res.stderr or "modulus" in res.stderr


class TestInvariantsCommand:
    def test_matrix_input(self, tmp_path):
        path = write_matrix(tmp_path, "m.json", haar_random(3, 5))
        res = run_cli(["invariants", "--in", path])
        assert res.returncode == 0
        report = json.loads(res.stdout)
        assert len(report["plaquettes"]) == 9
        assert len(report["triangle_areas"]) == 6
        assert "omegas" not in report

    def test_decomposition_input_includes_omegas(self):
        gen = run_cli(["gen", "--n", "4", "--seed", "2"])
        dec = run_cli(["decompose", "--order", "asc"], stdin=gen.stdout)
        res = run_cli(["invariants"], stdin=dec.stdout)
        assert res.returncode == 0
        report = json.loads(res.stdout)
        assert len(report["omegas"]) == 3
        assert len(report["plaquettes"]) == 36

    @staticmethod
    def canonical_chain(n):
        gen = run_cli(["gen", "--n", str(n), "--seed", "3"])
        dec = run_cli(["decompose", "--order", "asc", "--gauge", "canonical"], stdin=gen.stdout)
        assert dec.returncode == 0, dec.stderr
        return json.loads(dec.stdout)

    @pytest.mark.parametrize("n", [3, 6])
    def test_canonical_chain_omegas_at_every_order(self, n):
        doc = self.canonical_chain(n)
        res = run_cli(["invariants"], stdin=json.dumps(doc))
        assert res.returncode == 0, res.stderr
        expected = omega_from_params(decomposition_from_json_dict(doc)).omegas
        assert json.loads(res.stdout)["omegas"] == list(expected)
        assert len(expected) == (n - 1) * (n - 2) // 2

    def test_no_omegas_at_n2(self):
        res = run_cli(["invariants"], stdin=json.dumps(self.canonical_chain(2)))
        assert res.returncode == 0, res.stderr
        assert json.loads(res.stdout)["omegas"] == []

    def test_custom_tagged_ascending_chain_gets_omegas(self):
        doc = {**self.canonical_chain(4), "order": "custom"}
        res = run_cli(["invariants"], stdin=json.dumps(doc))
        assert res.returncode == 0, res.stderr
        expected = omega_from_params(decomposition_from_json_dict(doc)).omegas
        assert json.loads(res.stdout)["omegas"] == list(expected)

    def test_descending_chain_gets_no_omegas(self):
        gen = run_cli(["gen", "--n", "4", "--seed", "3"])
        res = run_cli(["invariants"], stdin=run_cli(["decompose"], stdin=gen.stdout).stdout)
        assert res.returncode == 0, res.stderr
        assert "omegas" not in json.loads(res.stdout)


class TestZeroTextureCommand:
    def test_report(self, tmp_path):
        rng = np.random.Generator(np.random.PCG64(1))
        path = write_matrix(tmp_path, "t.json", texture_matrix(rng))
        res = run_cli(["zerotexture", "--in", path])
        assert res.returncode == 0
        report = json.loads(res.stdout)
        assert report["vanishing_count"] == 19
        assert abs(report["J_prime"] / report["J"] - report["ratio"]) < 1e-11
        assert len(report["sign_pattern"]) == 36
        assert len(report["triangle_areas"]) == 8

    def test_untextured_input_exits_1(self, tmp_path):
        path = write_matrix(tmp_path, "h.json", haar_random(4, 3))
        res = run_cli(["zerotexture", "--in", path])
        assert res.returncode == 1


class TestSymmetricCommand:
    def test_build_and_verify(self, tmp_path):
        params = {
            "n": 4,
            "thetas": [0.5, 0.8, 1.1],
            "chars": [[1.0], [0.6, 0.8], [0.2, 0.7, np.sqrt(1 - 0.04 - 0.49)]],
            "half_angle": True,
        }
        path = tmp_path / "sym.json"
        path.write_text(json.dumps(params))
        res = run_cli(["symmetric", "--in", str(path)])
        assert res.returncode == 0
        report = json.loads(res.stdout)
        assert report["ok"] is True
        assert report["symmetry_residual"] < 1e-12
        assert report["unitarity_residual"] < 1e-11
        x = matrix_from_json_dict(report["matrix"])
        assert max_abs_diff(x, x.T) < 1e-12

    def test_compose_accepts_symmetric_params(self, tmp_path):
        params = {
            "n": 3,
            "thetas": [0.5, 0.8],
            "chars": [[1.0], [0.6, 0.8]],
            "half_angle": True,
        }
        path = tmp_path / "sym3.json"
        path.write_text(json.dumps(params))
        res = run_cli(["compose", "--in", str(path)])
        assert res.returncode == 0
        x = matrix_from_json_dict(json.loads(res.stdout))
        assert max_abs_diff(x, x.T) < 1e-12


_CHAIN = {
    "n": 2, "order": "descending", "factors": [{"k": 2, "theta": 0.5, "char": [[1, 0]]}],
    "alpha": [0, 0], "beta": [0, 0],
}
_SYMMETRIC = {"n": 3, "thetas": [1, 2], "chars": [[1], [0.6, 0.8]], "half_angle": True}


class TestDiagnosticsAndDeterminism:
    def test_malformed_json_exits_1(self):
        res = run_cli(["decompose"], stdin="{not json")
        assert res.returncode == 1
        assert "line" in res.stderr

    def test_deeply_nested_json_exits_1(self):
        # json.loads raises RecursionError here, which is no ValueError.
        res = run_cli(["compose"], stdin="[" * 200_000 + "]" * 200_000)
        assert res.returncode == 1 and res.stdout == ""
        assert res.stderr == "unichain compose: invalid input: JSON in '-' is nested too deeply\n"

    def test_wrong_entry_count_exits_1(self):
        res = run_cli(["decompose"], stdin=json.dumps({"n": 2, "entries": [[1.0, 0.0]]}))
        assert res.returncode == 1
        assert "entries" in res.stderr

    def test_non_integer_orders_exit_1(self):
        gen = run_cli(["gen", "--n", "3", "--seed", "1"])
        doc = json.loads(run_cli(["decompose"], stdin=gen.stdout).stdout)
        doc["n"] = 3.9
        doc["factors"][0]["k"] = 3.5
        matrix = json.loads(gen.stdout)
        matrix["n"] = 3.0
        for command, bad in (("compose", doc), ("decompose", matrix)):
            out = run_cli([command], stdin=json.dumps(bad))
            assert out.returncode == 1 and out.stdout == ""
            assert "must be an integer" in out.stderr

    @pytest.mark.parametrize(
        "command, doc",
        [
            ("decompose", {"n": 2, "entries": [["1", "0"], [False, 0], [0, 0], [True, 0]]}),
            ("decompose", {"n": 1, "entries": [[1, 10**400]]}),
            ("compose", {**_CHAIN, "factors": [{"k": 2, "theta": "0.5", "char": [[1, 0]]}]}),
            ("compose", {**_CHAIN, "factors": [{"k": 2, "theta": 0.5, "char": [["1", 0]]}]}),
            ("compose", {**_CHAIN, "alpha": "00"}),
            ("compose", {**_CHAIN, "beta": [0, True]}),
            ("symmetric", {**_SYMMETRIC, "half_angle": "false"}),
            ("symmetric", {**_SYMMETRIC, "half_angle": 0}),
            ("symmetric", {**_SYMMETRIC, "thetas": "12"}),
            ("symmetric", {**_SYMMETRIC, "chars": [[1], "10"]}),
            ("compose", {**_SYMMETRIC, "chars": [[1], [False, 1]]}),
        ],
    )
    def test_numbers_and_lists_are_checked(self, command, doc):
        out = run_cli([command], stdin=json.dumps(doc))
        assert out.returncode == 1 and out.stdout == ""
        assert len(out.stderr.splitlines()) == 1 and "Traceback" not in out.stderr
        assert out.stderr.startswith(f"unichain {command}: invalid input: ")

    def test_byte_identical_output(self):
        a = run_cli(["gen", "--n", "4", "--seed", "123"])
        b = run_cli(["gen", "--n", "4", "--seed", "123"])
        assert a.stdout == b.stdout
        dec_a = run_cli(["decompose", "--order", "asc", "--gauge", "canonical"], stdin=a.stdout)
        dec_b = run_cli(["decompose", "--order", "asc", "--gauge", "canonical"], stdin=b.stdout)
        assert dec_a.stdout == dec_b.stdout

    def test_csv_output(self):
        res = run_cli(["gen", "--n", "2", "--seed", "5", "--format", "csv"])
        assert res.returncode == 0
        rows = res.stdout.strip().splitlines()
        assert len(rows) == 2
        parsed = np.array([[complex(tok) for tok in row.split(",")] for row in rows])
        gen = run_cli(["gen", "--n", "2", "--seed", "5"])
        x = matrix_from_json_dict(json.loads(gen.stdout))
        assert max_abs_diff(parsed, x) < 1e-15

    def test_output_file(self, tmp_path):
        out = tmp_path / "m.json"
        res = run_cli(["gen", "--n", "3", "--seed", "8", "--out", str(out)])
        assert res.returncode == 0 and res.stdout == ""
        assert json.loads(out.read_text())["n"] == 3

    def test_bad_flags_exit_1(self, capsys):
        bad = (
            ["gen", "--n", "x", "--seed", "1"],  # not an integer
            ["gen", "--seed", "1"],  # missing required flag
            ["transmogrify"],  # unknown subcommand
            [],  # no subcommand
            ["decompose", "--order", "sideways"],  # not a choice
            ["symmetric", "--sym-tol", "1e-3"],  # removed flag
        )
        for argv in bad:
            assert main(argv) == 1, argv
            out = capsys.readouterr()
            assert out.out == "" and "error" in out.err, argv
        res = run_cli(["gen", "--n", "x", "--seed", "1"])
        assert res.returncode == 1 and res.stdout == "" and "invalid int" in res.stderr

    @pytest.mark.parametrize("command", ["gen", "verify"])
    def test_negative_seed_exits_1_naming_the_flag(self, tmp_path, command):
        # verify refuses before it reads its input, here a file that does not exist
        flags = ["--n", "4"] if command == "gen" else ["--in", str(tmp_path / "missing.json")]
        res = run_cli([command, *flags, "--seed", "-1"])
        assert res.returncode == 1 and res.stdout == ""
        assert res.stderr == f"unichain {command}: invalid input: --seed must be an integer >= 0, got -1\n"

    def test_help_exits_0(self):
        for argv in (["--help"], ["gen", "--help"]):
            res = run_cli(argv)
            assert res.returncode == 0 and res.stdout.startswith("usage: unichain")


class TestDirectMain:
    def test_main_returns_exit_code(self, capsys, tmp_path):
        x = np.eye(3, dtype=complex)
        path = tmp_path / "id.json"
        path.write_text(json.dumps(matrix_to_json_dict(x)))
        code = main(["verify", "--in", str(path)])
        assert code == 0
        out = capsys.readouterr().out
        assert json.loads(out)["ok"] is True


def _address_space_limit(limit):
    def apply():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    return apply


_limit_address_space = _address_space_limit(1 << 30)


class TestOversizedInput:
    def test_huge_n_rejected_before_allocating(self, tmp_path, monkeypatch):
        # A chain of order 10**9 would need 10**9 - 1 factors; the count is
        # checked against the document before anything of size n is built.
        # One BLAS thread keeps numpy's own start-up well inside the limit.
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setenv("OMP_NUM_THREADS", "1")
        doc = {
            "n": 10**9,
            "order": "ascending",
            "factors": [{"k": 2, "theta": 0.0, "char": [[1.0, 0.0]]}],
            "alpha": [0.0],
            "beta": [0.0],
        }
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        proc = run_cli(
            ["compose", "--in", str(path)], timeout=10, preexec_fn=_limit_address_space
        )
        assert proc.returncode == 1, proc.stderr
        assert "one factor per order" in proc.stderr

    def test_gen_order_above_cap_exits_1(self, monkeypatch):
        # 10**6 squared complex entries would be 16 TB; the cap refuses the order first.
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setenv("OMP_NUM_THREADS", "1")
        proc = run_cli(
            ["gen", "--n", "1000000", "--seed", "1"], timeout=10, preexec_fn=_limit_address_space
        )
        assert proc.returncode == 1, proc.stderr
        assert f"--n must be an integer in 1..{MAX_GEN_N}, got 1000000" in proc.stderr
        assert "Traceback" not in proc.stderr and proc.stdout == ""

    def test_table_commands_refuse_order_above_cap(self, monkeypatch):
        # The n = 200 table would be 6 GB; the table cap refuses the order first.
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setenv("OMP_NUM_THREADS", "1")
        gen = run_cli(["gen", "--n", "200", "--seed", "1"])
        assert gen.returncode == 0, gen.stderr
        for command in ("invariants", "verify"):
            proc = run_cli(
                [command], stdin=gen.stdout, timeout=60, preexec_fn=_limit_address_space
            )
            assert proc.returncode == 1, proc.stderr
            assert f"over the cap {MAX_TABLE_ENTRIES}" in proc.stderr
            assert "Traceback" not in proc.stderr and proc.stdout == ""

    def test_verify_refuses_order_above_cap_before_decomposing(self, tmp_path, capsys, monkeypatch):
        # The table cap is checked right after parsing, before the chain checks.
        from unichain import recursive_param

        def decompose(*args, **kwargs):
            raise AssertionError("verify decomposed an order the table cap refuses")

        monkeypatch.setattr(recursive_param, "decompose", decompose)
        monkeypatch.setattr(recursive_param, "_peel", decompose)
        path = write_matrix(tmp_path, "n200.json", haar_random(200, 1))
        assert main(["verify", "--in", path]) == 1
        assert f"over the cap {MAX_TABLE_ENTRIES}" in capsys.readouterr().err

    @pytest.mark.parametrize("matrix", [haar_random(65, 1), np.ones((65, 65))])
    def test_verify_refuses_order_above_cap_before_the_unitarity_check(
        self, tmp_path, capsys, monkeypatch, matrix
    ):
        def defect(m):
            raise AssertionError("verify checked the unitarity of an order the cap refuses")

        monkeypatch.setattr(matrix_core, "_defect", defect)
        path = write_matrix(tmp_path, "n65.json", matrix)
        assert main(["verify", "--in", path]) == 1
        out, err = capsys.readouterr()
        assert out == "" and f"over the cap {MAX_TABLE_ENTRIES}" in err


    def test_invariants_refuses_order_above_cap_before_composing(
        self, tmp_path, capsys, monkeypatch
    ):
        from unichain import recursive_param

        chain = gauge_fix(reorder_chain(decompose(haar_random(65, 1)), range(2, 66)))
        path = tmp_path / "chain65.json"
        path.write_text(json.dumps(decomposition_to_json_dict(chain)))

        def compose(*args, **kwargs):
            raise AssertionError("invariants composed an order the table cap refuses")

        monkeypatch.setattr(recursive_param, "compose", compose)
        assert main(["invariants", "--in", str(path)]) == 1
        assert f"over the cap {MAX_TABLE_ENTRIES}" in capsys.readouterr().err
        # A matrix is measured against the cap before its unitarity: a non-unitary one of
        # order 65 reports the cap.
        ones = write_matrix(tmp_path, "ones.json", np.ones((65, 65)))
        assert main(["invariants", "--in", ones]) == 1
        assert f"over the cap {MAX_TABLE_ENTRIES}" in capsys.readouterr().err


class TestOneGatePerCommand:
    """A command checks its matrix once, as a public library call does."""

    @staticmethod
    def count(monkeypatch, module, name) -> list:
        real, calls = getattr(module, name), []

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(module, name, counting)
        return calls

    @pytest.mark.parametrize("n", [3, 4, 5, 16])
    @pytest.mark.parametrize("command", ["decompose", "invariants", "panel", "verify"])
    def test_one_unitarity_check(self, tmp_path, capsys, monkeypatch, command, n):
        path = write_matrix(tmp_path, "x.json", haar_random(n, 3))
        checked = self.count(monkeypatch, matrix_core, "_defect")
        assert main([command, "--in", path]) == 0
        # verify at n = 4 solves the panel relations through the public basis_solve_n4,
        # which checks again: bench/test_bench.py requires that call from the CLI.
        assert len(checked) == (2 if (command, n) == ("verify", 4) else 1)

    def test_zerotexture_checks_once(self, tmp_path, capsys, monkeypatch):
        path = write_matrix(tmp_path, "t.json", texture_matrix(np.random.default_rng(3)))
        checked = self.count(monkeypatch, matrix_core, "_defect")
        assert main(["zerotexture", "--in", path]) == 0
        assert len(checked) == 1

    def test_panel_builds_one_lattice(self, tmp_path, capsys, monkeypatch):
        path = write_matrix(tmp_path, "x.json", haar_random(4, 3))
        built = self.count(monkeypatch, inv, "_panel_lattice")
        assert main(["panel", "--in", path]) == 0
        assert len(built) == 1


class TestToleranceFlag:
    """``--tol`` is a finite real >= 0, refused before the input is read."""

    @pytest.mark.parametrize("value, message", [
        ("inf", "--tol must be finite, got inf"),
        ("nan", "--tol must be finite, got nan"),
        ("-1", "--tol must not be negative, got -1.0"),
        ("-inf", "--tol must be finite, got -inf"),
    ])
    @pytest.mark.parametrize("command", ["decompose", "verify", "zerotexture"])
    def test_refused_with_one_line(self, tmp_path, capsys, command, value, message):
        # [[1, 0.5], [0.2, 1]] is not unitary: under --tol inf, decompose used to exit 0
        path = tmp_path / "loose.json"
        path.write_text(json.dumps({"n": 2, "entries": [[1, 0], [0.5, 0], [0.2, 0], [1, 0]]}))
        assert main([command, f"--tol={value}", "--in", str(path)]) == 1
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"unichain {command}: invalid input: {message}\n")

    @pytest.mark.parametrize("command", ["decompose", "verify"])
    def test_zero_passes_an_exactly_unitary_matrix(self, tmp_path, capsys, command):
        path = write_matrix(tmp_path, "eye.json", np.eye(3))
        assert main([command, "--tol", "0", "--in", path]) == 0, capsys.readouterr().err


class TestSmallOrders:
    def test_verify_accepts_1x1(self):
        gen = run_cli(["gen", "--n", "1", "--seed", "4"])
        res = run_cli(["verify"], stdin=gen.stdout)
        assert res.returncode == 0, res.stderr
        report = json.loads(res.stdout)
        assert report["ok"] is True
        assert {c["name"] for c in report["checks"]} >= {"round_trip", "rephasing_invariance"}

    def test_invariants_n1_and_n2(self):
        gen = run_cli(["gen", "--n", "1", "--seed", "4"])
        res = run_cli(["invariants"], stdin=gen.stdout)
        assert res.returncode == 0, res.stderr
        assert json.loads(res.stdout) == {"n": 1, "plaquettes": [], "triangle_areas": []}
        gen = run_cli(["gen", "--n", "2", "--seed", "4"])
        res = run_cli(["invariants"], stdin=gen.stdout)
        assert res.returncode == 0, res.stderr
        report = json.loads(res.stdout)
        assert [(p["rows"], p["cols"]) for p in report["plaquettes"]] == [([1, 2], [1, 2])]
        assert [a["pair"] for a in report["triangle_areas"]] == [["rows", 1, 2], ["cols", 1, 2]]


class TestByteContract:
    """Emitted invariants equal the library's scalar values exactly.

    JSON floats round-trip, so comparing parsed output with ``==`` pins
    every bit without storing platform-dependent hashes.
    """

    def test_invariants_rows_equal_scalar_plaquettes(self):
        from itertools import combinations

        from unichain.invariants import plaquette

        for n, seed in ((3, 1), (5, 2), (8, 3)):
            gen = run_cli(["gen", "--n", str(n), "--seed", str(seed)])
            x = matrix_from_json_dict(json.loads(gen.stdout))
            res = run_cli(["invariants"], stdin=gen.stdout)
            assert res.returncode == 0, res.stderr
            rows = json.loads(res.stdout)["plaquettes"]
            pairs = [list(p) for p in combinations(range(1, n + 1), 2)]
            assert [(r["rows"], r["cols"]) for r in rows] == [(a, b) for a in pairs for b in pairs]
            for r in rows:
                p = plaquette(x, r["rows"], r["cols"])
                assert (r["re"], r["im"]) == (p.real, p.imag)

    def test_panel_equals_scalar_plaquettes(self):
        from unichain.invariants import plaquette

        gen = run_cli(["gen", "--n", "4", "--seed", "9"])
        x = matrix_from_json_dict(json.loads(gen.stdout))
        res = run_cli(["panel"], stdin=gen.stdout)
        assert res.returncode == 0, res.stderr
        report = json.loads(res.stdout)
        for a in range(3):
            for b in range(3):
                p = plaquette(x, (a + 1, a + 2), (b + 1, b + 2))
                assert report["panels_re"][a][b] == p.real
                assert report["panels_im"][a][b] == p.imag

    def test_zerotexture_equals_scalar_plaquettes(self, tmp_path):
        from unichain.invariants import plaquette, zero_texture_analysis

        x = texture_matrix(np.random.default_rng(5))
        res = run_cli(["zerotexture", "--in", write_matrix(tmp_path, "t.json", x)])
        assert res.returncode == 0, res.stderr
        report = json.loads(res.stdout)
        rmap = [i - 1 for i in report["row_map"]]
        cmap = [i - 1 for i in report["col_map"]]
        std = x[np.ix_(rmap, cmap)]
        assert report["J"] == plaquette(std, (1, 2), (1, 2)).imag
        assert report["J_prime"] == plaquette(std, (3, 4), (3, 4)).imag
        expected = zero_texture_analysis(x).sign_pattern
        assert [(tuple(e["rows"]), tuple(e["cols"])) for e in report["sign_pattern"]] == list(
            expected
        )
        assert [e["label"] for e in report["sign_pattern"]] == list(expected.values())


def _dumps(payload):
    return json.dumps(payload, indent=2) + "\n"


def _invariants_payload(x, **extra):
    """The invariants document of *x* as one dict, from the public table and areas."""
    table = plaquette_table(x)
    return {
        "n": table.n,
        "plaquettes": [
            {"rows": list(r), "cols": list(c), "re": v.real, "im": v.imag}
            for (r, c), v in zip(table.keys(), table.values.ravel().tolist())
        ],
        "triangle_areas": [
            {"pair": [kind, i, j], "area": float(area)} for (kind, i, j), area in triangle_areas(x)
        ],
        **extra,
    }


class TestStreamedWriter:
    """Every document is written as exactly ``json.dumps(payload, indent=2) + "\n"``."""

    def emitted(self, tmp_path, payload):
        path = tmp_path / "out.json"
        cli._emit_json(str(path), payload)
        return path.read_text(encoding="utf-8")

    def test_edge_values(self, tmp_path, capsys):
        pair = [1, 2]
        scalars = [
            math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e16, 1e-7, 0.1, -1.5e300,
            True, False, None, 0, -7, 2**70, "", "plain", 'q"uo\\te\n\t\u00e9\u2028\U0001f600',
            np.float64(0.1), np.float64(math.nan), np.float64(-math.inf),
        ]
        payloads = [
            *scalars,
            scalars,
            scalars[:10],  # floats only: rendered as one column
            scalars[13:16],  # ints only
            [], {}, [[]], [{}], [[], []], {"a": [], "b": {}}, {"": 0},
            {"%s": 1, "%%": [1.5, "%d"], 'k"\u00e9': None},
            [[1, 2], [3, 4]], [[1], [1, 2]], [[1, 1.0], [True, 2]], [1, 1.0, True, None, "1"],
            [[math.nan, math.inf], [-math.inf, -0.0]], [pair, pair, [1, 2], (1, 2)],
            [[[1.5, -2.5], [0.0, 1.0]], [[2.0, 3.0], [4.0, 5.0]]], [(1, (2.5, None)), ()],
            [{"a": 1, "b": [1.0, 2.0]}, {"a": 2, "b": [3.0]}, {}],
            {"deep": {"er": {"est": [[{"x": [math.nan]}]]}}},
            {1: "int key", 2.5: "float key", None: "null key", True: "bool key"},
            {"outer": {1: [1, 2], "s": {"t": [3.0]}}},
            list(range(9000)),
            [[float(i), -0.5 * i] for i in range(9000)] + [[math.nan, 1.0]],
            [[i % 7, float(i)] if i % 5 else [i, "x"] for i in range(9000)],
        ]
        for payload in payloads:
            assert self.emitted(tmp_path, payload) == _dumps(payload), payload
        cli._emit_json("-", payloads[-4])
        assert capsys.readouterr().out == _dumps(payloads[-4])

    @pytest.fixture
    def documents(self, monkeypatch):
        """The expected bytes of each document the CLI writes, from ``json.dumps``."""
        expected = []
        emit = cli._emit_json

        def spy(path, payload):
            # A list given as an iterator of rendered blocks: each item text parses back to
            # the value that json.dumps must lay out the same way.
            blocks = {k: list(v) for k, v in payload.items() if isinstance(v, Iterator)}
            items = {k: [json.loads(t) for b in v for t in b] for k, v in blocks.items()}
            expected.append(_dumps({**payload, **items}))
            emit(path, {**payload, **{k: iter(v) for k, v in blocks.items()}})

        monkeypatch.setattr(cli, "_emit_json", spy)
        return expected

    def test_every_command(self, tmp_path, documents):
        files = {}

        def run(name, argv, code=0):
            files[name] = tmp_path / f"{name}.json"
            assert main([*argv, "--out", str(files[name])]) == code, name
            assert files[name].read_text(encoding="utf-8") == documents[-1], name
            return str(files[name])

        sym_doc = tmp_path / "sym-params.json"
        sym_doc.write_text(json.dumps({
            "n": 4, "thetas": [0.5, 0.8, 1.1], "half_angle": True,
            "chars": [[1.0], [0.6, 0.8], [0.2, 0.7, math.sqrt(1 - 0.04 - 0.49)]],
        }))
        bad = matrix_to_json_dict(np.eye(4) + 1e-3 * np.eye(4)[::-1])
        bad_path = tmp_path / "bad.json"
        bad_path.write_text(json.dumps(bad))
        texture = write_matrix(tmp_path, "texture.json", texture_matrix(np.random.default_rng(5)))

        run("gen1", ["gen", "--n", "1", "--seed", "3"])
        run("gen2", ["gen", "--n", "2", "--seed", "3"])
        g4 = run("gen4", ["gen", "--n", "4", "--seed", "3"])
        g5 = run("gen5", ["gen", "--n", "5", "--seed", "3"])
        desc = run("desc", ["decompose", "--in", g5])
        asc = run("asc", ["decompose", "--in", g4, "--order", "asc", "--gauge", "canonical"])
        run("reorder", ["reorder", "--in", desc, "--target", "3,5,2,4"])
        run("compose", ["compose", "--in", asc])
        run("compose_sym", ["compose", "--in", str(sym_doc)])
        for name in ("gen1", "gen2", "gen4", "gen5"):
            run(f"invariants_{name}", ["invariants", "--in", str(files[name])])
        run("invariants_asc", ["invariants", "--in", asc])
        run("panel4", ["panel", "--in", g4])
        run("panel5", ["panel", "--in", g5])
        run("zerotexture", ["zerotexture", "--in", texture])
        run("symmetric", ["symmetric", "--in", str(sym_doc)])
        run("verify1", ["verify", "--in", str(files["gen1"])])
        run("verify4", ["verify", "--in", g4])
        run("verify_failing", ["verify", "--in", str(bad_path)], code=2)
        assert "omegas" in json.loads(files["invariants_asc"].read_text())
        assert json.loads(files["verify_failing"].read_text())["ok"] is False

    def test_invariants_equal_the_dict_payload(self, tmp_path):
        # The plaquette rows as one dict each, the way the document was first built.
        for n in (1, 2, 3, 6, 16):  # n = 1: no plaquettes; n = 16: 4 blocks of 34 row pairs
            x = haar_random(n, n)
            out = tmp_path / f"inv{n}.json"
            assert main(["invariants", "--in", write_matrix(tmp_path, "m.json", x), "--out", str(out)]) == 0
            assert out.read_text() == _dumps(_invariants_payload(x))

    def test_invariants_render_the_kernel_blocks(self, tmp_path, capsys, monkeypatch):
        # The document is rendered from the table kernel's blocks; no table is built for it.
        cases = []
        for n in (1, 2, 3, 4, 16):
            x = haar_random(n, n)
            cases.append((write_matrix(tmp_path, f"m{n}.json", x), _invariants_payload(x)))
        chain = tmp_path / "asc.json"
        chain.write_text(json.dumps(decomposition_to_json_dict(
            gauge_fix(reorder_chain(decompose(haar_random(5, 8)), range(2, 6)))
        )))
        d = decomposition_from_json_dict(json.loads(chain.read_text()))
        omegas = list(omega_from_params(d).omegas)
        cases.append((str(chain), _invariants_payload(compose(d), omegas=omegas)))

        def plaquette_table(*args, **kwargs):
            raise AssertionError("invariants built a plaquette table")

        monkeypatch.setattr(cli.inv, "plaquette_table", plaquette_table)
        for path, payload in cases:
            assert main(["invariants", "--in", path]) == 0
            assert capsys.readouterr().out == _dumps(payload)

    def test_invalid_input_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "never.json"
        assert main(["invariants", "--in", str(tmp_path / "missing.json"), "--out", str(out)]) == 1
        assert not out.exists()
        bad = write_matrix(tmp_path, "nonunitary.json", 2 * np.eye(3))
        assert main(["invariants", "--in", bad]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "invalid input" in captured.err

    @pytest.mark.parametrize("target", ["missing/x.json", "."])
    def test_unwritable_out_exits_1(self, tmp_path, capsys, target):
        out = str(tmp_path / target)
        assert main(["gen", "--n", "2", "--seed", "1", "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"unichain gen: invalid input: cannot write {out!r}: ")
        assert err.count("\n") == 1

    def test_failure_mid_document_leaves_no_file(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "inv.json"
        rows = cli._plaquette_rows

        def failing(n, blocks):
            yield next(rows(n, blocks))
            assert out.exists()
            raise MemoryError

        monkeypatch.setattr(cli, "_plaquette_rows", failing)
        matrix = write_matrix(tmp_path, "m.json", haar_random(16, 1))
        assert main(["invariants", "--in", matrix, "--out", str(out)]) == 1
        assert capsys.readouterr().err == "unichain invariants: out of memory\n"
        assert not out.exists()

    def test_stdout_closed_early_exits_1_quietly(self):
        proc = subprocess.Popen(
            [sys.executable, "-m", "unichain", "gen", "--n", "300", "--seed", "1"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=cli_env(),
        )
        head = proc.stdout.read(10)
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert (proc.returncode, head, err) == (1, b'{\n  "n": 3', b"")

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS is Linux's")
    def test_invariants_n32_within_256_mib(self, tmp_path, monkeypatch):
        # 496**2 plaquettes, about 40 MB of text: the document is never held whole.
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setenv("OMP_NUM_THREADS", "1")
        gen, out = tmp_path / "gen32.json", tmp_path / "inv32.json"
        assert main(["gen", "--n", "32", "--seed", "1", "--out", str(gen)]) == 0
        proc = run_cli(
            ["invariants", "--in", str(gen), "--out", str(out)],
            timeout=120, preexec_fn=_address_space_limit(256 << 20),
        )
        assert proc.returncode == 0, proc.stderr
        assert out.read_bytes().count(b'"re": ') == 496**2
