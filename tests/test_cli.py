import json
import resource

import numpy as np

from helpers import run_cli, texture_matrix
from unichain.cli import MAX_GEN_N, main
from unichain.matrix_core import (
    matrix_from_json_dict,
    matrix_to_json_dict,
    max_abs_diff,
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
        from unichain.matrix_core import haar_random

        path = write_matrix(tmp_path, "h.json", haar_random(4, 11))
        res = run_cli(["verify", "--in", path])
        assert res.returncode == 0
        report = json.loads(res.stdout)
        assert report["ok"] is True
        names = {c["name"] for c in report["checks"]}
        assert {"unitarity", "round_trip", "panel_relations", "basis_solve"} <= names

    def test_perturbed_input_exits_2(self, tmp_path):
        from unichain.matrix_core import haar_random

        x = haar_random(4, 11).copy()
        x[0, 0] += 1e-3
        path = write_matrix(tmp_path, "bad.json", x)
        res = run_cli(["verify", "--in", path])
        assert res.returncode == 2
        assert "unitarity" in res.stderr


class TestPanelCommand:
    def test_report_fields(self, tmp_path):
        from unichain.matrix_core import haar_random

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
        from unichain.matrix_core import haar_random

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
        from unichain.matrix_core import haar_random

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


class TestDiagnosticsAndDeterminism:
    def test_malformed_json_exits_1(self):
        res = run_cli(["decompose"], stdin="{not json")
        assert res.returncode == 1
        assert "line" in res.stderr

    def test_wrong_entry_count_exits_1(self):
        res = run_cli(["decompose"], stdin=json.dumps({"n": 2, "entries": [[1.0, 0.0]]}))
        assert res.returncode == 1
        assert "entries" in res.stderr

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


class TestDirectMain:
    def test_main_returns_exit_code(self, capsys, tmp_path):
        x = np.eye(3, dtype=complex)
        path = tmp_path / "id.json"
        path.write_text(json.dumps(matrix_to_json_dict(x)))
        code = main(["verify", "--in", str(path)])
        assert code == 0
        out = capsys.readouterr().out
        assert json.loads(out)["ok"] is True


def _limit_address_space():
    limit = 1 << 30
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


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
        assert f"exceeds the cap {MAX_GEN_N}" in proc.stderr
        assert "Traceback" not in proc.stderr and proc.stdout == ""


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
                assert (r["re"], r["im"]) == (p.re, p.im)

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
                assert report["panels_re"][a][b] == p.re
                assert report["panels_im"][a][b] == p.im

    def test_zerotexture_equals_scalar_plaquettes(self, tmp_path):
        from unichain.invariants import plaquette, zero_texture_analysis

        x = texture_matrix(np.random.default_rng(5))
        res = run_cli(["zerotexture", "--in", write_matrix(tmp_path, "t.json", x)])
        assert res.returncode == 0, res.stderr
        report = json.loads(res.stdout)
        rmap = [i - 1 for i in report["row_map"]]
        cmap = [i - 1 for i in report["col_map"]]
        std = x[np.ix_(rmap, cmap)]
        assert report["J"] == plaquette(std, (1, 2), (1, 2)).im
        assert report["J_prime"] == plaquette(std, (3, 4), (3, 4)).im
        expected = zero_texture_analysis(x).sign_pattern
        assert [(tuple(e["rows"]), tuple(e["cols"])) for e in report["sign_pattern"]] == list(
            expected
        )
        assert [e["label"] for e in report["sign_pattern"]] == list(expected.values())
