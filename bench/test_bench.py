"""Smoke tests of the benchmark at tiny size; they never bound a time.

    python -m pytest -q bench/
"""

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import manifest
import run
import workloads

# The tests patch unichain before run.main imports it, from src/ as run.main does.
if str(run.SRC) not in sys.path:
    sys.path.insert(0, str(run.SRC))


def _run(capsys, monkeypatch, *args, seconds=1):
    """One run at n = 4 only, of at least four ops."""
    for var in run.THREAD_VARS:
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(run, "MIN_OPS", 4)
    for wl in (workloads.ChainRoundtrip, workloads.InvariantTables, workloads.CliPipeline):
        monkeypatch.setattr(wl, "SIZES", (4,))
    argv = ["--seed", "3", "--seconds", str(seconds), *args]
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_prints_with_its_unit(capsys, monkeypatch, workload, trace):
    # A traced cli_pipeline half must outlast its first op, the ~0.5 s oversized document.
    seconds = 3 if (workload, trace) == ("cli_pipeline", "1") else 1
    lines, result = _run(capsys, monkeypatch, "--workload", workload, "--trace", trace, seconds=seconds)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    expected = (
        {name: unit for name, (unit, _, _) in run.END_TO_END.items()}
        if trace == "0"
        else {name: unit for name, (unit, _) in run.per_layer_names().items()}
    )
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(line.startswith(f"# {name} ") and line.endswith(f" {unit}") for line in lines)
    if trace == "1":
        assert (run.OUT / f"trace-{workload}-3.json").is_file()
    if trace == "1" and workload == "cli_pipeline":
        # Only verify's check suite calls these: the spans are cli's own calls.
        assert result["metrics"]["invariants.reduce_sextet.calls"]["value"] > 0
        assert result["metrics"]["invariants.basis_solve_n4.calls"]["value"] > 0


def test_defect_probes_are_reported_apart_from_the_operations(capsys, monkeypatch):
    import unichain.recursive_param as rp

    def refuse_edge_chains(x, tol=1e-10):
        # Haar draws have no exactly-zero entry; the probes' edge chains mostly do.
        if np.any(x == 0):
            raise rp.ConsistencyError("refused")
        return real(x, tol)

    real = rp.decompose
    monkeypatch.setattr(rp, "decompose", refuse_edge_chains)
    lines, result = _run(capsys, monkeypatch, "--workload", "chain_roundtrip", "--trace", "1")
    assert result["correct"] is True
    assert result["failed"] == 0
    probe_line = next(line for line in lines if line.startswith("# defect probes"))
    assert f"{workloads.ChainRoundtrip.PROBES} run" in probe_line
    assert "edge:ConsistencyError" in probe_line
    assert 0 < result["metrics"]["recursive_param.decompose.edge_pass_ratio"]["value"] < 1


def test_perturbed_plaquette_is_a_failure(capsys, monkeypatch):
    import unichain.invariants as inv

    real = inv.plaquette_table

    class OffBy1e9:
        """The table with its first plaquette off by 1e-9, through the accessors the check reads."""

        def __init__(self, table):
            self.table, self.n = table, table.n
            self.first = next(iter(table.keys()))

        def __len__(self):
            return len(self.table)

        def keys(self):
            return self.table.keys()

        def value(self, rows, cols):
            off = 1e-9 if (tuple(rows), tuple(cols)) == self.first else 0.0
            return self.table.value(rows, cols) + off

    monkeypatch.setattr(inv, "plaquette_table", lambda x, *a, **k: OffBy1e9(real(x, *a, **k)))
    _, result = _run(capsys, monkeypatch, "--workload", "invariant_tables")
    assert result["correct"] is False
    assert result["failed"] == result["attempted"]


def test_wrong_round_trip_is_a_failure(capsys, monkeypatch):
    import unichain.recursive_param as rp

    real = rp.compose
    monkeypatch.setattr(rp, "compose", lambda d: real(d) + 1e-8)
    _, result = _run(capsys, monkeypatch, "--workload", "chain_roundtrip")
    assert result["correct"] is False
    assert result["failed"] > 0


def test_refusal_is_a_failure_but_not_a_wrong_output(capsys, monkeypatch):
    import unichain.recursive_param as rp
    from unichain.matrix_core import ConsistencyError

    def refuse(x, tol=1e-10):
        raise ConsistencyError("refused")

    monkeypatch.setattr(rp, "decompose", refuse)
    _, result = _run(capsys, monkeypatch, "--workload", "chain_roundtrip")
    assert result["correct"] is True
    assert result["failed"] > 0


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "chain_roundtrip", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_manifest_matches_benchmark_json():
    on_disk = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert on_disk == manifest.manifest()
