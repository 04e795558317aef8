"""The summary of tools/bench_pairs.py: medians, quartiles and the change's pair counts."""

import importlib.util
import json
import subprocess
from pathlib import Path

import numpy as np
import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

BETTER = {"ops_per_s": "higher", "op_p50_ms": "lower"}


def pair(workload, seed, base, change, first="base"):
    return {"workload": workload, "seed": seed, "first": first, "base": base, "change": change}


def test_counts_by_direction_and_quartiles_as_numpy():
    base_rate, change_rate = [400.0, 410.0, 405.0, 420.0, 399.0], [430.0, 410.0, 440.0, 415.0, 450.0]
    base_p50, change_p50 = [1.30, 1.32, 1.31, 1.29, 1.33], [1.25, 1.26, 1.31, 1.20, 1.40]
    pairs = [
        pair("chain_roundtrip", 900 + i, {"ops_per_s": b, "op_p50_ms": bp},
             {"ops_per_s": c, "op_p50_ms": cp}, ("base", "change")[i % 2])
        for i, (b, c, bp, cp) in enumerate(zip(base_rate, change_rate, base_p50, change_p50))
    ]
    rows = bench_pairs.summarize(pairs, BETTER)["chain_roundtrip"]
    rate, p50 = rows["ops_per_s"], rows["op_p50_ms"]
    assert (rate["wins"], rate["losses"], rate["ties"], rate["pairs"]) == (3, 1, 1, 5)
    assert (p50["wins"], p50["losses"], p50["ties"]) == (3, 1, 1)  # lower is better here
    for row, (base, change) in ((rate, (base_rate, change_rate)), (p50, (base_p50, change_p50))):
        for side, values in (("base", base), ("change", change)):
            q1, median, q3 = np.percentile(values, [25, 50, 75])
            got = row[side]
            assert got["median"] == pytest.approx(median, rel=1e-12)
            assert got["q1"] == pytest.approx(q1, rel=1e-12)
            assert got["q3"] == pytest.approx(q3, rel=1e-12)
    assert rate["better"] == "higher" and p50["better"] == "lower"


def test_workloads_apart_and_unnamed_or_missing_metrics_left_out():
    pairs = [
        pair("a", 1, {"ops_per_s": 1.0, "extra": 5.0}, {"ops_per_s": 2.0, "extra": 6.0}),
        pair("b", 2, {"ops_per_s": 3.0, "op_p50_ms": 1.0}, {"ops_per_s": 3.0}),
    ]
    summary = bench_pairs.summarize(pairs, BETTER)
    assert set(summary) == {"a", "b"}
    assert set(summary["a"]) == {"ops_per_s"}
    assert set(summary["b"]) == {"ops_per_s"}  # the change side lacks op_p50_ms
    one = summary["a"]["ops_per_s"]
    assert one["base"] == {"median": 1.0, "q1": 1.0, "q3": 1.0}
    assert (one["wins"], one["losses"], one["ties"]) == (1, 0, 0)
    assert summary["b"]["ops_per_s"]["ties"] == 1


@pytest.mark.parametrize(
    "spec, seeds",
    [("5", [5]), ("901-903", [901, 902, 903]), ("1,3,7-9", [1, 3, 7, 8, 9])],
)
def test_seed_specs(spec, seeds):
    assert bench_pairs.seeds_of(spec) == seeds


def test_change_side_runs_from_a_copy_without_bytecode(tmp_path, monkeypatch, capsys):
    # A __pycache__ in the working tree once sped up the change side alone; both sides now
    # run from fresh copies, the change side's holding the tree's uncommitted files.
    repo, work = tmp_path / "repo", tmp_path / "work"
    pkg = repo / "src" / "pkg"
    pkg.mkdir(parents=True)
    (pkg / "mod.py").write_text("VALUE = 1\n")
    better = {"end_to_end": [{"name": "ops_per_s", "better": "higher"}]}
    (repo / "BENCHMARK.json").write_text(json.dumps(better))
    git = ["git", "-c", "user.name=bench", "-c", "user.email=bench@example.com"]
    for args in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "base"]):
        subprocess.run([*git, *args], cwd=repo, check=True)
    (pkg / "mod.py").write_text("VALUE = 2\n")
    (pkg / "new.py").write_text("")
    (pkg / "__pycache__").mkdir()
    (pkg / "__pycache__" / "mod.cpython-311.pyc").write_bytes(b"stale")
    seen = {}

    def run(checkout, workload, seed, seconds):
        seen[checkout.relative_to(work).as_posix()] = (
            sorted(p.relative_to(checkout).as_posix() for p in checkout.rglob("*")),
            (checkout / "src" / "pkg" / "mod.py").read_text(),
        )
        return {"ops_per_s": 1.0}, {"correct": True, "attempted": 1, "failed": 0}, None

    monkeypatch.setattr(bench_pairs, "ROOT", repo)
    monkeypatch.setattr(bench_pairs, "run", run)
    argv = ["--base", "HEAD", "--pr", "0", "--pairs", "w:1", "--out", str(tmp_path / "out.json"),
            "--workdir", str(work)]
    assert bench_pairs.main(argv) == 0
    tree = ["BENCHMARK.json", "src", "src/pkg", "src/pkg/mod.py"]
    assert seen == {
        "base": (tree, "VALUE = 1\n"),
        "change": (sorted([*tree, "src/pkg/new.py"]), "VALUE = 2\n"),
    }
    assert list(work.iterdir()) == []
