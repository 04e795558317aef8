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


def _committed_repo(tmp_path, monkeypatch):
    """A git repository with one commit holding src/pkg/mod.py and BENCHMARK.json, made the
    tool's root."""
    repo = tmp_path / "repo"
    pkg = repo / "src" / "pkg"
    pkg.mkdir(parents=True)
    (pkg / "mod.py").write_text("VALUE = 1\n")
    better = {"end_to_end": [{"name": "ops_per_s", "better": "higher"}]}
    (repo / "BENCHMARK.json").write_text(json.dumps(better))
    git = ["git", "-c", "user.name=bench", "-c", "user.email=bench@example.com"]
    for args in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "base"]):
        subprocess.run([*git, *args], cwd=repo, check=True)
    monkeypatch.setattr(bench_pairs, "ROOT", repo)
    return repo


def test_change_side_runs_from_a_copy_without_bytecode(tmp_path, monkeypatch, capsys):
    # A __pycache__ in the working tree once sped up the change side alone; both sides now
    # run from fresh copies, the change side's holding the tree's uncommitted files.
    repo, work = _committed_repo(tmp_path, monkeypatch), tmp_path / "work"
    pkg = repo / "src" / "pkg"
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


def test_failed_run_raises_with_exit_code_and_last_stderr_lines(monkeypatch):
    stderr = "".join(f"line {i}\n" for i in range(20))

    def fake_run(cmd, **kwargs):
        return subprocess.CompletedProcess(cmd, 3, stdout="", stderr=stderr)

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    with pytest.raises(bench_pairs.RunFailed) as info:
        bench_pairs.run(Path("."), "cli_pipeline", 7, 1.0)
    message = str(info.value)
    assert message.startswith("exit code 3; last stderr lines:")
    assert message.endswith("".join(f"\n    line {i}" for i in range(12, 20)))
    assert "line 11" not in message


def _outcome(correct=True, failed=0):
    return {"correct": correct, "attempted": 10, "failed": failed}


def test_failed_run_stops_the_sweep_naming_its_side(tmp_path, monkeypatch, capsys):
    # A run that failed once ended the sweep with a CalledProcessError traceback that did not
    # say which side failed.
    _committed_repo(tmp_path, monkeypatch)
    calls = []

    def run(checkout, workload, seed, seconds):
        calls.append((checkout.name, seed))
        if (checkout.name, seed) == ("base", 2):
            raise bench_pairs.RunFailed("exit code 1; last stderr lines:\n    boom")
        return {"ops_per_s": 1.0}, _outcome(), None

    monkeypatch.setattr(bench_pairs, "run", run)
    out = tmp_path / "out.json"
    argv = ["--base", "HEAD", "--pr", "0", "--pairs", "w:1-3", "--out", str(out)]
    assert bench_pairs.main(argv) == 1
    # pair 2 runs the change side first; pair 3 never runs
    assert calls == [("base", 1), ("change", 1), ("change", 2), ("base", 2)]
    message = "the base run of w seed 2 failed: exit code 1; last stderr lines:\n    boom"
    assert capsys.readouterr().err == f"bench_pairs: {message}\n"
    doc = json.loads(out.read_text())
    assert doc["stopped"] == message
    assert [pair["seed"] for pair in doc["pairs"]] == [1]


def test_wrong_outputs_and_failed_ops_are_flagged(tmp_path, monkeypatch, capsys):
    _committed_repo(tmp_path, monkeypatch)
    outcomes = {("base", 1): _outcome(correct=False), ("change", 2): _outcome(failed=3)}

    def run(checkout, workload, seed, seconds):
        return {"ops_per_s": 1.0}, outcomes.get((checkout.name, seed), _outcome()), None

    monkeypatch.setattr(bench_pairs, "run", run)
    out = tmp_path / "out.json"
    argv = ["--base", "HEAD", "--pr", "0", "--pairs", "w:1-3", "--out", str(out)]
    assert bench_pairs.main(argv) == 0
    faults = [pair["faults"] for pair in json.loads(out.read_text())["pairs"]]
    assert faults == [{"base": "wrong outputs"}, {"change": "3 of 10 ops failed"}, {}]
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].endswith("; FAULT base: wrong outputs")
    assert lines[1].endswith("; FAULT change: 3 of 10 ops failed")
    assert "FAULT" not in lines[2]
