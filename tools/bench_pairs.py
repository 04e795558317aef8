#!/usr/bin/env python3
"""Paired benchmark runs of this tree against a base ref, summarised in one JSON file.

    python tools/bench_pairs.py --base main --pr 19 --seconds 30 \\
        --pairs chain_roundtrip:901-910 --pairs invariant_tables:911-913

For each workload and seed, ``bench/run.py --trace 0`` runs once on a copy
of this tree and once on the committed files of the base ref, unpacked
from ``git archive``, both under ``--workdir``.  The copy holds the files
that git tracks or would track, uncommitted edits included, and no
``__pycache__``, so neither side starts with compiled bytecode.  The two
runs of a pair follow each other, never overlap, and take turns at running
first.  ``BENCH_<pr>.json`` at the repository root (or ``--out``) lists
every run's end-to-end metrics and, per workload and metric, each side's
median and quartiles and the change's wins, losses and ties over the
pairs, judged by the metric's ``better`` direction in ``BENCHMARK.json``.  The file is rewritten after
every pair, so an interrupted sweep keeps the pairs it finished.  A run that exits non-zero
stops the sweep (exit code 1) with one message, also stored as ``stopped``, naming its side,
workload and seed, its exit code and the last lines of its stderr.  A run with wrong outputs
or failed ops is kept, and flagged in the pair's ``faults`` and its printed line.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUN = ["bench/run.py", "--trace", "0"]
#: How many of a failed run's last stderr lines its message quotes.
STDERR_LINES = 8


def seeds_of(spec: str) -> list:
    """The seeds of "901-910", "5" or "1,3,7-9"."""
    seeds = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def quartiles(values: list) -> dict:
    """Median and quartiles, interpolated as ``numpy.percentile`` does by default."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs: list, better: dict) -> dict:
    """Per workload and metric, each side's median and quartiles over *pairs*, and the
    change's wins, losses and ties.

    A pair is ``{"workload", "seed", "first", "base", "change"}`` with each side a mapping of
    metric name to value; *better* maps a metric name to "higher" or "lower".  Metrics that
    *better* does not name, or that a side lacks, are left out.
    """
    values = {}
    for pair in pairs:
        rows = values.setdefault(pair["workload"], {})
        for name in better:
            if name in pair["base"] and name in pair["change"]:
                rows.setdefault(name, []).append((pair["base"][name], pair["change"][name]))
    summary = {}
    for workload, rows in values.items():
        summary[workload] = {}
        for name, sides in rows.items():
            sign = 1 if better[name] == "higher" else -1
            edges = [sign * (change - base) for base, change in sides]
            summary[workload][name] = {
                "better": better[name],
                "pairs": len(sides),
                "base": quartiles([base for base, _ in sides]),
                "change": quartiles([change for _, change in sides]),
                "wins": sum(e > 0 for e in edges),
                "losses": sum(e < 0 for e in edges),
                "ties": sum(e == 0 for e in edges),
            }
    return summary


class RunFailed(Exception):
    """A ``bench/run.py`` run exited non-zero."""


def run(checkout: Path, workload: str, seed: int, seconds: float) -> tuple:
    """One ``bench/run.py`` run in *checkout*: its metric values, its outcome counts and the
    machine it reports.  A run that exits non-zero raises :class:`RunFailed` with its exit
    code and the last lines of its stderr."""
    cmd = [sys.executable, *RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode:
        tail = "".join(f"\n    {line}" for line in proc.stderr.splitlines()[-STDERR_LINES:])
        raise RunFailed(f"exit code {proc.returncode}; last stderr lines:{tail or ' (none)'}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    metrics = {k: v["value"] for k, v in result.pop("metrics").items()}
    machine = next((json.loads(line[len("# machine "):]) for line in lines
                    if line.startswith("# machine ")), None)
    return metrics, result, machine


def fault(outcome: dict) -> str | None:
    """What a run's outcome counts show wrong: wrong outputs or failed ops; None if neither."""
    faults = [] if outcome["correct"] else ["wrong outputs"]
    if outcome["failed"]:
        faults.append(f"{outcome['failed']} of {outcome['attempted']} ops failed")
    return ", ".join(faults) or None


def export(ref: str, dest: Path) -> str:
    """Unpack the committed files of *ref* into *dest*; returns the commit's hash."""
    sha = subprocess.run(["git", "rev-parse", "--verify", f"{ref}^{{commit}}"], cwd=ROOT,
                         capture_output=True, text=True, check=True).stdout.strip()
    dest.mkdir(parents=True)
    archive = subprocess.Popen(["git", "archive", sha], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait():
        raise RuntimeError(f"git archive {sha} failed")
    return sha


def copy_tree(dest: Path) -> None:
    """Copy the working tree's files, tracked or untracked but not ignored, into *dest*,
    leaving out any ``__pycache__``."""
    names = subprocess.run(["git", "ls-files", "-z", "-co", "--exclude-standard"], cwd=ROOT,
                           capture_output=True, text=True, check=True).stdout.split("\0")
    dest.mkdir(parents=True)
    for name in filter(None, names):
        source = ROOT / name
        if source.is_file() and "__pycache__" not in source.parts:  # a deleted file is listed
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, dest / name)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", required=True, help="git ref of the base side")
    p.add_argument("--pr", required=True, help="names the output BENCH_<pr>.json")
    p.add_argument("--pairs", action="append", required=True, metavar="WORKLOAD:SEEDS",
                   help="a workload and its seeds, e.g. chain_roundtrip:901-910; repeatable")
    p.add_argument("--seconds", type=float, default=30.0, help="--seconds of each run")
    p.add_argument("--out", type=Path, help="output file (default: BENCH_<pr>.json at the root)")
    p.add_argument("--workdir", type=Path, help="where the base ref is unpacked and this tree "
                   "copied (default: a temporary directory, removed at the end)")
    args = p.parse_args(argv)
    jobs = [(w, seed) for spec in args.pairs for w, _, s in [spec.partition(":")]
            for seed in seeds_of(s)]
    better = {m["name"]: m["better"]
              for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    out = args.out or ROOT / f"BENCH_{args.pr}.json"
    workdir = Path(args.workdir or tempfile.mkdtemp(prefix="bench-pairs-"))
    try:
        base_dir, change_dir = workdir / "base", workdir / "change"
        sha = export(args.base, base_dir)
        copy_tree(change_dir)
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
        doc = {
            "base": {"ref": args.base, "commit": sha},
            "change": {"tree": "copy of the working tree", "head": head},
            "command": " ".join(["python3", *RUN, "--workload W --seed S --seconds",
                                 f"{args.seconds:g}"]),
            "pairs": [],
        }
        for i, (workload, seed) in enumerate(jobs):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            checkout = {"base": base_dir, "change": change_dir}
            runs = {}
            for side in order:
                try:
                    runs[side] = run(checkout[side], workload, seed, args.seconds)
                except RunFailed as exc:
                    doc["stopped"] = f"the {side} run of {workload} seed {seed} failed: {exc}"
                    out.write_text(json.dumps(doc, indent=2) + "\n")
                    print(f"bench_pairs: {doc['stopped']}", file=sys.stderr)
                    return 1
            base, change = runs["base"][0], runs["change"][0]
            faults = {side: text for side in ("base", "change") if (text := fault(runs[side][1]))}
            doc["pairs"].append({
                "workload": workload, "seed": seed, "first": order[0],
                "base": base, "change": change,
                "outcomes": {side: runs[side][1] for side in ("base", "change")},
                "faults": faults,
            })
            doc.setdefault("machine", runs["base"][2])
            doc["summary"] = summarize(doc["pairs"], better)
            out.write_text(json.dumps(doc, indent=2) + "\n")
            print(f"{workload} seed {seed} ({order[0]} first): " + ", ".join(
                f"{name} {base[name]:.4g} -> {change[name]:.4g}"
                for name in doc["summary"][workload]) + "".join(
                f"; FAULT {side}: {text}" for side, text in faults.items()), flush=True)
    finally:
        if args.workdir is None:
            shutil.rmtree(workdir, ignore_errors=True)
        else:
            shutil.rmtree(workdir / "base", ignore_errors=True)
            shutil.rmtree(workdir / "change", ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
