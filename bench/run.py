#!/usr/bin/env python3
"""unichain benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload chain_roundtrip --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from ``src/``.
One process drives the load, one operation at a time (a closed loop with
one client), with BLAS/OpenMP threads pinned to 1 here and in every
child process.  Every output is checked against plain-numpy references.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` runs half
the time untraced and half traced, prints the per-layer metrics and
writes the spans to ``bench/out/trace-<workload>-<seed>.json``.  The last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  See bench/README.md for the metrics.
"""

from __future__ import annotations

import os

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# Pin the BLAS/OpenMP pools before numpy loads; child processes inherit it.
os.environ.update({var: "1" for var in THREAD_VARS})

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

WORKLOADS = {
    "chain_roundtrip": "recursive_param and symmetric do the work: Haar, edge-angle and palindrome chains, n 4..64",
    "invariant_tables": "invariants does the work: plaquette tables, areas, panels, sextets and textures, n 4..24",
    "cli_pipeline": "process start, import and the JSON codec dominate: CLI subprocesses with file I/O, n 4 and 16",
}

#: name -> (unit, better, bound as a share of the parent's median)
END_TO_END = {
    "ops_per_s": ("ops/s", "higher", 0.2),
    "op_p50_ms": ("ms", "lower", 0.2),
    "op_p90_ms": ("ms", "lower", 0.2),
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
}

#: Each end-to-end run completes at least this many ops, so ten lie beyond p90.
MIN_OPS = 100
SETUP_REPS = 11

SETUP_CHILD = """\
import time
t0 = time.perf_counter()
import unichain as uc
{cold}
print(time.perf_counter() - t0)
"""


def per_layer_names() -> dict:
    """Every per-layer metric: name -> (unit, better)."""
    from tracing import LAYERS, MODULES

    out = {}
    for module, names in LAYERS.items():
        for fn in names:
            key = f"{module}.{fn}"
            out[f"{key}.calls"] = ("count", "higher")
            out[f"{key}.busy_s"] = ("s", "lower")
            out[f"{key}.p50_us"] = ("us", "lower")
            out[f"{key}.fail"] = ("count", "lower")
            if fn == "decompose":
                out[f"{key}.ok_ratio"] = ("ratio", "higher")
                out[f"{key}.edge_pass_ratio"] = ("ratio", "higher")
    for module in MODULES:
        out[f"{module}.self_s"] = ("s", "lower")
        out[f"{module}.share"] = ("ratio", "lower")
    for cmd in ("gen", "decompose", "compose", "verify", "invariants"):
        out[f"cli.{cmd}.wall_ms"] = ("ms", "lower")
        out[f"cli.{cmd}.main_ms"] = ("ms", "lower")
        out[f"cli.{cmd}.bytes_out"] = ("bytes", "lower")
    out["cli.process_start_ms"] = ("ms", "lower")
    out["trace.ops_per_s_untraced"] = ("ops/s", "higher")
    out["trace.ops_per_s_traced"] = ("ops/s", "higher")
    return out


def machine_facts() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "machine": platform.machine(),
    }


class Phase:
    """Per-op records and outcome counts of one timed phase.

    ``ops`` holds ``(start, loop_s, latency_s or None)`` per op: loop time
    covers preparing and running the op; latency only running it, and is
    None when the op raised.  Checking, calibration and replay time are
    outside both, so no work of the benchmark's own moves a metric as the
    program gets faster.
    """

    def __init__(self, kernel_name: str = "compute"):
        self.ops = []
        self.attempted = self.completed = self.passed = self.refused = self.wrong = 0
        self.errors = {}
        self.speed = speed.Speed(kernel_name)

    @property
    def failed(self) -> int:
        return self.refused + self.wrong

    def record(self, outcome: str, label: str | None):
        self.attempted += 1
        if outcome == "ok":
            self.passed += 1
        elif outcome == "refused":
            self.refused += 1
        else:
            self.wrong += 1
        if label:
            self.errors[label] = self.errors.get(label, 0) + 1

    def rate(self) -> float:
        """Passed ops per second of loop time, as measured."""
        return self.passed / sum(op[1] for op in self.ops)

    def scaled(self) -> tuple:
        """Ops per second and latencies (ms), scaled to the nominal machine speed."""
        f = self.speed.factors([op[0] for op in self.ops])
        wall = sum(op[1] * fi for op, fi in zip(self.ops, f))
        lat = [op[2] * fi * 1e3 for op, fi in zip(self.ops, f) if op[2] is not None]
        return self.passed / wall, lat


def run_op(wl, i: int, lib, phase: Phase, replay: bool = False, prepare=None):
    start = time.perf_counter()
    op = (prepare or wl.prepare)(i)
    t0 = time.perf_counter()
    try:
        with lib.span(f"op.{op.kind}", op=i, n=op.n):
            out = wl.call(op, lib)
    except Exception as exc:  # the op failed; count it and go on with the next one
        phase.ops.append((start, time.perf_counter() - start, None))
        phase.record("refused", f"{op.kind}:{type(exc).__name__}")
        return
    end = time.perf_counter()
    latency = end - t0
    phase.completed += 1
    try:
        outcome = wl.check(op, out)
        label = None if outcome == "ok" else f"{op.kind}:{outcome}"
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        outcome, label = "wrong", f"{op.kind}:check:{type(exc).__name__}"
    phase.ops.append((start, end - start, latency))
    phase.record(outcome, label)
    if replay and outcome == "ok":
        wl.replay(op, latency, lib)


def run_phase(wl, lib, seconds: float, min_ops: int, replay: bool = False) -> Phase:
    """Closed loop: the next op starts when the previous one has been checked.

    The phase ends on a cycle boundary, so every run measures the same op
    mix and percentiles do not move with where the clock cut a cycle.
    """
    phase = Phase(wl.SPEED_KERNEL)
    cap = max(seconds, 120.0)
    t0 = time.perf_counter()
    i = 0
    while True:
        elapsed = time.perf_counter() - t0
        done = elapsed >= seconds and phase.completed >= min_ops and wl.cycle_start(i)
        if done or elapsed >= cap:
            break
        phase.speed.maybe_sample()
        run_op(wl, i, lib, phase, replay)
        i += 1
    phase.speed.sample()
    return phase


def run_probes(wl, lib) -> Phase:
    """The workload's defect probes, once each, after the timed phases.

    A probe feeds the program an input it is known to mishandle, so its
    failures show the defect; they are reported apart from the
    workload's operations and move no end-to-end metric.
    """
    probes = Phase()
    for j in range(wl.PROBES):
        run_op(wl, j, lib, probes, prepare=wl.probe)
    return probes


def measure_setup(wl, seed: int, env: dict, cwd: Path, reps: int) -> tuple:
    """Median over fresh interpreters of import unichain + one cold op.

    Returns (scaled, measured) seconds.  The kernel is timed three times
    before each child and after the last, and each child's time is scaled
    by the samples nearest it.
    """
    import numpy as np

    code = SETUP_CHILD.format(cold=wl.cold_op.format(seed=seed))
    calib = speed.Speed()
    starts, times = [], []
    for _ in range(reps):
        for _ in range(3):
            calib.sample()
        starts.append(time.perf_counter())
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, cwd=cwd, capture_output=True, text=True,
            timeout=120, check=True,
        )
        times.append(float(proc.stdout.split()[-1]))
    for _ in range(3):
        calib.sample()
    scaled = np.array(times) * calib.factors(starts)
    return float(np.median(scaled)), float(np.median(times))


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def end_to_end(wl, args, env: dict, workdir: Path, lib) -> tuple:
    """Set-up time, then one untraced phase; returns (phases, metrics)."""
    import numpy as np

    setup, setup_measured = measure_setup(wl, args.seed, env, workdir, SETUP_REPS)
    for i in wl.warmup_ops:
        run_op(wl, i, lib, Phase())
    phase = run_phase(wl, lib, args.seconds, MIN_OPS)
    rate, lat = phase.scaled()
    raw = [op[2] * 1e3 for op in phase.ops if op[2] is not None]
    p50, p90 = np.percentile(lat, [50, 90]) if lat else (0.0, 0.0)
    if raw:
        print(f"# as measured, before speed scaling: ops_per_s {phase.rate():.6g}, "
              f"op_p50_ms {np.percentile(raw, 50):.6g}, op_p90_ms {np.percentile(raw, 90):.6g}, "
              f"setup_s {setup_measured:.6g}; {wl.SPEED_KERNEL} kernel median "
              f"{phase.speed.median_s() * 1e3:.4g} ms (nominal {phase.speed.nominal_s * 1e3:.4g} ms)")
    return [phase], {
        "ops_per_s": (rate, "ops/s"),
        "op_p50_ms": (float(p50), "ms"),
        "op_p90_ms": (float(p90), "ms"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (peak_rss_mb(args.workload == "cli_pipeline"), "MB"),
    }


def traced(wl, args, facts: dict, lib) -> tuple:
    """Half the time untraced, half traced; writes the span file; returns (phases, metrics)."""
    import tracing

    for i in wl.warmup_ops:
        run_op(wl, i, lib, Phase())
    plain = run_phase(wl, lib, args.seconds / 2, 0)
    tracer = tracing.Tracer()
    spanned = run_phase(wl, tracing.Layers(tracer), args.seconds / 2, 0, replay=hasattr(wl, "replay"))
    metrics, per_n, layers = tracing.summarize(tracer.spans)
    if hasattr(wl, "layer_metrics"):
        metrics.update(wl.layer_metrics())
    rate = (plain.scaled()[0], spanned.scaled()[0])
    metrics["trace.ops_per_s_untraced"] = (rate[0], "ops/s")
    metrics["trace.ops_per_s_traced"] = (rate[1], "ops/s")
    names = per_layer_names()
    metrics = {k: metrics.get(k, (0.0, unit)) for k, (unit, _) in names.items()}
    path = OUT / f"trace-{args.workload}-{args.seed}.json"
    path.write_text(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "machine": facts,
        "ops": {"untraced": plain.attempted, "traced": spanned.attempted},
        "overhead": {"ops_per_s_untraced": rate[0], "ops_per_s_traced": rate[1],
                     "slowdown": rate[0] / rate[1] - 1 if rate[1] else None},
        "layers": layers,
        "per_n": per_n,
        "span_fields": ["name", "start_s", "end_s", "parent", "op", "n", "failed"],
        "spans": tracer.spans,
    }) + "\n")
    print(f"# spans and per-layer summary written to {path.relative_to(ROOT)}")
    for m, row in layers.items():
        if isinstance(row, dict):
            print(f"# layer {m}: self {row['self_s']:.4f} s, share {row['share']:.3f}")
    print(f"# tracing overhead: {rate[0]:.3f} ops/s untraced vs {rate[1]:.3f} traced")
    return [plain, spanned], metrics


def report(args, phases: list, probes: Phase, metrics: dict):
    """Print the # lines, then the result object as the last line."""
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    wrong = sum(p.wrong for p in phases)
    errors = {}
    for p in phases:
        for k, v in p.errors.items():
            errors[k] = errors.get(k, 0) + v
    print(f"# {args.workload} seed {args.seed}: {attempted} ops attempted, "
          f"{sum(p.completed for p in phases)} completed (latency samples), "
          f"{sum(p.passed for p in phases)} passed, {failed} failed "
          f"({wrong} wrong outputs); failures by kind {json.dumps(errors, sort_keys=True)}")
    print(f"# error_rate {failed / max(attempted, 1):.6f} ratio (failed / attempted)")
    if probes.attempted:
        print(f"# defect probes (not operations of the workload): {probes.attempted} run, "
              f"{probes.passed} passed, {probes.failed} failed "
              f"({probes.refused} refused, {probes.wrong} wrong outputs); "
              f"failures by kind {json.dumps(probes.errors, sort_keys=True)}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "unichain" / "__init__.py").is_file():
        print(f"run.py: no unichain package under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import unichain

    if Path(unichain.__file__).resolve().parent != SRC / "unichain":
        print(f"run.py: imported unichain from {unichain.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import tracing
    import workloads

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload == "cli_pipeline":
            wl = workloads.CliPipeline(args.seed, workdir, env)
        elif args.workload == "chain_roundtrip":
            wl = workloads.ChainRoundtrip(args.seed)
        else:
            wl = workloads.InvariantTables(args.seed)
        facts = machine_facts()
        print("# machine " + json.dumps(facts))
        if args.trace == 0:
            phases, metrics = end_to_end(wl, args, env, workdir, tracing.Layers())
        else:
            phases, metrics = traced(wl, args, facts, tracing.Layers())
        probes = run_probes(wl, tracing.Layers())
        if args.trace == 1:
            ratio = probes.passed / probes.attempted if probes.attempted else 0.0
            metrics["recursive_param.decompose.edge_pass_ratio"] = (ratio, "ratio")
        report(args, phases, probes, metrics)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
