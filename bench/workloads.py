"""The three benchmark workloads.

Each workload turns an operation index into inputs (``prepare``), runs
one operation against unichain (``call``, the only timed part), and
checks the output against plain-numpy references (``check``).  Inputs
depend only on the run seed and the operation index, so a seed fixes
the whole sequence and a traced phase replays the untraced one.

``check`` returns ``"ok"``, ``"refused"`` (the program declined a valid
input: it raised, or exited with an error code) or ``"wrong"`` (it
returned an output that fails its reference check).
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import time
from itertools import combinations
from pathlib import Path

import numpy as np

import reference as ref

#: decompose's default unitarity tolerance; round trips must hold to 10x it.
TOL = 1e-10
ROUND_TRIP = 10 * TOL


def op_rng(seed: int, *ids: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64([seed, *ids]))


class Op:
    __slots__ = ("kind", "n", "data")

    def __init__(self, kind: str, n: int, **data):
        self.kind, self.n, self.data = kind, n, data


def _canonical_chain_ok(x, n: int, ks, thetas, chars, alpha, beta) -> bool:
    """An ascending, canonical-gauge chain whose plain-numpy product is x."""
    if list(ks) != list(range(2, n + 1)):
        return False
    lasts = np.array([c[-1] for c in chars])
    if np.any(lasts.imag != 0) or np.any(lasts.real < 0) or chars[0][0] != 1:
        return False
    return ref.max_abs(ref.chain_matrix(thetas, chars, alpha, beta) - x) <= ROUND_TRIP


class Workload:
    """What the runner needs beyond prepare, call and check."""

    #: How many defect probes (``probe(j)``, j < PROBES) run after the
    #: timed phase.  They probe a known defect, so they are reported on
    #: their own and are not operations of the workload.
    PROBES = 0
    #: The speed.KERNELS entry whose drift tracks the workload's ops.
    SPEED_KERNEL = "compute"
    #: Index of the first op of the first cycle; ``cycle`` is set per instance.
    first = 0

    def cycle_start(self, i: int) -> bool:
        """True when op i begins a whole cycle of the workload's op mix."""
        return i >= self.first and (i - self.first) % self.cycle == 0


class ChainRoundtrip(Workload):
    """haar_random -> decompose -> reorder_chain -> gauge_fix -> compose.

    n cycles over SIZES; one in eight blocks of operations builds a
    symmetric palindrome instead.  The defect probes decompose
    parameter-built chains with edge angles and exact-zero components,
    the same way, with n cycling over SIZES.
    """

    name = "chain_roundtrip"
    PROBES = 8 * 5
    cold_op = (
        "x = uc.haar_random(8, {seed}); d = uc.decompose(x); "
        "uc.compose(uc.gauge_fix(uc.reorder_chain(d, range(2, 9))))"
    )
    SIZES = (4, 8, 16, 32, 64)
    PATTERN = ("haar", "haar", "haar", "sym", "haar", "haar", "haar", "haar")
    EDGE_ANGLES = (0.0, *(10.0**-e for e in range(12, 2, -1)), math.pi / 2 - 1e-9, math.pi / 2)

    def __init__(self, seed: int):
        self.seed = seed
        self.warmup_ops = (0, len(self.SIZES), 3 * len(self.SIZES))
        self.cycle = len(self.SIZES) * len(self.PATTERN)

    def prepare(self, i: int) -> Op:
        n = self.SIZES[i % len(self.SIZES)]
        kind = self.PATTERN[(i // len(self.SIZES)) % len(self.PATTERN)]
        rng = op_rng(self.seed, i)
        if kind == "haar":
            return Op(kind, n, seed=int(rng.integers(2**31)))
        chars = tuple(rng.standard_normal(k - 1) for k in range(2, n + 1))
        chars = tuple(v / np.linalg.norm(v) for v in chars)
        return Op(kind, n, thetas=tuple(rng.uniform(0.1, 1.4, n - 1)), chars=chars)

    def probe(self, j: int) -> Op:
        """An edge chain: angles from EDGE_ANGLES, some components exactly zero."""
        n = self.SIZES[j % len(self.SIZES)]
        rng = op_rng(self.seed, 1, j)
        thetas = rng.choice(self.EDGE_ANGLES, n - 1)
        chars = []
        for k in range(2, n + 1):
            v = ref.random_unit(rng, k - 1)
            zero = rng.random(k - 1) < 1 / 3
            zero[rng.integers(k - 1)] = False
            v[zero] = 0.0
            chars.append(v / np.linalg.norm(v))
        alpha, beta = rng.uniform(-math.pi, math.pi, (2, n))
        return Op("edge", n, x=ref.chain_matrix(thetas, chars, alpha, beta))

    def call(self, op: Op, lib):
        if op.kind == "sym":
            from unichain.symmetric import SymmetricParams

            return lib.compose_symmetric(SymmetricParams(op.n, op.data["thetas"], op.data["chars"]))
        x = lib.haar_random(op.n, op.data["seed"]) if op.kind == "haar" else op.data["x"]
        d = lib.decompose(x)
        d = lib.gauge_fix(lib.reorder_chain(d, range(2, op.n + 1)))
        return x, d, lib.compose(d)

    def check(self, op: Op, out) -> str:
        if op.kind == "sym":
            expect = ref.palindrome(op.data["thetas"], op.data["chars"])
            good = (
                ref.max_abs(out - out.T) <= 1e-12
                and ref.unitarity_defect(out) <= 1e-11
                and ref.max_abs(out - expect) <= 1e-10
            )
        else:
            x, d, y = out
            fs = d.factors
            good = ref.max_abs(y - x) <= ROUND_TRIP and _canonical_chain_ok(
                x, op.n, [f.order_k for f in fs], [f.theta for f in fs], [f.char for f in fs],
                d.left_phases, d.right_phases,
            )
        return "ok" if good else "wrong"


class InvariantTables(Workload):
    """plaquette_table, triangle_areas and panel_lattice of one matrix per op.

    Each op also checks rephasing invariance with a second table and
    reduces three sextets.  n = 4 ops add the panel relations, the basis
    solve and the closed forms, and every other n = 4 op is a two-zero
    texture analysed by zero_texture_analysis.
    """

    name = "invariant_tables"
    cold_op = "x = uc.haar_random(4, {seed}); uc.plaquette_table(x); uc.triangle_areas(x); uc.panel_lattice(x)"
    # One op in five below n = 16, three at n = 16 and one at n = 24: the
    # median falls in the middle of the n = 16 ops and p90 in the middle of
    # the n = 24 ops, never on the tenfold step between two sizes.
    SIZES = (4, 16, 16, 24, 16, 8, 16, 16, 24, 16)
    #: Tables of at most this many entries are checked whole; larger ones
    #: on the first and last entry and CHECK_SAMPLE seeded others per op.
    CHECK_ALL = 1000
    CHECK_SAMPLE = 256

    def __init__(self, seed: int):
        self.seed = seed
        self.warmup_ops = (0, len(self.SIZES))
        self.cycle = 2 * len(self.SIZES)
        self._keys = {}

    def prepare(self, i: int) -> Op:
        n = self.SIZES[i % len(self.SIZES)]
        texture = n == 4 and (i // len(self.SIZES)) % 2 == 1
        rng = op_rng(self.seed, i)
        triples = [
            (tuple(rng.choice(n, 3, replace=False)), tuple(rng.choice(n, 3, replace=False)))
            for _ in range(8)
        ]
        phases = rng.uniform(-math.pi, math.pi, (2, n))
        if texture:
            op = Op("texture", n, x=ref.texture_matrix(rng), triples=triples, phases=phases)
        else:
            op = Op("haar", n, seed=int(rng.integers(2**31)), triples=triples, phases=phases)
        size = (n * (n - 1) // 2) ** 2
        if size <= self.CHECK_ALL:
            op.data["sample"] = np.arange(size)
        else:
            drawn = rng.integers(size, size=self.CHECK_SAMPLE)
            op.data["sample"] = np.unique(np.concatenate([[0, size - 1], drawn]))
        return op

    def call(self, op: Op, lib):
        n = op.n
        x = op.data["x"] if op.kind == "texture" else lib.haar_random(n, op.data["seed"])
        out = {
            "x": x,
            "table": lib.plaquette_table(x),
            "areas": lib.triangle_areas(x),
            "lattice": lib.panel_lattice(x),
        }
        left, right = np.exp(1j * op.data["phases"])
        out["rephased"] = lib.plaquette_table(left[:, None] * x * right[None, :])
        sextets = []
        for rows, cols in op.data["triples"]:
            if len(sextets) == 3:
                break
            if abs(x[rows[1], cols[0]]) > 1e-6:
                one_based = (tuple(r + 1 for r in rows), tuple(c + 1 for c in cols))
                sextets.append((rows, cols, lib.reduce_sextet(x, *one_based)))
        out["sextets"] = sextets
        if op.kind == "texture":
            out["texture"] = lib.zero_texture_analysis(x)
        elif n == 4:
            out["relations"] = lib.panel_relation_residuals(x)
            out["basis"] = lib.basis_solve_n4(x)
            chain = lib.gauge_fix(lib.reorder_chain(lib.decompose(x), range(2, 5)))
            out["closed"] = lib.closed_forms_n4(chain)
        return out

    def _expected_keys(self, n: int) -> tuple:
        if n not in self._keys:
            pairs = list(combinations(range(1, n + 1), 2))
            self._keys[n] = (
                [(r, c) for r in pairs for c in pairs],
                [("rows", a, b) for a, b in pairs] + [("cols", a, b) for a, b in pairs],
            )
        return self._keys[n]

    def check(self, op: Op, out) -> str:
        n, x = op.n, out["x"]
        keys, labels = self._expected_keys(n)
        plaq = ref.plaquettes(x)
        sample = op.data["sample"]
        expect = plaq.ravel()[sample]
        good = True
        for table in (out["table"], out["rephased"]):
            good &= table.n == n and len(table) == len(keys) and list(table.keys()) == keys
            got = np.array([table.value(*keys[t]) for t in sample])
            good &= ref.max_abs(got - expect) <= 1e-12
        areas = np.array([a for _, a in out["areas"]])
        good &= [label for label, _ in out["areas"]] == labels
        good &= ref.max_abs(areas - ref.polygon_areas(x)) <= 1e-12
        good &= ref.max_abs(out["lattice"].panels - ref.panels(x)) <= 1e-12
        for rows, cols, (lhs, rhs) in out["sextets"]:
            good &= abs(lhs - rhs) <= 1e-11 and abs(lhs - ref.sextet(x, rows, cols)) <= 1e-12
        good &= len(out["sextets"]) == 3
        if "closed" in out:
            j = ref.panels(x).imag
            good &= ref.max_abs(out["relations"]) <= 1e-12
            good &= all(abs(v - j[a - 1, b - 1]) <= 1e-10 for (a, b), v in out["basis"].items())
            p34 = ref.pair_index(4, 2, 3)
            p3434, p3424 = out["closed"]
            good &= abs(p3434 - plaq[p34, p34].imag) <= 1e-12
            good &= abs(p3424 - plaq[p34, ref.pair_index(4, 1, 3)].imag) <= 1e-12
        if "texture" in out:
            rep = out["texture"]
            std = x[np.ix_([r - 1 for r in rep.row_map], [c - 1 for c in rep.col_map])]
            sp = ref.plaquettes(std).imag
            p12, p23, p34 = (ref.pair_index(4, a, a + 1) for a in range(3))
            good &= rep.vanishing_count == 19
            good &= abs(rep.J - sp[p12, p12]) <= 1e-12 and abs(rep.J_prime - sp[p34, p34]) <= 1e-12
            good &= abs(rep.J + rep.J_prime - sp[p23, p23]) <= 1e-12
            good &= abs(rep.J_prime / rep.J - rep.ratio) <= 1e-11
            good &= abs(rep.J - rep.J_closed_form) <= 1e-11
            good &= abs(rep.J_prime - rep.J_prime_closed_form) <= 1e-11
        return "ok" if good else "wrong"


def _load_matrix(path: Path):
    doc = json.loads(path.read_text())
    e = np.asarray(doc["entries"], dtype=float)
    return doc["n"], (e[:, 0] + 1j * e[:, 1]).reshape(doc["n"], doc["n"])


class CliPipeline(Workload):
    """``python -m unichain`` subprocesses with file I/O, one command per op.

    Per cycle: gen -> decompose (asc, canonical) -> compose -> verify ->
    invariants at n = 4 and again at n = 16, a repeated gen that must be
    byte-identical, and three invalid documents that must exit 1 with
    empty stdout.  Each run starts with a ~70-byte decomposition document of
    order 10**7, which must also exit 1.
    """

    name = "cli_pipeline"
    cold_op = "from unichain import cli; cli.main(['gen', '--n', '4', '--seed', '{seed}', '--out', 'cold.json'])"
    SIZES = (4, 16)
    STEPS = ("gen", "decompose", "compose", "verify", "invariants")
    INVALID = ("truncated", "entry_count", "non_unitary")
    HOSTILE = '{"n":10000000,"order":"descending","factors":[],"alpha":[],"beta":[]}'
    first = 1  # op 0 is the oversized document
    SPEED_KERNEL = "start"

    def __init__(self, seed: int, workdir: Path, env: dict):
        self.seed = seed
        self.workdir, self.env = workdir, env
        self.pipelines = len(self.SIZES) * len(self.STEPS)
        self.cycle = self.pipelines + 1 + len(self.INVALID)
        self.warmup_ops = (1,)
        self.records = []

    def _files(self, n: int) -> dict:
        return {s: self.workdir / f"{s}-{n}.json" for s in (*self.STEPS, "gen2", "replay")}

    def prepare(self, i: int) -> Op:
        rng = op_rng(self.seed, i)
        if i == 0:
            path = self.workdir / "hostile.json"
            path.write_text(self.HOSTILE)
            return Op("hostile", 0, argv=["compose", "--in", str(path)])
        cycle, slot = divmod(i - 1, self.cycle)
        gen_seed = int(op_rng(self.seed, 0, cycle).integers(2**31))
        big = self.SIZES[-1]
        if slot == self.pipelines:
            f = self._files(big)
            argv = ["gen", "--n", str(big), "--seed", str(gen_seed), "--out", str(f["gen2"])]
            return Op("gen_repeat", big, argv=argv, files=f, gen_seed=gen_seed)
        if slot > self.pipelines:
            kind = self.INVALID[slot - self.pipelines - 1]
            path = self.workdir / "invalid.json"
            path.write_text(self._invalid_doc(kind, rng))
            return Op(kind, 4, argv=["decompose", "--in", str(path)])
        n = self.SIZES[slot // len(self.STEPS)]
        step = self.STEPS[slot % len(self.STEPS)]
        f = self._files(n)
        argv = {
            "gen": ["gen", "--n", str(n), "--seed", str(gen_seed), "--out", str(f["gen"])],
            "decompose": ["decompose", "--in", str(f["gen"]), "--out", str(f["decompose"]),
                          "--order", "asc", "--gauge", "canonical"],
            "compose": ["compose", "--in", str(f["decompose"]), "--out", str(f["compose"])],
            "verify": ["verify", "--in", str(f["gen"]), "--out", str(f["verify"]),
                       "--seed", str(int(rng.integers(2**31)))],
            "invariants": ["invariants", "--in", str(f["gen"]), "--out", str(f["invariants"])],
        }[step]
        if step == "gen":
            for path in f.values():
                path.unlink(missing_ok=True)
        return Op(step, n, argv=argv, files=f, gen_seed=gen_seed)

    @staticmethod
    def _invalid_doc(kind: str, rng) -> str:
        z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        q = np.linalg.qr(z)[0].ravel()
        entries = [[float(v.real), float(v.imag)] for v in q]
        if kind == "entry_count":
            entries.pop()
        if kind == "non_unitary":
            entries[int(rng.integers(16))][0] += 0.01
        text = json.dumps({"n": 4, "entries": entries})
        return text[: len(text) // 2] if kind == "truncated" else text

    def call(self, op: Op, lib):
        with lib.span(f"cli.{op.kind}"):
            return subprocess.run(
                [sys.executable, "-m", "unichain", *op.data["argv"]],
                env=self.env, cwd=self.workdir, capture_output=True, timeout=120,
            )

    def check(self, op: Op, proc) -> str:
        valid = op.kind in self.STEPS or op.kind == "gen_repeat"
        if not valid:
            if proc.returncode == 0:
                return "wrong"
            return "ok" if proc.returncode == 1 and proc.stdout == b"" else "wrong"
        if proc.returncode != 0:
            return "refused"
        n, f = op.n, op.data["files"]
        try:
            return "ok" if self._output_ok(op.kind, n, f) else "wrong"
        except (OSError, KeyError, TypeError, ValueError, IndexError):
            return "wrong"

    def _output_ok(self, kind: str, n: int, f: dict) -> bool:
        if kind == "gen_repeat":
            return f["gen2"].read_bytes() == f["gen"].read_bytes()
        size, x = _load_matrix(f["gen"])
        if kind == "gen":
            return size == n and ref.unitarity_defect(x) <= 1e-12
        if kind == "compose":
            return ref.max_abs(_load_matrix(f["compose"])[1] - x) <= ROUND_TRIP
        doc = json.loads(f[kind].read_text())
        if kind == "verify":
            return doc["n"] == n and doc["ok"] is True
        if kind == "decompose":
            fs = doc["factors"]
            chars = [np.array([complex(re, im) for re, im in fd["char"]]) for fd in fs]
            return doc["n"] == n and doc["order"] == "ascending" and _canonical_chain_ok(
                x, n, [fd["k"] for fd in fs], [fd["theta"] for fd in fs], chars,
                doc["alpha"], doc["beta"],
            )
        m = n * (n - 1) // 2
        plaq = ref.plaquettes(x).ravel()
        rows = doc["plaquettes"]
        got = np.array([p["re"] + 1j * p["im"] for p in rows])
        areas = np.array([a["area"] for a in doc["triangle_areas"]])
        return (
            doc["n"] == n
            and len(rows) == m * m
            and ref.max_abs(got - plaq) <= 1e-12
            and len(areas) == 2 * m
            and ref.max_abs(areas - ref.polygon_areas(x)) <= 1e-12
        )

    def replay(self, op: Op, latency: float, lib):
        """Re-run a valid command in-process, timing its calls into the layers.

        ``cli.main`` with the same flags (output to a scratch file) gives
        the command's in-process time; the difference to the subprocess
        wall time is process start and import.  While it runs, the calls
        ``cli`` makes into the layers go through the tracer, so the
        per-function spans are the command's own codec and compute calls.
        """
        from unichain import cli

        if op.kind not in (*self.STEPS, "gen_repeat"):
            return
        cmd = "gen" if op.kind == "gen_repeat" else op.kind
        argv = list(op.data["argv"])
        out_path = Path(argv[argv.index("--out") + 1])
        argv[argv.index("--out") + 1] = str(op.data["files"]["replay"])
        with lib.calls_from(cli), lib.span(f"replay.{cmd}"):
            t0 = time.perf_counter()
            cli.main(argv)
            main = time.perf_counter() - t0
        self.records.append((cmd, latency, main, out_path.stat().st_size))

    def layer_metrics(self) -> dict:
        out = {}
        for cmd in self.STEPS:
            rows = [r for r in self.records if r[0] == cmd]
            wall = [r[1] for r in rows]
            main = [r[2] for r in rows]
            out[f"cli.{cmd}.wall_ms"] = (float(np.median(wall)) * 1e3 if rows else 0.0, "ms")
            out[f"cli.{cmd}.main_ms"] = (float(np.median(main)) * 1e3 if rows else 0.0, "ms")
            out[f"cli.{cmd}.bytes_out"] = (float(np.mean([r[3] for r in rows])) if rows else 0.0, "bytes")
        starts = [r[1] - r[2] for r in self.records]
        out["cli.process_start_ms"] = (float(np.median(starts)) * 1e3 if starts else 0.0, "ms")
        return out
