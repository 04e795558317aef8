#!/usr/bin/env python3
"""Record every stream of a fixed sweep of ``unichain`` CLI invocations, one file each.

    python tools/cli_bytes.py OUTDIR [--src DIR]

Runs ``python -m unichain`` with the package found in DIR (default: this
repository's ``src``) and writes, for each invocation NAME, the files
``NAME.stdout``, ``NAME.stderr`` and ``NAME.code`` (the exit code), plus
``NAME.out`` when the invocation writes an ``--out`` file.  ``INDEX`` lists
every invocation with its exit code and arguments.  Commands run inside
OUTDIR on relative paths, so no stream names OUTDIR itself, and two sweeps
compare with ``diff -r``:

    python tools/cli_bytes.py /tmp/new
    python tools/cli_bytes.py /tmp/old --src /path/to/other/checkout/src
    diff -r /tmp/old /tmp/new

The sweep: ``gen`` at n in 1..8, 16 and 64 with seeds 1-3, as JSON and as
CSV; on every matrix ``decompose`` (descending, ascending, canonical gauge),
``compose`` of each chain (JSON and CSV), ``reorder`` of the ascending chain
into descending and a mixed order, ``panel``, ``verify`` and
``zerotexture``, and ``invariants`` up to n = 16 (at n = 64 it writes
4 064 256 plaquettes) on the matrix and on the canonical chain; two-zero textures; symmetric parameter sets through ``symmetric``
and ``compose``; and documents that must exit 1 (non-numbers, non-lists,
malformed or deeply nested JSON, a matrix one entry short, chains and symmetric parameters
of order 10**7 with no factors or angles, a matrix and a chain of order 0, symmetric
parameters of order 1, a chain over the plaquette-table cap, documents of the wrong kind for
their command, ``zerotexture`` at n = 5, ``panel`` on a non-unitary 1-by-1 matrix, reorder
targets with a repeated order or of the wrong length, bad flags, ``gen`` orders 0 and -3,
negative seeds of ``gen`` and ``verify``, tolerances that are not finite or are negative) or
2 (``verify`` at a tolerance below rounding).  OUTDIR must be empty or new.  The 546
invocations run two at a time and take under two minutes on two cores.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIZES = (1, 2, 3, 4, 5, 6, 7, 8, 16, 64)
SEEDS = (1, 2, 3)
#: Largest order whose plaquette document the sweep writes.
MAX_INVARIANTS_N = 16

_CHAIN = {
    "n": 2, "order": "descending", "factors": [{"k": 2, "theta": 0.5, "char": [[1, 0]]}],
    "alpha": [0, 0], "beta": [0, 0],
}
_SYMMETRIC = {"n": 3, "thetas": [1, 2], "chars": [[1], [0.6, 0.8]], "half_angle": True}


def _factor(theta, char) -> dict:
    return {**_CHAIN, "factors": [{"k": 2, "theta": theta, "char": char}]}


def _eye(n: int) -> dict:
    return {"n": n, "entries": [[float(i == j), 0.0] for i in range(n) for j in range(n)]}


#: Order 10**7 with no factors, and no angles: refused by the count, before any allocation.
_HOSTILE_CHAIN = {"n": 10**7, "order": "descending", "factors": [], "alpha": [], "beta": []}
_HOSTILE_SYMMETRIC = {"n": 10**7, "thetas": [], "chars": []}
#: A well-formed ascending chain of order 65, over the plaquette-table cap.
_CHAIN_65 = {
    "n": 65, "order": "ascending", "alpha": [0.0] * 65, "beta": [0.0] * 65,
    "factors": [{"k": k, "theta": 0.0, "char": [[0.0, 0.0]] * (k - 2) + [[1.0, 0.0]]}
                for k in range(2, 66)],
}

#: (name, command and flags, document): documents every reader must refuse with exit 1.
INVALID = [
    ("matrix-string-entries", "decompose", {"n": 2, "entries": [["1", 0], [0, 0], [0, 0], [1, 0]]}),
    ("matrix-bool-entries", "decompose", {"n": 2, "entries": [[True, 0], [0, 0], [0, 0], [1, 0]]}),
    ("matrix-huge-int", "decompose", {"n": 1, "entries": [[1, 10**400]]}),
    ("matrix-float-order", "decompose", {"n": 1.0, "entries": [[1, 0]]}),
    ("chain-string-theta", "compose", _factor("0.5", [[1, 0]])),
    ("chain-string-char", "compose", _factor(0.5, [["1", 0]])),
    ("chain-bool-char", "compose", _factor(0.5, [[True, 0]])),
    ("chain-string-alpha", "compose", {**_CHAIN, "alpha": "00"}),
    ("chain-bool-beta", "compose", {**_CHAIN, "beta": [0, True]}),
    ("sym-string-half-angle", "symmetric", {**_SYMMETRIC, "half_angle": "false"}),
    ("sym-int-half-angle", "symmetric", {**_SYMMETRIC, "half_angle": 0}),
    ("sym-string-thetas", "symmetric", {**_SYMMETRIC, "thetas": "12"}),
    ("sym-string-char", "symmetric", {**_SYMMETRIC, "chars": [[1], "10"]}),
    ("sym-bool-char", "compose", {**_SYMMETRIC, "chars": [[1], [False, 1]]}),
    ("chain-hostile", "compose", _HOSTILE_CHAIN),
    ("chain-hostile-reorder", "reorder --target 2,3", _HOSTILE_CHAIN),
    ("chain-hostile-invariants", "invariants", _HOSTILE_CHAIN),
    ("chain-n65-invariants", "invariants", _CHAIN_65),
    ("sym-hostile", "symmetric", _HOSTILE_SYMMETRIC),
    ("sym-hostile-compose", "compose", _HOSTILE_SYMMETRIC),
    ("matrix-to-reorder", "reorder --target 2", _eye(2)),
    ("matrix-to-symmetric", "symmetric", _eye(2)),
    ("matrix-to-compose", "compose", _eye(2)),
    ("sym-to-invariants", "invariants", _SYMMETRIC),
    ("matrix-n5-zerotexture", "zerotexture", _eye(5)),
    ("matrix-order-0", "decompose", {"n": 0, "entries": []}),
    ("chain-order-0", "compose", {**_HOSTILE_CHAIN, "n": 0}),
    ("sym-order-1", "symmetric", {"n": 1, "thetas": [], "chars": []}),
    ("chain-reorder-target-length", "reorder --target 2,3", _CHAIN),
    ("matrix-n1-non-unitary-panel", "panel", {"n": 1, "entries": [[2, 0]]}),
    ("verify-seed-negative", "verify --seed -1", _eye(2)),
]


def _pairs(zs) -> list:
    return [[z.real, z.imag] for z in zs]


def texture_chain(t2: float, t3: float, t4: float, phi: float, psi: float) -> dict:
    """An ascending n = 4 chain whose matrix has exact zeros at (3, 4) and (4, 3): the order-4
    vector is e^{i psi} (conj x2, -conj x1, 0) for the order-3 vector x = (cos phi, i sin phi)."""
    x1, x2 = complex(math.cos(phi), 0.0), complex(0.0, math.sin(phi))
    turn = complex(math.cos(psi), math.sin(psi))
    y = [turn * z for z in (x2.conjugate(), -x1.conjugate(), 0j)]
    return {
        "n": 4, "order": "ascending",
        "factors": [
            {"k": 2, "theta": t2, "char": [[1.0, 0.0]]},
            {"k": 3, "theta": t3, "char": _pairs([x1, x2])},
            {"k": 4, "theta": t4, "char": _pairs(y)},
        ],
        "alpha": [0.0] * 4, "beta": [0.0] * 4,
    }


def symmetric_params(n: int, half_angle: bool) -> dict:
    """Fixed angles and real unit vectors for the palindrome of order *n*."""
    chars = []
    for k in range(2, n + 1):
        v = [math.cos(0.3 * k + i) for i in range(k - 1)]
        norm = math.sqrt(sum(c * c for c in v))
        chars.append([c / norm for c in v])
    thetas = [0.2 + 0.17 * k for k in range(2, n + 1)]
    return {"n": n, "thetas": thetas, "chars": chars, "half_angle": half_angle}


def stages() -> tuple:
    """The documents to write first, and the sweep as stages of (name, argv, stdin): stdin is
    None, a text, or "@" and a file name.  A stage reads only files that earlier stages wrote."""
    first, second, third = [], [], []
    for n in SIZES:
        for seed in SEEDS:
            m, gen = f"gen-n{n}-s{seed}", ["gen", "--n", str(n), "--seed", str(seed)]
            csv = [*gen, "--format", "csv", "--out", f"{m}-csv.out"]
            first += [(m, gen, None), (f"{m}-csv", csv, None)]
            src = ["--in", f"{m}.stdout"]
            canon = ["decompose", "--order", "asc", "--gauge", "canonical", *src]
            second += [
                (f"{m}-desc", ["decompose", *src], None),
                (f"{m}-asc", ["decompose", "--order", "asc", *src], None),
                (f"{m}-canon", [*canon, "--out", f"{m}-canon.out"], None),
                (f"{m}-panel", ["panel", *src], None),
                (f"{m}-verify", ["verify", *src, "--seed", str(seed)], None),
                (f"{m}-zerotexture", ["zerotexture", *src], None),
            ]
            if n <= MAX_INVARIANTS_N:
                out = ["--out", f"{m}-invariants.out"]
                second.append((f"{m}-invariants", ["invariants", *out], f"@{m}.stdout"))
            for chain in (f"{m}-desc.stdout", f"{m}-asc.stdout", f"{m}-canon.out"):
                name = f"{chain.rsplit('.', 1)[0]}-compose"
                third.append((name, ["compose", "--in", chain], None))
            csv = ["compose", "--format", "csv"]
            third.append((f"{m}-canon-compose-csv", csv, f"@{m}-canon.out"))
            if n >= 2:
                mixed = random.Random(1000 * n + seed).sample(range(2, n + 1), n - 1)
                for label, target in (("todesc", range(n, 1, -1)), ("tomixed", mixed)):
                    argv = ["reorder", "--target", ",".join(map(str, target))]
                    third.append((f"{m}-asc-{label}", argv, f"@{m}-asc.stdout"))
            if n <= MAX_INVARIANTS_N:
                argv = ["invariants", "--in", f"{m}-canon.out"]
                third.append((f"{m}-canon-invariants", argv, None))
        if n in (3, 8):
            argv = ["verify", "--tol", "1e-18"]
            second.append((f"gen-n{n}-s1-verify-tight", argv, f"@gen-n{n}-s1.stdout"))

    docs = []
    textures = [(0.4, 0.7, 1.1, 0.3, 0.9), (1.2, 0.5, 0.8, -0.7, 2.1), (0.9, 1.3, 0.6, 1.0, -1.4)]
    for i, params in enumerate(textures):
        t = f"texture-{i}"
        docs.append((f"{t}-chain.json", texture_chain(*params)))
        first.append((t, ["compose", "--in", f"{t}-chain.json"], None))
        for cmd in ("zerotexture", "panel", "invariants"):
            second.append((f"{t}-{cmd}", [cmd, "--in", f"{t}.stdout"], None))
    second.append(("invalid-zerotexture-tol-nan", ["zerotexture", "--tol", "nan"],
                   "@texture-0.stdout"))
    for n in (2, 3, 4, 5):
        for half in (True, False):
            name = f"symmetric-n{n}-{'half' if half else 'full'}"
            docs.append((f"{name}.json", symmetric_params(n, half)))
            first += [
                (name, ["symmetric", "--in", f"{name}.json"], None),
                (f"{name}-compose", ["compose", "--in", f"{name}.json"], None),
            ]
    first += [(f"invalid-{name}", cmd.split(), json.dumps(doc)) for name, cmd, doc in INVALID]
    non_unitary = {"n": 2, "entries": [[1, 0], [1, 0], [0, 0], [1, 0]]}
    loose = json.dumps({"n": 2, "entries": [[1, 0], [0.5, 0], [0.2, 0], [1, 0]]})
    first += [
        (f"invalid-{cmd}-tol-{label}", [cmd, "--tol", value], loose)
        for cmd, label, value in (("decompose", "inf", "inf"), ("decompose", "nan", "nan"),
                                  ("decompose", "negative", "-1"), ("verify", "inf", "inf"))
    ]
    first += [
        ("invalid-malformed-json", ["decompose"], '{"n": 2, "entries": [[1, 0]'),
        ("invalid-matrix-one-short", ["decompose"], '{"n": 2, "entries": [[1, 0], [0, 0], [0, 0]]}'),
        ("invalid-nested-json", ["compose"], "[" * 200_000 + "]" * 200_000),
        ("invalid-missing-input", ["decompose", "--in", "missing.json"], None),
        ("invalid-unwritable-out", ["gen", "--n", "2", "--seed", "1", "--out", "missing/x"], None),
        ("invalid-bad-flag", ["gen", "--n", "2"], None),
        ("invalid-gen-order-0", ["gen", "--n", "0", "--seed", "1"], None),
        ("invalid-gen-order-negative", ["gen", "--n", "-3", "--seed", "1"], None),
        ("invalid-gen-seed-negative", ["gen", "--n", "2", "--seed", "-1"], None),
        ("invalid-reorder-target", ["reorder", "--target", "2,2"], json.dumps(_CHAIN)),
        ("verify-non-unitary", ["verify"], json.dumps(non_unitary)),
        ("help", ["--help"], None),
    ]
    return docs, [first, second, third]


def run(outdir: Path, src: Path, item) -> tuple:
    """Run one invocation in *outdir* and record its streams; returns (name, code, argv)."""
    name, argv, stdin = item
    if stdin is not None:
        stdin = (outdir / stdin[1:]).read_bytes() if stdin.startswith("@") else stdin.encode()
    # PYTHONPATH picks the package; argparse wraps --help to COLUMNS.
    env = {**os.environ, "PYTHONPATH": str(src), "COLUMNS": "80"}
    res = subprocess.run(
        [sys.executable, "-m", "unichain", *argv],
        input=stdin, capture_output=True, cwd=outdir, env=env,
    )
    (outdir / f"{name}.stdout").write_bytes(res.stdout)
    (outdir / f"{name}.stderr").write_bytes(res.stderr)
    (outdir / f"{name}.code").write_text(f"{res.returncode}\n")
    return name, res.returncode, argv


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("outdir", type=Path, help="directory for the recorded streams")
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="directory of the package")
    args = parser.parse_args(argv)
    outdir, src = args.outdir.resolve(), args.src.resolve()
    outdir.mkdir(parents=True, exist_ok=True)
    if any(outdir.iterdir()):
        parser.error(f"{outdir} is not empty")
    docs, sweep = stages()
    for name, doc in docs:
        (outdir / name).write_text(json.dumps(doc, indent=2) + "\n")
    index = []
    with ThreadPoolExecutor(max_workers=2) as pool:
        for stage in sweep:
            index += pool.map(lambda item: run(outdir, src, item), stage)
    lines = [f"{name} {code} {' '.join(a)}\n" for name, code, a in index]
    (outdir / "INDEX").write_text("".join(lines))
    print(f"{len(index)} invocations recorded in {outdir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
