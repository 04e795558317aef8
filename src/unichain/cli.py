"""Command-line front end.

Subcommands operate on JSON files (matrices, factor chains, symmetric
parameters, reports); stdout carries data, stderr carries diagnostics, so
commands compose in pipelines:

    unichain gen --n 4 --seed 7 | unichain decompose | unichain compose

Exit codes: 0 success, 1 validation error (bad flags; malformed, oversized
or wrong-kind documents, refused by :func:`_read` before numpy loads;
violated preconditions), 2 numeric-consistency failure (a residual above
tolerance).  Output is deterministic: keys are emitted in a fixed order
and numbers in shortest round-trip decimal form, so identical inputs and
flags produce byte-identical bytes.  JSON documents are streamed a block
at a time, after all validation and computation are done, but for the
plaquettes of ``invariants``: it fills one item template per plaquette as
the table kernel computes each block.  ``invariants`` and ``zerotexture``
fill one item template per triangle area.  An ``--out`` that cannot be
written, running out of memory and stdout closed early also exit 1, and
an ``--out`` file left unfinished is removed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from collections.abc import Iterator
from itertools import combinations

# A command runs the layers it reads and no other: ``gen`` none of rp, inv and sym.  It checks
# its flags, then reads its document in one step (``_read``: the JSON, the document's kind and
# shape, the command's order rule) by the rules of ``_rules``, so a refusal never loads numpy.
from . import invariants as inv, matrix_core as mc, recursive_param as rp, symmetric as sym
from ._rules import (
    DEFAULT_UNITARITY_TOL, MAX_GEN_N, ConsistencyError, DomainError, StructureError,
    _require_panel_order, _require_table_order, _require_texture_order, chain_document, integer,
    matrix_document, permutation, symmetric_document, tolerance,
)

_EXIT_OK = 0
_EXIT_INVALID = 1
_EXIT_NUMERIC = 2

#: Largest entry of |V - V^T| with which ``symmetric`` passes its matrix.
SYMMETRY_TOL = 1e-12
#: Largest unitarity defect with which ``symmetric`` passes its matrix.
SYMMETRIC_UNITARITY_TOL = 1e-11


class ToleranceBreach(Exception):
    """A verification residual exceeded its tolerance (exit code 2)."""


# --- JSON writer ---------------------------------------------------------------

#: Most list items the writer renders per block.
_BLOCK_ITEMS = 4096
#: ``float.__repr__`` of the non-finite floats, and their JSON spelling.
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _chunks(o, depth: int):
    """The text of ``json.dumps(o, indent=2)`` nested *depth* levels deep, in pieces of at
    most one block of list items each.

    Non-empty lists, tuples and dicts with string keys are laid out here; an iterator stands
    for a list and yields its blocks as lists of item texts already rendered *depth* + 1
    levels deep.  Scalars and anything else are ``json.dumps``'s to render.
    """
    inner, close = "\n" + "  " * (depth + 1), "\n" + "  " * depth
    if isinstance(o, (list, tuple)) and o:
        items, step = o, _BLOCK_ITEMS  # the generator reads *items* after *o* is rebound
        o = (_texts(items[i : i + step], depth + 1) for i in range(0, len(items), step))
    if isinstance(o, Iterator):
        sep = "[" + inner
        for texts in o:
            yield sep + ("," + inner).join(texts)
            sep = "," + inner
        yield close + "]" if sep[0] == "," else "[]"
    elif isinstance(o, dict) and o and all(type(k) is str for k in o):
        sep = "{" + inner
        for k, v in o.items():
            yield sep + json.dumps(k) + ": "
            yield from _chunks(v, depth + 1)
            sep = "," + inner
        yield close + "}"
    else:  # JSON strings hold no raw newline, so every newline is layout
        yield json.dumps(o, indent=2).replace("\n", close)


def _texts(values, depth: int) -> list:
    """The JSON text of each of *values* nested *depth* levels deep: a whole column at a
    time when all are floats, all ints, or all non-empty lists of one length."""
    kinds = set(map(type, values))
    if kinds == {float}:
        texts = list(map(float.__repr__, values))
        return list(map(_NONFINITE.get, texts, texts))
    if kinds == {int}:
        return list(map(int.__repr__, values))
    if values and kinds <= {list, tuple} and len(set(map(len, values))) == 1 and values[0]:
        inner, close = "\n" + "  " * (depth + 1), "\n" + "  " * depth
        row = "[" + ",".join([inner + "%s"] * len(values[0])) + close + "]"
        return list(map(row.__mod__, zip(*(_texts(c, depth + 1) for c in zip(*values)))))
    return ["".join(_chunks(v, depth)) for v in values]


# --- I/O helpers -------------------------------------------------------------


#: Each document kind: the key that marks it, its name, its shape rule (the order first) and
#: its layer's reader, looked up when called so the layer loads then; it applies the rule again.
_KINDS = {
    "matrix": ("entries", "a matrix", matrix_document, lambda o: mc.matrix_from_json_dict(o)),
    "chain": ("factors", "a decomposition", chain_document,
              lambda o: rp.decomposition_from_json_dict(o)),
    "symmetric": ("thetas", "symmetric parameters", symmetric_document,
                  lambda o: sym.symmetric_params_from_json_dict(o)),
}


def _read(args, *kinds, order=None) -> tuple:
    """The kind of the JSON document at ``args.infile`` ("-" for stdin) and the document,
    decoded once its shape and ``order(n)``, the command's rule for its order n, have passed.
    Its kind is the first of *kinds* whose key it holds, or else the only one of *kinds*."""
    path = args.infile
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as exc:
        raise StructureError(f"cannot read {path!r}: {exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise StructureError(
            f"malformed JSON in {path!r} at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError:
        raise StructureError(f"JSON in {path!r} is nested too deeply") from None
    found = [kind for kind in kinds if isinstance(obj, dict) and _KINDS[kind][0] in obj]
    if not found and len(kinds) > 1:
        raise StructureError("input is neither " + " nor ".join(
            f"{_KINDS[kind][1]} (no {_KINDS[kind][0]!r} key)" for kind in kinds))
    kind = (found or kinds)[0]
    _, _, rule, reader = _KINDS[kind]
    n = rule(obj)[0]
    if order is not None:
        order(n)
    return kind, reader(obj)


@contextlib.contextmanager
def _output(path: str):
    """The text stream of *path*, or stdout for "-".  A file left unfinished by an exception
    is removed; a device such as ``/dev/null`` is not."""
    if path == "-":
        yield sys.stdout
        return
    fh = None
    try:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh
    except BaseException as exc:
        if fh is not None and os.path.isfile(path):  # opened, so truncated: nothing to keep
            os.remove(path)
        if isinstance(exc, OSError):
            raise StructureError(f"cannot write {path!r}: {exc}") from exc
        raise


def _emit_json(path: str, payload):
    """Write ``json.dumps(payload, indent=2) + "\n"`` to *path*, a block at a time."""
    with _output(path) as fh:
        for text in _chunks(payload, 0):
            fh.write(text)
        fh.write("\n")


def _matrix_csv(x) -> str:
    lines = []
    for row in x:
        lines.append(",".join(repr(complex(z)) for z in row))
    return "\n".join(lines) + "\n"


def _emit_matrix(path: str, x, fmt: str):
    if fmt == "csv":
        with _output(path) as fh:
            fh.write(_matrix_csv(x))
    else:
        _emit_json(path, mc.matrix_to_json_dict(x))


def _plaquette_rows(n: int, blocks):
    """The plaquettes of the order-*n* table's *blocks* (:func:`inv._table_rows`), rendered as
    the items of the invariants document's ``"plaquettes"`` list (two levels deep), a block of
    whole row pairs at a time."""
    pairs = list(combinations(range(1, n + 1), 2))
    pair_texts = _texts(pairs, 3)
    item = '{\n      "rows": %s,\n      "cols": %s,\n      "re": %s,\n      "im": %s\n    }'
    for rows, re, im in blocks:
        firsts = [text for text in pair_texts[rows] for _ in pairs]
        texts = _texts(re.ravel().tolist(), 3), _texts(im.ravel().tolist(), 3)
        yield list(map(item.__mod__, zip(firsts, pair_texts * len(re), *texts)))


def _area_items(areas: list):
    """The ((kind, i, j), area) pairs of :func:`inv.triangle_areas`, rendered as the items of
    a document's ``"triangle_areas"`` list (two levels deep), a block at a time."""
    item = (
        '{\n      "pair": [\n        %s,\n        %d,\n        %d\n      ],'
        '\n      "area": %s\n    }'
    )
    for start in range(0, len(areas), _BLOCK_ITEMS):
        labels, values = zip(*areas[start : start + _BLOCK_ITEMS])
        quoted = {kind: json.dumps(kind) for kind, _, _ in labels}
        texts = _texts([float(v) for v in values], 3)
        yield [item % (quoted[kind], i, j, t) for (kind, i, j), t in zip(labels, texts)]


# --- subcommand implementations ----------------------------------------------


def _cmd_gen(args) -> int:
    integer(args.n, "--n", 1, MAX_GEN_N)  # before numpy loads and allocates
    integer(args.seed, "--seed", 0)
    x = mc.haar_random(args.n, args.seed)
    _emit_matrix(args.out, x, args.format)
    return _EXIT_OK


def _cmd_compose(args) -> int:
    kind, params = _read(args, "chain", "symmetric")
    x = rp.compose(params) if kind == "chain" else sym.compose_symmetric(params)
    _emit_matrix(args.out, x, args.format)
    return _EXIT_OK


def _cmd_decompose(args) -> int:
    if args.gauge == "canonical" and args.order == "desc":
        raise DomainError(
            "canonical gauge is defined on ascending chains; use --order asc"
        )
    tolerance(args.tol, "--tol")
    _, x = _read(args, "matrix")
    d = rp.decompose(x, tol=args.tol)
    if args.order == "asc":
        d = rp.reorder_chain(d, range(2, d.ambient_n + 1))
    if args.gauge == "canonical":
        d = rp.gauge_fix(d)
    _emit_json(args.out, rp.decomposition_to_json_dict(d))
    return _EXIT_OK


def _cmd_reorder(args) -> int:
    try:
        target = [int(tok) for tok in args.target.split(",")]
    except ValueError as exc:
        raise DomainError(f"--target must be comma-separated integers: {exc}") from exc
    _, d = _read(args, "chain", order=lambda n: permutation(target, n))
    _emit_json(args.out, rp.decomposition_to_json_dict(rp.reorder_chain(d, target)))
    return _EXIT_OK


def _cmd_invariants(args) -> int:
    kind, x = _read(args, "matrix", "chain", order=_require_table_order)
    omegas = {}
    if kind == "chain":
        d, x = x, rp.compose(x)
        if rp.infer_order(d.orders.tolist()) == rp.ASCENDING:
            omegas = {"omegas": list(inv.omega_from_params(d).omegas)}
    x = mc.require_unitary(x)
    payload = {
        "n": x.shape[0],
        "plaquettes": _plaquette_rows(x.shape[0], inv._table_rows(x)),
        "triangle_areas": _area_items(inv._triangle_areas(x)),
        **omegas,
    }
    _emit_json(args.out, payload)
    return _EXIT_OK


def _cmd_panel(args) -> int:
    _, x = _read(args, "matrix", order=_require_panel_order)
    lat = inv.panel_lattice(x)
    payload = {
        "n": lat.n,
        "panels_re": [[float(v) for v in row] for row in lat.R],
        "panels_im": [[float(v) for v in row] for row in lat.J],
    }
    if lat.n == 4:  # x is checked: one relation system gives the residuals and the solve
        a, b, j_direct = system = inv._relation_system(x, lat)
        solved = inv._solve_relations(system)
        payload["relation_residuals"] = [float(r) for r in a @ j_direct - b]
        payload["basis_solve"] = {f"J{a}{b}": v for (a, b), v in solved.items()}
        payload["basis_residuals"] = {
            f"J{a}{b}": abs(v - float(lat.J[a - 1, b - 1])) for (a, b), v in solved.items()
        }
    _emit_json(args.out, payload)
    return _EXIT_OK


def _cmd_zerotexture(args) -> int:
    tolerance(args.tol, "--tol")
    _, x = _read(args, "matrix", order=_require_texture_order)
    rep = inv.zero_texture_analysis(x, tol=args.tol)
    payload = {  # the report's fields in order; tuples render as JSON lists
        **vars(rep),
        "sign_pattern": [
            {"rows": rows, "cols": cols, "label": label}
            for (rows, cols), label in rep.sign_pattern.items()
        ],
        "triangle_areas": _area_items(rep.triangle_areas),
    }
    _emit_json(args.out, payload)
    return _EXIT_OK


def _cmd_symmetric(args) -> int:
    _, params = _read(args, "symmetric")
    x = sym.compose_symmetric(params)
    sym_residual = mc.max_abs_diff(x, x.T)
    uni_residual = mc.unitarity_defect(x)
    ok = sym_residual <= SYMMETRY_TOL and uni_residual <= SYMMETRIC_UNITARITY_TOL
    payload = {
        "n": params.n,
        "half_angle": params.half_angle,
        "symmetry_residual": float(sym_residual),
        "unitarity_residual": float(uni_residual),
        "ok": ok,
        "matrix": mc.matrix_to_json_dict(x),
    }
    _emit_json(args.out, payload)
    if not ok:
        raise ToleranceBreach(
            f"symmetric construction residuals {sym_residual:.3e}/{uni_residual:.3e} "
            f"exceed {SYMMETRY_TOL}/{SYMMETRIC_UNITARITY_TOL}"
        )
    return _EXIT_OK


def _verify_checks(x, tol: float, seed: int) -> list:
    """Run the identity suite on one unitary; returns check records."""
    defect = mc.unitarity_defect(x)
    # Nothing past a failed gate is defined; the invariant relations are checked only on a
    # matrix the public invariant functions admit, a defect within the default tolerance.
    rest = _identities(x, tol, seed, defect <= DEFAULT_UNITARITY_TOL) if defect <= tol else ()
    return [
        {"name": name, "residual": float(r), "tolerance": float(t), "ok": bool(r <= t)}
        for name, r, t in (("unitarity", defect, tol), *rest)
    ]


def _identities(x, tol: float, seed: int, admitted: bool) -> Iterator:
    """(name, residual, tolerance) of each identity check on *x*, whose defect is within
    *tol*.  The checks run private kernels, which do not check *x* again; only
    ``inv.basis_solve_n4`` at n = 4 does."""
    import numpy as np  # x is an array: numpy is loaded

    n = x.shape[0]
    # The plaquette tables of x and of a rephasing of it are compared a block of row pairs at
    # a time, neither held whole.
    table = inv._table_rows(x)
    rng = np.random.Generator(np.random.PCG64(seed))
    left, right = (mc.phase_matrix(rng.uniform(-np.pi, np.pi, n)) for _ in range(2))
    blocks = zip(table, inv._table_rows(left @ x @ right))

    d = rp._peel(x, tol)
    yield "round_trip", mc.max_abs_diff(rp.compose(d), x), 10 * tol

    residuals = (rp.exp_generator(f.theta, rp.generator(f)) - rp.embed(f) for f in d.factors)
    yield "generator_closed_form", max(map(mc.maxnorm, residuals), default=0.0), 1e-13

    if n >= 2:
        asc = rp.reorder_chain(d, range(2, n + 1))
        yield "reorder_product", mc.max_abs_diff(rp.compose(asc), x), 1e-11
        yield "gauge_product", mc.max_abs_diff(rp.compose(rp.gauge_fix(asc)), x), 1e-11

    worst = 0.0  # the largest |difference| of two entries, as abs of a complex
    for (_, re, im), (_, re2, im2) in blocks:
        worst = max(worst, np.max(np.hypot(re - re2, im - im2)))
    yield "rephasing_invariance", worst, 1e-12

    if n >= 3:
        worst, trials = 0.0, 0
        for _ in range(400):  # bounded: sparse matrices reject most pivots
            if trials >= 20:
                break
            rows = tuple(int(i) + 1 for i in rng.choice(n, size=3, replace=False))
            cols = tuple(int(i) + 1 for i in rng.choice(n, size=3, replace=False))
            if abs(x[rows[1] - 1, cols[0] - 1]) <= 1e-6:
                continue
            lhs, rhs = inv.reduce_sextet(x, rows, cols)
            worst = max(worst, abs(lhs - rhs))
            trials += 1
        yield "sextet_reduction", worst, 1e-11

    if n == 3:  # the last block read, im, is x's whole 3-by-3 table
        j = im[0, 0]
        yield "epsilon_pattern", np.max(np.abs(np.abs(im) - abs(j))), 1e-13
        if admitted:
            areas = [area for _, area in inv._triangle_areas(x)]
            yield "triangle_areas", max(abs(area - abs(j) / 2) for area in areas), 1e-13

    if n == 4 and admitted and np.min(np.abs(x)) > 1e-9:
        a, b, j_direct = inv._relation_system(x)
        yield "panel_relations", mc.maxnorm(a @ j_direct - b), 1e-12
        solved = inv.basis_solve_n4(x).values()  # in the order of j_direct
        yield "basis_solve", max(abs(v - j) for v, j in zip(solved, j_direct)), 1e-10


def _cmd_verify(args) -> int:
    integer(args.seed, "--seed", 0)  # the flags are refused before the input is read
    tolerance(args.tol, "--tol")
    _, x = _read(args, "matrix", order=_require_table_order)
    checks = _verify_checks(x, tol=args.tol, seed=args.seed)
    max_residual = max(c["residual"] for c in checks)
    ok = all(c["ok"] for c in checks)
    payload = {
        "n": int(x.shape[0]),
        "ok": ok,
        "max_residual": max_residual,
        "checks": checks,
    }
    _emit_json(args.out, payload)
    if not ok:
        failing = [c["name"] for c in checks if not c["ok"]]
        worst = max((c for c in checks if not c["ok"]), key=lambda c: c["residual"])
        raise ToleranceBreach(
            f"checks failed: {', '.join(failing)} "
            f"(worst residual {worst['residual']:.3e} > {worst['tolerance']} in {worst['name']})"
        )
    return _EXIT_OK


# --- argument parsing ---------------------------------------------------------


def _add_io(p: argparse.ArgumentParser, matrix_out: bool = False):
    p.add_argument("--in", dest="infile", default="-", help="input file (default: stdin)")
    p.add_argument("--out", default="-", help="output file (default: stdout)")
    if matrix_out:
        p.add_argument(
            "--format", choices=("json", "csv"), default="json",
            help="matrix output format (csv: one row per line, complex literals)",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unichain",
        description="Factor-chain parameterisation and rephasing invariants of unitary matrices.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("gen", help="emit a Haar-random unitary matrix")
    p.add_argument("--n", type=int, required=True, help=f"matrix order, 1..{MAX_GEN_N}")
    p.add_argument("--seed", type=int, required=True, help="RNG seed (PCG64)")
    p.add_argument("--out", default="-", help="output file (default: stdout)")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=_cmd_gen)

    p = subs.add_parser("compose", help="multiply out a decomposition or symmetric parameters")
    _add_io(p, matrix_out=True)
    p.set_defaults(func=_cmd_compose)

    p = subs.add_parser("decompose", help="peel a unitary matrix into chain parameters")
    _add_io(p)
    p.add_argument("--tol", type=float, default=DEFAULT_UNITARITY_TOL)
    p.add_argument("--order", choices=("asc", "desc"), default="desc")
    p.add_argument("--gauge", choices=("canonical", "raw"), default="raw")
    p.set_defaults(func=_cmd_decompose)

    p = subs.add_parser("reorder", help="rearrange the factors of a decomposition")
    _add_io(p)
    p.add_argument("--target", required=True, help="comma-separated factor orders, e.g. 4,2,3")
    p.set_defaults(func=_cmd_reorder)

    p = subs.add_parser("invariants", help="plaquette table, triangle areas, omega phases")
    _add_io(p)
    p.set_defaults(func=_cmd_invariants)

    p = subs.add_parser("panel", help="panel lattice; for n=4 also relations and basis solve")
    _add_io(p)
    p.set_defaults(func=_cmd_panel)

    p = subs.add_parser("zerotexture", help="analyse a 4x4 two-zero texture")
    _add_io(p)
    p.add_argument("--tol", type=float, default=1e-9, help="zero-detection threshold")
    p.set_defaults(func=_cmd_zerotexture)

    p = subs.add_parser("symmetric", help="build and verify a symmetric unitary")
    _add_io(p)
    p.set_defaults(func=_cmd_symmetric)

    p = subs.add_parser("verify", help="run the identity suite on a matrix")
    _add_io(p)
    p.add_argument("--tol", type=float, default=DEFAULT_UNITARITY_TOL)
    p.add_argument("--seed", type=int, default=0, help="seed for the randomised spot checks")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a bad or missing flag, 0 after --help
        return _EXIT_INVALID if exc.code else _EXIT_OK
    try:
        return args.func(args)
    except ToleranceBreach as exc:
        print(f"unichain {args.command}: {exc}", file=sys.stderr)
        return _EXIT_NUMERIC
    except ConsistencyError as exc:
        print(f"unichain {args.command}: numeric consistency failure: {exc}", file=sys.stderr)
        return _EXIT_NUMERIC
    except ValueError as exc:
        print(f"unichain {args.command}: invalid input: {exc}", file=sys.stderr)
        return _EXIT_INVALID
    except MemoryError:
        print(f"unichain {args.command}: out of memory", file=sys.stderr)
        return _EXIT_INVALID
    except BrokenPipeError:  # stdout closed early, as by `| head`; quiet the flush at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return _EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
