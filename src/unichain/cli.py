"""Command-line front end.

Subcommands operate on JSON files (matrices, factor chains, symmetric
parameters, reports); stdout carries data, stderr carries diagnostics, so
commands compose in pipelines:

    unichain gen --n 4 --seed 7 | unichain decompose | unichain compose

Exit codes: 0 success, 1 validation error (bad flags, malformed input,
violated precondition), 2 numeric-consistency failure (a residual above
tolerance).  Output is deterministic: keys are emitted in a fixed order
and numbers in shortest round-trip decimal form, so identical inputs and
flags produce byte-identical bytes.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import invariants as inv
from . import matrix_core as mc
from . import recursive_param as rp
from . import symmetric as sym

_EXIT_OK = 0
_EXIT_INVALID = 1
_EXIT_NUMERIC = 2

#: Largest matrix order ``gen`` accepts; larger orders are refused before any allocation.
MAX_GEN_N = 1024


class ToleranceBreach(Exception):
    """A verification residual exceeded its tolerance (exit code 2)."""


# --- I/O helpers -------------------------------------------------------------


def _read_json(path: str):
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as exc:
        raise mc.StructureError(f"cannot read {path!r}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise mc.StructureError(
            f"malformed JSON in {path!r} at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc


def _write_text(path: str, text: str):
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _emit_json(path: str, payload):
    _write_text(path, json.dumps(payload, indent=2) + "\n")


def _matrix_csv(x) -> str:
    lines = []
    for row in np.asarray(x, dtype=np.complex128):
        lines.append(",".join(repr(complex(z)) for z in row))
    return "\n".join(lines) + "\n"


def _emit_matrix(path: str, x, fmt: str):
    if fmt == "csv":
        _write_text(path, _matrix_csv(x))
    else:
        _emit_json(path, mc.matrix_to_json_dict(x))


def _detect_params(obj):
    """Distinguish chain-decomposition from symmetric-parameter documents."""
    if isinstance(obj, dict) and "factors" in obj:
        return rp.decomposition_from_json_dict(obj)
    if isinstance(obj, dict) and "thetas" in obj:
        return sym.symmetric_params_from_json_dict(obj)
    raise mc.StructureError(
        "input is neither a decomposition (no 'factors' key) nor "
        "symmetric parameters (no 'thetas' key)"
    )


def _plaquettes_payload(table: inv.PlaquetteTable) -> list:
    values = table.values.ravel()
    return [
        {"rows": list(rows), "cols": list(cols), "re": re, "im": im}
        for (rows, cols), re, im in zip(table.keys(), values.real.tolist(), values.imag.tolist())
    ]


def _areas_payload(areas: list) -> list:
    return [
        {"pair": [kind, i, j], "area": float(area)} for (kind, i, j), area in areas
    ]


# --- subcommand implementations ----------------------------------------------


def _cmd_gen(args) -> int:
    if args.n > MAX_GEN_N:
        raise mc.DomainError(f"matrix order {args.n} exceeds the cap {MAX_GEN_N}")
    x = mc.haar_random(args.n, args.seed)
    _emit_matrix(args.out, x, args.format)
    return _EXIT_OK


def _cmd_compose(args) -> int:
    params = _detect_params(_read_json(args.infile))
    if isinstance(params, rp.Decomposition):
        x = rp.compose(params)
    else:
        x = sym.compose_symmetric(params)
    _emit_matrix(args.out, x, args.format)
    return _EXIT_OK


def _cmd_decompose(args) -> int:
    x = mc.matrix_from_json_dict(_read_json(args.infile))
    d = rp.decompose(x, tol=args.tol)
    if args.gauge == "canonical" and args.order == "desc":
        raise mc.DomainError(
            "canonical gauge is defined on ascending chains; use --order asc"
        )
    if args.order == "asc":
        d = rp.reorder_chain(d, range(2, d.ambient_n + 1))
    if args.gauge == "canonical":
        d = rp.gauge_fix(d)
    _emit_json(args.out, rp.decomposition_to_json_dict(d))
    return _EXIT_OK


def _cmd_reorder(args) -> int:
    d = rp.decomposition_from_json_dict(_read_json(args.infile))
    try:
        target = [int(tok) for tok in args.target.split(",")]
    except ValueError as exc:
        raise mc.DomainError(f"--target must be comma-separated integers: {exc}") from exc
    _emit_json(args.out, rp.decomposition_to_json_dict(rp.reorder_chain(d, target)))
    return _EXIT_OK


def _cmd_invariants(args) -> int:
    obj = _read_json(args.infile)
    omegas = None
    if isinstance(obj, dict) and "entries" in obj:
        x = mc.matrix_from_json_dict(obj)
    else:
        d = _detect_params(obj)
        if not isinstance(d, rp.Decomposition):
            raise mc.DomainError("invariants expects a matrix or a decomposition")
        x = rp.compose(d)
        if d.ambient_n in (4, 5) and d.order == rp.ASCENDING:
            omegas = list(inv.omega_from_params(d).omegas)
    table = inv.plaquette_table(x)
    payload = {
        "n": table.n,
        "plaquettes": _plaquettes_payload(table),
        "triangle_areas": _areas_payload(inv.triangle_areas(x)),
    }
    if omegas is not None:
        payload["omegas"] = omegas
    _emit_json(args.out, payload)
    return _EXIT_OK


def _cmd_panel(args) -> int:
    x = mc.matrix_from_json_dict(_read_json(args.infile))
    lat = inv.panel_lattice(x)
    payload = {
        "n": lat.n,
        "panels_re": [[float(v) for v in row] for row in lat.R],
        "panels_im": [[float(v) for v in row] for row in lat.J],
    }
    if lat.n == 4:
        residuals = inv.panel_relation_residuals(x)
        solved = inv.basis_solve_n4(x)
        payload["relation_residuals"] = [float(r) for r in residuals]
        payload["basis_solve"] = {f"J{a}{b}": v for (a, b), v in solved.items()}
        payload["basis_residuals"] = {
            f"J{a}{b}": abs(v - float(lat.J[a - 1, b - 1])) for (a, b), v in solved.items()
        }
    _emit_json(args.out, payload)
    return _EXIT_OK


def _cmd_zerotexture(args) -> int:
    x = mc.matrix_from_json_dict(_read_json(args.infile))
    rep = inv.zero_texture_analysis(x, tol=args.tol)
    payload = {
        "J": rep.J,
        "J_prime": rep.J_prime,
        "ratio": rep.ratio,
        "vanishing_count": rep.vanishing_count,
        "J_closed_form": rep.J_closed_form,
        "J_prime_closed_form": rep.J_prime_closed_form,
        "modulus_ratio_sq": rep.modulus_ratio_sq,
        "zeros": [list(z) for z in rep.zeros],
        "row_map": list(rep.row_map),
        "col_map": list(rep.col_map),
        "sign_pattern": [
            {"rows": list(rows), "cols": list(cols), "label": label}
            for (rows, cols), label in rep.sign_pattern.items()
        ],
        "triangle_areas": _areas_payload(rep.triangle_areas),
    }
    _emit_json(args.out, payload)
    return _EXIT_OK


def _cmd_symmetric(args) -> int:
    params = sym.symmetric_params_from_json_dict(_read_json(args.infile))
    x = sym.compose_symmetric(params)
    sym_residual = mc.max_abs_diff(x, x.T)
    uni_residual = mc.unitarity_defect(x)
    ok = sym_residual <= args.sym_tol and uni_residual <= args.uni_tol
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
            f"exceed {args.sym_tol}/{args.uni_tol}"
        )
    return _EXIT_OK


def _verify_checks(x: np.ndarray, tol: float, seed: int) -> list:
    """Run the identity suite on one unitary; returns check records."""
    checks = []

    def record(name, residual, tolerance):
        checks.append(
            {
                "name": name,
                "residual": float(residual),
                "tolerance": float(tolerance),
                "ok": bool(residual <= tolerance),
            }
        )

    x = mc.require_square(x)
    n = x.shape[0]
    defect = mc.unitarity_defect(x)
    record("unitarity", defect, tol)
    if defect > tol:
        return checks  # nothing downstream is defined

    d = rp.decompose(x, tol=tol)
    record("round_trip", mc.max_abs_diff(rp.compose(d), x), 10 * tol)

    gen_res = max(
        mc.max_abs_diff(rp.exp_generator(f.theta, rp.generator(f)), rp.embed(f))
        for f in d.factors
    ) if d.factors else 0.0
    record("generator_closed_form", gen_res, 1e-13)

    if n >= 2:
        asc = rp.reorder_chain(d, range(2, n + 1))
        record("reorder_product", mc.max_abs_diff(rp.compose(asc), x), 1e-11)
        record("gauge_product", mc.max_abs_diff(rp.compose(rp.gauge_fix(asc)), x), 1e-11)

    rng = np.random.Generator(np.random.PCG64(seed))
    table = inv.plaquette_table(x)
    rephased = (
        mc.phase_matrix(rng.uniform(-np.pi, np.pi, n))
        @ x
        @ mc.phase_matrix(rng.uniform(-np.pi, np.pi, n))
    )
    record("rephasing_invariance", table.max_abs_diff(inv.plaquette_table(rephased)), 1e-12)

    if n >= 3:
        worst = 0.0
        trials = 0
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
        record("sextet_reduction", worst, 1e-11)

    if n == 3:
        j = table.im((1, 2), (1, 2))
        record("epsilon_pattern", np.max(np.abs(np.abs(table.values.imag) - abs(j))), 1e-13)
        areas = [area for _, area in inv.triangle_areas(x)]
        record("triangle_areas", max(abs(area - abs(j) / 2) for area in areas), 1e-13)

    if n == 4 and np.min(np.abs(x)) > 1e-9:
        record("panel_relations", mc.maxnorm(inv.panel_relation_residuals(x)), 1e-12)
        solved = inv.basis_solve_n4(x)
        lat = inv.panel_lattice(x)
        record(
            "basis_solve",
            max(abs(v - lat.J[a - 1, b - 1]) for (a, b), v in solved.items()),
            1e-10,
        )

    return checks


def _cmd_verify(args) -> int:
    x = mc.matrix_from_json_dict(_read_json(args.infile))
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
    p.add_argument("--tol", type=float, default=mc.DEFAULT_UNITARITY_TOL)
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
    p.add_argument("--sym-tol", type=float, default=1e-12)
    p.add_argument("--uni-tol", type=float, default=1e-11)
    p.set_defaults(func=_cmd_symmetric)

    p = subs.add_parser("verify", help="run the identity suite on a matrix")
    _add_io(p)
    p.add_argument("--tol", type=float, default=mc.DEFAULT_UNITARITY_TOL)
    p.add_argument("--seed", type=int, default=0, help="seed for the randomised spot checks")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ToleranceBreach as exc:
        print(f"unichain {args.command}: {exc}", file=sys.stderr)
        return _EXIT_NUMERIC
    except mc.ConsistencyError as exc:
        print(f"unichain {args.command}: numeric consistency failure: {exc}", file=sys.stderr)
        return _EXIT_NUMERIC
    except ValueError as exc:
        print(f"unichain {args.command}: invalid input: {exc}", file=sys.stderr)
        return _EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
