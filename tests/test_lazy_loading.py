"""The package and the CLI run a module only when it is first read.

``import unichain`` resolves its public names on first use, and each CLI command runs
only the layers it calls; the public names and the command outputs stay as they were.
"""

import importlib
import json
import subprocess
import sys

import numpy as np
import pytest

import unichain
from helpers import cli_env, texture_matrix
from unichain.matrix_core import haar_random, matrix_to_json_dict
from unichain.recursive_param import decompose, decomposition_to_json_dict

#: The public names of each module, as the package exported them when it imported all four.
_PUBLIC = {
    "matrix_core": [
        "ConsistencyError", "DEFAULT_EQUALITY_TOL", "DEFAULT_UNITARITY_TOL", "DomainError",
        "PreconditionError", "ShapeError", "StructureError", "haar_random",
        "matrix_from_json_dict", "matrix_to_json_dict", "max_abs_diff", "maxnorm",
        "phase_matrix", "require_unitary", "unitarity_defect", "wrap_angle",
    ],
    "recursive_param": [
        "ASCENDING", "CUSTOM", "DESCENDING", "Decomposition", "Factor", "Generator",
        "apply_factor", "block", "compose", "decompose", "decomposition_from_json_dict",
        "decomposition_to_json_dict", "embed", "exp_generator", "gauge_fix", "generator",
        "in_canonical_gauge", "reorder_chain", "reorder_swap",
    ],
    "invariants": [
        "OmegaSet", "PanelLattice", "PlaquetteTable", "ZeroTextureReport", "apply_symmetry",
        "basis_solve_n4", "closed_form_j_n3", "closed_forms_n4", "count_independent_phases",
        "omega_from_params", "panel_lattice", "panel_relation_residuals", "plaquette",
        "plaquette_table", "reduce_sextet", "triangle_areas", "zero_texture_analysis",
    ],
    "symmetric": [
        "SymmetricParams", "a4prime", "compose_symmetric", "j_sym_n3", "sym_factor",
        "sym_param_count", "symmetric_params_from_json_dict", "symmetric_params_to_json_dict",
        "v3sym_closed",
    ],
}
_LAYERS = ("recursive_param", "invariants", "symmetric")


def _child(code: str, *args, cwd=None):
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env=cli_env(), cwd=cwd, timeout=120)


class TestPublicNames:
    def test_all_is_pinned(self):
        # what ``from unichain import *`` bound when the package imported every module
        expected = sorted([*_PUBLIC, *(name for names in _PUBLIC.values() for name in names)])
        assert sorted(unichain.__all__) == expected
        assert len(expected) == 65

    def test_each_name_is_its_modules_object(self):
        for module, names in _PUBLIC.items():
            mod = importlib.import_module(f"unichain.{module}")
            assert getattr(unichain, module) is mod is sys.modules[f"unichain.{module}"]
            for name in names:
                assert getattr(unichain, name) is getattr(mod, name), name

    def test_star_import_and_dir_list_every_name(self):
        namespace = {}
        exec("from unichain import *", namespace)
        assert set(unichain.__all__) <= set(namespace)
        assert all(namespace[name] is getattr(unichain, name) for name in unichain.__all__)
        assert set(unichain.__all__) | {"__version__"} <= set(dir(unichain))

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="'unichain' has no attribute 'no_such_name'"):
            unichain.no_such_name  # noqa: B018
        assert not hasattr(unichain, "_no_such_private")
        assert unichain.__version__ == "0.1.0"

    def test_import_runs_no_module_until_a_name_is_read(self):
        res = _child(
            "import sys, unichain\n"
            "print(sorted(m for m in sys.modules if m.startswith('unichain')))\n"
            "unichain.decompose\n"
            "print(sorted(m for m in sys.modules if m.startswith('unichain')))\n"
        )
        assert res.returncode == 0, res.stderr
        assert res.stdout.splitlines() == [
            "['unichain']",
            "['unichain', 'unichain._rules', 'unichain.matrix_core', 'unichain.recursive_param']",
        ]


# Calls cli.main once, then names the layers whose bodies ran, read without loading them:
# running a module's body adds ``__builtins__`` to its namespace.
_RUN_ONE_COMMAND = """\
import json, sys
from unichain import cli
code = cli.main(sys.argv[1:])
ran = [name for name in {layers!r}
       if "__builtins__" in object.__getattribute__(sys.modules["unichain." + name], "__dict__")]
print(json.dumps([code, ran]))
""".format(layers=_LAYERS)


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    """A matrix, a chain, symmetric parameters, a two-zero texture and a non-unitary matrix;
    and documents refused before numpy loads: a truncated one, a matrix one entry short, one
    whose order is not an integer, and one of an order over the plaquette-table cap."""
    root = tmp_path_factory.mktemp("lazy")
    x = haar_random(4, 1)
    matrix = matrix_to_json_dict(x)
    docs = {
        "matrix": matrix,
        "chain": decomposition_to_json_dict(decompose(x)),
        "symmetric": {"n": 3, "thetas": [1, 2], "chars": [[1], [0.6, 0.8]], "half_angle": True},
        "texture": matrix_to_json_dict(texture_matrix(np.random.default_rng(3))),
        "non_unitary": matrix_to_json_dict(x * 1.01),
        "one_short": {"n": 4, "entries": matrix["entries"][:-1]},
        "float_order": {**matrix, "n": 4.0},
        "order_65": {"n": 65, "entries": [[1.0, 0.0]] * 65**2},
    }
    for name, doc in docs.items():
        (root / f"{name}.json").write_text(json.dumps(doc))
    (root / "truncated.json").write_text(json.dumps(matrix)[:100])
    return root


_RP, _INV, _SYM = _LAYERS


class TestEachCommandRunsItsLayers:
    @pytest.mark.parametrize("argv, ran", [
        (["gen", "--n", "4", "--seed", "1"], []),
        (["decompose", "--in", "matrix.json", "--order", "asc", "--gauge", "canonical"], [_RP]),
        (["reorder", "--in", "chain.json", "--target", "2,3,4"], [_RP]),
        (["compose", "--in", "chain.json"], [_RP]),
        (["compose", "--in", "symmetric.json"], [_RP, _SYM]),
        (["symmetric", "--in", "symmetric.json"], [_RP, _SYM]),
        (["invariants", "--in", "matrix.json"], [_INV]),
        (["invariants", "--in", "chain.json"], [_RP, _INV]),
        (["panel", "--in", "matrix.json"], [_INV]),
        (["zerotexture", "--in", "texture.json"], [_RP, _INV]),
        (["verify", "--in", "matrix.json"], [_RP, _INV]),
    ], ids=["gen", "decompose", "reorder", "compose-chain", "compose-symmetric", "symmetric",
            "invariants-matrix", "invariants-chain", "panel", "zerotexture", "verify"])
    def test_command(self, documents, argv, ran):
        res = _child(_RUN_ONE_COMMAND, *argv, "--out", "out.json", cwd=documents)
        assert res.returncode == 0, res.stderr
        assert json.loads(res.stdout.splitlines()[-1]) == [0, ran]

    @pytest.mark.parametrize("function, document, ran", [
        ("plaquette_table", "matrix.json", False),
        ("panel_lattice", "matrix.json", False),
        ("zero_texture_analysis", "texture.json", True),
    ])
    def test_invariants_of_a_matrix_run_the_chain_layer_only_when_they_peel(
        self, documents, function, document, ran
    ):
        res = _child(
            "import json, sys\n"
            "from unichain import invariants, matrix_core\n"
            "with open(sys.argv[2]) as fh:\n"
            "    x = matrix_core.matrix_from_json_dict(json.load(fh))\n"
            "getattr(invariants, sys.argv[1])(x)\n"
            "rp = sys.modules['unichain.recursive_param']\n"
            "print('__builtins__' in object.__getattribute__(rp, '__dict__'))\n",
            function, document, cwd=documents,
        )
        assert res.returncode == 0, res.stderr
        assert res.stdout.splitlines() == [str(ran)]

    def test_refusal_inside_a_lazily_run_layer_exits_1_with_one_line(self, documents):
        # the order-4 matrix passes cli's checks; rp.decompose refuses it
        res = _child(_RUN_ONE_COMMAND, "decompose", "--in", "non_unitary.json", cwd=documents)
        assert res.returncode == 0, res.stderr
        *_, report = res.stdout.splitlines()
        assert json.loads(report) == [1, [_RP]]
        assert res.stderr == "unichain decompose: invalid input: input is not unitary within 1e-10\n"

    def test_a_layer_imported_before_cli_is_reused(self):
        res = _child(
            "import sys\n"
            "import unichain.symmetric as s\n"
            "from unichain import cli\n"
            "layers = {'rp': 'recursive_param', 'inv': 'invariants', 'sym': 'symmetric'}\n"
            "print([getattr(cli, a) is sys.modules['unichain.' + m] for a, m in layers.items()])\n"
            "print(cli.rp.Decomposition is sys.modules['unichain.recursive_param'].Decomposition)\n"
            "print(cli.sym is s, type(cli.rp).__name__, type(cli.inv).__name__)\n"
        )
        assert res.returncode == 0, res.stderr
        assert res.stdout.splitlines() == ["[True, True, True]", "True", "True module _LazyModule"]

    def test_a_layer_imported_after_cli_is_cli_s(self):
        res = _child(
            "import sys\n"
            "from unichain import cli\n"
            "import unichain.recursive_param as rp\n"
            "from unichain import invariants\n"
            "print(rp is cli.rp, invariants is cli.inv, rp.Decomposition is cli.rp.Decomposition)\n"
        )
        assert res.returncode == 0, res.stderr
        assert res.stdout.splitlines() == ["True True True"]


# Eight threads behind a barrier make the first read of one name; the child then prints the
# errors they met, how many distinct objects they read, and whether that object is the one
# the module in ``sys.modules`` holds.
_FIRST_READ_IN_THREADS = """\
import sys, threading
import unichain
sys.setswitchinterval(1e-6)
{before}
barrier = threading.Barrier(8)
seen, errors = [], []

def first_read():
    barrier.wait()
    try:
        seen.append({read})
    except Exception as exc:
        errors.append(repr(exc))

threads = [threading.Thread(target=first_read) for _ in range(8)]
for t in threads:
    t.start()
for t in threads:
    t.join()
print(errors, len({{id(x) for x in seen}}), seen[0] is sys.modules[{module!r}].{name})
"""


class TestFirstReadsInThreads:
    @pytest.mark.parametrize("before, read, module", [
        ("", "unichain.decompose", "recursive_param"),
        ("inv = unichain.invariants", "inv.zero_texture_analysis", "invariants"),
        ("from unichain import invariants as inv\ninv.plaquette_table", "inv.rp.gauge_fix",
         "recursive_param"),
    ], ids=["public-name", "lazy-module", "layer-inside-a-layer"])
    def test_one_module_object_and_no_half_run_module(self, before, read, module):
        name = read.rsplit(".", 1)[1]
        code = _FIRST_READ_IN_THREADS.format(before=before, read=read,
                                             module=f"unichain.{module}", name=name)
        for _ in range(3):
            res = _child(code)
            assert res.returncode == 0, res.stderr
            assert res.stdout.splitlines() == ["[] 1 True"]


# Calls cli.main once with stdout and stderr captured, then prints the exit code, both
# streams and whether numpy was imported.
_RUN_AND_REPORT = """\
import contextlib, io, json, sys
from unichain import cli
out, err = io.StringIO(), io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    code = cli.main(sys.argv[1:])
print(json.dumps([code, out.getvalue(), err.getvalue(), "numpy" in sys.modules]))
"""


class TestRefusalsBeforeNumpy:
    """Flags, JSON, document shapes and the table cap are checked before numpy loads."""

    def test_importing_cli_loads_no_numpy(self):
        res = _child("import sys\nimport unichain.cli\nprint('numpy' in sys.modules)")
        assert res.returncode == 0, res.stderr
        assert res.stdout.splitlines() == ["False"]

    @pytest.mark.parametrize("argv, message", [
        (["decompose", "--in", "truncated.json"], "malformed JSON in 'truncated.json'"),
        (["compose", "--in", "truncated.json"], "malformed JSON in 'truncated.json'"),
        (["symmetric", "--in", "truncated.json"], "malformed JSON in 'truncated.json'"),
        (["reorder", "--target", "2,3,4", "--in", "truncated.json"], "malformed JSON"),
        (["decompose", "--in", "missing.json"], "cannot read 'missing.json'"),
        (["decompose", "--in", "one_short.json"], "'entries' must hold 16 pairs, got 15"),
        (["panel", "--in", "one_short.json"], "'entries' must hold 16 pairs, got 15"),
        (["decompose", "--in", "float_order.json"], "'n' must be an integer, got 4.0"),
        (["invariants", "--in", "order_65.json"], "order 65 needs 4326400 plaquettes"),
        (["verify", "--in", "order_65.json"], "order 65 needs 4326400 plaquettes"),
        (["gen", "--n", "4", "--seed", "-1"], "--seed must be a non-negative integer"),
        (["verify", "--seed", "-1", "--in", "matrix.json"], "--seed must be"),
        (["decompose", "--gauge", "canonical", "--order", "desc", "--in", "matrix.json"],
         "canonical gauge is defined on ascending chains"),
        (["decompose", "--tol", "inf", "--in", "non_unitary.json"], "--tol must be finite"),
        (["verify", "--tol", "nan", "--in", "matrix.json"], "--tol must be finite"),
        (["zerotexture", "--tol", "-1", "--in", "texture.json"], "--tol must not be negative"),
    ], ids=["truncated", "truncated-chain", "truncated-symmetric", "truncated-reorder",
            "missing-file", "one-short", "one-short-panel", "float-order", "invariants-cap",
            "verify-cap", "gen-seed", "verify-seed", "canonical-desc", "decompose-tol",
            "verify-tol", "zerotexture-tol"])
    def test_refusal_exits_1_with_one_line_and_no_numpy(self, documents, argv, message):
        res = _child(_RUN_AND_REPORT, *argv, cwd=documents)
        assert res.returncode == 0, res.stderr
        code, out, err, numpy_loaded = json.loads(res.stdout)
        assert (code, out, numpy_loaded) == (1, "", False), err
        assert err.count("\n") == 1 and err.endswith("\n")
        assert err.startswith(f"unichain {argv[0]}: invalid input: ") and message in err

    @pytest.mark.parametrize("argv, expected", [
        (["gen", "--n", "2", "--seed", "1", "--out", "-"], 0),
        (["decompose", "--in", "non_unitary.json"], 1),
    ], ids=["gen", "non-unitary"])
    def test_controls_load_numpy(self, documents, argv, expected):
        res = _child(_RUN_AND_REPORT, *argv, cwd=documents)
        assert res.returncode == 0, res.stderr
        code, out, err, numpy_loaded = json.loads(res.stdout)
        assert (code, numpy_loaded) == (expected, True), err
        if expected:
            assert (out, err) == ("", "unichain decompose: invalid input: input is not unitary "
                                      "within 1e-10\n")
