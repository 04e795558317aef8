"""Recursive factor-chain parameterisation of unitary matrices.

Construction and inversion of the chain V = A_2 A_3 ... A_n of rank-one
unitary factors, factor reordering, phase-gauge fixing, the rephasing
invariants built on top of it (plaquettes, panel lattice, closed forms,
zero textures, unitarity-triangle areas) and the palindromic construction
of manifestly symmetric unitaries.

Importing the package runs none of its modules.  Reading a module name such as
``unichain.invariants`` gives the module: the one already imported, or else one whose
body runs on its first attribute read; a public name is read from its module (PEP 562).
``cli`` and ``invariants`` reach other modules this way (``from . import recursive_param as
rp``), so each runs only once something in it is used.  A thread that reads a module while
another thread runs its body waits for the run to end.
"""

import importlib.util
import sys
import threading
import types

#: Held while the hook registers a module and while a lazy module's body runs: each module is
#: made and run once, and a thread that reads a module another thread is running waits for it.
_LOCK = threading.RLock()


class _LazyModule(types.ModuleType):
    """A module whose body runs on its first attribute read."""

    def __getattribute__(self, attr):
        read = types.ModuleType.__getattribute__
        with _LOCK:  # exec adds __builtins__ before the body runs, so reads inside the run pass
            if type(self) is _LazyModule and "__builtins__" not in read(self, "__dict__"):
                spec = read(self, "__spec__")
                exec(spec.loader.get_code(spec.name), read(self, "__dict__"))
                self.__class__ = types.ModuleType  # later reads skip this method
        return read(self, attr)


#: Each module of the package and the public names it exports here; ``_rules`` needs no numpy.
_EXPORTS = {
    "_rules": (
        "ASCENDING", "CUSTOM", "DESCENDING", "DEFAULT_EQUALITY_TOL", "DEFAULT_UNITARITY_TOL",
        "ConsistencyError", "DomainError", "PreconditionError", "ShapeError", "StructureError",
    ),
    "matrix_core": (
        "haar_random", "matrix_from_json_dict", "matrix_to_json_dict", "max_abs_diff", "maxnorm",
        "phase_matrix", "require_unitary", "unitarity_defect", "wrap_angle",
    ),
    "recursive_param": (
        "Decomposition", "Factor", "Generator", "apply_factor", "block", "compose", "decompose",
        "decomposition_from_json_dict", "decomposition_to_json_dict", "embed", "exp_generator",
        "gauge_fix", "generator", "in_canonical_gauge", "reorder_chain", "reorder_swap",
    ),
    "invariants": (
        "OmegaSet", "PanelLattice", "PlaquetteTable", "ZeroTextureReport", "apply_symmetry",
        "basis_solve_n4", "closed_form_j_n3", "closed_forms_n4", "count_independent_phases",
        "omega_from_params", "panel_lattice", "panel_relation_residuals", "plaquette",
        "plaquette_table", "reduce_sextet", "triangle_areas", "zero_texture_analysis",
    ),
    "symmetric": (
        "SymmetricParams", "a4prime", "compose_symmetric", "j_sym_n3", "sym_factor",
        "sym_param_count", "symmetric_params_from_json_dict", "symmetric_params_to_json_dict",
        "v3sym_closed",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*(module for module in _EXPORTS if module != "_rules"), *_MODULE_OF]
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name, name if name in _EXPORTS else None)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    fullname = f"{__name__}.{module}"
    with _LOCK:
        value = sys.modules.get(fullname)
        if value is None:
            spec = importlib.util.find_spec(fullname)
            value = sys.modules[fullname] = importlib.util.module_from_spec(spec)
            value.__class__ = _LazyModule
    if type(value) is not _LazyModule:  # waits for an import another thread is running
        value = importlib.import_module(fullname)
    if module != name:
        value = getattr(value, name)
    globals()[name] = value  # later reads skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__})
