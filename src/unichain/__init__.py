"""Recursive factor-chain parameterisation of unitary matrices.

Construction and inversion of the chain V = A_2 A_3 ... A_n of rank-one
unitary factors, factor reordering, phase-gauge fixing, the rephasing
invariants built on top of it (plaquettes, panel lattice, closed forms,
zero textures, unitarity-triangle areas) and the palindromic construction
of manifestly symmetric unitaries.

Importing the package runs none of its modules: each public name, and each
module name, imports its module when it is first read (PEP 562).
"""

import importlib

#: Each module of the package and the public names it exports here.
_EXPORTS = {
    "matrix_core": (
        "DEFAULT_EQUALITY_TOL", "DEFAULT_UNITARITY_TOL", "ConsistencyError", "DomainError",
        "PreconditionError", "ShapeError", "StructureError", "haar_random",
        "matrix_from_json_dict", "matrix_to_json_dict", "max_abs_diff", "maxnorm",
        "phase_matrix", "require_unitary", "unitarity_defect", "wrap_angle",
    ),
    "recursive_param": (
        "ASCENDING", "CUSTOM", "DESCENDING", "Decomposition", "Factor", "Generator",
        "apply_factor", "block", "compose", "decompose", "decomposition_from_json_dict",
        "decomposition_to_json_dict", "embed", "exp_generator", "gauge_fix", "generator",
        "in_canonical_gauge", "reorder_chain", "reorder_swap",
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

__all__ = [*_EXPORTS, *_MODULE_OF]
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name, name if name in _EXPORTS else None)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = importlib.import_module(f"{__name__}.{module}")
    if module != name:
        value = getattr(value, name)
    globals()[name] = value  # later reads skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__})
