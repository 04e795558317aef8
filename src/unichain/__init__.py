"""Recursive factor-chain parameterisation of unitary matrices.

Construction and inversion of the chain V = A_2 A_3 ... A_n of rank-one
unitary factors, factor reordering, phase-gauge fixing, the rephasing
invariants built on top of it (plaquettes, panel lattice, closed forms,
zero textures, unitarity-triangle areas) and the palindromic construction
of manifestly symmetric unitaries.
"""

from .matrix_core import (
    DEFAULT_EQUALITY_TOL,
    DEFAULT_UNITARITY_TOL,
    ConsistencyError,
    DomainError,
    PreconditionError,
    ShapeError,
    StructureError,
    haar_random,
    matrix_from_json_dict,
    matrix_to_json_dict,
    max_abs_diff,
    maxnorm,
    phase_matrix,
    require_unitary,
    unitarity_defect,
    wrap_angle,
)
from .recursive_param import (
    ASCENDING,
    CUSTOM,
    DESCENDING,
    Decomposition,
    Factor,
    Generator,
    apply_factor,
    block,
    compose,
    decompose,
    decomposition_from_json_dict,
    decomposition_to_json_dict,
    embed,
    exp_generator,
    gauge_fix,
    generator,
    in_canonical_gauge,
    reorder_chain,
    reorder_swap,
)
from .invariants import (
    OmegaSet,
    PanelLattice,
    Plaquette,
    PlaquetteTable,
    ZeroTextureReport,
    apply_symmetry,
    basis_solve_n4,
    closed_form_j_n3,
    closed_forms_n4,
    count_independent_phases,
    omega_from_params,
    panel_lattice,
    panel_relation_residuals,
    plaquette,
    plaquette_table,
    reduce_sextet,
    triangle_areas,
    zero_texture_analysis,
)
from .symmetric import (
    SymmetricParams,
    a4prime,
    compose_symmetric,
    j_sym_n3,
    sym_factor,
    sym_param_count,
    symmetric_params_from_json_dict,
    symmetric_params_to_json_dict,
    v3sym_closed,
)

__version__ = "0.1.0"
