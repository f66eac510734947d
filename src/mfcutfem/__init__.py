"""Matrix-free cut finite element Poisson solver on Cartesian meshes.

The package solves -lap(u) = f on implicitly defined domains {phi > 0}
embedded in an axis-aligned background mesh.  Dirichlet conditions are
imposed weakly (Nitsche), cut-induced ill-conditioning is cured by a
ghost-penalty term whose face operator is a Kronecker product of
precomputed 1D matrices, and all operator actions are matrix-free: no
global matrix is assembled.
"""

from .tensor1d import (
    ReferenceElement1D,
    build_reference_element,
    gauss_lobatto_nodes,
    gauss_rule,
    ghost_matrix_1d,
    jump_vector,
    mass_matrix_1d,
    patch_nodes,
)
from .sumfac import TensorField, apply_axis, cell_laplacian
from .geometry import (
    box_mesh,
    BallUnionLevelSet,
    CartesianMesh,
    CellClassification,
    DofMap,
    HalfSpaceLevelSet,
    Label,
    SphereLevelSet,
    build_dofmap,
    classify_cells,
    generate_balls,
    ghost_faces,
    load_balls,
    save_balls,
)
from .cutquad import CutCellQuadrature, cut_cell_quadrature
from .operators import (
    OperatorContext,
    Parameters,
    apply_ghost_penalty,
    assemble_rhs,
    breakdown_report,
    build_context,
    ghost_face_apply,
    reset_timers,
    vmult,
)
from .solver import (
    SolveReport,
    cg_solve,
    l2_error,
    manufactured_problem,
    radial_cosine_problem,
)

__version__ = "0.1.0"

__all__ = [
    "ReferenceElement1D",
    "build_reference_element",
    "gauss_lobatto_nodes",
    "gauss_rule",
    "ghost_matrix_1d",
    "jump_vector",
    "mass_matrix_1d",
    "patch_nodes",
    "TensorField",
    "apply_axis",
    "cell_laplacian",
    "BallUnionLevelSet",
    "CartesianMesh",
    "CellClassification",
    "DofMap",
    "HalfSpaceLevelSet",
    "Label",
    "SphereLevelSet",
    "box_mesh",
    "build_dofmap",
    "classify_cells",
    "generate_balls",
    "ghost_faces",
    "load_balls",
    "save_balls",
    "CutCellQuadrature",
    "cut_cell_quadrature",
    "OperatorContext",
    "Parameters",
    "apply_ghost_penalty",
    "assemble_rhs",
    "breakdown_report",
    "build_context",
    "ghost_face_apply",
    "reset_timers",
    "vmult",
    "SolveReport",
    "cg_solve",
    "l2_error",
    "manufactured_problem",
    "radial_cosine_problem",
    "__version__",
]
