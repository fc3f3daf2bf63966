"""NURBS Galerkin Poisson solver with harmonic-map mesh redistribution."""

from .assembly import (
    FieldCoefficients,
    apply_dirichlet,
    assemble_load,
    assemble_weighted_stiffness,
    dof_map,
    eval_field_grid,
    solve_poisson,
)
from .geometry import (
    NurbsGeometry,
    Rectangle,
    build_identity_geometry,
    gauss_rule,
    map_point,
    mesh_nodes,
    min_jacobian,
    refit_from_node_targets,
)
from .linalg import LinearSolverSettings, banded_solve, cg_solve
from .movemesh import (
    BoundaryMap,
    LogicalMesh,
    MonitorSpec,
    MoveMeshConfig,
    MoveMeshState,
    PoissonProblem,
    compute_movement,
    init_logical_mesh,
    make_boundary_map,
    move_mesh_solve,
    solve_harmonic_map,
    update_mesh,
)
from .postproc import (
    ErrorReport,
    ExactSolution,
    convergence_orders,
    error_norms,
    export_trace,
    export_vtk,
)
from .splines import (
    KnotVector,
    TensorWeights,
    eval_basis,
    greville_abscissae,
    make_open_knot_vector,
)

__version__ = "0.1.0"
