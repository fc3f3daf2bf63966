"""Harmonic-map mesh redistribution for the rational Galerkin solver.

The physical mesh nodes (Greville images of the geometry map) are pulled
toward regions where a monitor function built from the numerical solution is
large. One outer iteration: solve the variable-diffusion problem
-div(grad(xi)/M) = 0 for the logical map, compare it with the fixed reference
map from the initialization solve, convert the logical defect into physical
node movement through the inverse Jacobian of the map, damp, re-fit the
geometry, and re-solve the PDE on the moved mesh.

Because the solution space is globally C^1 (degree >= 2), the Jacobian of the
logical map is evaluated exactly at every node instead of being recovered by
element averaging, and second derivatives of the solution are available for
curvature-based monitors.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .assembly import (
    Discretization,
    FieldCoefficients,
    assemble_weighted_stiffness,
    boundary_values,
    discretization,
    eval_field_grid,
    solve_dirichlet,
    solve_poisson,
)
from .errors import DegenerateMapError, MeshWrapError
from .geometry import (
    GeometryGrid,
    NurbsGeometry,
    Rectangle,
    boundary_mask,
    eval_geometry_grid,
    mesh_nodes,
    min_jacobian,
    refit_from_node_targets,
)
from .linalg import LinearSolverSettings
from .postproc import ExactSolution, error_norms

__all__ = [
    "MonitorSpec",
    "BoundaryMap",
    "LogicalMesh",
    "TraceEntry",
    "MoveMeshConfig",
    "MoveMeshState",
    "PoissonProblem",
    "make_boundary_map",
    "init_logical_mesh",
    "eval_monitor",
    "monitor_grid",
    "solve_harmonic_map",
    "compute_movement",
    "update_mesh",
    "move_mesh_solve",
]

logger = logging.getLogger(__name__)

MAX_TAU_HALVINGS = 6
DEGENERATE_JAC_TOL = 1e-12
DEGENERATE_NODE_FRACTION = 0.01
# forcing term of the inexact map solves: each map solve of move_mesh_solve
# stops at max(solver tol, MAP_FORCING * previous outer defect). On the
# case2_tanh run (p=3, m=32) 1e-3 keeps the outer iterations and tau halvings
# of full-accuracy map solves; at 1e-1 the run no longer converges in 50.
MAP_FORCING = 1e-3


@dataclass(frozen=True)
class MonitorSpec:
    """Mesh-density monitor  M = sqrt(eps + alpha |grad u|^2 + beta |hess u|^2).

    ``kind`` picks the family: "gradient" pins eps = 1, beta = 0; "hessian"
    pins eps = 1, alpha = 0; "combined" uses all three parameters. The Hessian
    enters through its Frobenius norm. ``smoothing`` counts optional nodal
    averaging passes (off by default).
    """

    kind: str = "gradient"
    eps: float = 1.0
    alpha: float = 0.0
    beta: float = 0.0
    smoothing: int = 0

    def __post_init__(self):
        if isinstance(self.smoothing, bool) or not isinstance(self.smoothing, (int, np.integer)):
            raise TypeError(f"smoothing count must be an integer, got {self.smoothing!r}")
        if self.kind not in ("gradient", "hessian", "combined"):
            raise ValueError(f"unknown monitor kind {self.kind!r}")
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("monitor weights must be nonnegative")
        if not all(np.isfinite(x) for x in (self.eps, self.alpha, self.beta)):
            raise ValueError("eps, alpha and beta must be finite")
        if self.kind == "gradient":
            object.__setattr__(self, "eps", 1.0)
            object.__setattr__(self, "beta", 0.0)
        elif self.kind == "hessian":
            object.__setattr__(self, "eps", 1.0)
            object.__setattr__(self, "alpha", 0.0)
        if self.eps <= 0.0:
            raise ValueError("eps must be strictly positive so the monitor stays positive")
        if self.smoothing < 0:
            raise ValueError("smoothing count must be nonnegative")

    @property
    def needs_hessian(self) -> bool:
        return self.beta > 0.0


@dataclass(frozen=True)
class BoundaryMap:
    """Edge-to-edge map from the physical boundary onto the logical boundary.

    Both domains are axis-aligned rectangles, so each edge maps affinely
    (arc-length proportionally) onto its counterpart and corners go to
    corners; the same affine formula extends to the interior, which is what
    the Dirichlet data evaluation uses.
    """

    physical: Rectangle
    logical: Rectangle

    def __call__(self, x, y):
        xi = self.logical.x0 + (np.asarray(x) - self.physical.x0) * (
            self.logical.width / self.physical.width
        )
        eta = self.logical.y0 + (np.asarray(y) - self.physical.y0) * (
            self.logical.height / self.physical.height
        )
        return xi, eta

    def component(self, k: int):
        def bc(x, y):
            return self(x, y)[k]

        return bc


def make_boundary_map(physical: Rectangle, logical: Rectangle) -> BoundaryMap:
    return BoundaryMap(physical, logical)


@dataclass(frozen=True)
class LogicalMesh:
    """Reference logical mesh: the initialization solve and its nodal values.

    ``nodes[i, j]`` stores the logical position of physical node (i, j) from
    the initialization solve; it stays fixed for the whole run.
    ``params_u`` x ``params_v`` is the Greville grid of the nodes.
    """

    logical: Rectangle
    fields: tuple[FieldCoefficients, FieldCoefficients]
    nodes: np.ndarray  # (n1, n2, 2)
    params_u: np.ndarray
    params_v: np.ndarray


@dataclass
class TraceEntry:
    """One outer iteration as written to ``trace.csv``.

    ``cpu_seconds`` keeps its historical name but is cumulative wall time
    from ``time.perf_counter`` since :func:`move_mesh_solve` started. It
    includes the logical-mesh initialization and the error-norm evaluation
    of this and every earlier iteration.
    """

    iteration: int
    xi_inf_err: float
    tau_used: float
    min_jacobian: float
    L2: float
    H1: float
    Linf: float
    cpu_seconds: float


@dataclass(frozen=True)
class MoveMeshConfig:
    """Outer-iteration knobs.

    ``tolerance`` is the stop threshold for the max-norm of the map defect at
    the nodes; None picks 1e-4 times the logical-domain diameter. ``tau`` is
    the movement damping (halved on wrap, at most six times).
    ``movement_cap`` limits each node's movement to that fraction of its
    local node spacing before damping (None disables); without it, nodes
    sitting near a small map Jacobian get arbitrarily large steps that wreck
    the mesh long before the damped update can help.
    """

    logical: Rectangle = Rectangle(0.0, 1.0, 0.0, 1.0)
    tau: float = 0.5
    tolerance: float | None = None
    max_outer: int = 50
    lin: LinearSolverSettings = LinearSolverSettings()
    movement_cap: float | None = 0.5

    def __post_init__(self):
        if not 0.0 < self.tau <= 1.0:
            raise ValueError("tau must lie in (0, 1]")
        if self.tolerance is not None and not 0 < self.tolerance < np.inf:
            raise ValueError(f"tolerance must be positive and finite, got {self.tolerance!r}")
        if isinstance(self.max_outer, bool) or not isinstance(self.max_outer, (int, np.integer)):
            raise TypeError(f"max_outer must be an integer, got {self.max_outer!r}")
        if self.max_outer < 1:
            raise ValueError("max_outer must be >= 1")
        if self.movement_cap is not None and not 0 < self.movement_cap < np.inf:
            raise ValueError(f"movement_cap must be positive and finite or None, "
                             f"got {self.movement_cap!r}")

    def stop_tolerance(self) -> float:
        if self.tolerance is not None:
            return self.tolerance
        return 1e-4 * self.logical.diameter


@dataclass(frozen=True)
class PoissonProblem:
    """Source, Dirichlet data, and (optionally) the exact solution."""

    f: callable
    bc: callable
    exact: ExactSolution | None = None


@dataclass
class MoveMeshState:
    """Everything the outer iteration produced."""

    geometry: NurbsGeometry
    solution: FieldCoefficients
    xi: tuple[FieldCoefficients, FieldCoefficients]
    logical_mesh: LogicalMesh
    trace: list[TraceEntry] = field(default_factory=list)
    snapshots: list = field(default_factory=list)  # (iteration, geometry, solution)
    converged: bool = False
    wrap_failure: str | None = None  # diagnostics when the loop ended on a wrap

    @property
    def initial_geometry(self) -> NurbsGeometry:
        return self.snapshots[0][1]

    @property
    def initial_solution(self) -> FieldCoefficients:
        return self.snapshots[0][2]


def _physical_rect(g: NurbsGeometry) -> Rectangle:
    corners = eval_geometry_grid(g, [0.0, 1.0], [0.0, 1.0], nders=0).points
    xs = corners[..., 0]
    ys = corners[..., 1]
    return Rectangle(float(xs.min()), float(xs.max()), float(ys.min()), float(ys.max()))


def init_logical_mesh(
    g0: NurbsGeometry,
    bmap: BoundaryMap,
    lin: LinearSolverSettings | None = None,
    *,
    disc: Discretization | None = None,
    boundary: tuple[np.ndarray, np.ndarray] | None = None,
) -> LogicalMesh:
    """Reference logical mesh from the Laplace solve -lap(xi) = 0, xi = bmap
    on the boundary; the nodal values are frozen for the whole run.

    ``disc`` goes to the stiffness assembly, and ``boundary`` holds the
    :func:`~mmiga.assembly.boundary_values` of the two components of
    ``bmap`` on ``g0``, when the caller has them."""
    A = assemble_weighted_stiffness(g0, disc=disc)
    fields = _solve_components(A, g0, bmap, lin, boundary, disc)
    gu, gv = g0.kv_u.greville.pts, g0.kv_v.greville.pts
    vals = [eval_field_grid(g0, f, gu, gv).values for f in fields]
    return LogicalMesh(bmap.logical, fields, np.stack(vals, axis=-1), gu, gv)


def monitor_grid(spec: MonitorSpec, g: NurbsGeometry, u: FieldCoefficients, pts_u, pts_v,
                 geo: GeometryGrid | None = None):
    """Monitor values on a tensor grid of parametric points. ``geo`` is
    ``g`` already evaluated on that grid, when the caller has it; see
    :func:`~mmiga.assembly.eval_field_grid`. A smoothed monitor is
    evaluated on the Greville grid alone, and ``geo`` is not read."""
    if spec.smoothing > 0:
        return _smooth_monitor(spec, g, u, pts_u, pts_v)
    nders = 2 if spec.needs_hessian else 1
    fg = eval_field_grid(g, u, pts_u, pts_v, nders=nders, geo=geo)
    m2 = spec.eps * np.ones_like(fg.values)
    if spec.alpha > 0.0:
        m2 = m2 + spec.alpha * (fg.grad**2).sum(axis=-1)
    if spec.beta > 0.0:
        m2 = m2 + spec.beta * (fg.hess**2).sum(axis=(-2, -1))
    return np.sqrt(m2)


def _smooth_monitor(spec, g, u, pts_u, pts_v):
    """Nodal-averaging smoothing: evaluate on the Greville grid, average
    neighbors ``smoothing`` times, interpolate back bilinearly."""
    from scipy.interpolate import RegularGridInterpolator

    gu, gv = g.kv_u.greville.pts, g.kv_v.greville.pts
    sub = MonitorSpec(spec.kind, spec.eps, spec.alpha, spec.beta, smoothing=0)
    nodal = monitor_grid(sub, g, u, gu, gv)
    for _ in range(spec.smoothing):
        padded = np.pad(nodal, 1, mode="edge")
        nodal = 0.5 * nodal + 0.125 * (
            padded[:-2, 1:-1] + padded[2:, 1:-1] + padded[1:-1, :-2] + padded[1:-1, 2:]
        )
    interp = RegularGridInterpolator((gu, gv), nodal, method="linear")
    U, V = np.meshgrid(pts_u, pts_v, indexing="ij")
    return interp(np.stack([U.ravel(), V.ravel()], axis=-1)).reshape(U.shape)


def eval_monitor(spec: MonitorSpec, g: NurbsGeometry, u: FieldCoefficients, s) -> float:
    """Monitor value at a single parametric point."""
    return float(monitor_grid(spec, g, u, [float(s[0])], [float(s[1])])[0, 0])


def solve_harmonic_map(
    g: NurbsGeometry,
    spec: MonitorSpec,
    u: FieldCoefficients,
    bmap: BoundaryMap,
    lin: LinearSolverSettings | None = None,
    *,
    disc: Discretization | None = None,
    boundary: tuple[np.ndarray, np.ndarray] | None = None,
    geo: GeometryGrid | None = None,
    x0: tuple[FieldCoefficients, FieldCoefficients] | None = None,
) -> tuple[FieldCoefficients, FieldCoefficients]:
    """Logical map from the variable-diffusion solve -div(grad(xi)/M) = 0.

    One weighted stiffness matrix (weight 1/M) is shared by both components;
    each component gets its own Dirichlet data from the boundary map.
    ``disc`` and ``boundary`` are as in :func:`init_logical_mesh`. The
    monitor and the stiffness share one evaluation of ``g`` with its
    Jacobian on the quadrature grid: ``geo`` when the caller has it (the
    PDE solve of the same mesh made one), else a fresh one. ``x0`` holds
    one full coefficient field per component, the initial guesses of the
    two CG solves (:func:`~mmiga.assembly.solve_dirichlet`).
    """
    pts_u, pts_v = g.kv_u.gauss.pts, g.kv_v.gauss.pts
    if geo is None:
        geo = eval_geometry_grid(g, pts_u, pts_v, 1)
    m = monitor_grid(spec, g, u, pts_u, pts_v, geo=geo)
    A = assemble_weighted_stiffness(g, 1.0 / m, disc=disc, geo=geo)
    return _solve_components(A, g, bmap, lin, boundary, disc, x0)


def _solve_components(
    A,
    g: NurbsGeometry,
    bmap: BoundaryMap,
    lin: LinearSolverSettings | None,
    boundary: tuple[np.ndarray, np.ndarray] | None,
    disc: Discretization | None,
    x0: tuple[FieldCoefficients, FieldCoefficients] | None = None,
) -> tuple[FieldCoefficients, FieldCoefficients]:
    """Both logical-map components from one stiffness matrix ``A``: zero
    source, Dirichlet data from each component of the boundary map (or its
    precomputed ``boundary`` vectors), preconditioner factors from ``disc``
    when given, initial guesses from ``x0`` when given."""
    zero = np.zeros(g.ndof)
    return tuple(
        solve_dirichlet(A, zero, g, bmap.component(k), lin,
                        boundary=None if boundary is None else boundary[k], disc=disc,
                        x0=None if x0 is None else x0[k])
        for k in range(2)
    )


def _xi_at_nodes(g, xi, lm, nders=0):
    """Evaluate both map components on the fixed Greville parameter grid;
    derivatives share one evaluation of the geometry there."""
    geo = eval_geometry_grid(g, lm.params_u, lm.params_v, nders) if nders else None
    return [eval_field_grid(g, f, lm.params_u, lm.params_v, nders=nders, geo=geo) for f in xi]


def compute_movement(
    g: NurbsGeometry,
    xi: tuple[FieldCoefficients, FieldCoefficients],
    lm: LogicalMesh,
    prev_movement: np.ndarray | None = None,
) -> np.ndarray:
    """Physical node movement from the logical defect.

    At each interior node the logical defect (reference logical position
    minus current map value) is pushed through the inverse Jacobian of the
    map, d(x,y)/d(xi,eta) = (1/J) [[eta_y, -xi_y], [-eta_x, xi_x]] with
    J = xi_x eta_y - xi_y eta_x. The boundary ring stays zero.

    A node where |J| falls below 1e-12 is a degenerate-map failure; when
    ``prev_movement`` is supplied and fewer than 1% of interior nodes are
    affected, those nodes reuse their previous movement instead (logged).
    """
    xg, yg = _xi_at_nodes(g, xi, lm, nders=1)
    xi_x, xi_y = xg.grad[..., 0], xg.grad[..., 1]
    eta_x, eta_y = yg.grad[..., 0], yg.grad[..., 1]
    jac = xi_x * eta_y - xi_y * eta_x

    d_a = lm.nodes - np.stack([xg.values, yg.values], axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        dx = (eta_y * d_a[..., 0] - xi_y * d_a[..., 1]) / jac
        dy = (-eta_x * d_a[..., 0] + xi_x * d_a[..., 1]) / jac
    movement = np.stack([dx, dy], axis=-1)
    ring = boundary_mask(jac.shape)
    movement[ring] = 0.0

    degenerate = (np.abs(jac) < DEGENERATE_JAC_TOL) & ~ring
    if degenerate.any():
        n_bad = int(degenerate.sum())
        n_int = int(np.count_nonzero(~ring))
        first = tuple(int(v) for v in np.argwhere(degenerate)[0])
        if prev_movement is None or n_bad >= DEGENERATE_NODE_FRACTION * n_int:
            raise DegenerateMapError(
                f"logical-map Jacobian below {DEGENERATE_JAC_TOL:g} at node {first}"
                f" ({n_bad} of {n_int} interior nodes)"
            )
        logger.warning(
            "degenerate map Jacobian at %d node(s), e.g. %s; reusing previous movement",
            n_bad,
            first,
        )
        movement[degenerate] = prev_movement[degenerate]
    return movement


def limit_movement(movement: np.ndarray, nodes: np.ndarray, frac: float = 0.5) -> np.ndarray:
    """Trust region on the movement field: rescale each node's step so its
    length stays below ``frac`` times the distance to its nearest grid
    neighbor. Clips the runaway steps produced near small map Jacobians while
    leaving the smooth component (and any converged state) untouched."""
    d_u = np.linalg.norm(np.diff(nodes, axis=0), axis=-1)
    d_v = np.linalg.norm(np.diff(nodes, axis=1), axis=-1)
    spacing = np.full(nodes.shape[:2], np.inf)
    spacing[:-1, :] = np.minimum(spacing[:-1, :], d_u)
    spacing[1:, :] = np.minimum(spacing[1:, :], d_u)
    spacing[:, :-1] = np.minimum(spacing[:, :-1], d_v)
    spacing[:, 1:] = np.minimum(spacing[:, 1:], d_v)
    mag = np.linalg.norm(movement, axis=-1)
    scale = np.minimum(1.0, frac * spacing / np.maximum(mag, 1e-300))
    return movement * scale[..., None]


def update_mesh(
    g: NurbsGeometry,
    movement: np.ndarray,
    tau: float,
    *,
    nodes: np.ndarray | None = None,
):
    """Damped node update with wrap prevention; returns the accepted
    geometry, the tau it took and its evaluation on the quadrature grid.

    Targets are nodes + tau * movement; the geometry is re-fitted and its
    :func:`~mmiga.geometry.min_jacobian` checked, on a first-order
    evaluation of the candidate on the assembly Gauss grid that is returned
    with the accepted geometry, for the solves on it. A nonpositive Jacobian
    halves tau (at most six times) before giving up with diagnostics.

    ``nodes`` are ``mesh_nodes(g)``, when the caller has them; every tau
    trial reuses them, so ``g`` is evaluated at most once.
    """
    movement = np.asarray(movement, dtype=float)
    if np.any(movement[boundary_mask(movement.shape[:2])] != 0.0):
        raise ValueError("boundary ring of the movement grid must be zero")
    if nodes is None:
        nodes = mesh_nodes(g)
    tau_k = float(tau)
    worst = None
    for _ in range(MAX_TAU_HALVINGS + 1):
        targets = nodes + tau_k * movement
        candidate = refit_from_node_targets(g, targets, nodes=nodes)
        geo = eval_geometry_grid(candidate, g.kv_u.gauss.pts, g.kv_v.gauss.pts, 1)
        mj = min_jacobian(candidate, geo)
        if mj > 0.0:
            return candidate, tau_k, geo
        worst = mj
        tau_k *= 0.5
    raise MeshWrapError(
        f"mesh update still folds after {MAX_TAU_HALVINGS} halvings of tau "
        f"(last tau {tau_k * 2:g}, min Jacobian {worst:.3e}, "
        f"max movement {np.abs(movement).max():.3e})"
    )


def move_mesh_solve(
    problem: PoissonProblem,
    g0: NurbsGeometry,
    spec: MonitorSpec,
    cfg: MoveMeshConfig | None = None,
) -> MoveMeshState:
    """Outer redistribution loop.

    The reference logical mesh is built once; then each iteration solves the
    map equation, tests the nodal map defect against the stop tolerance,
    moves the mesh through the damped update, and re-solves the PDE on the
    moved mesh to refresh the monitor. The trace records one entry per outer
    iteration; error norms are filled in when the problem carries an exact
    solution. Wall time covers assembly, solves and movement, not I/O.

    Mesh moves change interior control points only, so the work that
    depends on knots, weights and the boundary ring alone is done once per
    run: one :class:`~mmiga.assembly.Discretization` of ``g0`` (its build
    time and size are logged at INFO) serves every assembly and solve, and
    the Dirichlet vectors of ``problem.bc`` and of both map components are
    built once on ``g0``. They hold bit for bit on every later mesh:
    :func:`update_mesh` rejects any movement of the boundary ring, so the
    re-fit carries the ring of control points over unchanged. Every mesh of
    the run shares the knot vectors of ``g0``, so the basis tables of the
    fixed grids (assembly quadrature, Greville nodes and refit collocation,
    error norms) are their memo entries, tabulated on first use only.
    The quadrature-grid evaluation :func:`update_mesh` made of an accepted
    mesh serves the PDE and map solves on that mesh and the trace's
    ``min_jacobian``, and the nodes of each accepted mesh are evaluated
    once, for the movement cap and every tau trial of the update.

    The inner solves are warm-started, and the map solves are inexact. The
    PDE solve on a moved mesh starts from the previous solution and runs to
    ``cfg.lin.tol``, because the trace norms and the monitor read it. Each
    map solve starts from the previous map (the first from the reference
    fields ``lm.fields``) and stops at the forcing tolerance
    max(``cfg.lin.tol``, :data:`MAP_FORCING` * d), with d the previous outer
    defect (Eisenstat & Walker, SIAM J. Sci. Comput. 17, 1996); the first
    map solve uses ``cfg.lin.tol``. When the defect of an inexact solve
    passes the stop test, or on the last allowed iteration, the map is
    solved again at ``cfg.lin.tol`` from there and the defect recomputed,
    so the stop decision, ``state.xi`` and the last trace row's
    ``xi_inf_err`` come from a full-accuracy solve. A run that ends on a
    wrap keeps the map its failed move was computed from.

    The loop terminates on convergence, on the iteration cap, or on a mesh
    wrap the damped update could not prevent; in the wrap case the last valid
    state is returned with ``wrap_failure`` holding the diagnostics.
    """
    cfg = cfg or MoveMeshConfig()
    tol = cfg.stop_tolerance()
    t_start = time.perf_counter()

    disc = discretization(g0)
    logger.info(
        "discretization built in %.3f s, %d bytes",
        time.perf_counter() - t_start,
        disc.nbytes,
    )
    bmap = make_boundary_map(_physical_rect(g0), cfg.logical)
    u_boundary = boundary_values(g0, problem.bc)
    xi_boundary = tuple(boundary_values(g0, bmap.component(k)) for k in range(2))
    lm = init_logical_mesh(g0, bmap, cfg.lin, disc=disc, boundary=xi_boundary)

    def poisson(x0):
        """The PDE solution on the current mesh, from the initial guess
        ``x0``."""
        return solve_poisson(g, problem.f, problem.bc, cfg.lin, disc=disc,
                             boundary=u_boundary, geo=geo, x0=x0)

    def harmonic_map(lin, x0):
        """The logical map on the current mesh at ``lin``'s tolerance, from
        the initial guesses ``x0``, and its max-norm defect at the nodes."""
        xi = solve_harmonic_map(g, spec, u, bmap, lin, disc=disc, boundary=xi_boundary,
                                geo=geo, x0=x0)
        vals = _xi_at_nodes(g, xi, lm, nders=0)
        defect = lm.nodes - np.stack([vals[0].values, vals[1].values], axis=-1)
        return xi, float(np.max(np.abs(defect)))

    g = g0
    geo = eval_geometry_grid(g0, g0.kv_u.gauss.pts, g0.kv_v.gauss.pts, 1)
    u = poisson(None)

    state = MoveMeshState(g, u, lm.fields, lm)
    state.snapshots.append((0, g, u))
    prev_movement = None
    xi, xi_err = lm.fields, None

    def norms(geom, field):
        if problem.exact is None:
            return (float("nan"),) * 3
        rep = error_norms(geom, field, problem.exact)
        return rep.L2, rep.H1_semi, rep.L_inf

    def record(it, xi_err, tau_used):
        l2, h1, linf = norms(g, u)
        state.trace.append(
            TraceEntry(it, xi_err, tau_used, float(geo.det.min()), l2, h1, linf,
                       time.perf_counter() - t_start)
        )

    for it in range(1, cfg.max_outer + 1):
        lin = cfg.lin if xi_err is None else replace(
            cfg.lin, tol=max(cfg.lin.tol, MAP_FORCING * xi_err))
        xi, xi_err = harmonic_map(lin, xi)
        if lin.tol > cfg.lin.tol and (xi_err < tol or it == cfg.max_outer):
            xi, xi_err = harmonic_map(cfg.lin, xi)

        if xi_err < tol:
            record(it, xi_err, 0.0)
            state.converged = True
            break

        movement = compute_movement(g, xi, lm, prev_movement)
        nodes = mesh_nodes(g)
        if cfg.movement_cap is not None:
            movement = limit_movement(movement, nodes, cfg.movement_cap)
        try:
            g, tau_used, geo = update_mesh(g, movement, cfg.tau, nodes=nodes)
        except MeshWrapError as exc:
            logger.warning("outer iteration %d ended on mesh wrap: %s", it, exc)
            record(it, xi_err, 0.0)
            state.wrap_failure = str(exc)
            break
        prev_movement = movement
        u = poisson(u)
        record(it, xi_err, tau_used)
        state.snapshots.append((it, g, u))

    state.geometry = g
    state.solution = u
    state.xi = xi
    return state
