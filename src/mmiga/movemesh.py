"""Harmonic-map mesh redistribution for the rational Galerkin solver.

The physical mesh nodes (Greville images of the geometry map) are pulled
toward regions where a monitor function built from the numerical solution is
large. :func:`move_mesh_solve` builds one run and calls its ``step()`` once
per outer iteration: solve the variable-diffusion problem
-div(grad(xi)/M) = 0 for the logical map, compare it with the fixed reference
map from the initialization solve, convert the logical defect into physical
node movement through the inverse Jacobian of the map, damp, re-fit the
geometry, and re-solve the PDE on the moved mesh. The run keeps its iterate
(mesh, solution, map, trace) in the :class:`MoveMeshState` it returns.

Once the movement cap binds no node, the damped moves converge linearly;
the run then mixes each move with its last ones (Anderson acceleration of
the interior nodes, :data:`ANDERSON_DEPTH` columns; Walker & Ni 2011) and
falls back to the damped move, with a fresh history, after a capped node,
a halved tau or a grown map defect.

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
    FieldCoefficients,
    assemble_load,
    assemble_weighted_stiffness,
    boundary_values,
    eval_field_grid,
    solve_dirichlet,
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
# most difference columns of the Anderson mix of the outer loop, taken from
# the last ANDERSON_DEPTH + 1 pairs of nodes and capped movement. On the
# case2_tanh run (p=3, m=32) depths 2 to 5 all converged in 26-27 outer
# iterations, against 41 without the mix; 3 sits inside that range.
ANDERSON_DEPTH = 3
# the parameters each monitor kind pins, and their values
_MONITOR_PINS = {
    "gradient": {"eps": 1.0, "beta": 0.0},
    "hessian": {"eps": 1.0, "alpha": 0.0},
    "combined": {},
}
# the weight a kind takes when it is left out, where the kind has one
_MONITOR_DEFAULTS = {"gradient": {"alpha": 0.1}, "hessian": {}, "combined": {}}


@dataclass(frozen=True)
class MonitorSpec:
    """Mesh-density monitor  M = sqrt(eps + alpha |grad u|^2 + beta |hess u|^2).

    ``kind`` picks the family: "gradient" pins eps = 1, beta = 0; "hessian"
    pins eps = 1, alpha = 0; "combined" uses all three parameters. A pinned
    parameter set to another value is a ValueError. A weight left out
    (None) takes its pin or the kind's default, gradient alpha = 0.1; a
    weight with neither is a ValueError, so leaving weights out never gives
    the identity monitor. ``MonitorSpec()`` is the runs' default monitor.
    The Hessian enters through its Frobenius norm. ``smoothing`` counts
    optional nodal averaging passes (off by default).
    """

    kind: str = "gradient"
    eps: float = 1.0
    alpha: float | None = None
    beta: float | None = None
    smoothing: int = 0

    def __post_init__(self):
        if isinstance(self.smoothing, bool) or not isinstance(self.smoothing, (int, np.integer)):
            raise TypeError(f"smoothing count must be an integer, got {self.smoothing!r}")
        if self.kind not in _MONITOR_PINS:
            raise ValueError(f"unknown monitor kind {self.kind!r}")
        if not all(np.isfinite(x) for x in (self.eps, self.alpha, self.beta) if x is not None):
            raise ValueError("eps, alpha and beta must be finite")
        pins = _MONITOR_PINS[self.kind]
        for name, pin in pins.items():
            if getattr(self, name) not in (None, pin):
                raise ValueError(f"the {self.kind} monitor pins {name} to {pin:g}, "
                                 f"got {getattr(self, name)!r}")
        for name in ("alpha", "beta"):
            if getattr(self, name) is None:
                value = {**_MONITOR_DEFAULTS[self.kind], **pins}.get(name)
                if value is None:
                    raise ValueError(f"the {self.kind} monitor needs {name}")
                object.__setattr__(self, name, value)
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("monitor weights must be nonnegative")
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
    the initialization solve, at the Greville grid of the knot vectors
    (``kv.greville.pts``); it stays fixed for the whole run.
    """

    fields: tuple[FieldCoefficients, FieldCoefficients]
    nodes: np.ndarray  # (n1, n2, 2)


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
) -> LogicalMesh:
    """Reference logical mesh from the Laplace solve -lap(xi) = 0, xi = bmap
    on the boundary, from a cold start; the nodal values are frozen for the
    whole run. One stiffness serves both components; its first assembly on
    ``g0``'s knot vectors builds their element pair tables, which every
    later mesh of a run on them reads."""
    A = assemble_weighted_stiffness(g0)
    cold = tuple(FieldCoefficients(boundary_values(g0, bmap.component(k)), g0.shape)
                 for k in range(2))
    fields = _solve_components(A, g0, cold, lin)
    gu, gv = g0.kv_u.greville.pts, g0.kv_v.greville.pts
    vals = [eval_field_grid(g0, f, gu, gv).values for f in fields]
    return LogicalMesh(fields, np.stack(vals, axis=-1))


def monitor_grid(spec: MonitorSpec, g: NurbsGeometry, u: FieldCoefficients, pts_u, pts_v,
                 geo: GeometryGrid | None = None):
    """Monitor values on a tensor grid of parametric points. ``geo`` is
    ``g`` already evaluated on that grid, when the caller has it; without
    it, or when it lacks the order the monitor needs, the geometry is
    evaluated with the field on one tabulation, to the same bits (see
    :func:`~mmiga.assembly.eval_field_grid`). A smoothed monitor is
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
    neighbors ``smoothing`` times, interpolate back bilinearly: linearly
    along u, then along v (``np.interp``)."""
    gu, gv = g.kv_u.greville.pts, g.kv_v.greville.pts
    nodal = monitor_grid(replace(spec, smoothing=0), g, u, gu, gv)
    for _ in range(spec.smoothing):
        padded = np.pad(nodal, 1, mode="edge")
        nodal = 0.5 * nodal + 0.125 * (
            padded[:-2, 1:-1] + padded[2:, 1:-1] + padded[1:-1, :-2] + padded[1:-1, 2:]
        )
    along_u = np.stack([np.interp(pts_u, gu, col) for col in nodal.T], axis=-1)
    return np.stack([np.interp(pts_v, gv, row) for row in along_u])


def solve_harmonic_map(
    g: NurbsGeometry,
    spec: MonitorSpec,
    u: FieldCoefficients,
    start: tuple[FieldCoefficients, FieldCoefficients],
    lin: LinearSolverSettings | None = None,
    *,
    geo: GeometryGrid | None = None,
) -> tuple[FieldCoefficients, FieldCoefficients]:
    """Logical map from the variable-diffusion solve -div(grad(xi)/M) = 0.

    One weighted stiffness matrix (weight 1/M) is shared by both components.
    Each component is solved from its field of ``start``
    (:func:`~mmiga.assembly.solve_dirichlet`): its boundary ring is that
    component of the boundary map and its interior the first guess, as in
    the previous map or the reference fields of :func:`init_logical_mesh`.
    The monitor and the stiffness share one evaluation of ``g`` with its
    Jacobian on the quadrature grid: ``geo`` when the caller has it (the
    PDE solve of the same mesh made one), else a fresh one. The stiffness
    reads its knot-only factors from ``g``'s knot vectors.
    """
    pts_u, pts_v = g.kv_u.gauss.pts, g.kv_v.gauss.pts
    if geo is None:
        geo = eval_geometry_grid(g, pts_u, pts_v, 1)
    m = monitor_grid(spec, g, u, pts_u, pts_v, geo=geo)
    A = assemble_weighted_stiffness(g, 1.0 / m, geo=geo)
    return _solve_components(A, g, start, lin)


def _solve_components(A, g, start, lin):
    """Both logical-map components from one stiffness matrix ``A`` and zero
    source, each from its start field."""
    zero = np.zeros(g.ndof)
    return tuple(solve_dirichlet(A, zero, g, s, lin) for s in start)


def _xi_at_nodes(g, xi, nders=0):
    """Evaluate both map components on the Greville grid of the nodes;
    derivatives share one evaluation of the geometry there."""
    gu, gv = g.kv_u.greville.pts, g.kv_v.greville.pts
    geo = eval_geometry_grid(g, gu, gv, nders) if nders else None
    return [eval_field_grid(g, f, gu, gv, nders=nders, geo=geo) for f in xi]


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
    xg, yg = _xi_at_nodes(g, xi, nders=1)
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


def limit_movement(movement: np.ndarray, nodes: np.ndarray, frac: float) -> np.ndarray:
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


def update_mesh(g: NurbsGeometry, movement: np.ndarray, tau: float):
    """Damped node update with wrap prevention; returns the accepted
    geometry, the tau it took and its evaluation on the quadrature grid.

    Targets are nodes + tau * movement; the geometry is re-fitted and its
    :func:`~mmiga.geometry.min_jacobian` checked, on a first-order
    evaluation of the candidate on the assembly Gauss grid that is returned
    with the accepted geometry, for the solves on it. A nonpositive Jacobian
    halves tau (at most six times) before giving up with diagnostics.
    The nodes are ``mesh_nodes(g)``, evaluated once for every tau trial.
    """
    movement = np.asarray(movement, dtype=float)
    if np.any(movement[boundary_mask(movement.shape[:2])] != 0.0):
        raise ValueError("boundary ring of the movement grid must be zero")
    nodes = mesh_nodes(g)
    tau_k = float(tau)
    worst = None
    for _ in range(MAX_TAU_HALVINGS + 1):
        targets = nodes + tau_k * movement
        candidate = refit_from_node_targets(g, targets)
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


def _anderson_step(xs: list[np.ndarray], fs: list[np.ndarray], tau: float) -> np.ndarray:
    """Anderson-mixed step of the damped fixed-point iteration x <- x + tau f(x).

    ``xs`` are the iterates and ``fs`` their movements f(x), flat arrays,
    oldest first, the current pair last. With one pair the step is the
    damped tau f_k. Otherwise, with the difference columns dX, dF of
    consecutive pairs, gamma = argmin |f_k - dF gamma|_2 (least squares) and
    the step is tau f_k - (dX + tau dF) gamma (Walker & Ni, SIAM J. Numer.
    Anal. 49, 2011, with mixing parameter tau).
    """
    if len(xs) < 2:
        return tau * fs[-1]
    dx = np.diff(np.stack(xs, axis=1), axis=1)
    df = np.diff(np.stack(fs, axis=1), axis=1)
    gamma = np.linalg.lstsq(df, fs[-1], rcond=None)[0]
    return tau * fs[-1] - (dx + tau * df) @ gamma


class _MoveMeshRun:
    """One outer redistribution loop, advanced one iteration per :meth:`step`.

    The iterate lives once, in ``state``: the :class:`MoveMeshState` the run
    returns. The run holds the once-per-run data, the Gauss-grid evaluation
    ``geo`` of the current mesh, the last map defect ``xi_err`` and the
    previous movement. Trace norms are filled in when the problem carries
    an exact solution. Wall time covers assembly, solves and movement, not
    I/O. The solvers are called through this module's globals.

    Mesh moves change interior control points only, so the work that
    depends on knots, weights and the boundary ring alone is done once per
    run. Every mesh of the run shares the knot vectors of ``g0``, whose
    memo entries hold the knot-only data, each built on first use only:
    the basis tables of the fixed grids (assembly quadrature, Greville
    nodes and refit collocation, error norms), the stiffness's element
    pair tables and the preconditioner's 1D factors. The Dirichlet data
    are built once on ``g0``, as the rings of the cold starts of the first
    PDE solve and of :func:`init_logical_mesh`. Every Dirichlet solve
    returns the ring of its start field
    (:func:`~mmiga.assembly.solve_dirichlet`), and every later solve starts
    from ``state.solution`` or ``state.xi``, so the data are carried from
    solve to solve. They hold bit for bit on every later mesh:
    :func:`update_mesh` rejects any movement of the boundary ring, so the
    re-fit carries the ring of control points over unchanged.
    The quadrature-grid evaluation :func:`update_mesh` made of an accepted
    mesh serves the PDE and map solves on that mesh and the trace's
    ``min_jacobian``. The nodes of a mesh are evaluated where they are
    read: for the movement cap, by :func:`update_mesh` for the targets of
    its tau trials, and by each refit for its ring test.

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

    Once the movement cap lets go, the moves are Anderson-mixed
    (:func:`_anderson_step`, depth :data:`ANDERSON_DEPTH`). The run keeps a
    history of pairs: the interior nodes x_k of each mesh and their capped
    movement f_k. On an iteration where no node was capped and the history
    holds two pairs or more, the mesh gets the mixed step, passed to
    :func:`update_mesh` as step / ``cfg.tau`` with ``cfg.tau``, so a halving
    scales the whole step; otherwise it gets the damped step ``cfg.tau``
    f_k. The history starts over from
    the current pair when a node was capped or the map defect grew from
    the previous iteration, and is emptied when :func:`update_mesh` halved
    tau, so each of these makes the next move a damped one. The mix reads
    interior nodes only, so the boundary ring of the movement stays zero,
    and ``prev_movement`` (the fallback of :func:`compute_movement`) stays
    the capped movement. Each iteration logs one INFO line with its
    defect, capped nodes, tau halvings and the kind of move.
    """

    def __init__(self, problem: PoissonProblem, g0: NurbsGeometry, spec: MonitorSpec,
                 cfg: MoveMeshConfig):
        self.problem, self.spec, self.cfg = problem, spec, cfg
        self.t_start = time.perf_counter()
        bmap = make_boundary_map(_physical_rect(g0), cfg.logical)
        lm = init_logical_mesh(g0, bmap, cfg.lin)
        self.geo = eval_geometry_grid(g0, g0.kv_u.gauss.pts, g0.kv_v.gauss.pts, 1)
        u = self._poisson(g0, FieldCoefficients(boundary_values(g0, problem.bc), g0.shape))
        self.state = MoveMeshState(g0, u, lm.fields, lm, snapshots=[(0, g0, u)])
        self.xi_err, self.prev_movement = None, None
        # Anderson history: interior nodes and capped movement, flat, oldest
        # first, and why it last started over
        self.xs, self.fs, self.restart = [], [], "run start"

    def _poisson(self, g: NurbsGeometry, start: FieldCoefficients) -> FieldCoefficients:
        """The PDE solution on ``g`` (evaluated in ``geo``) from ``start``."""
        A = assemble_weighted_stiffness(g, geo=self.geo)
        b = assemble_load(g, self.problem.f, geo=self.geo)
        return solve_dirichlet(A, b, g, start, self.cfg.lin)

    def _solve_map(self, lin: LinearSolverSettings) -> None:
        """Re-solves ``state.xi`` on the current mesh at ``lin``'s tolerance,
        from itself, and puts its max-norm defect at the nodes in ``xi_err``."""
        s = self.state
        s.xi = solve_harmonic_map(s.geometry, self.spec, s.solution, s.xi, lin, geo=self.geo)
        vals = _xi_at_nodes(s.geometry, s.xi)
        defect = s.logical_mesh.nodes - np.stack([vals[0].values, vals[1].values], axis=-1)
        self.xi_err = float(np.max(np.abs(defect)))

    def _record(self, it: int, tau_used: float) -> None:
        s, exact = self.state, self.problem.exact
        rep = None if exact is None else error_norms(s.geometry, s.solution, exact)
        norms = (float("nan"),) * 3 if rep is None else (rep.L2, rep.H1_semi, rep.L_inf)
        s.trace.append(TraceEntry(it, self.xi_err, tau_used, float(self.geo.det.min()),
                                  *norms, time.perf_counter() - self.t_start))

    def _mix(self, nodes: np.ndarray, movement: np.ndarray, capped: int,
             prev_err: float | None) -> tuple[np.ndarray, str]:
        """The movement to hand :func:`update_mesh` for the mesh with
        ``nodes`` and capped ``movement`` (``capped`` nodes cut back), and
        the kind of move: the Anderson mix of the history, or ``movement``
        itself when the history was just started over or is one pair."""
        if capped:
            self.xs, self.fs, self.restart = [], [], "nodes capped"
        elif prev_err is not None and self.xi_err > prev_err:
            self.xs, self.fs, self.restart = [], [], "defect grew"
        interior = ~boundary_mask(nodes.shape[:2])
        self.xs = self.xs[-ANDERSON_DEPTH:] + [nodes[interior].ravel()]
        self.fs = self.fs[-ANDERSON_DEPTH:] + [movement[interior].ravel()]
        if len(self.xs) < 2:
            return movement, f"damped ({self.restart})"
        move = np.zeros_like(movement)
        move[interior] = (_anderson_step(self.xs, self.fs, self.cfg.tau)
                          / self.cfg.tau).reshape(-1, 2)
        return move, f"accelerated ({len(self.xs) - 1} columns)"

    def step(self) -> str:
        """One outer iteration: solve the map, test its defect, move the mesh
        and re-solve the PDE. Appends one trace row and returns the outcome:
        ``"converged"``, ``"moved"`` or ``"wrapped"``; a wrap keeps the last
        valid mesh and solution, with the diagnostics in ``wrap_failure``."""
        s, cfg = self.state, self.cfg
        it = len(s.trace) + 1
        tol = cfg.stop_tolerance()
        prev_err = self.xi_err
        lin = cfg.lin if prev_err is None else replace(
            cfg.lin, tol=max(cfg.lin.tol, MAP_FORCING * prev_err))
        self._solve_map(lin)
        if lin.tol > cfg.lin.tol and (self.xi_err < tol or it == cfg.max_outer):
            self._solve_map(cfg.lin)

        if self.xi_err < tol:
            s.converged = True
            self._record(it, 0.0)
            logger.info("outer iteration %d: defect %.3e below %.3e, converged",
                        it, self.xi_err, tol)
            return "converged"

        raw = compute_movement(s.geometry, s.xi, s.logical_mesh, self.prev_movement)
        nodes = mesh_nodes(s.geometry)
        movement = raw if cfg.movement_cap is None else limit_movement(raw, nodes,
                                                                       cfg.movement_cap)
        capped = int(np.count_nonzero(np.any(movement != raw, axis=-1)))
        move, kind = self._mix(nodes, movement, capped, prev_err)
        try:
            g, tau_used, self.geo = update_mesh(s.geometry, move, cfg.tau)
        except MeshWrapError as exc:
            logger.warning("outer iteration %d ended on mesh wrap: %s", it, exc)
            s.wrap_failure = str(exc)
            self._record(it, 0.0)
            return "wrapped"
        halvings = int(round(np.log2(cfg.tau / tau_used)))
        if halvings:
            self.xs, self.fs, self.restart = [], [], "tau halved"
        logger.info("outer iteration %d: defect %.3e, %d nodes capped, %d tau halvings, %s",
                    it, self.xi_err, capped, halvings, kind)
        self.prev_movement = movement
        s.geometry = g
        s.solution = self._poisson(g, s.solution)
        self._record(it, tau_used)
        s.snapshots.append((it, g, s.solution))
        return "moved"


def move_mesh_solve(problem: PoissonProblem, g0: NurbsGeometry, spec: MonitorSpec,
                    cfg: MoveMeshConfig | None = None) -> MoveMeshState:
    """Outer redistribution loop on the mesh ``g0``: the reference logical
    mesh and the first PDE solution, then outer iterations
    (:meth:`_MoveMeshRun.step`) until one converges, one ends on a mesh
    wrap, or ``cfg.max_outer`` have run; one trace entry per iteration."""
    run = _MoveMeshRun(problem, g0, spec, cfg or MoveMeshConfig())
    for _ in range(run.cfg.max_outer):
        if run.step() != "moved":
            break
    return run.state
