"""Tensor-product NURBS geometry: the map from [0,1]^2 to the physical domain.

The geometry map F sends the parametric square to the physical domain; its
Jacobian feeds every physical-space derivative in the package. Mesh nodes are
the images of Greville parameter pairs, which makes re-fitting the control
net after node movement a square collocation problem (two banded 1D sweeps
thanks to the tensor structure).

Elements are the nonzero-measure knot spans of each direction
(:func:`~mmiga.splines.element_spans`), and every per-element sample grid is
laid out on them span by span. Each fixed grid exists once, as a memo entry
of the knot vectors (:class:`~mmiga.splines.KnotVector`): the Gauss grid of
assembly and ``min_jacobian`` (``gauss``), the error-norm Gauss grid, the
Greville nodes, the max-norm lattice and the breakpoints.

Grid evaluation contracts the control net with directional basis tables
(:class:`GridBasis`). The callers pass points only; each knot vector finds
the tables of its points (:meth:`~mmiga.splines.KnotVector.tables`): the
memo entry when the points are that entry's own array, else tables built
for the call (:func:`grid_basis`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import banded_solve
from .splines import (  # the Gauss rule is re-exported here
    KnotVector,
    PointTables,
    QuadratureRule,
    TensorWeights,
    basis_matrix,  # noqa: F401  (the benchmark's self-test reads it here)
    gauss_rule,
    greville_abscissae,
    rational_derivatives,
)

__all__ = [
    "Rectangle",
    "NurbsGeometry",
    "GeometryGrid",
    "GridBasis",
    "MapPointEval",
    "QuadratureRule",
    "gauss_rule",
    "boundary_mask",
    "grid_basis",
    "fixed_basis",
    "rational_grid_sums",
    "build_identity_geometry",
    "map_point",
    "eval_geometry_grid",
    "mesh_nodes",
    "refit_from_node_targets",
    "min_jacobian",
]


@dataclass(frozen=True)
class Rectangle:
    """Axis-aligned rectangle [x0, x1] x [y0, y1]."""

    x0: float
    x1: float
    y0: float
    y1: float

    def __post_init__(self):
        if not (self.x1 > self.x0 and self.y1 > self.y0):
            raise ValueError("rectangle must have positive width and height")

    @property
    def width(self) -> float:
        return self.x1 - self.x0

    @property
    def height(self) -> float:
        return self.y1 - self.y0

    @property
    def diameter(self) -> float:
        return float(np.hypot(self.width, self.height))


@dataclass(frozen=True)
class NurbsGeometry:
    """Rational tensor-product surface: knot vectors, weights, control net.

    ``control_points`` has shape (n1, n2, 2) in physical coordinates. The
    geometry is immutable; mesh updates build a new instance.
    """

    kv_u: KnotVector
    kv_v: KnotVector
    weights: TensorWeights
    control_points: np.ndarray

    def __post_init__(self):
        cp = np.ascontiguousarray(self.control_points, dtype=float)
        n1, n2 = self.kv_u.n, self.kv_v.n
        if self.weights.shape != (n1, n2):
            raise ValueError(
                f"weight grid {self.weights.shape} does not match basis ({n1}, {n2})"
            )
        if cp.shape != (n1, n2, 2):
            raise ValueError(
                f"control net {cp.shape} does not match basis ({n1}, {n2}, 2)"
            )
        cp.flags.writeable = False
        object.__setattr__(self, "control_points", cp)

    @property
    def shape(self) -> tuple[int, int]:
        return self.kv_u.n, self.kv_v.n

    @property
    def ndof(self) -> int:
        return self.kv_u.n * self.kv_v.n


@dataclass(frozen=True)
class MapPointEval:
    point: np.ndarray  # (2,)
    jac: np.ndarray  # (2, 2), jac[a, b] = d x_a / d s_b
    second: np.ndarray | None  # (3, 2): rows d2F/duu, d2F/duv, d2F/dvv


@dataclass(frozen=True)
class GeometryGrid:
    """Geometry map evaluated on a tensor grid of parametric points."""

    pts_u: np.ndarray
    pts_v: np.ndarray
    points: np.ndarray  # (Nu, Nv, 2)
    jac: np.ndarray  # (Nu, Nv, 2, 2)
    det: np.ndarray  # (Nu, Nv)
    second: np.ndarray | None  # (Nu, Nv, 3, 2)


@dataclass(frozen=True, eq=False)
class GridBasis:
    """Directional B-spline tables of one tensor grid of parametric points:
    ``u`` holds those of the u knot vector on the u points and ``v`` those
    of the v knot vector on the v points
    (:class:`~mmiga.splines.PointTables`)."""

    u: PointTables
    v: PointTables


def _equal_weights(w: np.ndarray) -> bool:
    """True when all weights are equal: R_ij = N_i N_j exactly."""
    return bool(np.all(w == w.flat[0]))


def _points(pts) -> np.ndarray:
    return np.atleast_1d(np.asarray(pts, dtype=float))


def grid_basis(kv_u: KnotVector, kv_v: KnotVector, pts_u, pts_v, nders: int) -> GridBasis:
    """The :class:`GridBasis` of the knots ``kv_u``, ``kv_v`` on the grid
    ``pts_u`` x ``pts_v``, with derivative orders 0 .. ``nders``: the knot
    vectors' memo entries when the points are their arrays, else new tables
    (:meth:`~mmiga.splines.KnotVector.tables`)."""
    if nders < 0:
        raise ValueError(f"derivative order must be >= 0, got {nders}")
    return GridBasis(kv_u.tables(pts_u, nders), kv_v.tables(pts_v, nders))


def fixed_basis(g: NurbsGeometry, grid: str) -> GridBasis:
    """The :class:`GridBasis` of one of the fixed grids of ``g``'s knots:
    the pair of the memo entries ``grid`` of its knot vectors
    (:class:`~mmiga.splines.KnotVector`), one of "gauss", "gauss_hessian",
    "error_gauss", "greville", "greville_hessian", "lattice" and
    "corners". Evaluations on its points read these tables."""
    return GridBasis(getattr(g.kv_u, grid), getattr(g.kv_v, grid))


def _spline_sums(tables: GridBasis, coeffs: np.ndarray, nders: int) -> dict:
    """Mixed derivatives of the plain B-spline sum sum_ij N_i N_j c_ij on
    the grid of ``tables``, for coefficients ``coeffs`` of shape (n1, n2, k):
    the map (a, b) -> (Nu, k, Nv) for a + b <= nders. Two matrix products
    per derivative pair: the whole coefficient block, flattened to
    (n1 k, n2), along v, and the result, read as (n1, k Nv), along u. The
    coefficient axis sits between the grid axes, so each coefficient's
    values are (Nu, Nv) with unit stride along v."""
    n1, n2, k = coeffs.shape
    nu, nv = len(tables.u.pts), len(tables.v.pts)
    flat = coeffs.transpose(0, 2, 1).reshape(n1 * k, n2)
    out = {}
    for b in range(nders + 1):
        x = (flat @ tables.v.D[b].T).reshape(n1, k * nv)
        for a in range(nders + 1 - b):
            out[a, b] = (tables.u.D[a] @ x).reshape(nu, k, nv)
    return out


def rational_grid_sums(kv_u, kv_v, weights, coeffs, pts_u, pts_v, nders):
    """Mixed parametric derivatives of S(u, v) = sum_ij R_ij(u, v) c_ij.

    ``coeffs`` has shape (n1, n2, m); the result maps (a, b) with
    a + b <= nders to arrays of shape (Nu, Nv, m), views with unit stride
    along v. Each is two matrix products with the directional derivative
    tables of the grid (:func:`grid_basis`), which are the knot vectors'
    memo entries when ``pts_u``, ``pts_v`` are their arrays. The weight sum
    rides along as one more coefficient column, so the weighted numerator
    sum_ij w_ij N_i N_j c_ij and the weight sum come out of the same
    products, and
    :func:`~mmiga.splines.rational_derivatives` divides the weight sum out.
    When all weights are equal, R_ij = N_i N_j exactly: the coefficients
    are contracted as they are, with no weight column and no quotient rule.
    A single point is the 1x1 grid.
    """
    w = weights.w if isinstance(weights, TensorWeights) else np.asarray(weights, float)
    coeffs = np.asarray(coeffs, dtype=float)
    pts_u, pts_v = _points(pts_u), _points(pts_v)
    tables = grid_basis(kv_u, kv_v, pts_u, pts_v, nders)
    if _equal_weights(w):
        sums = _spline_sums(tables, coeffs, nders)
    else:
        m = coeffs.shape[-1]
        sums = _spline_sums(tables, np.concatenate([w[..., None] * coeffs, w[..., None]], axis=-1),
                            nders)
        num = {ab: s[:, :m] for ab, s in sums.items()}
        wsum = {ab: s[:, m:] for ab, s in sums.items()}
        sums = rational_derivatives(num, wsum, nders)
    return {ab: np.moveaxis(s, 1, 2) for ab, s in sums.items()}


def eval_geometry_grid(g: NurbsGeometry, pts_u, pts_v, nders: int = 1) -> GeometryGrid:
    """Evaluate F (and derivatives) on the tensor grid pts_u x pts_v, with
    the tables of :func:`rational_grid_sums`."""
    pts_u, pts_v = _points(pts_u), _points(pts_v)
    sums = rational_grid_sums(g.kv_u, g.kv_v, g.weights, g.control_points, pts_u, pts_v, nders)
    points = sums[0, 0]
    if nders >= 1:
        du, dv = sums[1, 0], sums[0, 1]
        jac = np.stack([du, dv], axis=-1)  # (Nu, Nv, 2, 2)
        det = du[..., 0] * dv[..., 1] - dv[..., 0] * du[..., 1]
    else:
        jac = det = None
    second = None
    if nders >= 2:
        second = np.stack([sums[2, 0], sums[1, 1], sums[0, 2]], axis=-2)  # (Nu, Nv, 3, 2)
    return GeometryGrid(pts_u, pts_v, points, jac, det, second)


def map_point(g: NurbsGeometry, s, nders: int = 1) -> MapPointEval:
    """Geometry map at a single parametric point with Jacobian (and, for
    nders=2, second parametric derivatives): the 1x1 case of
    :func:`eval_geometry_grid`."""
    grid = eval_geometry_grid(g, [float(s[0])], [float(s[1])], nders)
    return MapPointEval(
        grid.points[0, 0],
        None if grid.jac is None else grid.jac[0, 0],
        None if grid.second is None else grid.second[0, 0],
    )


def build_identity_geometry(rect: Rectangle, kv_u: KnotVector, kv_v: KnotVector) -> NurbsGeometry:
    """Unit-weight geometry whose map is exactly the affine [0,1]^2 -> rect.

    Control points sit at affinely scaled Greville pairs; linear reproduction
    of B-splines (Marsden's identity) makes the map affine, so the initial
    physical mesh is uniform whenever the knot spans are.
    """
    gu = greville_abscissae(kv_u)
    gv = greville_abscissae(kv_v)
    X = rect.x0 + rect.width * gu
    Y = rect.y0 + rect.height * gv
    cp = np.stack(np.meshgrid(X, Y, indexing="ij"), axis=-1)
    return NurbsGeometry(kv_u, kv_v, TensorWeights(np.ones((kv_u.n, kv_v.n))), cp)


def boundary_mask(shape: tuple[int, int]) -> np.ndarray:
    """Boolean mask of the boundary ring of an (n1, n2) coefficient or node
    grid: its first and last rows and columns. Mesh moves keep the ring
    fixed, and the Dirichlet data lives on it."""
    mask = np.zeros(shape, dtype=bool)
    mask[0, :] = mask[-1, :] = mask[:, 0] = mask[:, -1] = True
    return mask


def mesh_nodes(g: NurbsGeometry) -> np.ndarray:
    """The (n1, n2, 2) physical node grid: images of the Greville parameter
    pairs. The elements are the nonzero knot spans
    (:func:`~mmiga.splines.element_spans`)."""
    return eval_geometry_grid(g, g.kv_u.greville.pts, g.kv_v.greville.pts, 0).points


def refit_from_node_targets(g: NurbsGeometry, targets: np.ndarray, *,
                            nodes: np.ndarray | None = None) -> NurbsGeometry:
    """New geometry (same knots/weights) whose Greville-pair images hit targets.

    Solved in homogeneous form: with Q_ij = w_ij P_ij the interpolation
    conditions are linear with plain B-spline collocation matrices, so two
    sweeps of banded 1D solves suffice for any weight grid. When the
    :func:`boundary_mask` ring of ``targets`` coincides bitwise with that of
    the current nodes, the ring of control points is carried over
    unchanged, so repeated refits keep the boundary curve bit-identical.

    ``nodes`` are ``mesh_nodes(g)``, when the caller has them; a caller that
    refits one geometry many times passes them and evaluates ``g`` once.
    """
    targets = np.asarray(targets, dtype=float)
    n1, n2 = g.shape
    if targets.shape != (n1, n2, 2):
        raise ValueError(f"targets shape {targets.shape} does not match ({n1}, {n2}, 2)")
    Bu, Bv = g.kv_u.greville.D[0], g.kv_v.greville.D[0]
    w = g.weights.w
    wgrid = Bu @ w @ Bv.T  # weight sum at the collocation grid

    cp = np.empty_like(targets)
    for m in range(2):
        rhs = wgrid * targets[:, :, m]
        tmp = banded_solve(Bu, rhs)  # sweep along u for every column
        q = banded_solve(Bv, tmp.T).T  # sweep along v
        cp[:, :, m] = q / w

    ring = boundary_mask((n1, n2))
    if nodes is None:
        nodes = mesh_nodes(g)
    if np.array_equal(targets[ring], nodes[ring]):
        cp[ring] = g.control_points[ring]
    return NurbsGeometry(g.kv_u, g.kv_v, g.weights, cp)


def _gauss_geometry(g: NurbsGeometry, geo: GeometryGrid | None) -> GeometryGrid:
    """``g`` with its Jacobian on the assembly Gauss grid (the knot vectors'
    ``gauss`` entries): ``geo`` when the caller has evaluated it already
    (ValueError when it is of another grid or lacks the Jacobian), else a
    fresh evaluation."""
    pts_u, pts_v = g.kv_u.gauss.pts, g.kv_v.gauss.pts
    if geo is None:
        return eval_geometry_grid(g, pts_u, pts_v, 1)
    if geo.jac is None or not (np.array_equal(geo.pts_u, pts_u)
                               and np.array_equal(geo.pts_v, pts_v)):
        raise ValueError("geometry grid is not a first-order evaluation on the Gauss grid, "
                         "the assembly quadrature grid")
    return geo


def min_jacobian(g: NurbsGeometry, geo: GeometryGrid | None = None) -> float:
    """Smallest Jacobian determinant over the assembly Gauss points.

    ``geo`` is the first-order evaluation of ``g`` on that grid, when the
    caller has made it (ValueError when it is of another grid or lacks the
    Jacobian); else ``g`` is evaluated here. A positive value certifies
    mesh validity at the sampled resolution; folding between quadrature
    points is not detected.
    """
    return float(_gauss_geometry(g, geo).det.min())
