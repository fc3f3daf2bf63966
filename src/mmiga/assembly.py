"""Galerkin assembly over the rational tensor-product space.

Stiffness matrices are the weighted diffusion forms
A_kl = int w grad(phi_k) . grad(phi_l) dx ; with w = 1 this is the Poisson
bilinear form. Elements are the nonzero knot-span rectangles, each with
per-direction Gauss rules of degree + 1 points, as laid out by
:func:`~mmiga.geometry.quadrature_grid`.

Each form tabulates the basis once, in the layout it contracts with. The
load is a sum over the whole grid, so it uses dense directional tables
(:func:`~mmiga.splines.basis_matrix`): it is the adjoint of grid
evaluation, b = w o (Du^T C Dv), with C the quadrature weights times
det J times f over the weight sum at each point. The stiffness pairs
functions element by element, so it uses local tables: the banded scheme
evaluated on each element's own span gives the (nel, q, p+1) element
blocks directly. It runs one Python iteration per element row: the
weighted numerators of a whole row are formed by batched einsum, their
local sums are the weight sums, and the local rational basis and its
gradients follow from the quotient rule every rational evaluation shares,
:func:`~mmiga.splines.rational_derivatives`. The element matrices of a row
come from one batched matmul. Local blocks are mirrored from their upper
triangle, and the COO entries are laid out in the fixed (row, column)
element order before a stable merge, so every sum accumulates in the same
order on every run: matrices come out bit-symmetric and runs are
reproducible.

Only the metric terms of the stiffness depend on the control points. A
caller that assembles many times on geometries sharing knots and weights,
as the moving-mesh loop does, builds a :class:`Discretization` once
(:func:`discretization`) and passes it to every assembly. It holds the
quadrature grid, the parametric gradient blocks Ru, Rv of every element
row, and the merge plan: the stable argsort of the COO keys, the reduction
starts and the CSR ``indices``/``indptr``. The row blocks take
2 * nel * (p+1)^2 * q^2 floats (q = p + 1 Gauss points per direction):
4.2 MB at 32 x 32 elements of degree 3, 67 MB at 128 x 128. A single solve
passes none and streams: it tabulates one row at a time, never holding
all rows' blocks, and its result has the same bits.

Dirichlet data is imposed by eliminating boundary coefficients: the trace of
the solution space on each edge is a univariate rational curve, so boundary
coefficients follow from a 1D L2 projection of the boundary data onto that
trace space, with the corner coefficients fixed by the data at the corners.
Those coefficients depend only on the knots, the weights and the boundary
ring of control points, so a run whose boundary stays put computes them
once (:func:`boundary_values`) and passes them to :func:`apply_dirichlet`.

The interior system is solved by CG preconditioned with fast
diagonalisation (Lynch, Rice & Thomas, Numer. Math. 6, 1964) and diagonal
scaling (Sangalli & Tani, SIAM J. Sci. Comput. 38, 2016). The interior
Laplacian of the parametric square, K_u (x) M_v + M_u (x) K_v, is inverted
exactly through the generalized eigendecompositions K_d U_d = M_d U_d L_d of
each direction's interior B-spline stiffness and mass on the assembly Gauss
rule; a symmetric diagonal scaling S matches its diagonal to that of the
actual interior matrix, which carries the geometry, the weights and the
diffusion coefficient. Applying P^-1 = S (U_u (x) U_v) (L_u (+) L_v)^-1
(U_u (x) U_v)^T S to a residual is two dense matmuls each way on the
interior coefficient grid. The factors (:class:`FastDiagonalization`)
depend only on the knots: a :class:`Discretization` holds them for a whole
run, and a single solve builds them for itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .errors import AssemblyError, BreakdownError
from .geometry import (
    GeometryGrid,
    NurbsGeometry,
    QuadratureRule,  # re-exported: the Gauss rule and grid live in geometry
    TensorQuadrature,
    boundary_mask,
    element_quadrature_1d,
    eval_geometry_grid,
    gauss_rule,
    quadrature_grid,
    rational_grid_sums,
)
from .linalg import LinearSolverSettings, banded_solve, cg_solve
from .splines import KnotVector, _basis_ders, basis_matrix, rational_derivatives

__all__ = [
    "QuadratureRule",
    "DofMap",
    "FieldCoefficients",
    "FieldEval",
    "FieldGrid",
    "ReducedSystem",
    "Discretization",
    "FastDiagonalization",
    "gauss_rule",
    "dof_map",
    "quadrature_grid",
    "discretization",
    "fast_diagonalization",
    "assemble_weighted_stiffness",
    "assemble_load",
    "boundary_values",
    "apply_dirichlet",
    "solve_dirichlet",
    "solve_poisson",
    "eval_field",
    "eval_field_grid",
]


@dataclass(frozen=True)
class DofMap:
    """Split of the coefficient grid into boundary ring and interior."""

    n1: int
    n2: int
    boundary: np.ndarray  # flat indices, sorted
    interior: np.ndarray

    @property
    def total(self) -> int:
        return self.n1 * self.n2


def dof_map(n1: int, n2: int) -> DofMap:
    ring = boundary_mask((n1, n2)).ravel()
    return DofMap(n1, n2, np.flatnonzero(ring), np.flatnonzero(~ring))


@dataclass(frozen=True)
class FieldCoefficients:
    """Coefficients of a scalar field in the rational basis (flat, row-major
    over the (n1, n2) index grid)."""

    values: np.ndarray
    shape: tuple[int, int]

    def __post_init__(self):
        values = np.ascontiguousarray(self.values, dtype=float)
        if values.ndim != 1 or len(values) != self.shape[0] * self.shape[1]:
            raise ValueError(
                f"coefficient vector of length {values.size} does not match grid {self.shape}"
            )
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @classmethod
    def from_grid(cls, grid: np.ndarray) -> "FieldCoefficients":
        grid = np.asarray(grid, dtype=float)
        return cls(grid.ravel(), grid.shape)

    @property
    def grid(self) -> np.ndarray:
        return self.values.reshape(self.shape)


def _resolve_weight(weight, geo: GeometryGrid, shape):
    if weight is None:
        return np.ones(shape)
    if callable(weight):
        vals = np.asarray(weight(geo.points[..., 0], geo.points[..., 1]), dtype=float)
    else:
        vals = np.asarray(weight, dtype=float)
    if vals.shape != shape:
        raise ValueError(f"weight grid {vals.shape} does not match quadrature grid {shape}")
    return vals


def _element_tables(g: NurbsGeometry, quad: TensorQuadrature):
    """Per-element blocks of the B-spline values and first derivatives the
    stiffness needs, straight from the banded scheme.

    ``Lu[a][eu]`` is the (q_u, p+1) block of d^a N / du^a on element row
    ``eu`` (its Gauss points against the p+1 functions nonzero there), and
    likewise ``Lv`` along v; ``cols_u``, ``cols_v`` give the (nel, p+1)
    global indices of the local functions of each element. Returned as
    ``((Lu, cols_u), (Lv, cols_v))``.
    """
    tables = []
    for kv, pts, q in ((g.kv_u, quad.pts_u, quad.q_u), (g.kv_v, quad.pts_v, quad.q_v)):
        p = kv.degree
        spans = np.asarray(kv.nonzero_spans)
        _, ders = _basis_ders(kv, pts, 1, spans=np.repeat(spans, q))
        blocks = ders.reshape(2, p + 1, len(spans), q).transpose(0, 2, 3, 1)
        tables.append((blocks, spans[:, None] - p + np.arange(p + 1)))
    return tables


def _grid_blocks(x: np.ndarray, quad: TensorQuadrature) -> np.ndarray:
    """Regroup a (nel_u * q_u, nel_v * q_v) quadrature grid into per-element
    flattened blocks of shape (nel_u, nel_v, q_u * q_v)."""
    nu, nv = x.shape[0] // quad.q_u, x.shape[1] // quad.q_v
    blocks = x.reshape(nu, quad.q_u, nv, quad.q_v).transpose(0, 2, 1, 3)
    return blocks.reshape(nu, nv, quad.q_u * quad.q_v)


def _local_dofs(tables, n_v: int) -> np.ndarray:
    """The (nel_u, nel_v, nloc) global indices of the local functions of
    every element, in the local order of :func:`_row_blocks`."""
    (_, cols_u), (_, cols_v) = tables
    gidx = cols_u[:, None, :, None] * n_v + cols_v[None, :, None, :]
    return gidx.reshape(len(cols_u), len(cols_v), -1)


def _row_rational(g, tables, eu):
    """The local rational basis on every element of row ``eu``: a map
    (a, b) -> d^{a+b} R / du^a dv^b for a + b <= 1, each of shape
    (nel_v, nloc, nq), local functions ordered as in :func:`_local_dofs`.
    The weight sums are the local sums of the numerators."""
    (Lu, cols_u), (Lv, cols_v) = tables
    wloc = g.weights.w[cols_u[eu][:, None, None], cols_v[None, :, :]].transpose(1, 0, 2)
    num = {
        (a, b): np.einsum("ai,ebj,eij->eijab", Lu[a][eu], Lv[b], wloc)
        for a, b in ((0, 0), (1, 0), (0, 1))
    }
    wsum = {ab: x.sum(axis=(1, 2), keepdims=True) for ab, x in num.items()}
    R = rational_derivatives(num, wsum, 1)
    nel_v, nloc = len(cols_v), wloc.shape[1] * wloc.shape[2]
    return {ab: x.reshape(nel_v, nloc, -1) for ab, x in R.items()}


def _row_blocks(g, tables, eu):
    """The parametric gradient blocks (Ru, Rv) the stiffness contracts on
    element row ``eu``."""
    R = _row_rational(g, tables, eu)
    return R[1, 0], R[0, 1]


@dataclass(frozen=True)
class _MergePlan:
    """How the element matrices' COO entries, laid out in the fixed
    (row, column) element order, merge into one CSR matrix: ``order`` is the
    stable argsort of their flat keys ``row * n + col``, ``starts`` the first
    sorted entry of each distinct key, ``indices`` and ``indptr`` the CSR
    pattern. It depends only on the knot vectors."""

    n: int
    order: np.ndarray
    starts: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray


def _merge_plan(gidx: np.ndarray, n: int) -> _MergePlan:
    """The merge plan of the element blocks with local-to-global indices
    ``gidx`` (:func:`_local_dofs`)."""
    # each temporary is dropped once spent: at m=128 every one is 34 MB
    keys = (gidx[..., :, None] * n + gidx[..., None, :]).ravel()
    order = np.argsort(keys, kind="stable")
    k = keys[order]
    del keys
    first = np.empty(len(k), dtype=bool)
    first[0] = True
    np.not_equal(k[1:], k[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    del first
    rows, cols = np.divmod(k[starts], n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    for a in (order, starts, cols, indptr):
        a.flags.writeable = False
    return _MergePlan(n, order, starts, cols, indptr)


def _merge(plan: _MergePlan, vals: np.ndarray) -> sp.csr_matrix:
    """Deterministic duplicate merge of the COO values ``vals``: one
    sequential reduction per entry in the stable key order of ``plan``,
    straight into CSR arrays. The visit order of the element loop therefore
    fixes every accumulation order, making assembly bit-reproducible and the
    result exactly symmetric when the per-element blocks are."""
    merged = np.add.reduceat(vals[plan.order], plan.starts)
    # copies of the pattern: a caller may edit its matrix in place
    return sp.csr_matrix(
        (merged, plan.indices.copy(), plan.indptr.copy()), shape=(plan.n, plan.n)
    )


@dataclass(frozen=True, eq=False)
class FastDiagonalization:
    """Factors of the fast-diagonalisation preconditioner of the interior
    system, built by :func:`fast_diagonalization` from the knots alone.

    ``U_u``, ``U_v`` are the M-orthonormal generalized eigenvectors of each
    direction's interior stiffness and mass, ``eig`` the eigenvalue sums
    L_u[i] + L_v[j] and ``diag`` the diagonal of K_u (x) M_v + M_u (x) K_v,
    both over the (n1 - 2, n2 - 2) interior coefficient grid.
    """

    U_u: np.ndarray
    U_v: np.ndarray
    eig: np.ndarray
    diag: np.ndarray

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for a in (self.U_u, self.U_v, self.eig, self.diag))

    def preconditioner(self, A_ii):
        """The callable r -> P^-1 r for the interior matrix ``A_ii``, whose
        rows and columns run over the interior grid in row-major order.

        The scaling S = sqrt(diag / diag(A_ii)) gives the scaled reference
        operator S^-1 (K_u (x) M_v + M_u (x) K_v) S^-1, whose inverse this
        applies, the diagonal of ``A_ii``. A nonpositive diagonal entry
        means ``A_ii`` is not SPD: BreakdownError.
        """
        d = A_ii.diagonal()
        if np.any(d <= 0):
            raise BreakdownError("nonpositive diagonal entry; matrix is not SPD")
        s = np.sqrt(self.diag / d.reshape(self.diag.shape))

        def apply(r):
            y = self.U_u.T @ (s * r.reshape(s.shape)) @ self.U_v
            y /= self.eig
            return (s * (self.U_u @ y @ self.U_v.T)).ravel()

        return apply


def fast_diagonalization(kv_u: KnotVector, kv_v: KnotVector,
                         quad: TensorQuadrature) -> FastDiagonalization:
    """The :class:`FastDiagonalization` of the knot vectors ``kv_u``,
    ``kv_v``, with the 1D B-spline stiffness and mass integrated on the
    directional Gauss rules of ``quad`` and restricted to the functions
    that vanish at both ends."""
    factors = []
    for kv, pts, wts in ((kv_u, quad.pts_u, quad.wts_u), (kv_v, quad.pts_v, quad.wts_v)):
        N, dN = (basis_matrix(kv, pts, der)[:, 1:-1] for der in (0, 1))
        K = dN.T @ (wts[:, None] * dN)
        M = N.T @ (wts[:, None] * N)
        lam, U = scipy.linalg.eigh(K, M)
        factors.append((U, lam, np.diag(K), np.diag(M)))
    (U_u, lam_u, k_u, m_u), (U_v, lam_v, k_v, m_v) = factors
    return FastDiagonalization(
        U_u, U_v, np.add.outer(lam_u, lam_v), np.outer(k_u, m_v) + np.outer(m_u, k_v)
    )


@dataclass(frozen=True, eq=False)
class Discretization:
    """The geometry-independent part of stiffness assembly, built once by
    :func:`discretization` for one set of knot vectors and weights, on the
    assembly quadrature, and passed explicitly to later assemblies.

    ``Ru`` and ``Rv`` hold the parametric gradient blocks of the local
    rational basis of every element, shape (nel_u, nel_v, nloc, nq); they
    depend only on knots and weights. ``plan`` is the merge plan of the
    element matrices and ``fdm`` the factors of the interior preconditioner;
    both depend only on the knots.
    """

    kv_u: KnotVector
    kv_v: KnotVector
    weights: np.ndarray
    quad: TensorQuadrature
    Ru: np.ndarray
    Rv: np.ndarray
    plan: _MergePlan
    fdm: FastDiagonalization

    @property
    def nbytes(self) -> int:
        """Bytes held in arrays: row blocks, merge plan and preconditioner
        factors included."""
        q, p = self.quad, self.plan
        arrays = (self.weights, q.pts_u, q.wts_u, q.pts_v, q.wts_v, self.Ru, self.Rv,
                  p.order, p.starts, p.indices, p.indptr)
        return sum(a.nbytes for a in arrays) + self.fdm.nbytes

    def check(self, g: NurbsGeometry) -> None:
        """Raise ValueError unless ``g`` has the knots and weights this
        discretization was built for."""
        differ = [
            name
            for name, same in (
                ("u knots", _same_knots(g.kv_u, self.kv_u)),
                ("v knots", _same_knots(g.kv_v, self.kv_v)),
                ("weights", np.array_equal(g.weights.w, self.weights)),
            )
            if not same
        ]
        if differ:
            raise ValueError(
                f"geometry does not match the discretization: {', '.join(differ)} differ"
            )


def _same_knots(a: KnotVector, b: KnotVector) -> bool:
    return a.degree == b.degree and np.array_equal(a.knots, b.knots)


def discretization(g: NurbsGeometry) -> Discretization:
    """Build the :class:`Discretization` of ``g``'s knots and weights on
    the assembly quadrature, degree + 1 Gauss points per element direction."""
    quad = quadrature_grid(g)
    tables = _element_tables(g, quad)
    nel_u, nel_v = len(tables[0][1]), len(tables[1][1])
    nloc = (g.kv_u.degree + 1) * (g.kv_v.degree + 1)
    Ru = np.empty((nel_u, nel_v, nloc, quad.q_u * quad.q_v))
    Rv = np.empty_like(Ru)
    for eu in range(nel_u):
        Ru[eu], Rv[eu] = _row_blocks(g, tables, eu)
    Ru.flags.writeable = Rv.flags.writeable = False
    plan = _merge_plan(_local_dofs(tables, g.kv_v.n), g.ndof)
    fdm = fast_diagonalization(g.kv_u, g.kv_v, quad)
    return Discretization(g.kv_u, g.kv_v, g.weights.w, quad, Ru, Rv, plan, fdm)


def _quadrature_geometry(g: NurbsGeometry, quad: TensorQuadrature, geo: GeometryGrid | None):
    """``g`` with its Jacobian on the quadrature grid ``quad``: ``geo`` when
    the caller has evaluated it already, else a fresh evaluation."""
    if geo is None:
        return eval_geometry_grid(g, quad.pts_u, quad.pts_v, nders=1)
    if geo.jac is None or not (
        np.array_equal(geo.pts_u, quad.pts_u) and np.array_equal(geo.pts_v, quad.pts_v)
    ):
        raise ValueError("geometry grid is not a first-order evaluation on the quadrature grid")
    return geo


def _first_bad_element(*masks):
    """Index of the first element, in (eu, ev) order, where any of the
    per-element masks is set, or None."""
    bad = np.logical_or.reduce(masks)
    if not bad.any():
        return None
    return tuple(int(i) for i in np.argwhere(bad)[0])


def assemble_weighted_stiffness(
    g: NurbsGeometry,
    weight=None,
    *,
    disc: Discretization | None = None,
    geo: GeometryGrid | None = None,
):
    """Sparse symmetric matrix of the weighted diffusion form.

    ``weight`` is the scalar coefficient at the quadrature points: None for 1,
    a callable w(x, y) of physical coordinates (vectorized), or an array over
    the grid returned by :func:`quadrature_grid`. It must be strictly
    positive; a nonpositive value aborts assembly naming the element.

    With ``disc`` (:func:`discretization`), which must match ``g``'s knots
    and weights (ValueError otherwise), the call takes its row blocks and
    merge plan from there and does only the metric terms, the element
    matrices and one reduction; without it, rows are tabulated one at a
    time. Both give the same bits. ``geo`` is ``g`` already evaluated
    with its Jacobian on the quadrature grid, when the caller has it.
    """
    if disc is None:
        quad = quadrature_grid(g)
    else:
        disc.check(g)
        quad = disc.quad
    geo = _quadrature_geometry(g, quad, geo)
    shape = (len(quad.pts_u), len(quad.pts_v))
    wvals = _resolve_weight(weight, geo, shape)

    det = geo.det
    jac = geo.jac
    wblk = _grid_blocks(wvals, quad)
    dblk = _grid_blocks(det, quad)
    bad_w = np.any(wblk <= 0.0, axis=-1)
    bad = _first_bad_element(bad_w, np.any(dblk <= 0.0, axis=-1))
    if bad is not None:
        what = "diffusion weight" if bad_w[bad] else "Jacobian determinant"
        raise AssemblyError(f"nonpositive {what} in element ({bad[0]}, {bad[1]})")

    xi_x = _grid_blocks(jac[..., 1, 1] / det, quad)[..., None, :]
    xi_y = _grid_blocks(-jac[..., 0, 1] / det, quad)[..., None, :]
    eta_x = _grid_blocks(-jac[..., 1, 0] / det, quad)[..., None, :]
    eta_y = _grid_blocks(jac[..., 0, 0] / det, quad)[..., None, :]
    c = _grid_blocks(np.multiply.outer(quad.wts_u, quad.wts_v), quad) * dblk * wblk

    nel_u, nel_v = c.shape[:2]
    if disc is None:
        tables = _element_tables(g, quad)
        plan = _merge_plan(_local_dofs(tables, g.kv_v.n), g.ndof)
        rows = (_row_blocks(g, tables, eu) for eu in range(nel_u))
    else:
        plan = disc.plan
        rows = zip(disc.Ru, disc.Rv)

    nloc = (g.kv_u.degree + 1) * (g.kv_v.degree + 1)
    row_size = nel_v * nloc * nloc
    vals = np.empty(nel_u * row_size)
    lower = np.tril_indices(nloc, -1)
    for eu, (Ru, Rv) in enumerate(rows):
        gx = Ru * xi_x[eu] + Rv * eta_x[eu]
        gy = Ru * xi_y[eu] + Rv * eta_y[eu]
        ce = c[eu][:, None, :]
        K = (gx * ce) @ gx.transpose(0, 2, 1) + (gy * ce) @ gy.transpose(0, 2, 1)
        K[:, lower[0], lower[1]] = K[:, lower[1], lower[0]]
        vals[eu * row_size:(eu + 1) * row_size] = K.ravel()

    return _merge(plan, vals)


def assemble_load(g: NurbsGeometry, f, *, geo: GeometryGrid | None = None) -> np.ndarray:
    """Load vector b_k = int f phi_k dx with the assembly quadrature.

    With R_ij = w_ij N_i N_j / W, the load is the transpose of the grid
    contraction :func:`~mmiga.geometry.rational_grid_sums` performs:
    b = w o (Du^T C Dv), where Du, Dv are the directional value tables and
    C = (wts_u x wts_v) det J f / W on the quadrature grid.

    ``f(x, y)`` must be vectorized over arrays; non-finite values abort
    naming the element. ``geo`` is ``g`` already evaluated with its
    Jacobian on the quadrature grid, when the caller has it.
    """
    quad = quadrature_grid(g)
    geo = _quadrature_geometry(g, quad, geo)
    fvals = np.asarray(f(geo.points[..., 0], geo.points[..., 1]), dtype=float)
    fblk = _grid_blocks(fvals, quad)
    bad = _first_bad_element(~np.all(np.isfinite(fblk), axis=-1))
    if bad is not None:
        raise AssemblyError(f"non-finite source value in element ({bad[0]}, {bad[1]})")

    w = g.weights.w
    Du = basis_matrix(g.kv_u, quad.pts_u)
    Dv = basis_matrix(g.kv_v, quad.pts_v)
    c = np.multiply.outer(quad.wts_u, quad.wts_v) * geo.det * fvals / (Du @ w @ Dv.T)
    return (w * (Du.T @ c @ Dv)).ravel()


@dataclass(frozen=True)
class ReducedSystem:
    """Interior system after boundary-coefficient elimination."""

    matrix: sp.csr_matrix
    rhs: np.ndarray
    boundary_values: np.ndarray  # full-length vector, zero on interior
    dofs: DofMap


def _edge_coefficients(g: NurbsGeometry, axis: int, side: int, bc):
    """Boundary coefficients of one edge by L2 projection of the edge data.

    The edge runs along u at v = side (axis 0) or along v at u = side
    (axis 1). The trace of the solution space there is spanned by the
    rational basis R_i = N_i w_i / sum_j N_j w_j with the edge weights. The
    two end coefficients take the data at the corners, so adjacent edges
    agree; the others minimize the L2 misfit to ``bc`` along the true edge
    curve F(t), with arc-length measure |F'(t)| dt and degree + 1 Gauss
    points per knot span. Returns the index of the edge in the coefficient
    grid and its coefficients.
    """
    kv = (g.kv_u, g.kv_v)[axis]
    sl = (slice(None), -side) if axis == 0 else (-side, slice(None))
    w_edge = g.weights.w[sl]
    corners = g.control_points[sl][[0, -1]]

    t, wt = element_quadrature_1d(kv, kv.degree + 1)
    geo = eval_geometry_grid(g, *((t, [side]) if axis == 0 else ([side], t)), nders=1)
    x = geo.points.reshape(-1, 2)
    dmu = wt * np.hypot(*geo.jac[..., axis].reshape(-1, 2).T)
    bvals = np.broadcast_to(np.asarray(bc(x[:, 0], x[:, 1]), dtype=float), len(t))
    cvals = np.broadcast_to(np.asarray(bc(corners[:, 0], corners[:, 1]), dtype=float), 2)
    if not (np.all(np.isfinite(bvals)) and np.all(np.isfinite(cvals))):
        raise AssemblyError("non-finite boundary value on edge sample")

    N = basis_matrix(kv, t)
    R = N * w_edge / (N @ w_edge)[:, None]
    M = (R * dmu[:, None]).T @ R
    rhs = R.T @ (dmu * bvals)

    coef = np.empty(kv.n)
    coef[[0, -1]] = cvals
    if kv.n > 2:
        inner = slice(1, -1)
        rhs_inner = rhs[inner] - M[inner][:, [0, -1]] @ cvals
        coef[inner] = banded_solve(M[inner, inner], rhs_inner)
    return sl, coef


def boundary_values(g: NurbsGeometry, bc) -> np.ndarray:
    """Coefficients of the boundary ring approximating ``bc`` on the four
    edges, as a read-only full-length vector that is zero on the interior.

    The trace on each edge is a univariate rational curve that depends only
    on the knots, the weights and the boundary ring of control points; its
    coefficients come from a corner-constrained L2 projection of the edge
    data (see :func:`_edge_coefficients`).
    """
    xb = np.zeros(g.shape)
    for axis in (0, 1):
        for side in (0, 1):
            sl, coef = _edge_coefficients(g, axis, side, bc)
            xb[sl] = coef
    xb = xb.ravel()
    xb.flags.writeable = False
    return xb


def apply_dirichlet(
    A, b, g: NurbsGeometry, bc, *, boundary: np.ndarray | None = None
) -> ReducedSystem:
    """Eliminate boundary coefficients approximating ``bc`` on the four edges.

    The boundary coefficients are :func:`boundary_values` of ``g`` and
    ``bc``. A caller that imposes the same data on many geometries sharing
    knots, weights and boundary ring can compute them once and pass them as
    ``boundary``; ``bc`` is then not evaluated, only the boundary ring
    entries of ``boundary`` are read, and keeping them in step with ``g`` is
    the caller's part. The reduced interior system is
    A_II x_I = b_I - A_IB x_B; its right-hand side is b_I minus the interior
    rows of A times the full boundary vector, which is zero off the ring.
    """
    dm = dof_map(*g.shape)
    if boundary is None:
        xb = boundary_values(g, bc)
    else:
        given = np.asarray(boundary, dtype=float)
        if given.shape != (dm.total,):
            raise ValueError(
                f"boundary vector of shape {given.shape} does not match {dm.total} coefficients"
            )
        xb = np.zeros(dm.total)
        xb[dm.boundary] = given[dm.boundary]
    A_i = A.tocsr()[dm.interior]
    rhs = b[dm.interior] - A_i @ xb
    return ReducedSystem(A_i[:, dm.interior].tocsr(), rhs, xb, dm)


def solve_dirichlet(
    A,
    b,
    g: NurbsGeometry,
    bc,
    lin: LinearSolverSettings | None = None,
    *,
    boundary: np.ndarray | None = None,
    disc: Discretization | None = None,
) -> FieldCoefficients:
    """Solve A x = b with x = ``bc`` on the boundary: eliminate the boundary
    coefficients (:func:`apply_dirichlet`, which also explains
    ``boundary``), solve the interior system by CG with the
    fast-diagonalisation preconditioner and scatter the interior solution
    back into the full coefficient grid.

    The preconditioner factors come from ``disc``, which must match ``g``
    (ValueError otherwise), or are built for this call; both give the same
    bits."""
    lin = lin or LinearSolverSettings()
    if disc is None:
        fdm = fast_diagonalization(g.kv_u, g.kv_v, quadrature_grid(g))
    else:
        disc.check(g)
        fdm = disc.fdm
    red = apply_dirichlet(A, b, g, bc, boundary=boundary)
    x_int, _ = cg_solve(red.matrix, red.rhs, tol=lin.tol, maxit=lin.maxit,
                        precond=fdm.preconditioner(red.matrix))
    full = red.boundary_values.copy()
    full[red.dofs.interior] = x_int
    return FieldCoefficients(full, g.shape)


def solve_poisson(
    g: NurbsGeometry,
    f,
    bc,
    lin: LinearSolverSettings | None = None,
    *,
    disc: Discretization | None = None,
    boundary: np.ndarray | None = None,
    geo: GeometryGrid | None = None,
) -> FieldCoefficients:
    """Galerkin solve of  -div(grad u) = f,  u = bc on the boundary.

    The geometry is evaluated on the quadrature grid once, for both forms,
    unless the caller passes that evaluation as ``geo``. ``disc`` goes to
    :func:`assemble_weighted_stiffness` and :func:`solve_dirichlet`, and
    ``boundary`` to :func:`apply_dirichlet`.
    """
    geo = _quadrature_geometry(g, quadrature_grid(g) if disc is None else disc.quad, geo)
    A = assemble_weighted_stiffness(g, disc=disc, geo=geo)
    b = assemble_load(g, f, geo=geo)
    return solve_dirichlet(A, b, g, bc, lin, boundary=boundary, disc=disc)


@dataclass(frozen=True)
class FieldGrid:
    """A scalar field sampled on a tensor grid: value, physical gradient and
    (optionally) physical Hessian."""

    values: np.ndarray  # (Nu, Nv)
    grad: np.ndarray | None  # (Nu, Nv, 2)
    hess: np.ndarray | None  # (Nu, Nv, 2, 2)


@dataclass(frozen=True)
class FieldEval:
    value: float
    grad: np.ndarray | None
    hess: np.ndarray | None


def eval_field_grid(
    g: NurbsGeometry,
    u: FieldCoefficients,
    pts_u,
    pts_v,
    nders: int = 0,
    geo: GeometryGrid | None = None,
) -> FieldGrid:
    """Evaluate a coefficient field on a tensor grid with physical derivatives.

    The gradient comes from the Jacobian-inverse chain rule; the Hessian uses
    the full second-order transformation including the second parametric
    derivatives of the geometry map.
    """
    pts_u = np.atleast_1d(np.asarray(pts_u, float))
    pts_v = np.atleast_1d(np.asarray(pts_v, float))
    if nders >= 1 and (geo is None or (nders >= 2 and geo.second is None)):
        geo = eval_geometry_grid(g, pts_u, pts_v, nders=nders)
    sums = rational_grid_sums(
        g.kv_u, g.kv_v, g.weights, u.grid[:, :, None], pts_u, pts_v, nders
    )
    values = sums[0, 0][..., 0]
    if nders == 0:
        return FieldGrid(values, None, None)

    det = geo.det
    if np.any(np.abs(det) < 1e-300):
        raise ZeroDivisionError("singular geometry Jacobian on evaluation grid")
    jac = geo.jac
    xi_x = jac[..., 1, 1] / det
    xi_y = -jac[..., 0, 1] / det
    eta_x = -jac[..., 1, 0] / det
    eta_y = jac[..., 0, 0] / det

    du, dv = sums[1, 0][..., 0], sums[0, 1][..., 0]
    gx = du * xi_x + dv * eta_x
    gy = du * xi_y + dv * eta_y
    grad = np.stack([gx, gy], axis=-1)
    if nders == 1:
        return FieldGrid(values, grad, None)

    # parametric Hessian minus the geometry-curvature term, then push both
    # indices through the inverse Jacobian
    duu, duv, dvv = sums[2, 0][..., 0], sums[1, 1][..., 0], sums[0, 2][..., 0]
    Fuu, Fuv, Fvv = geo.second[..., 0, :], geo.second[..., 1, :], geo.second[..., 2, :]
    b00 = duu - (gx * Fuu[..., 0] + gy * Fuu[..., 1])
    b01 = duv - (gx * Fuv[..., 0] + gy * Fuv[..., 1])
    b11 = dvv - (gx * Fvv[..., 0] + gy * Fvv[..., 1])

    m00 = xi_x * b00 + eta_x * b01
    m01 = xi_x * b01 + eta_x * b11
    m10 = xi_y * b00 + eta_y * b01
    m11 = xi_y * b01 + eta_y * b11
    h00 = m00 * xi_x + m01 * eta_x
    h01 = m00 * xi_y + m01 * eta_y
    h10 = m10 * xi_x + m11 * eta_x
    h11 = m10 * xi_y + m11 * eta_y
    off = 0.5 * (h01 + h10)
    hess = np.stack(
        [np.stack([h00, off], axis=-1), np.stack([off, h11], axis=-1)], axis=-2
    )
    return FieldGrid(values, grad, hess)


def eval_field(g: NurbsGeometry, u: FieldCoefficients, s, nders: int = 0) -> FieldEval:
    """Point evaluation of a coefficient field; see :func:`eval_field_grid`."""
    fg = eval_field_grid(g, u, [float(s[0])], [float(s[1])], nders=nders)
    return FieldEval(
        float(fg.values[0, 0]),
        None if fg.grad is None else fg.grad[0, 0],
        None if fg.hess is None else fg.hess[0, 0],
    )
