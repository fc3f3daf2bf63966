"""Galerkin assembly over the rational tensor-product space.

Stiffness matrices are the weighted diffusion forms
A_kl = int a grad(R_k) . grad(R_l) dx of the rational basis R_k, with a
diffusion weight a; with a = 1 this is the Poisson bilinear form.
Elements are the nonzero knot-span rectangles, each with per-direction
Gauss rules of degree + 1 points. The quadrature grid is the knot vectors'
``gauss`` memo entries (:class:`~mmiga.splines.KnotVector`), which hold
its points, weights and basis tables; every form reads it there.

The load is a sum over the whole grid, so it uses the dense directional
tables of the quadrature grid: it is the adjoint of grid evaluation,
b = w o (Du^T C Dv), with C the quadrature weights times det J
times f over the weight sum at each point; with all weights equal,
R_ij = N_i N_j and b = Du^T C Dv.

The stiffness is sum-factorised (Antolin, Buffa, Calabro, Martinelli &
Sangalli, CMAME 285, 2015): with R_k = w_k N_k / W,
A_kl = w_k w_l sum_q phi_k^T H phi_l, where phi = (dN/du, dN/dv, N) of the
B-spline product, H = (c / W^2) E^T J^-1 J^-T E, E = [I | -grad W / W] and
c = Gauss weight * det J * a. Each (alpha, beta) term is contracted one
direction at a time against element-local 1D pair tables d^a N_i d^b N_i'
by matmul, and summed over elements into band form: along u by a fixed 0/1
scatter matrix, along v by adding each element's rows into the band
through strided views. Only upper entries are formed, and the band is
the matrix: it is stored by diagonals, each lower one the band entries of
one offset and its upper mirror the same values, so matrices are
bit-symmetric and every sum runs in the same order on every run. With all
weights equal, grad W = 0 and the terms in N itself are skipped.

The contraction runs one block of v element columns at a time
(:func:`_blocks`), so besides the band no temporary is the size of the
quadrature grid: at 128 x 128 cubic C^2 elements the stiffness peaks
10 MB above its inputs, against 35 MB with each stage over the whole
grid. The bits are those of the whole-grid stages. The metric is
elementwise; the v products are batched per element, the same products
in blocks; and the v band rows add their elements in ascending order, as
one sparse product over all of them does. Only the u products are cut,
by columns, and their inner dimension is an element's p + 1 Gauss points:
BLAS kernels can round the last columns of a product differently from
the same columns inside a wider one, and OpenBLAS 0.3.31 on AVX-512 does
so from an inner dimension of 16 (measured), so no wider product is cut.

All but the metric terms depend only on the knots, and are per-direction
memo entries of the knot vectors (:class:`~mmiga.splines.KnotVector`): the
quadrature grid, the element pair tables and u scatter of the stiffness
(``element_pairs``, 0.3 MB at 128 elements of degree 3), and the 1D
preconditioner factors. Each is built on first use, once for a square
mesh, whose two directions share a knot vector, and once per run of the
moving-mesh loop, whose meshes share the knot vectors of the first.

A tensor-product space couples function (i, j) only to (i + di, j + dj)
with |di| <= p_u and |dj| <= p_v, so the stiffness is a
:class:`scipy.sparse.dia_matrix` of the (2 p_u + 1)(2 p_v + 1) diagonals
of offset di n2 + dj in ascending order, fewer on coarse meshes, where two
pairs share one (:func:`_diagonals`). Its product sums each row over
ascending offsets, that is ascending columns, from 0, as a CSR product
does; the zeros it stores, for pairs that share no element (on C^0
knots, some with |i - i'| <= p) and for columns off the grid, add exact
zeros, so a product has the bits of the CSR product over the pairs that
share an element.

Dirichlet data is imposed by eliminating boundary coefficients: the trace of
the solution space on each edge is a univariate rational curve, so boundary
coefficients follow from a 1D L2 projection of the boundary data onto that
trace space, with the corner coefficients fixed by the data at the corners.
Those coefficients depend only on the knots, the weights and the boundary
ring of control points (:func:`boundary_values`). A Dirichlet solve takes
them as the boundary ring of its start field, whose interior is CG's first
guess, so a run whose boundary stays put starts each solve from the last.
The interior matrix A_II is not copied out of A: it is applied as the
interior rows of A times a vector that is zero on the ring
(:class:`ReducedSystem`), the bits of a product with the slice, since the
ring columns multiply exact zeros and the product sums each row in
ascending column order.

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
interior coefficient grid. Each direction's eigendecomposition depends
only on its knots and is a memo entry of its knot vector
(:attr:`~mmiga.splines.KnotVector.interior_eigen`), so a square mesh,
whose two directions share one knot vector, factors once, and a later
solve on the same knot vectors factors not at all
(:func:`fast_diagonalization`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import AssemblyError, BreakdownError
from .geometry import (
    GeometryGrid,
    NurbsGeometry,
    QuadratureRule,  # re-exported: the Gauss rule lives in geometry
    _equal_weights,
    _gauss_geometry,
    _geometry_grid,
    _rational_sums,
    _spline_sums,
    boundary_mask,
    eval_geometry_grid,
    fixed_basis,
    gauss_rule,
    grid_basis,
)
from .linalg import LinearSolverSettings, banded_solve, cg_solve
from .splines import KnotVector

__all__ = [
    "QuadratureRule",
    "DofMap",
    "FieldCoefficients",
    "FieldGrid",
    "ReducedSystem",
    "gauss_rule",
    "dof_map",
    "fast_diagonalization",
    "assemble_weighted_stiffness",
    "assemble_load",
    "boundary_values",
    "apply_dirichlet",
    "solve_dirichlet",
    "solve_poisson",
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
    """The diffusion weight's values on the quadrature grid, or None for
    the weight 1, which the metric then skips: c * 1 is c."""
    if weight is None:
        return None
    if callable(weight):
        vals = np.asarray(weight(geo.points[..., 0], geo.points[..., 1]), dtype=float)
    else:
        vals = np.asarray(weight, dtype=float)
    if vals.shape != shape:
        raise ValueError(f"weight grid {vals.shape} does not match quadrature grid {shape}")
    return vals


# Bytes of the largest temporary of one block of a blocked contraction
# (:func:`_blocks`): the stiffness's blocks of v element columns and the
# error norms' blocks of element rows. Larger blocks make fewer calls but
# more fresh pages: on a 2-core AVX-512 host, 256 KiB ran the case2_tanh
# moving-mesh run (32 x 32 cubic elements) and both at 128 x 128 fastest
# of 128 KiB to 1 MiB, at 4-33 blocks a call.
_BLOCK_BYTES = 256 * 1024


def _blocks(n: int, item_bytes: int) -> list:
    """Slices cutting ``range(n)`` into consecutive blocks of items, each
    as many as fit ``_BLOCK_BYTES`` at ``item_bytes`` per item, and at least
    one; the last block holds what is left."""
    step = max(1, _BLOCK_BYTES // item_bytes)
    return [slice(i, min(i + step, n)) for i in range(0, n, step)]


def _grid_blocks(x: np.ndarray, g: NurbsGeometry) -> np.ndarray:
    """Regroup a (nel_u * q_u, nel_v * q_v) quadrature grid of ``g`` into
    per-element flattened blocks of shape (nel_u, nel_v, q_u * q_v)."""
    nu, nv = len(g.kv_u.nonzero_spans), len(g.kv_v.nonzero_spans)
    blocks = x.reshape(nu, x.shape[0] // nu, nv, x.shape[1] // nv).transpose(0, 2, 1, 3)
    return blocks.reshape(nu, nv, -1)


def fast_diagonalization(kv_u: KnotVector, kv_v: KnotVector, A_ii):
    """The callable r -> P^-1 r of the fast-diagonalisation preconditioner
    for the interior matrix ``A_ii`` on the knot vectors ``kv_u``, ``kv_v``,
    whose rows and columns run over the (n1 - 2, n2 - 2) interior grid in
    row-major order: a matrix or a :class:`ReducedSystem`, of which only
    ``diagonal()`` is read.

    Each direction's 1D factors are its knot vector's ``interior_eigen``
    memo entry (:class:`~mmiga.splines.InteriorEigen`): the M-orthonormal
    generalized eigenpairs of the B-spline stiffness and mass on its
    assembly Gauss rule, restricted to the functions that vanish at both
    ends. Those are computed once per knot vector, so a square mesh, whose
    directions share one, factors once, and a later solve on the same knot
    vectors reuses them. Only the eigenvalue sums L_u[i] + L_v[j] and the
    diagonal of K_u (x) M_v + M_u (x) K_v over the interior grid are built
    here. The scaling S = sqrt(diag / diag(A_ii)) gives the scaled
    reference operator S^-1 (K_u (x) M_v + M_u (x) K_v) S^-1, whose inverse
    this applies, the diagonal of ``A_ii``. A nonpositive diagonal entry
    means ``A_ii`` is not SPD: BreakdownError.
    """
    eu, ev = kv_u.interior_eigen, kv_v.interior_eigen
    eig = np.add.outer(eu.lam, ev.lam)
    diag = np.outer(eu.k, ev.m) + np.outer(eu.m, ev.k)
    d = A_ii.diagonal()
    if np.any(d <= 0):
        raise BreakdownError("nonpositive diagonal entry; matrix is not SPD")
    s = np.sqrt(diag / d.reshape(diag.shape))

    def apply(r):
        y = eu.U.T @ (s * r.reshape(s.shape)) @ ev.U
        y /= eig
        return (s * (eu.U @ y @ ev.U.T)).ravel()

    return apply


# phi = (dN/du, dN/dv, N) of the B-spline product N = N_i(u) N_j(v): the
# derivative orders in u and in v of each component
_PHI = ((1, 0), (0, 1), (0, 0))
# the (alpha, beta) terms of phi_k^T H phi_l: those of the metric block
# first, then the five that involve N itself, which vanish when W is constant
_TERMS = ((0, 0), (0, 1), (1, 0), (1, 1), (0, 2), (2, 0), (1, 2), (2, 1), (2, 2))


def _first_bad_element(*masks):
    """Index of the first element, in (eu, ev) order, where any of the
    per-element masks is set, or None."""
    bad = np.logical_or.reduce(masks)
    if not bad.any():
        return None
    return tuple(int(i) for i in np.argwhere(bad)[0])


def _weight_quotient(g: NurbsGeometry):
    """The weight sum W and E's entries -W_u / W, -W_v / W over the
    quadrature grid, or None when all weights are equal and grad W = 0."""
    w = g.weights.w
    if _equal_weights(w):
        return None
    sums = _spline_sums(fixed_basis(g, "gauss"), w[..., None], 1)
    W = sums[0, 0][:, 0]
    return W, -sums[1, 0][:, 0] / W, -sums[0, 1][:, 0] / W


def _metric(g: NurbsGeometry, geo: GeometryGrid, wvals, quotient, cols: slice):
    """The entries (alpha, beta), alpha <= beta, of
    H = (c / W^2) E^T J^-1 J^-T E on the columns ``cols`` of the quadrature
    grid, with c = Gauss weight * det J * ``wvals`` (``wvals`` None for 1)
    and E = [I | -grad W / W] from ``quotient`` (:func:`_weight_quotient`).
    With all weights equal (``quotient`` None), grad W = 0 and the factor
    w_k w_l / W^2 of the form is 1: only the 2 x 2 metric block
    c J^-1 J^-T is returned. Every entry is elementwise, so the columns
    have the bits of the whole grid's."""
    jac = geo.jac[:, cols]
    j00, j01, j10, j11 = (jac[..., a, b] for a in (0, 1) for b in (0, 1))
    # c J^-1 J^-T = (c / det^2) adj(J) adj(J)^T
    s = np.multiply.outer(g.kv_u.gauss.wts, g.kv_v.gauss.wts[cols])
    if wvals is not None:
        s *= wvals[:, cols]
    s /= geo.det[:, cols]
    H = {(0, 0): s * (j01 * j01 + j11 * j11),
         (0, 1): -s * (j00 * j01 + j10 * j11),
         (1, 1): s * (j00 * j00 + j10 * j10)}
    if quotient is None:
        return H
    W, e_u, e_v = (a[:, cols] for a in quotient)
    H = {ab: h / (W * W) for ab, h in H.items()}
    H[0, 2] = H[0, 0] * e_u + H[0, 1] * e_v
    H[1, 2] = H[0, 1] * e_u + H[1, 1] * e_v
    H[2, 2] = H[0, 2] * e_u + H[1, 2] * e_v
    return H


def _band(g: NurbsGeometry, geo: GeometryGrid, wvals) -> np.ndarray:
    """The upper band (n2, 2 p_v + 1, n1, p_u + 1) of the form, one block
    of v element columns at a time (:func:`_blocks`), with the bits of the
    whole grid at once (see the module docstring).

    The 1D factors are the knot vectors' ``element_pairs`` memo entries
    (:class:`~mmiga.splines.ElementPairs`): along u their upper pairs
    i <= i', gathered per call into one table per (a, b), and along v the
    full tables of the terms of :data:`_TERMS` the weights use side by
    side, the memo's own array when all weights are equal. A block takes
    its columns' metric entries (:func:`_metric`); contracts each term
    with the u pair tables and scatters it into u band rows; contracts all
    terms at once with its elements' v pair tables; and adds the result
    into the v band rows (j, j' - j + p_v). Each band row sums its
    elements in ascending order, from 0: element e adds its local row a
    into band row (first[e] + a, .), so a run of elements whose first
    functions are equally spaced adds row a through one strided view, and
    each run adds a = p_v, ..., 0 in turn."""
    pu, pv = g.kv_u.element_pairs, g.kv_v.element_pairs
    nel_u, nel_v = len(pu.first), len(pv.first)
    q_u, q_v = pu.tables.shape[2] // 4, pv.tables.shape[2] // 4
    p_v, m = g.kv_v.degree, pu.scatter.shape[0]
    iu, ju = np.triu_indices(g.kv_u.degree + 1)
    tri = iu * (g.kv_u.degree + 1) + ju
    pairs_u = np.ascontiguousarray(
        pu.tables.reshape(nel_u, -1, 4, q_u)[:, tri].transpose(2, 0, 1, 3))
    quotient = _weight_quotient(g)
    terms, pairs_v = _TERMS[:4], pv.tables
    if quotient is not None:
        terms = _TERMS
        orders = [2 * _PHI[al][1] + _PHI[be][1] for al, be in terms]
        pairs_v = pairs_v.reshape(nel_v, -1, 4, q_v)[:, :, orders].reshape(nel_v, -1, 9 * q_v)
    tq_v, first = len(terms) * q_v, pv.first
    band = np.zeros((g.kv_v.n, 2 * p_v + 1, m))
    for ev in _blocks(nel_v, tq_v * m * 8):
        H = _metric(g, geo, wvals, quotient, slice(ev.start * q_v, ev.stop * q_v))
        z = np.empty((ev.stop - ev.start, tq_v, m))
        for t, (al, be) in enumerate(terms):
            h = H[min(al, be), max(al, be)].reshape(nel_u, q_u, -1)
            x = pairs_u[2 * _PHI[al][0] + _PHI[be][0]] @ h
            xb = pu.scatter @ x.reshape(nel_u * len(tri), -1)
            z[:, t * q_v:(t + 1) * q_v] = xb.reshape(m, -1, q_v).transpose(1, 2, 0)
        y = (pairs_v[ev] @ z).reshape(len(z), p_v + 1, p_v + 1, m)
        # a run ends after element k > 0 when its step to the next element
        # differs from the step before it
        step = np.diff(first[ev])
        runs = [0, *(np.flatnonzero(step[1:] != step[:-1]) + 2), len(y)]
        for r0, r1 in zip(runs, runs[1:]):
            j, d = first[ev.start + r0], step[r0] if r1 - r0 > 1 else 1
            for a in range(p_v, -1, -1):
                band[j + a:j + a + d * (r1 - r0):d, p_v - a:2 * p_v + 1 - a] += y[r0:r1, a]
    return band.reshape(g.kv_v.n, 2 * p_v + 1, g.kv_u.n, -1)


def _diagonals(band: np.ndarray, w: np.ndarray) -> sp.dia_matrix:
    """The matrix of the upper band (n2, 2 p_v + 1, n1, p_u + 1) of
    :func:`_band`, by diagonals, each entry (k, l) scaled by w_k w_l unless
    all weights ``w`` are equal.

    Entry (i, j), (i + di, j + dj) lies on the diagonal of offset
    o = di n2 + dj; the upper ones are those with di > 0, or di = 0 and
    dj >= 0, the offsets in ascending order. Diagonal -o holds the band
    entries of offset o indexed by row, and diagonal +o the same values
    shifted by o, so the matrix is bit-symmetric. A row's entries of an
    offset whose column is off the grid, and those of pairs that share no
    element, are exact zeros. On coarse meshes (n2 <= 2 p_v) the pairs
    (di, dj) and (di + 1, dj - n2) share an offset: their rows are disjoint,
    each one zero where the other holds its entry, so they add into one
    diagonal with the bits of either."""
    n2, nv, n1, nu = band.shape
    p_v, size = nv // 2, n1 * n2
    # the first dj of each di: the upper offsets of a di are consecutive integers
    dj0 = [0] + [-p_v] * (nu - 1)
    upper = np.unique([di * n2 + dj for di in range(nu) for dj in range(dj0[di], p_v + 1)])
    n_up = len(upper)
    data = np.zeros((2 * n_up - 1, n1, n2))
    lower = data[n_up - 1::-1]  # row r: the diagonal -upper[r]
    for di in range(nu):
        r = np.searchsorted(upper, di * n2 + dj0[di])
        lower[r:r + p_v + 1 - dj0[di]] += band[:, p_v + dj0[di]:, :, di].transpose(1, 2, 0)
    data = data.reshape(2 * n_up - 1, size)
    lower = data[n_up - 1::-1]
    if not _equal_weights(w):
        w = w.ravel()
        for r, o in enumerate(upper):
            lower[r, :size - o] *= w[o:] * w[:size - o]
    for r, o in enumerate(upper[1:], 1):
        data[n_up - 1 + r, o:] = lower[r, :size - o]
    return sp.dia_matrix((data, np.concatenate([-upper[::-1], upper[1:]])), shape=(size, size))


def assemble_weighted_stiffness(
    g: NurbsGeometry,
    weight=None,
    *,
    geo: GeometryGrid | None = None,
):
    """Sparse symmetric matrix of the weighted diffusion form, stored by
    diagonals (:class:`scipy.sparse.dia_matrix`, see :func:`_diagonals`).

    ``weight`` is the scalar coefficient at the quadrature points: None for 1,
    a callable w(x, y) of physical coordinates (vectorized), or an array over
    the assembly Gauss grid ``g.kv_u.gauss.pts`` x ``g.kv_v.gauss.pts``
    (the knot vectors' memo entries). It must be strictly
    positive; a nonpositive value aborts assembly naming the element.

    The knot-only factors are the knot vectors' ``element_pairs`` memo
    entries, built on the first call on them. ``geo`` is ``g`` already
    evaluated with its Jacobian on the quadrature grid, when the caller
    has it.
    """
    geo = _gauss_geometry(g, geo)
    wvals = _resolve_weight(weight, geo, geo.det.shape)

    weight_bad = wvals is not None and np.any(wvals <= 0.0)
    if weight_bad or np.any(geo.det <= 0.0):
        bad_det = np.any(_grid_blocks(geo.det, g) <= 0.0, axis=-1)
        bad_w = (np.any(_grid_blocks(wvals, g) <= 0.0, axis=-1) if weight_bad
                 else np.zeros_like(bad_det))
        bad = _first_bad_element(bad_w, bad_det)
        what = "diffusion weight" if bad_w[bad] else "Jacobian determinant"
        raise AssemblyError(f"nonpositive {what} in element ({bad[0]}, {bad[1]})")

    return _diagonals(_band(g, geo, wvals), g.weights.w)


def assemble_load(
    g: NurbsGeometry,
    f,
    *,
    geo: GeometryGrid | None = None,
) -> np.ndarray:
    """Load vector b_k = int f phi_k dx with the assembly quadrature.

    With R_ij = w_ij N_i N_j / W, the load is the transpose of the grid
    contraction :func:`~mmiga.geometry.rational_grid_sums` performs:
    b = w o (Du^T C Dv), where Du, Dv are the directional value tables and
    C = (wts_u x wts_v) det J f / W on the quadrature grid. With all weights
    equal, R_ij = N_i N_j and b = Du^T C Dv with C = (wts_u x wts_v) det J f.

    ``f(x, y)`` must be vectorized over arrays; non-finite values abort
    naming the element. ``geo`` is ``g`` already evaluated with its Jacobian
    on the quadrature grid, when the caller has it.
    """
    geo = _gauss_geometry(g, geo)
    fvals = np.asarray(f(geo.points[..., 0], geo.points[..., 1]), dtype=float)
    fblk = _grid_blocks(fvals, g)
    bad = _first_bad_element(~np.all(np.isfinite(fblk), axis=-1))
    if bad is not None:
        raise AssemblyError(f"non-finite source value in element ({bad[0]}, {bad[1]})")

    w = g.weights.w
    tables = fixed_basis(g, "gauss")
    Du, Dv = tables.u.D[0], tables.v.D[0]
    c = np.multiply.outer(tables.u.wts, tables.v.wts) * geo.det * fvals
    if _equal_weights(w):
        return (Du.T @ c @ Dv).ravel()
    c = c / _spline_sums(tables, w[..., None], 0)[0, 0][:, 0]
    return (w * (Du.T @ c @ Dv)).ravel()


@dataclass(frozen=True)
class ReducedSystem:
    """Interior system A_II x = ``rhs`` after boundary-coefficient
    elimination, held as the full matrix ``A``.

    ``red @ x`` is the interior rows of ``A`` times the full-length vector
    that is ``x`` on the interior and zero on the ring: the bits of A_II x,
    since the ring columns multiply exact zeros and the product, by
    diagonals as by CSR, sums each row in ascending column order.
    ``diagonal()`` is the diagonal of A_II, so
    :func:`~mmiga.linalg.cg_solve` and :func:`fast_diagonalization` take
    the system as they would take A_II. The full-length vector is
    ``work``, one per system and zero on the ring, so a product allocates
    only its result; a system is therefore not for products from two
    threads at once.
    """

    A: sp.spmatrix
    rhs: np.ndarray
    dofs: DofMap
    work: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "work", np.zeros(self.dofs.total))

    def __matmul__(self, x):
        # only the interior of the work vector is ever written: its ring
        # stays zero from one product to the next
        self.work[self.dofs.interior] = x
        return (self.A @ self.work)[self.dofs.interior]

    def diagonal(self) -> np.ndarray:
        return self.A.diagonal()[self.dofs.interior]


def _edge_coefficients(g: NurbsGeometry, axis: int, side: int, bc):
    """Boundary coefficients of one edge by L2 projection of the edge data.

    The edge runs along u at v = side (axis 0) or along v at u = side
    (axis 1). The trace of the solution space there is spanned by the
    rational basis R_i = N_i w_i / sum_j N_j w_j with the edge weights. The
    two end coefficients take the data at the corners, so adjacent edges
    agree; the others minimize the L2 misfit to ``bc`` along the true edge
    curve F(t), with arc-length measure |F'(t)| dt on the assembly Gauss
    grid along the edge (the ``gauss`` memo entry). Returns the index of
    the edge in the coefficient grid and its coefficients.
    """
    kv = (g.kv_u, g.kv_v)[axis]
    sl = (slice(None), -side) if axis == 0 else (-side, slice(None))
    w_edge = g.weights.w[sl]
    corners = g.control_points[sl][[0, -1]]

    gauss, across = kv.gauss, np.array([float(side)])
    geo = eval_geometry_grid(g, *((gauss.pts, across) if axis == 0 else (across, gauss.pts)), 1)
    x = geo.points.reshape(-1, 2)
    dmu = gauss.wts * np.hypot(*geo.jac[..., axis].reshape(-1, 2).T)
    bvals = np.broadcast_to(np.asarray(bc(x[:, 0], x[:, 1]), dtype=float), len(x))
    cvals = np.broadcast_to(np.asarray(bc(corners[:, 0], corners[:, 1]), dtype=float), 2)
    if not (np.all(np.isfinite(bvals)) and np.all(np.isfinite(cvals))):
        raise AssemblyError("non-finite boundary value on edge sample")

    N = gauss.D[0]
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


def apply_dirichlet(A, b, start: FieldCoefficients) -> ReducedSystem:
    """Eliminate the boundary coefficients, which are the boundary ring of
    the start field ``start``; its interior entries are not read.

    The reduced interior system is A_II x_I = b_I - A_IB x_B; its
    right-hand side is the interior entries of b - A x_B, with x_B the
    start's ring, zero off the ring. A_II is not copied out of ``A``, nor
    ``A`` converted to another sparse format: the :class:`ReducedSystem`
    applies A_II as the interior rows of ``A``. The
    start and ``b``, a 1D array, must each have one entry per row of ``A``
    (ValueError otherwise).
    """
    if start.values.size != A.shape[0]:
        raise ValueError(f"start field on grid {start.shape} does not match a matrix "
                         f"of {A.shape[0]} rows")
    b = np.asarray(b)
    if b.shape != (A.shape[0],):
        raise ValueError(f"right-hand side of shape {b.shape} does not match a matrix "
                         f"of {A.shape[0]} rows")
    dm = dof_map(*start.shape)
    xb = np.zeros(dm.total)
    xb[dm.boundary] = start.values[dm.boundary]
    return ReducedSystem(A, b[dm.interior] - (A @ xb)[dm.interior], dm)


def solve_dirichlet(
    A,
    b,
    g: NurbsGeometry,
    start: FieldCoefficients,
    lin: LinearSolverSettings | None = None,
) -> FieldCoefficients:
    """Solve A x = b from the start field ``start``, a coefficient field on
    ``g``'s grid (ValueError otherwise): its boundary ring is the Dirichlet
    data and its interior entries are CG's initial guess. The boundary
    coefficients are eliminated (:func:`apply_dirichlet`), the interior
    system, the interior rows of ``A``, is solved by CG with the
    fast-diagonalisation preconditioner, and the result is a copy of the
    start with the solved interior.

    A cold start is the :func:`boundary_values` of the data with a zero
    interior; a run whose boundary ring stays put starts each solve from
    the last one, whose ring is the same data.

    Of ``g`` the solve reads only its grid shape and its knot vectors,
    whose memo entries hold the preconditioner's 1D factors
    (:func:`fast_diagonalization`), not the stiffness's pair tables."""
    lin = lin or LinearSolverSettings()
    if start.shape != g.shape:
        raise ValueError(f"start field on grid {start.shape} does not match {g.shape}")
    red = apply_dirichlet(A, b, start)
    x_int, _ = cg_solve(red, red.rhs, tol=lin.tol, maxit=lin.maxit,
                        precond=fast_diagonalization(g.kv_u, g.kv_v, red),
                        x0=start.values[red.dofs.interior])
    full = start.values.copy()
    full[red.dofs.interior] = x_int
    return FieldCoefficients(full, g.shape)


def solve_poisson(g: NurbsGeometry, f, bc,
                  lin: LinearSolverSettings | None = None) -> FieldCoefficients:
    """Galerkin solve of  -div(grad u) = f,  u = bc on the boundary, from a
    cold start. One evaluation of the geometry on the quadrature grid serves
    both forms; repeated solves on one geometry evaluate it once and call
    the forms and :func:`solve_dirichlet`. The knot-only data are memo
    entries of ``g``'s knot vectors, built by the first solve on them.
    """
    geo = eval_geometry_grid(g, g.kv_u.gauss.pts, g.kv_v.gauss.pts, 1)
    A = assemble_weighted_stiffness(g, geo=geo)
    b = assemble_load(g, f, geo=geo)
    return solve_dirichlet(A, b, g, FieldCoefficients(boundary_values(g, bc), g.shape), lin)


@dataclass(frozen=True)
class FieldGrid:
    """A scalar field sampled on a tensor grid: value, physical gradient and
    (optionally) physical Hessian."""

    values: np.ndarray  # (Nu, Nv)
    grad: np.ndarray | None  # (Nu, Nv, 2)
    hess: np.ndarray | None  # (Nu, Nv, 2, 2)


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
    derivatives of the geometry map. The grid is tabulated once
    (:func:`~mmiga.geometry.grid_basis`: the knot vectors' memo entries when
    ``pts_u``, ``pts_v`` are their arrays, else built per call), and the
    field and, when derivatives are asked for, the geometry are contracted
    with those tables one at a time, as
    :func:`~mmiga.geometry.eval_geometry_grid` contracts the geometry, so
    the bits do not depend on who evaluated it. ``geo`` is ``g`` already
    evaluated on the grid, when the caller has it (ValueError when it is of
    other points); one of a lower order than ``nders`` is evaluated again.
    """
    pts_u = np.atleast_1d(np.asarray(pts_u, float))
    pts_v = np.atleast_1d(np.asarray(pts_v, float))
    if geo is not None and not (np.array_equal(geo.pts_u, pts_u)
                                and np.array_equal(geo.pts_v, pts_v)):
        raise ValueError("geometry grid is not an evaluation on the points of the field grid")
    tables = grid_basis(g.kv_u, g.kv_v, pts_u, pts_v, nders)
    if nders >= 1 and (geo is None or any(a is None for a in (geo.jac, geo.second)[:nders])):
        geo = _geometry_grid(pts_u, pts_v,
                             _rational_sums(tables, g.weights, g.control_points, nders), nders)
    return _field_grid(_rational_sums(tables, g.weights, u.grid[:, :, None], nders), geo, nders)


def _field_grid(sums: dict, geo: GeometryGrid | None, nders: int) -> FieldGrid:
    """The :class:`FieldGrid` of a field's :func:`~mmiga.geometry.rational_grid_sums`
    on a grid, with the geometry ``geo`` evaluated there to order ``nders``
    (None when ``nders`` is 0). Every step is elementwise, so a block of
    the grid's rows has the bits of those rows of the whole."""
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

