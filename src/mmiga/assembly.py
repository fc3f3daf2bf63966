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
by matmul, and summed over elements into band form by fixed 0/1 scatter
matrices. Only upper entries are formed; a fixed gather reads the CSR
values out of the band, every lower entry from its mirror, so matrices are
bit-symmetric and every sum runs in the same order on every run. With all
weights equal, grad W = 0 and the terms in N itself are skipped. The CSR
pattern holds the pairs of functions sharing an element, so on C^0 knots
pairs with |i - i'| <= p that share none are not stored.

All but the metric terms depend only on the knots. The quadrature grid
lives with the knot vectors, and a :class:`Discretization`
(:func:`discretization`) holds the pair tables, scatter and gather maps and
preconditioner factors, 7.8 MB at 128 x 128 elements of degree 3 with
equal weights. A single solve builds one; the moving-mesh loop builds one
per run and passes it to every call. The first solve that eliminates the
boundary adds the interior-interior maps of the CSR pattern, which the
later solves of a run reuse (14.2 MB in all at that size).

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
depend only on the knots, and a :class:`Discretization` holds them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .errors import AssemblyError, BreakdownError
from .geometry import (
    GeometryGrid,
    NurbsGeometry,
    QuadratureRule,  # re-exported: the Gauss rule lives in geometry
    _equal_weights,
    _gauss_geometry,
    _spline_sums,
    boundary_mask,
    eval_geometry_grid,
    fixed_basis,
    gauss_rule,
    rational_grid_sums,
)
from .linalg import LinearSolverSettings, banded_solve, cg_solve
from .splines import KnotVector

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


def _element_tables(kv_u: KnotVector, kv_v: KnotVector):
    """Per-element blocks of the B-spline values and first derivatives the
    stiffness needs, read out of the knot vectors' ``gauss`` tables.

    ``Lu[a][eu]`` is the (q_u, p+1) block of d^a N / du^a on element row
    ``eu`` (its Gauss points against the p+1 functions nonzero there), and
    likewise ``Lv`` along v; ``first_u``, ``first_v`` give the global index
    of the first of those functions on each element. Returned as
    ``((Lu, first_u), (Lv, first_v))``.
    """
    tables = []
    for kv in (kv_u, kv_v):
        first = np.asarray(kv.nonzero_spans) - kv.degree
        rows = np.arange(len(kv.gauss.pts)).reshape(len(first), -1, 1)
        cols = first[:, None, None] + np.arange(kv.degree + 1)
        tables.append((np.stack([kv.gauss.D[a][rows, cols] for a in (0, 1)]), first))
    return tables


def _grid_blocks(x: np.ndarray, g: NurbsGeometry) -> np.ndarray:
    """Regroup a (nel_u * q_u, nel_v * q_v) quadrature grid of ``g`` into
    per-element flattened blocks of shape (nel_u, nel_v, q_u * q_v)."""
    nu, nv = len(g.kv_u.nonzero_spans), len(g.kv_v.nonzero_spans)
    blocks = x.reshape(nu, x.shape[0] // nu, nv, x.shape[1] // nv).transpose(0, 2, 1, 3)
    return blocks.reshape(nu, nv, -1)


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


def fast_diagonalization(kv_u: KnotVector, kv_v: KnotVector) -> FastDiagonalization:
    """The :class:`FastDiagonalization` of the knot vectors ``kv_u``,
    ``kv_v``, with the 1D B-spline stiffness and mass integrated on their
    assembly Gauss rules (the ``gauss`` memo entries) and restricted to the
    functions that vanish at both ends."""
    factors = []
    for gauss in (kv_u.gauss, kv_v.gauss):
        N, dN = (gauss.D[der][:, 1:-1] for der in (0, 1))
        K = dN.T @ (gauss.wts[:, None] * dN)
        M = N.T @ (gauss.wts[:, None] * N)
        lam, U = scipy.linalg.eigh(K, M)
        factors.append((U, lam, np.diag(K), np.diag(M)))
    (U_u, lam_u, k_u, m_u), (U_v, lam_v, k_v, m_v) = factors
    return FastDiagonalization(
        U_u, U_v, np.add.outer(lam_u, lam_v), np.outer(k_u, m_v) + np.outer(m_u, k_v)
    )


# phi = (dN/du, dN/dv, N) of the B-spline product N = N_i(u) N_j(v): the
# derivative orders in u and in v of each component
_PHI = ((1, 0), (0, 1), (0, 0))
# the (alpha, beta) terms of phi_k^T H phi_l: those of the metric block
# first, then the five that involve N itself, which vanish when W is constant
_TERMS = ((0, 0), (0, 1), (1, 0), (1, 1), (0, 2), (2, 0), (1, 2), (2, 1), (2, 2))


@dataclass(frozen=True, eq=False)
class Discretization:
    """The knot-only part of assembly and solve, built once by
    :func:`discretization` and checked against the knots and weights of
    each geometry passed with it.

    The quadrature is the knot vectors' ``gauss`` memo entries. ``pairs_u``
    holds the u pair tables d^a N_i d^b N_i' for i <= i',
    (4, nel_u, (p+1)(p+2)/2, q_u) indexed by 2a + b, and ``scatter_u`` adds
    them into band rows (i, i' - i);
    ``pairs_v`` holds the v pair tables of the terms of :data:`_TERMS` the
    weights use side by side, (nel_v, (p+1)^2, 9 q_v), or 4 q_v when all
    weights are equal, and ``scatter_v`` adds them into band rows
    (j, j' - j + p). ``gather`` reads the CSR values ``indices``/``indptr``
    out of the band, and ``fdm`` holds the preconditioner factors.
    """

    kv_u: KnotVector
    kv_v: KnotVector
    weights: np.ndarray
    pairs_u: np.ndarray
    scatter_u: sp.csr_matrix
    pairs_v: np.ndarray
    scatter_v: sp.csr_matrix
    gather: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    fdm: FastDiagonalization

    @property
    def nbytes(self) -> int:
        """Bytes held in arrays: preconditioner factors included, and the
        :attr:`interior` maps once a solve has built them."""
        arrays = [self.weights, self.pairs_u, self.pairs_v, self.gather, self.indices, self.indptr]
        arrays += [a for m in (self.scatter_u, self.scatter_v) for a in (m.data, m.indices, m.indptr)]
        arrays += self.__dict__.get("interior", ())
        return sum(a.nbytes for a in arrays) + self.fdm.nbytes

    @cached_property
    def interior(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The interior-interior block of the CSR pattern
        (:func:`_interior_block`), built by the first solve that eliminates
        the boundary with this discretization and kept for the later ones."""
        return _interior_block(self.indices, self.indptr, dof_map(*self.weights.shape).interior)

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


def _scatter(first, i, d, width, n):
    """0/1 matrix adding the pair (i[k], i[k] + d[k]) of local functions of
    element e, entry e * len(i) + k, into band row (first[e] + i[k]) * width
    + d[k] of an (n, width) band."""
    rows = ((first[:, None] + i) * width + d).ravel()
    return sp.csr_matrix((np.ones(len(rows)), (rows, np.arange(len(rows)))),
                         shape=(n * width, len(rows)))


def _shared(first, p, n):
    """The (n, 2p + 1) mask of the pairs (i, i + d - p) of functions both
    nonzero on some element, given the first function ``first`` of each."""
    mask = np.zeros((n, 2 * p + 1), dtype=bool)
    a = np.arange(p + 1)
    mask[first[:, None, None] + a[:, None], a - a[:, None] + p] = True
    return mask


def _csr_maps(mask_u, mask_v, p_u, p_v):
    """The gather, CSR ``indices`` and ``indptr`` of the pairs sharing an
    element: entry (i, j), (i + di, j + dj) is read from the band
    (n2, 2 p_v + 1, n1, p_u + 1) when di > 0, or di = 0 and dj >= 0, and
    else from its mirror. Read-only, int32 when every position fits."""
    n1, n2 = len(mask_u), len(mask_v)
    size = n1 * n2 * (2 * p_u + 1) * (2 * p_v + 1)
    dtype = np.int32 if size <= np.iinfo(np.int32).max else np.int64
    di, dj = np.arange(-p_u, p_u + 1), np.arange(-p_v, p_v + 1)
    i, j = np.arange(n1)[:, None], np.arange(n2)[:, None, None]
    pos_u = np.where(di >= 0, i * (p_u + 1) + di, (i + di) * (p_u + 1) - di)
    upper = (di[:, None] > 0) | ((di[:, None] == 0) & (dj >= 0))
    pos_v = np.where(upper, j * (2 * p_v + 1) + dj + p_v, (j + dj) * (2 * p_v + 1) + p_v - dj)
    valid = mask_u[:, None, :, None] & mask_v[None, :, None, :]
    gather = (pos_u.astype(dtype)[:, None, :, None]
              + (n1 * (p_u + 1) * pos_v).astype(dtype))[valid]
    cols = (((i + di) * n2).astype(dtype)[:, None, :, None]
            + (j[:, :, 0] + dj).astype(dtype)[None, :, None, :])[valid]
    indptr = np.zeros(n1 * n2 + 1, dtype=dtype)
    np.cumsum(np.outer(mask_u.sum(1), mask_v.sum(1)).ravel(), out=indptr[1:])
    for a in (gather, cols, indptr):
        a.flags.writeable = False
    return gather, cols, indptr


def discretization(g: NurbsGeometry) -> Discretization:
    """Build the :class:`Discretization` of ``g``'s knots on the assembly
    quadrature, degree + 1 Gauss points per element direction."""
    (Lu, first_u), (Lv, first_v) = _element_tables(g.kv_u, g.kv_v)
    n1, n2 = g.shape
    p_u, p_v = g.kv_u.degree, g.kv_v.degree
    iu, ju = np.triu_indices(p_u + 1)
    pairs_u = np.stack([(Lu[a][:, :, iu] * Lu[b][:, :, ju]).transpose(0, 2, 1)
                        for a in (0, 1) for b in (0, 1)])
    iv, jv = np.divmod(np.arange((p_v + 1) ** 2), p_v + 1)
    terms = _TERMS[:4] if _equal_weights(g.weights.w) else _TERMS
    pairs_v = np.concatenate([Lv[_PHI[al][1]][:, :, iv] * Lv[_PHI[be][1]][:, :, jv]
                              for al, be in terms], axis=1).transpose(0, 2, 1).copy()
    pairs_u.flags.writeable = pairs_v.flags.writeable = False
    scatter_u = _scatter(first_u, iu, ju - iu, p_u + 1, n1)
    scatter_v = _scatter(first_v, iv, jv - iv + p_v, 2 * p_v + 1, n2)
    maps = _csr_maps(_shared(first_u, p_u, n1), _shared(first_v, p_v, n2), p_u, p_v)
    fdm = fast_diagonalization(g.kv_u, g.kv_v)
    return Discretization(g.kv_u, g.kv_v, g.weights.w, pairs_u, scatter_u, pairs_v, scatter_v,
                          *maps, fdm)


def _interior_block(indices: np.ndarray, indptr: np.ndarray, interior: np.ndarray):
    """The interior-interior block of a CSR pattern: the positions of its
    entries in the pattern, in order, and its ``indices`` and ``indptr``
    renumbered over the sorted flat indices ``interior``. It is the row and
    column slice of a matrix holding each entry's own position, so taking
    the values at those positions gives that slice of any matrix with this
    pattern. Read-only."""
    n = len(indptr) - 1
    positions = sp.csr_matrix((np.arange(len(indices), dtype=indices.dtype), indices, indptr),
                              shape=(n, n))
    block = positions[interior][:, interior]
    block = (block.data, block.indices, block.indptr)
    for a in block:
        a.flags.writeable = False
    return block


def _first_bad_element(*masks):
    """Index of the first element, in (eu, ev) order, where any of the
    per-element masks is set, or None."""
    bad = np.logical_or.reduce(masks)
    if not bad.any():
        return None
    return tuple(int(i) for i in np.argwhere(bad)[0])


def _metric(g: NurbsGeometry, disc: Discretization, geo: GeometryGrid, wvals):
    """The entries (alpha, beta), alpha <= beta, of
    H = (c / W^2) E^T J^-1 J^-T E over the quadrature grid, with
    c = Gauss weight * det J * ``wvals`` and E = [I | -grad W / W]. With
    all weights equal, grad W = 0 and the factor w_k w_l / W^2 of the form
    is 1: only the 2 x 2 metric block c J^-1 J^-T is returned."""
    j00, j01, j10, j11 = (geo.jac[..., a, b] for a in (0, 1) for b in (0, 1))
    # c J^-1 J^-T = (c / det^2) adj(J) adj(J)^T
    s = np.multiply.outer(g.kv_u.gauss.wts, g.kv_v.gauss.wts) * wvals / geo.det
    H = {(0, 0): s * (j01 * j01 + j11 * j11),
         (0, 1): -s * (j00 * j01 + j10 * j11),
         (1, 1): s * (j00 * j00 + j10 * j10)}
    w = g.weights.w
    if _equal_weights(w):
        return H
    sums = _spline_sums(fixed_basis(g, "gauss"), w[..., None], 1)
    W = sums[0, 0][:, 0]
    e_u = -sums[1, 0][:, 0] / W
    e_v = -sums[0, 1][:, 0] / W
    H = {ab: h / (W * W) for ab, h in H.items()}
    H[0, 2] = H[0, 0] * e_u + H[0, 1] * e_v
    H[1, 2] = H[0, 1] * e_u + H[1, 1] * e_v
    H[2, 2] = H[0, 2] * e_u + H[1, 2] * e_v
    return H


def _band(disc: Discretization, H) -> np.ndarray:
    """The upper band (n2, 2 p_v + 1, n1, p_u + 1) of the terms of
    :data:`_TERMS` that ``H`` holds: each contracted along u and scattered
    into u band rows, then all at once along v and into v band rows."""
    _, nel_u, n_pu, q_u = disc.pairs_u.shape
    nel_v = len(disc.pairs_v)
    q_v = len(disc.kv_v.gauss.pts) // nel_v
    m = disc.scatter_u.shape[0]
    terms = _TERMS[:4 if len(H) == 3 else 9]
    z = np.empty((nel_v, len(terms) * q_v, m))
    for t, (al, be) in enumerate(terms):
        h = H[min(al, be), max(al, be)].reshape(nel_u, q_u, -1)
        x = disc.pairs_u[2 * _PHI[al][0] + _PHI[be][0]] @ h
        xb = disc.scatter_u @ x.reshape(nel_u * n_pu, -1)
        z[:, t * q_v:(t + 1) * q_v] = xb.reshape(m, nel_v, q_v).transpose(1, 2, 0)
    y = disc.pairs_v[:, :, :len(terms) * q_v] @ z
    return disc.scatter_v @ y.reshape(-1, m)


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
    the assembly Gauss grid ``g.kv_u.gauss.pts`` x ``g.kv_v.gauss.pts``
    (the knot vectors' memo entries). It must be strictly
    positive; a nonpositive value aborts assembly naming the element.

    ``disc`` (:func:`discretization`) must match ``g``'s knots and weights
    (ValueError otherwise); without it the call builds its own, with the
    same bits. ``geo`` is ``g`` already evaluated with its Jacobian on the
    quadrature grid, when the caller has it.
    """
    if disc is None:
        disc = discretization(g)
    disc.check(g)
    geo = _gauss_geometry(g, geo)
    wvals = _resolve_weight(weight, geo, geo.det.shape)

    if np.any(wvals <= 0.0) or np.any(geo.det <= 0.0):
        bad_w = np.any(_grid_blocks(wvals, g) <= 0.0, axis=-1)
        bad = _first_bad_element(bad_w, np.any(_grid_blocks(geo.det, g) <= 0.0, axis=-1))
        what = "diffusion weight" if bad_w[bad] else "Jacobian determinant"
        raise AssemblyError(f"nonpositive {what} in element ({bad[0]}, {bad[1]})")

    H = _metric(g, disc, geo, wvals)
    data = _band(disc, H).ravel()[disc.gather]
    if len(H) > 3:
        w = g.weights.w.ravel()
        rows = np.repeat(np.arange(g.ndof), np.diff(disc.indptr))
        data *= w[rows] * w[disc.indices]
    # copies of the pattern: a caller may edit its matrix in place
    return sp.csr_matrix((data, disc.indices.copy(), disc.indptr.copy()),
                         shape=(g.ndof, g.ndof))


def assemble_load(
    g: NurbsGeometry,
    f,
    *,
    disc: Discretization | None = None,
    geo: GeometryGrid | None = None,
) -> np.ndarray:
    """Load vector b_k = int f phi_k dx with the assembly quadrature.

    With R_ij = w_ij N_i N_j / W, the load is the transpose of the grid
    contraction :func:`~mmiga.geometry.rational_grid_sums` performs:
    b = w o (Du^T C Dv), where Du, Dv are the directional value tables and
    C = (wts_u x wts_v) det J f / W on the quadrature grid. With all weights
    equal, R_ij = N_i N_j and b = Du^T C Dv with C = (wts_u x wts_v) det J f.

    ``f(x, y)`` must be vectorized over arrays; non-finite values abort
    naming the element. ``disc``, when given, must match ``g`` (ValueError
    otherwise). ``geo`` is ``g`` already evaluated with its Jacobian on the
    quadrature grid, when the caller has it.
    """
    if disc is not None:
        disc.check(g)
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


def apply_dirichlet(
    A,
    b,
    g: NurbsGeometry,
    bc,
    *,
    boundary: np.ndarray | None = None,
    disc: Discretization | None = None,
) -> ReducedSystem:
    """Eliminate boundary coefficients approximating ``bc`` on the four edges.

    The boundary coefficients are :func:`boundary_values` of ``g`` and
    ``bc``. A caller that imposes the same data on many geometries sharing
    knots, weights and boundary ring can compute them once and pass them as
    ``boundary``; ``bc`` is then not evaluated, only the boundary ring
    entries of ``boundary`` are read, and keeping them in step with ``g`` is
    the caller's part. The reduced interior system is
    A_II x_I = b_I - A_IB x_B; its right-hand side is the interior entries
    of b - A x_B, with x_B the full boundary vector, zero off the ring.

    A_II takes its values from ``A.data`` at the positions of the
    interior-interior entries (:func:`_interior_block`). When ``A`` has the
    CSR pattern of ``disc``, the positions and the renumbered pattern are
    ``disc.interior``, built once per discretization; otherwise they are
    taken from ``A``'s own pattern. Both give the same bits.
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
    A = A.tocsr()
    if (disc is not None and np.array_equal(A.indptr, disc.indptr)
            and np.array_equal(A.indices, disc.indices)):
        pos, indices, indptr = disc.interior
    else:
        pos, indices, indptr = _interior_block(A.indices, A.indptr, dm.interior)
    rhs = b[dm.interior] - (A @ xb)[dm.interior]
    n_int = len(dm.interior)
    # copies of the pattern: a caller may edit its matrix in place
    A_ii = sp.csr_matrix((A.data.take(pos), indices.copy(), indptr.copy()), shape=(n_int, n_int))
    return ReducedSystem(A_ii, rhs, xb, dm)


def solve_dirichlet(
    A,
    b,
    g: NurbsGeometry,
    bc,
    lin: LinearSolverSettings | None = None,
    *,
    boundary: np.ndarray | None = None,
    disc: Discretization | None = None,
    x0: FieldCoefficients | None = None,
) -> FieldCoefficients:
    """Solve A x = b with x = ``bc`` on the boundary: eliminate the boundary
    coefficients (:func:`apply_dirichlet`, which also explains
    ``boundary``), solve the interior system by CG with the
    fast-diagonalisation preconditioner and scatter the interior solution
    back into the full coefficient grid.

    The preconditioner factors and the interior maps come from ``disc``,
    which must match ``g`` (ValueError otherwise), or are built for this
    call; both give the same bits. ``x0`` is a full coefficient field on
    ``g``'s grid (ValueError otherwise) whose interior entries are CG's
    initial guess; None starts from zero."""
    lin = lin or LinearSolverSettings()
    if disc is None:
        fdm = fast_diagonalization(g.kv_u, g.kv_v)
    else:
        disc.check(g)
        fdm = disc.fdm
    if x0 is not None and x0.shape != g.shape:
        raise ValueError(f"initial guess on grid {x0.shape} does not match {g.shape}")
    red = apply_dirichlet(A, b, g, bc, boundary=boundary, disc=disc)
    x_int, _ = cg_solve(red.matrix, red.rhs, tol=lin.tol, maxit=lin.maxit,
                        precond=fdm.preconditioner(red.matrix),
                        x0=None if x0 is None else x0.values[red.dofs.interior])
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
    x0: FieldCoefficients | None = None,
) -> FieldCoefficients:
    """Galerkin solve of  -div(grad u) = f,  u = bc on the boundary.

    The geometry is evaluated on the quadrature grid once, for both forms,
    unless the caller passes that evaluation as ``geo``. ``disc`` goes to
    both forms and :func:`solve_dirichlet`; without it the solve builds one
    for all three. ``boundary`` goes to :func:`apply_dirichlet`, and the
    initial guess ``x0`` to :func:`solve_dirichlet`.
    """
    if disc is None:
        disc = discretization(g)
    disc.check(g)
    geo = _gauss_geometry(g, geo)
    A = assemble_weighted_stiffness(g, disc=disc, geo=geo)
    b = assemble_load(g, f, disc=disc, geo=geo)
    return solve_dirichlet(A, b, g, bc, lin, boundary=boundary, disc=disc, x0=x0)


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
    derivatives of the geometry map. ``geo`` is ``g`` already evaluated on
    the grid, when the caller has it. The basis tables are those of
    :func:`~mmiga.geometry.rational_grid_sums`: the knot vectors' memo
    entries when ``pts_u``, ``pts_v`` are their arrays, else built per call,
    once for the field and once more when the geometry is evaluated here.
    """
    pts_u = np.atleast_1d(np.asarray(pts_u, float))
    pts_v = np.atleast_1d(np.asarray(pts_v, float))
    if nders >= 1 and (geo is None or (nders >= 2 and geo.second is None)):
        geo = eval_geometry_grid(g, pts_u, pts_v, nders)
    sums = rational_grid_sums(g.kv_u, g.kv_v, g.weights, u.grid[:, :, None], pts_u, pts_v, nders)
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
