"""Open knot vectors, B-spline basis evaluation and the NURBS quotient rule.

All knot vectors live on the parametric interval [0, 1] and are open
(clamped): the first and last ``degree + 1`` knots sit on the interval ends,
so the basis is interpolatory there. Evaluation follows the banded triangular
schemes of Piegl & Tiller (The NURBS Book, algorithms A2.1-A2.3): only the
``degree + 1`` basis functions that can be nonzero on the span containing the
query point are computed and returned. The scheme runs over whole arrays of
query points at once; a single point is the one-element case of the same
routine.

Rational (NURBS) derivatives are formed in one place only:
:func:`rational_derivatives` applies the generalized quotient rule to the
mixed derivatives of a weighted numerator and of the weight sum, for grid
and point evaluation of the geometry and of fields. When all weights are
equal, R_ij = N_i N_j exactly: grid evaluation, the load and the stiffness
then use the plain B-spline product and skip the quotient rule.

The closed-interval convention is used at the right end: ``t = 1`` evaluates
on the last span of nonzero length, so bases are defined on all of [0, 1].

The knots alone fix the element partition (:func:`element_spans`) and with it
every per-element point set. A :class:`KnotVector` tabulates its basis on the
point sets the package evaluates on again and again: the assembly and
error-norm Gauss grids, the Greville abscissae, the max-norm lattice and the
breakpoints. Each is a :class:`PointTables` memo entry, built on first use and
kept, read-only, for the life of the knot vector; a geometry re-fitted from
another shares its knot vectors and so their tables. The memo entries hold
the only copy of these point sets: :meth:`KnotVector.tables` recognises an
entry by its point array, so evaluation takes points alone, and an entry
asked for a higher derivative order than it holds grows to that order in
place, keeping its arrays. A point set of :data:`BLOCK_MIN_POINTS` or more
points also has the block form of its tables (:class:`PointTables`), the
nonzero windows of blocks of consecutive rows, read from the dense tables
at the knot span of each point; grid evaluation multiplies those blocks.
The interior eigendecomposition of the 1D stiffness and mass on the
assembly Gauss grid (:class:`InteriorEigen`), one direction's factors of
the fast-diagonalisation preconditioner, is a memo entry too, and so are
the element pair tables of the sum-factorised stiffness
(:class:`ElementPairs`): a square mesh, whose two directions share one
knot vector, builds each once, and so does a moving-mesh run, whose
meshes all share the knot vectors of the first.

Two knot vectors are equal when their degrees and knots are; their memo
entries take no part in equality or hashing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import comb

import numpy as np
import scipy.sparse as sp

__all__ = [
    "KnotVector",
    "PointTables",
    "InteriorEigen",
    "ElementPairs",
    "QuadratureRule",
    "BasisEval",
    "TensorWeights",
    "make_open_knot_vector",
    "gauss_rule",
    "element_spans",
    "element_quadrature_1d",
    "tabulate",
    "eval_basis",
    "greville_abscissae",
    "lattice_points",
    "basis_matrix",
    "rational_derivatives",
]


LINF_SAMPLES = 5  # per-direction samples per element of the max-norm lattice
# the block form of a point set's tables (PointTables): blocks of about
# BLOCK_ELEMENTS elements' worth of rows, on sets of BLOCK_MIN_POINTS or more
BLOCK_ELEMENTS = 4
BLOCK_MIN_POINTS = 64


@dataclass(frozen=True, eq=False)
class PointTables:
    """B-spline tables of one knot vector on one 1D point set.

    ``D[a]`` is ``basis_matrix(kv, pts, a)`` for a = 0 .. ``len(D) - 1``;
    ``wts`` are the Gauss weights when the points are a quadrature rule.

    A set of at least :data:`BLOCK_MIN_POINTS` points also has the block
    form of its tables (:func:`_block_layout`): its rows, in order, are cut
    into blocks of R rows, :data:`BLOCK_ELEMENTS` elements' worth of points,
    and ``blocks[a][b]`` is the R x W block of ``D[a]`` on the rows
    b R .. (b + 1) R - 1, zero past the last point, and the columns
    ``starts[b]`` .. ``starts[b]`` + W - 1, which hold every nonzero of
    those rows. W is the widest window of any block. Smaller sets have
    ``starts`` None and no ``blocks``.
    """

    pts: np.ndarray
    D: tuple
    wts: np.ndarray | None = None
    starts: np.ndarray | None = None
    blocks: tuple = ()


@dataclass(frozen=True, eq=False)
class InteriorEigen:
    """Generalized eigendecomposition K U = M U diag(lam) of one knot
    vector's B-spline stiffness K and mass M, integrated on its assembly
    Gauss rule and restricted to the functions that vanish at both ends.

    The columns of ``U`` are M-orthonormal; ``k`` and ``m`` are the
    diagonals of K and M. All four arrays are read-only.
    """

    U: np.ndarray
    lam: np.ndarray
    k: np.ndarray
    m: np.ndarray


@dataclass(frozen=True, eq=False)
class ElementPairs:
    """Products of one knot vector's B-splines on each element, at its
    points of the ``gauss`` rule: the 1D factors of the sum-factorised
    stiffness.

    ``first[e]`` is the index of the first of the p + 1 functions nonzero
    on element e. ``tables[e, (p+1) i + i', (2a + b) q + k]`` is
    d^a N_{first[e]+i} d^b N_{first[e]+i'} at the element's k-th of q Gauss
    points, for a, b in {0, 1}. ``scatter`` is the 0/1 matrix that adds the
    upper pairs i <= i', taken in ``np.triu_indices(p + 1)`` order element
    by element, into row (first[e] + i)(p + 1) + i' - i of a band of n rows
    and p + 1 upper diagonals. All arrays, those of ``scatter`` too, are
    read-only.
    """

    first: np.ndarray
    tables: np.ndarray
    scatter: sp.csr_matrix


@dataclass(frozen=True, eq=False)
class KnotVector:
    """Open knot vector with its polynomial degree.

    The basis tables of the fixed point sets below are memo entries: each
    is built on first use and kept, read-only, with this instance, and
    grows in place to the derivative orders asked of it (:meth:`tables`).
    Two threads that race on an entry compute the same bits. Equality and
    the hash are those of (degree, knots); the memo entries take no part.

    Parameters
    ----------
    degree : int
        Polynomial degree p >= 1.
    knots : array_like
        Nondecreasing sequence of n + p + 1 knots in [0, 1]. The first and
        last p + 1 entries must be 0 and 1 respectively, and no interior
        knot may appear more than p times.
    """

    degree: int
    knots: np.ndarray

    def __post_init__(self):
        knots = np.ascontiguousarray(self.knots, dtype=float)
        knots.flags.writeable = False
        object.__setattr__(self, "knots", knots)
        p = self.degree
        if p < 1:
            raise ValueError(f"degree must be >= 1, got {p}")
        if knots.ndim != 1 or len(knots) < 2 * (p + 1):
            raise ValueError("knot vector too short for the given degree")
        if np.any(np.diff(knots) < 0):
            raise ValueError("knots must be nondecreasing")
        if np.any(knots[: p + 1] != 0.0) or np.any(knots[-(p + 1):] != 1.0):
            raise ValueError("knot vector must be open: first/last p+1 knots at 0/1")
        interior = knots[(p + 1):-(p + 1)]
        if interior.size:
            _, counts = np.unique(interior, return_counts=True)
            if np.any(counts > p):
                raise ValueError("interior knot multiplicity exceeds the degree")

    def __eq__(self, other):
        if not isinstance(other, KnotVector):
            return NotImplemented
        return self.degree == other.degree and np.array_equal(self.knots, other.knots)

    def __hash__(self):
        return hash((self.degree, tuple(self.knots.tolist())))

    @property
    def n(self) -> int:
        """Number of basis functions."""
        return len(self.knots) - self.degree - 1

    @property
    def nonzero_spans(self) -> tuple[int, ...]:
        """Indices i of the knot spans [knots[i], knots[i+1]) with nonzero length."""
        p, n = self.degree, self.n
        return tuple(i for i in range(p, n) if self.knots[i] < self.knots[i + 1])

    @property
    def breakpoints(self) -> np.ndarray:
        """Distinct knot values."""
        return np.unique(self.knots)

    def _memo(self, pts: np.ndarray, nders: int, wts: np.ndarray | None = None) -> PointTables:
        """Read-only tables on the new array ``pts``, for a memo entry."""
        for a in (pts, wts):
            if a is not None:
                a.flags.writeable = False
        return self._grow(PointTables(pts, (), wts), nders)

    def _grow(self, t: PointTables, nders: int) -> PointTables:
        """``t`` with its orders up to ``nders`` added, read-only."""
        grown = _add_orders(self, t, nders)
        for a in grown.D[len(t.D):] + grown.blocks[len(t.blocks):]:
            a.flags.writeable = False
        if grown.starts is not None:
            grown.starts.flags.writeable = False
        return grown

    @cached_property
    def gauss(self) -> PointTables:
        """The assembly Gauss grid, degree + 1 points per element
        (:func:`element_quadrature_1d`), with orders 0-1."""
        pts, wts = element_quadrature_1d(self, self.degree + 1)
        return self._memo(pts, 1, wts)

    @cached_property
    def error_gauss(self) -> PointTables:
        """The error-norm Gauss grid, degree + 2 points per element, with
        orders 0-1."""
        pts, wts = element_quadrature_1d(self, self.degree + 2)
        return self._memo(pts, 1, wts)

    @cached_property
    def greville(self) -> PointTables:
        """The Greville abscissae (:func:`greville_abscissae`), the
        parameters of the mesh nodes, with orders 0-1."""
        return self._memo(greville_abscissae(self), 1)

    @cached_property
    def lattice(self) -> PointTables:
        """The max-norm lattice, :data:`LINF_SAMPLES` closed samples per
        element with each shared element edge kept once
        (:func:`lattice_points`), with order 0."""
        return self._memo(lattice_points(self, LINF_SAMPLES), 0)

    @cached_property
    def corners(self) -> PointTables:
        """The :attr:`breakpoints`, the element corners, with order 0."""
        return self._memo(self.breakpoints, 0)

    @cached_property
    def interior_eigen(self) -> InteriorEigen:
        """The :class:`InteriorEigen` of the ``gauss`` rule. The generalized
        problem is reduced by the Cholesky factor M = C C^T to the standard
        one (C^-1 K C^-T) V = V L, and U = C^-T V."""
        gauss = self.gauss
        N, dN = (gauss.D[der][:, 1:-1] for der in (0, 1))
        K = dN.T @ (gauss.wts[:, None] * dN)
        M = N.T @ (gauss.wts[:, None] * N)
        Ci = np.linalg.inv(np.linalg.cholesky(M))
        lam, V = np.linalg.eigh(Ci @ K @ Ci.T)
        eigen = InteriorEigen(Ci.T @ V, lam, np.diag(K).copy(), np.diag(M).copy())
        for a in (eigen.U, eigen.lam, eigen.k, eigen.m):
            a.flags.writeable = False
        return eigen

    @cached_property
    def element_pairs(self) -> ElementPairs:
        """The :class:`ElementPairs` of the ``gauss`` rule."""
        p, gauss = self.degree, self.gauss
        first = np.asarray(self.nonzero_spans) - p
        rows = np.arange(len(gauss.pts)).reshape(len(first), -1, 1)
        L = [gauss.D[a][rows, first[:, None, None] + np.arange(p + 1)] for a in (0, 1)]
        i, j = np.divmod(np.arange((p + 1) ** 2), p + 1)
        tables = np.concatenate([L[a][:, :, i] * L[b][:, :, j] for a in (0, 1) for b in (0, 1)],
                                axis=1).transpose(0, 2, 1).copy()
        iu, ju = np.triu_indices(p + 1)
        band_rows = ((first[:, None] + iu) * (p + 1) + ju - iu).ravel()
        scatter = sp.csr_matrix((np.ones(len(band_rows)), (band_rows, np.arange(len(band_rows)))),
                                shape=(self.n * (p + 1), len(band_rows)))
        for a in (first, tables, scatter.data, scatter.indices, scatter.indptr):
            a.flags.writeable = False
        return ElementPairs(first, tables, scatter)

    def tables(self, pts, nders: int) -> PointTables:
        """The tables on ``pts`` with orders 0 .. ``nders``: the memo entry
        whose point array *is* ``pts``, else tabulated here. An entry that
        holds fewer orders grows in place: it is replaced by one with the
        same ``pts``, ``D``, ``wts``, ``starts`` and ``blocks`` arrays and the
        added orders, read-only, appended. Points equal to a memo entry's
        but in another array are tabulated: the bits are the same."""
        for name, t in list(vars(self).items()):
            if isinstance(t, PointTables) and t.pts is pts:
                if nders >= len(t.D):
                    t = vars(self)[name] = self._grow(t, nders)
                return t
        return tabulate(self, pts, nders)


@dataclass(frozen=True)
class BasisEval:
    """Nonzero B-spline basis values (and derivatives) at one point.

    ``ders[k, a]`` is the k-th derivative of basis function ``span - p + a``;
    row 0 holds the values themselves.
    """

    span: int
    ders: np.ndarray

    @property
    def values(self) -> np.ndarray:
        return self.ders[0]

    @property
    def first_index(self) -> int:
        """Global index of the first (possibly) nonzero basis function."""
        return self.span - (self.ders.shape[1] - 1)


@dataclass(frozen=True)
class TensorWeights:
    """Positive, finite weight grid of a tensor-product rational basis
    (ValueError otherwise)."""

    w: np.ndarray

    def __post_init__(self):
        w = np.ascontiguousarray(self.w, dtype=float)
        if w.ndim != 2:
            raise ValueError("weights must form a 2D grid")
        if not np.all(np.isfinite(w)):
            raise ValueError("all weights must be finite")
        if np.any(w <= 0.0):
            raise ValueError("all weights must be strictly positive")
        w.flags.writeable = False
        object.__setattr__(self, "w", w)

    @property
    def shape(self) -> tuple[int, int]:
        return self.w.shape


def make_open_knot_vector(degree: int, spans: int, multiplicity: int = 1) -> KnotVector:
    """Build an open knot vector with uniform interior breakpoints.

    The interior breakpoints are k/spans for k = 1 .. spans-1, each repeated
    ``multiplicity`` times, giving ``degree + 1 + (spans-1)*multiplicity``
    basis functions. ``multiplicity=1`` yields the maximally smooth
    C^{p-1} family, ``multiplicity=degree`` the C^0 family of classical
    high-order elements.

    Parameters
    ----------
    degree : int
        Polynomial degree p >= 1.
    spans : int
        Number of nonzero knot spans (elements per direction), >= 1.
    multiplicity : int
        Interior knot multiplicity r with 1 <= r <= p.
    """
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")
    if spans < 1:
        raise ValueError(f"spans must be >= 1, got {spans}")
    if not 1 <= multiplicity <= degree:
        raise ValueError(
            f"multiplicity must satisfy 1 <= r <= degree, got r={multiplicity}"
        )
    knots = [0.0] * (degree + 1)
    for k in range(1, spans):
        knots.extend([k / spans] * multiplicity)
    knots.extend([1.0] * (degree + 1))
    return KnotVector(degree, np.array(knots))


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Legendre rule mapped to [0, 1]; exact on degree 2q-1."""

    points: np.ndarray
    weights: np.ndarray


def gauss_rule(q: int) -> QuadratureRule:
    if not 1 <= q <= 16:
        raise ValueError(f"point count must lie in [1, 16], got {q}")
    x, w = np.polynomial.legendre.leggauss(q)
    return QuadratureRule((x + 1.0) / 2.0, w / 2.0)


def element_spans(kv: KnotVector) -> tuple[np.ndarray, np.ndarray]:
    """Left and right ends of the elements along one direction: the
    nonzero-measure knot spans, in order."""
    spans = np.asarray(kv.nonzero_spans)
    return kv.knots[spans], kv.knots[spans + 1]


def element_quadrature_1d(kv: KnotVector, q: int):
    """Per-span Gauss points/weights along one direction, concatenated.

    Returns (pts, wts) of length len(nonzero_spans) * q, ordered span by span.
    """
    rule = gauss_rule(q)
    left, right = element_spans(kv)
    length = right - left
    pts = left[:, None] + length[:, None] * rule.points
    return pts.ravel(), (length[:, None] * rule.weights).ravel()


def _element_lattice(kv: KnotVector, samples: int) -> np.ndarray:
    """Per-element closed sample lattice, element by element (interior
    edges sampled twice)."""
    left, right = element_spans(kv)
    return np.linspace(left, right, samples, axis=1).ravel()


def lattice_points(kv: KnotVector, samples: int) -> np.ndarray:
    """The per-element closed lattices of :func:`_element_lattice` with
    each shared element edge kept once: nel * (samples - 1) + 1 points.
    An element's last sample is its right end, the same float as the next
    element's first, so only repeats are dropped."""
    pts = _element_lattice(kv, samples).reshape(-1, samples)
    return np.concatenate([pts[0, :1], pts[:, 1:].ravel()])


def _find_spans(kv: KnotVector, t: np.ndarray) -> np.ndarray:
    """Knot span of every point: the index i of the last knot <= t, clipped
    to p .. n-1, so knots[i] <= t < knots[i+1] with knots[i] < knots[i+1].
    Spans are left-closed at interior knots (a point on a knot belongs to
    the span to its right, past any repeats), and t = 1 falls on the last
    span of nonzero length."""
    return np.clip(np.searchsorted(kv.knots, t, side="right") - 1, kv.degree, kv.n - 1)


def _basis_ders(kv: KnotVector, pts: np.ndarray, nders: int, spans: np.ndarray | None = None):
    """Values and derivatives of the p+1 nonzero basis functions at every
    point of ``pts`` at once (algorithm A2.3, vectorized over the points).

    ``spans`` defaults to the span of each point (:func:`_find_spans`:
    knots[i] <= t < knots[i+1] on a span of nonzero length, left-closed at
    interior knots, t = 1 on the last nonzero span). Returns
    ``(spans, ders)`` with ``ders`` of shape (nders+1, p+1, len(pts));
    ``ders[k, a, m]`` is the k-th derivative of basis function
    ``spans[m] - p + a`` at ``pts[m]``. Python loops run over degree indices
    only, and every arithmetic step is the scalar scheme's applied
    elementwise, so each point gets the bits a one-point call gives. The 0/0
    convention of the recursion never arises because every span has nonzero
    length.
    """
    knots, p = kv.knots, kv.degree
    if not 0 <= nders <= p:
        raise ValueError(f"derivative order must lie in [0, {p}], got {nders}")
    t = np.asarray(pts, dtype=float)
    if spans is None:
        spans = _find_spans(kv, t)
    npts = len(t)

    ndu = np.empty((p + 1, p + 1, npts))
    left = np.empty((p + 1, npts))
    right = np.empty((p + 1, npts))
    ndu[0, 0] = 1.0
    for j in range(1, p + 1):
        left[j] = t - knots[spans + 1 - j]
        right[j] = knots[spans + j] - t
        saved = 0.0
        for r in range(j):
            ndu[j, r] = right[r + 1] + left[j - r]
            temp = ndu[r, j - 1] / ndu[j, r]
            ndu[r, j] = saved + right[r + 1] * temp
            saved = left[j - r] * temp
        ndu[j, j] = saved

    ders = np.zeros((nders + 1, p + 1, npts))
    ders[0] = ndu[:, p]
    if nders == 0:
        return spans, ders

    a = np.empty((2, p + 1, npts))
    for r in range(p + 1):
        s1, s2 = 0, 1
        a[0, 0] = 1.0
        for k in range(1, nders + 1):
            d = 0.0
            rk = r - k
            pk = p - k
            if r >= k:
                a[s2, 0] = a[s1, 0] / ndu[pk + 1, rk]
                d = a[s2, 0] * ndu[rk, pk]
            j1 = 1 if rk >= -1 else -rk
            j2 = k - 1 if r - 1 <= pk else p - r
            for j in range(j1, j2 + 1):
                a[s2, j] = (a[s1, j] - a[s1, j - 1]) / ndu[pk + 1, rk + j]
                d += a[s2, j] * ndu[rk + j, pk]
            if r <= pk:
                a[s2, k] = -a[s1, k - 1] / ndu[pk + 1, r]
                d += a[s2, k] * ndu[r, pk]
            ders[k, r] = d
            s1, s2 = s2, s1

    fac = float(p)
    for k in range(1, nders + 1):
        ders[k] *= fac
        fac *= p - k
    return spans, ders


def eval_basis(kv: KnotVector, t: float, nders: int = 0, span: int | None = None) -> BasisEval:
    """Evaluate the nonzero B-spline basis functions and derivatives at t.

    Parameters
    ----------
    kv : KnotVector
    t : float
        Query point in [0, 1].
    nders : int
        Highest derivative order, 0 <= nders <= degree.
    span : int, optional
        Span override. Defaults to the span i with knots[i] <= t <
        knots[i+1] of nonzero length: left-closed at interior knots, and
        t = 1 on the last nonzero span. Passing the span explicitly allows
        one-sided limits at interior knots.
    """
    spans = None if span is None else np.array([span])
    spans, ders = _basis_ders(kv, np.array([t], dtype=float), nders, spans)
    return BasisEval(int(spans[0]), np.ascontiguousarray(ders[..., 0]))


def greville_abscissae(kv: KnotVector) -> np.ndarray:
    """Knot averages g_i = (knots[i+1] + ... + knots[i+p]) / p, i = 0..n-1:
    the means of the sliding windows of p knots over knots[1:-1], with the
    ends pinned to 0 and 1."""
    g = np.lib.stride_tricks.sliding_window_view(kv.knots[1:-1], kv.degree).mean(axis=1)
    g[0], g[-1] = 0.0, 1.0
    return g


def basis_matrix(kv: KnotVector, pts: np.ndarray, der: int = 0) -> np.ndarray:
    """Dense matrix B with B[k, i] = (d/dt)^der N_i at pts[k].

    Rows are banded: at most degree+1 consecutive nonzero columns. All points
    are tabulated in one vectorized pass (spans by a sorted search, then the
    triangular scheme over the point axis) and the local values are
    scattered into the band with one indexed assignment. Grid evaluation
    reads it through :meth:`KnotVector.tables`: the memo entries of a
    :class:`KnotVector` for its fixed point sets, which the Greville
    collocation, the edge projections, the load, the preconditioner and the
    element blocks of the stiffness share, and one call per order and
    direction for any other grid (:func:`tabulate`).
    """
    pts = np.atleast_1d(np.asarray(pts, dtype=float))
    p = kv.degree
    spans, ders = _basis_ders(kv, pts, der)
    out = np.zeros((len(pts), kv.n))
    out[np.arange(len(pts))[:, None], spans[:, None] - p + np.arange(p + 1)] = ders[der].T
    return out


def tabulate(kv: KnotVector, pts, nders: int) -> PointTables:
    """The :class:`PointTables` of ``kv`` on ``pts``, orders 0 .. ``nders``,
    with their block form when there are enough points."""
    return _add_orders(kv, PointTables(np.atleast_1d(np.asarray(pts, dtype=float)), ()), nders)


def _block_layout(kv: KnotVector, spans: np.ndarray):
    """The window starts, rows R and width W of the block form of the
    tables of points in the knot spans ``spans`` (:class:`PointTables`), or
    None for fewer than :data:`BLOCK_MIN_POINTS` points. R is
    :data:`BLOCK_ELEMENTS` times the points per element, rounded down; a
    block's rows are nonzero on the functions of their spans, first span
    - p to last span, so W is the widest such window, and a window that
    would run past the last function starts earlier."""
    npts, p = len(spans), kv.degree
    if npts < BLOCK_MIN_POINTS:
        return None
    rows = BLOCK_ELEMENTS * max(npts // len(kv.nonzero_spans), 1)
    nblk = -(-npts // rows)
    s = np.pad(spans, (0, nblk * rows - npts), mode="edge").reshape(nblk, rows)
    first = s.min(axis=1) - p
    width = int((s.max(axis=1) - first).max()) + 1
    return np.minimum(first, kv.n - width), rows, width


def _add_orders(kv: KnotVector, t: PointTables, nders: int) -> PointTables:
    """``t`` with the orders len(t.D) .. ``nders`` added: dense tables by
    :func:`basis_matrix`, and the block form's tables read from them at
    the p + 1 columns of each point's knot span."""
    spans, p = _find_spans(kv, t.pts), kv.degree
    added = tuple(basis_matrix(kv, t.pts, a) for a in range(len(t.D), nders + 1))
    if not t.D:
        layout = _block_layout(kv, spans)
    elif t.starts is not None:
        layout = (t.starts, *t.blocks[0].shape[1:])
    else:
        layout = None
    if layout is None:
        return PointTables(t.pts, t.D + added, t.wts)
    starts, rows, width = layout
    i = np.arange(len(t.pts))[:, None]
    cols = spans[:, None] - p + np.arange(p + 1)
    blocks = []
    for d in added:
        b = np.zeros((len(starts) * rows, width))
        b[i, cols - starts[i // rows]] = d[i, cols]
        blocks.append(b.reshape(len(starts), rows, width))
    return PointTables(t.pts, t.D + added, t.wts, starts, t.blocks + tuple(blocks))


def rational_derivatives(num, wsum, nders: int) -> dict:
    """Mixed derivatives of a quotient R = A / W by the generalized quotient
    rule (Piegl & Tiller, The NURBS Book, eq. 4.20).

    ``num[a, b]`` and ``wsum[a, b]`` are d^{a+b} / du^a dv^b of the numerator
    A and of the weight sum W for a + b <= nders, as arrays that broadcast
    against each other. Returns the map (a, b) -> d^{a+b} R / du^a dv^b for
    a + b <= nders, built from lower orders up:

        R^(a,b) = (A^(a,b) - sum_{(c,d) != (0,0)} C(a,c) C(b,d) W^(c,d) R^(a-c,b-d)) / W^(0,0)

    Orders that ``num`` lacks are skipped, so a curve passes the orders
    (a, 0) only; an order given needs every lower one it is built from.
    """
    out = {}
    for total in range(nders + 1):
        for a in range(total + 1):
            b = total - a
            if (a, b) not in num:
                continue
            acc = num[a, b]
            for c in range(a + 1):
                for d in range(b + 1):
                    if c or d:
                        acc = acc - (comb(a, c) * comb(b, d)) * wsum[c, d] * out[a - c, b - d]
            out[a, b] = acc / wsum[0, 0]
    return out
