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
entry by its point array, so evaluation takes points alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import comb

import numpy as np

__all__ = [
    "KnotVector",
    "PointTables",
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
    "basis_matrix",
    "rational_derivatives",
]


LINF_SAMPLES = 5  # per-direction samples per element of the max-norm lattice


@dataclass(frozen=True, eq=False)
class PointTables:
    """B-spline tables of one knot vector on one 1D point set.

    ``D[a]`` is ``basis_matrix(kv, pts, a)`` for a = 0 .. ``len(D) - 1``;
    ``wts`` are the Gauss weights when the points are a quadrature rule.
    """

    pts: np.ndarray
    D: tuple
    wts: np.ndarray | None = None


@dataclass(frozen=True)
class KnotVector:
    """Open knot vector with its polynomial degree.

    The basis tables of the fixed point sets below are memo entries: each
    is built on first use and kept, read-only, with this instance. Two
    threads that race on an entry compute the same bits.

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
        D = tabulate(self, pts, nders).D
        for a in (pts, *D, wts):
            if a is not None:
                a.flags.writeable = False
        return PointTables(pts, D, wts)

    @cached_property
    def gauss(self) -> PointTables:
        """The assembly Gauss grid, degree + 1 points per element
        (:func:`element_quadrature_1d`), with orders 0-1."""
        pts, wts = element_quadrature_1d(self, self.degree + 1)
        return self._memo(pts, 1, wts)

    def _with_second(self, t: PointTables) -> PointTables:
        """The memo entry ``t`` with order 2 added, sharing its arrays."""
        second = basis_matrix(self, t.pts, 2)
        second.flags.writeable = False
        return PointTables(t.pts, t.D + (second,), t.wts)

    @cached_property
    def gauss_hessian(self) -> PointTables:
        """:attr:`gauss` with order 2 added, for Hessian monitors."""
        return self._with_second(self.gauss)

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
    def greville_hessian(self) -> PointTables:
        """:attr:`greville` with order 2 added, for smoothed Hessian
        monitors."""
        return self._with_second(self.greville)

    @cached_property
    def lattice(self) -> PointTables:
        """The max-norm lattice, :data:`LINF_SAMPLES` closed samples per
        element (:func:`_element_lattice`), with order 0."""
        return self._memo(_element_lattice(self, LINF_SAMPLES), 0)

    @cached_property
    def corners(self) -> PointTables:
        """The :attr:`breakpoints`, the element corners, with order 0."""
        return self._memo(self.breakpoints, 0)

    def tables(self, pts, nders: int) -> PointTables:
        """The tables on ``pts`` with orders 0 .. ``nders``: the memo entry
        whose point array *is* ``pts`` when it holds those orders (for order
        2 on the :attr:`gauss` or :attr:`greville` points, its ``_hessian``
        sibling, built on first use), else tabulated here. Points equal to
        a memo entry's but in another array are tabulated: the bits are the
        same."""
        for name, t in list(vars(self).items()):
            if isinstance(t, PointTables) and t.pts is pts:
                if nders < len(t.D):
                    return t
                if nders == 2 and name in ("gauss", "greville"):
                    return getattr(self, f"{name}_hessian")
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
    """Positive weight grid of a tensor-product rational basis."""

    w: np.ndarray

    def __post_init__(self):
        w = np.ascontiguousarray(self.w, dtype=float)
        if w.ndim != 2:
            raise ValueError("weights must form a 2D grid")
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
    """Knot averages g_i = (knots[i+1] + ... + knots[i+p]) / p, i = 0..n-1."""
    p, n = kv.degree, kv.n
    g = np.array([kv.knots[i + 1: i + p + 1].mean() for i in range(n)])
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
    """The :class:`PointTables` of ``kv`` on ``pts``, orders 0 .. ``nders``."""
    pts = np.atleast_1d(np.asarray(pts, dtype=float))
    return PointTables(pts, tuple(basis_matrix(kv, pts, a) for a in range(nders + 1)))


def rational_derivatives(num, wsum, nders: int) -> dict:
    """Mixed derivatives of a quotient R = A / W by the generalized quotient
    rule (Piegl & Tiller, The NURBS Book, eq. 4.20).

    ``num[a, b]`` and ``wsum[a, b]`` are d^{a+b} / du^a dv^b of the numerator
    A and of the weight sum W for a + b <= nders, as arrays that broadcast
    against each other. Returns the map (a, b) -> d^{a+b} R / du^a dv^b for
    a + b <= nders, built from lower orders up:

        R^(a,b) = (A^(a,b) - sum_{(c,d) != (0,0)} C(a,c) C(b,d) W^(c,d) R^(a-c,b-d)) / W^(0,0)
    """
    out = {}
    for total in range(nders + 1):
        for a in range(total + 1):
            b = total - a
            acc = num[a, b]
            for c in range(a + 1):
                for d in range(b + 1):
                    if c or d:
                        acc = acc - (comb(a, c) * comb(b, d)) * wsum[c, d] * out[a - c, b - d]
            out[a, b] = acc / wsum[0, 0]
    return out
