"""Independent reference implementations used only to cross-check the package.

Everything here is deliberately written with different algorithms than the
library: bisection instead of a sorted search for knot spans, direct
recursion instead of triangular schemes, finite differences
instead of chain rules, finite-difference stencils instead of Galerkin, and
scipy direct solves instead of conjugate gradients.

The exception is the whole-grid contractions at the end: the stiffness
and error norms exactly as the library computed them before it worked in
blocks, every temporary the size of the whole quadrature grid, and the
stiffness in CSR form, as it was stored before it was stored by
diagonals. The library must reproduce their bits.
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


def find_span(kv, t):
    """Knot span containing t by bisection (The NURBS Book, algorithm A2.1).

    Returns i with knots[i] <= t < knots[i+1] and knots[i] < knots[i+1];
    t = 1 returns the last span of nonzero length.
    """
    knots, p = kv.knots, kv.degree
    low = p
    high = len(knots) - 1 - p
    if t >= knots[high]:
        return high - 1
    if t <= knots[low]:
        return low
    span = (low + high) // 2
    while t < knots[span] or t >= knots[span + 1]:
        if t < knots[span]:
            high = span
        else:
            low = span
        span = (low + high) // 2
    return span


def shared_element_pattern(kv_u, kv_v):
    """Sparsity pattern of the stiffness as a boolean CSR matrix: functions
    (i, j) and (i', j') are coupled when, in each direction, their supports
    [knots[i], knots[i + p + 1]] overlap on an interval of positive length,
    so that some element of nonzero measure carries both."""

    def overlap(kv):
        t, p = kv.knots, kv.degree
        left, right = t[:kv.n], t[p + 1:p + 1 + kv.n]
        return np.maximum.outer(left, left) < np.minimum.outer(right, right)

    return sp.csr_matrix(np.kron(overlap(kv_u), overlap(kv_v)))


def greville_loop(kv):
    """Greville abscissae by one slice mean per function, ends pinned to 0
    and 1."""
    p, n = kv.degree, kv.n
    g = np.array([kv.knots[i + 1: i + p + 1].mean() for i in range(n)])
    g[0], g[-1] = 0.0, 1.0
    return g


def csr_maps_4d(kv_u, kv_v):
    """The gather, CSR ``indices`` and ``indptr`` of the stiffness built
    over the whole (n1, n2, 2 p_u + 1, 2 p_v + 1) box of offsets and then
    compressed by the mask of the pairs that share an element: entry
    (i, j), (i + di, j + dj) is read from the band
    (n2, 2 p_v + 1, n1, p_u + 1) when di > 0, or di = 0 and dj >= 0, and
    else from its mirror; int32 when every position of the box fits."""

    def shared(kv):
        p, first = kv.degree, np.asarray(kv.nonzero_spans) - kv.degree
        mask = np.zeros((kv.n, 2 * p + 1), dtype=bool)
        a = np.arange(p + 1)
        mask[first[:, None, None] + a[:, None], a - a[:, None] + p] = True
        return mask

    mask_u, mask_v, p_u, p_v = shared(kv_u), shared(kv_v), kv_u.degree, kv_v.degree
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
    return gather, cols, indptr


def bspline_value_recursive(knots, p, i, t):
    """Direct Cox-de Boor recursion for a single N_{i,p}(t); 0/0 taken as 0.

    The last nonzero span is treated as closed so the basis is defined at
    t = 1.
    """
    knots = np.asarray(knots, float)
    if p == 0:
        if knots[i] <= t < knots[i + 1]:
            return 1.0
        if t == knots[-1] and knots[i + 1] == t and knots[i] < knots[i + 1]:
            return 1.0
        return 0.0
    acc = 0.0
    d1 = knots[i + p] - knots[i]
    if d1 > 0.0:
        acc += (t - knots[i]) / d1 * bspline_value_recursive(knots, p - 1, i, t)
    d2 = knots[i + p + 1] - knots[i + 1]
    if d2 > 0.0:
        acc += (knots[i + p + 1] - t) / d2 * bspline_value_recursive(knots, p - 1, i + 1, t)
    return acc


def bspline_deriv_recursive(knots, p, i, t, order=1):
    """Derivative via the recursive derivative formula (not the triangular scheme)."""
    if order == 0:
        return bspline_value_recursive(knots, p, i, t)
    knots = np.asarray(knots, float)
    acc = 0.0
    d1 = knots[i + p] - knots[i]
    if d1 > 0.0:
        acc += p / d1 * bspline_deriv_recursive(knots, p - 1, i, t, order - 1)
    d2 = knots[i + p + 1] - knots[i + 1]
    if d2 > 0.0:
        acc -= p / d2 * bspline_deriv_recursive(knots, p - 1, i + 1, t, order - 1)
    return acc


def central_diff(f, x, h=1e-6):
    """First derivative of a scalar->scalar callable."""
    return (f(x + h) - f(x - h)) / (2.0 * h)


def central_diff2(f, x, h=1e-5):
    """Second derivative of a scalar->scalar callable."""
    return (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h)


def grad_fd(f, xy, h=1e-6):
    """Gradient of a scalar field of two variables by central differences."""
    x, y = xy
    return np.array(
        [
            (f(x + h, y) - f(x - h, y)) / (2 * h),
            (f(x, y + h) - f(x, y - h)) / (2 * h),
        ]
    )


def hess_fd(f, xy, h=1e-4):
    """Hessian of a scalar field of two variables by central differences."""
    x, y = xy
    fxx = (f(x + h, y) - 2 * f(x, y) + f(x - h, y)) / h**2
    fyy = (f(x, y + h) - 2 * f(x, y) + f(x, y - h)) / h**2
    fxy = (f(x + h, y + h) - f(x + h, y - h) - f(x - h, y + h) + f(x - h, y - h)) / (4 * h**2)
    return np.array([[fxx, fxy], [fxy, fyy]])


def fd_laplace_dirichlet(bc, n=257, rect=(0.0, 1.0, 0.0, 1.0)):
    """Five-point finite-difference solve of  -lap(u) = 0  on a rectangle.

    Returns (x, y, U) where U has shape (n, n), U[i, j] ~ u(x[i], y[j]), and
    the boundary rows/columns carry the Dirichlet data bc(x, y). Solved with
    a sparse direct factorization.
    """
    x0, x1, y0, y1 = rect
    assert abs((x1 - x0) - (y1 - y0)) < 1e-15, "square domains only"
    x = np.linspace(x0, x1, n)
    y = np.linspace(y0, y1, n)
    m = n - 2
    # Interior unknowns in lexicographic order, index = (i-1)*m + (j-1) with
    # i along x and j along y; uniform spacing so h^2 cancels out of -lap = 0.
    T = sp.diags([-np.ones(m - 1), 4.0 * np.ones(m), -np.ones(m - 1)], [-1, 0, 1])
    S = sp.diags([np.ones(m - 1), np.ones(m - 1)], [-1, 1])
    A = sp.kron(sp.identity(m), T) - sp.kron(S, sp.identity(m))

    U = np.zeros((n, n))
    X, Y = np.meshgrid(x, y, indexing="ij")
    U[0, :] = bc(X[0, :], Y[0, :])
    U[-1, :] = bc(X[-1, :], Y[-1, :])
    U[:, 0] = bc(X[:, 0], Y[:, 0])
    U[:, -1] = bc(X[:, -1], Y[:, -1])

    rhs = np.zeros((m, m))
    rhs[0, :] += U[0, 1:-1]
    rhs[-1, :] += U[-1, 1:-1]
    rhs[:, 0] += U[1:-1, 0]
    rhs[:, -1] += U[1:-1, -1]

    sol = spla.spsolve(A.tocsr(), rhs.ravel())
    U[1:-1, 1:-1] = sol.reshape(m, m)
    return x, y, U


def fd_weighted_laplace_dirichlet(coeff, bc, n=257, rect=(0.0, 1.0, 0.0, 1.0)):
    """Five-point conservative solve of  -div(coeff * grad u) = 0.

    ``coeff(x, y)`` is evaluated at cell-face midpoints. Returns (x, y, U)
    like :func:`fd_laplace_dirichlet`.
    """
    x0, x1, y0, y1 = rect
    x = np.linspace(x0, x1, n)
    y = np.linspace(y0, y1, n)
    h = x[1] - x[0]
    m = n - 2

    X, Y = np.meshgrid(x[1:-1], y[1:-1], indexing="ij")
    a_e = coeff(X + h / 2, Y)
    a_w = coeff(X - h / 2, Y)
    a_n = coeff(X, Y + h / 2)
    a_s = coeff(X, Y - h / 2)

    idx = np.arange(m * m).reshape(m, m)
    rows, cols, vals = [], [], []

    def add(r, c, v):
        rows.append(r.ravel())
        cols.append(c.ravel())
        vals.append(v.ravel())

    add(idx, idx, a_e + a_w + a_n + a_s)
    add(idx[:-1, :], idx[1:, :], -a_e[:-1, :])
    add(idx[1:, :], idx[:-1, :], -a_w[1:, :])
    add(idx[:, :-1], idx[:, 1:], -a_n[:, :-1])
    add(idx[:, 1:], idx[:, :-1], -a_s[:, 1:])
    A = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(m * m, m * m),
    )

    U = np.zeros((n, n))
    XX, YY = np.meshgrid(x, y, indexing="ij")
    for sl in ((0, slice(None)), (-1, slice(None)), (slice(None), 0), (slice(None), -1)):
        U[sl] = bc(XX[sl], YY[sl])

    rhs = np.zeros((m, m))
    rhs[0, :] += a_w[0, :] * U[0, 1:-1]
    rhs[-1, :] += a_e[-1, :] * U[-1, 1:-1]
    rhs[:, 0] += a_s[:, 0] * U[1:-1, 0]
    rhs[:, -1] += a_n[:, -1] * U[1:-1, -1]

    U[1:-1, 1:-1] = spla.spsolve(A, rhs.ravel()).reshape(m, m)
    return x, y, U


def bilinear_interp(x, y, U, px, py):
    """Bilinear interpolation of grid data U (indexing='ij') at points (px, py)."""
    px = np.asarray(px, float)
    py = np.asarray(py, float)
    ix = np.clip(np.searchsorted(x, px) - 1, 0, len(x) - 2)
    iy = np.clip(np.searchsorted(y, py) - 1, 0, len(y) - 2)
    tx = (px - x[ix]) / (x[ix + 1] - x[ix])
    ty = (py - y[iy]) / (y[iy + 1] - y[iy])
    return (
        U[ix, iy] * (1 - tx) * (1 - ty)
        + U[ix + 1, iy] * tx * (1 - ty)
        + U[ix, iy + 1] * (1 - tx) * ty
        + U[ix + 1, iy + 1] * tx * ty
    )


def move_mesh_reference(problem, g0, spec, cfg):
    """The outer loop of ``movemesh.move_mesh_solve`` written with the public
    calls alone, none given a geometry grid: every call evaluates its own
    geometry grids, every solve's Dirichlet data are ``boundary_values`` of
    the mesh it runs on, the first PDE solve is ``solve_poisson``, and the
    trace takes ``min_jacobian`` of each mesh afresh. What the knots alone
    fix is not rebuilt: the basis tables of the fixed grids, the
    stiffness's element pair tables and the preconditioner's 1D factors
    are memo entries of the knot vectors of ``g0``, which every mesh here
    and in the run shares. Mesh wraps are not handled.

    The inner solves follow the loop's rule: each PDE and map solve starts
    from the interior of the previous one (the first PDE solve cold, the
    first map solve from the reference fields), and a map solve after the
    first stops at
    max(tol, MAP_FORCING * previous defect), with a re-solve at tol when
    that defect passes the stop test or on the last allowed iteration.

    The moves follow the loop's Anderson rule. A history holds up to
    ANDERSON_DEPTH + 1 pairs of the interior nodes and capped movement of
    each mesh. It starts over from the current pair when the cap cut any
    node back or the defect grew, and is emptied after a move that halved
    tau. With one pair the mesh takes the capped movement itself; with more,
    the differences of consecutive pairs form columns dX and dF,
    gamma = lstsq(dF, f) and the movement is
    (tau f - (dX + tau dF) gamma) / tau on the interior nodes, 0 on the ring.

    Returns the trace rows without ``cpu_seconds``, as tuples, and the final
    geometry, solution and logical map.
    """
    import dataclasses

    from mmiga import assembly, geometry, movemesh, postproc

    corners = geometry.eval_geometry_grid(g0, [0.0, 1.0], [0.0, 1.0], nders=0).points
    xs, ys = corners[..., 0], corners[..., 1]
    physical = geometry.Rectangle(xs.min(), xs.max(), ys.min(), ys.max())
    bmap = movemesh.make_boundary_map(physical, cfg.logical)
    lm = movemesh.init_logical_mesh(g0, bmap, cfg.lin)
    g = g0
    u = assembly.solve_poisson(g, problem.f, problem.bc, cfg.lin)
    xi, err, prev, rows = lm.fields, None, None, []
    history = []  # (interior nodes, capped movement), oldest first

    def restart(field, bc):
        """``field``'s interior with the data ``bc`` of the current mesh on
        the ring."""
        ring = geometry.boundary_mask(g.shape).ravel()
        start = np.where(ring, assembly.boundary_values(g, bc), field.values)
        return assembly.FieldCoefficients(start, g.shape)

    def row(it, err, tau):
        rep = postproc.error_norms(g, u, problem.exact)
        return (it, err, tau, geometry.min_jacobian(g), rep.L2, rep.H1_semi, rep.L_inf)

    def harmonic_map(tol, xi):
        lin = dataclasses.replace(cfg.lin, tol=tol)
        start = tuple(restart(f, bmap.component(k)) for k, f in enumerate(xi))
        xi = movemesh.solve_harmonic_map(g, spec, u, start, lin)
        gu, gv = g.kv_u.greville.pts, g.kv_v.greville.pts
        vals = [assembly.eval_field_grid(g, f, gu, gv).values for f in xi]
        return xi, float(np.max(np.abs(lm.nodes - np.stack(vals, axis=-1))))

    for it in range(1, cfg.max_outer + 1):
        last_err = err
        tol = cfg.lin.tol if err is None else max(cfg.lin.tol, movemesh.MAP_FORCING * err)
        xi, err = harmonic_map(tol, xi)
        if tol != cfg.lin.tol and (err < cfg.stop_tolerance() or it == cfg.max_outer):
            xi, err = harmonic_map(cfg.lin.tol, xi)
        if err < cfg.stop_tolerance():
            rows.append(row(it, err, 0.0))
            break
        raw = movemesh.compute_movement(g, xi, lm, prev)
        movement = raw
        if cfg.movement_cap is not None:
            movement = movemesh.limit_movement(raw, geometry.mesh_nodes(g), cfg.movement_cap)
        capped = not np.array_equal(raw, movement)
        if capped or (last_err is not None and err > last_err):
            history = []
        inner = ~geometry.boundary_mask(movement.shape[:2])
        history = history[-movemesh.ANDERSON_DEPTH:] + [
            (geometry.mesh_nodes(g)[inner].ravel(), movement[inner].ravel())]
        move = movement
        if len(history) > 1:
            f = history[-1][1]
            dX = np.column_stack([b[0] - a[0] for a, b in zip(history, history[1:])])
            dF = np.column_stack([b[1] - a[1] for a, b in zip(history, history[1:])])
            gamma = np.linalg.lstsq(dF, f, rcond=None)[0]
            move = np.zeros_like(movement)
            move[inner] = ((cfg.tau * f - (dX + cfg.tau * dF) @ gamma) / cfg.tau).reshape(-1, 2)
        g, tau, _ = movemesh.update_mesh(g, move, cfg.tau)
        if tau != cfg.tau:
            history = []
        prev = movement
        A = assembly.assemble_weighted_stiffness(g)
        b = assembly.assemble_load(g, problem.f)
        u = assembly.solve_dirichlet(A, b, g, restart(u, problem.bc), cfg.lin)
        rows.append(row(it, err, tau))
    return rows, g, u, xi


def rational_basis_derivatives(kv_u, kv_v, w, pts_u, pts_v):
    """Every rational basis function R_ij = w_ij N_i N_j / W and its mixed
    parametric derivatives up to second order on the grid pts_u x pts_v,
    as (a, b) -> array (Nu, Nv, n1, n2).

    The 1D values come from the direct recursion, and the quotient rule is
    written out order by order for each function, not through the
    generalized rule the library applies to whole sums.
    """

    def table(kv, pts, order):
        return np.array([[bspline_deriv_recursive(kv.knots, kv.degree, i, t, order)
                          for i in range(kv.n)] for t in pts])

    orders = range(min(2, kv_u.degree) + 1)
    Bu = [table(kv_u, pts_u, a) for a in orders]
    Bv = [table(kv_v, pts_v, b) for b in orders]
    A = {(a, b): np.einsum("ui,vj,ij->uvij", Bu[a], Bv[b], w)
         for a in orders for b in orders if a + b <= 2}
    W = {ab: x.sum(axis=(2, 3))[:, :, None, None] for ab, x in A.items()}
    R = {(0, 0): A[0, 0] / W[0, 0]}
    R[1, 0] = (A[1, 0] - W[1, 0] * R[0, 0]) / W[0, 0]
    R[0, 1] = (A[0, 1] - W[0, 1] * R[0, 0]) / W[0, 0]
    R[2, 0] = (A[2, 0] - 2 * W[1, 0] * R[1, 0] - W[2, 0] * R[0, 0]) / W[0, 0]
    R[1, 1] = (A[1, 1] - W[1, 0] * R[0, 1] - W[0, 1] * R[1, 0] - W[1, 1] * R[0, 0]) / W[0, 0]
    R[0, 2] = (A[0, 2] - 2 * W[0, 1] * R[0, 1] - W[0, 2] * R[0, 0]) / W[0, 0]
    return R


# ------------------------------------------------------- whole-grid contractions

def _weight_values(weight, geo):
    if weight is None:
        return np.ones(geo.det.shape)
    if callable(weight):
        return np.asarray(weight(geo.points[..., 0], geo.points[..., 1]), dtype=float)
    return np.asarray(weight, dtype=float)


def _element_blocks(kv):
    """The per-element blocks of the B-spline values and first derivatives
    on the knot vector's ``gauss`` grid: ``L[a][e]`` is the (q, p+1) block
    of d^a N on element e, its Gauss points against the p+1 functions
    nonzero there, whose first has the index ``first[e]``. Returned as
    ``(L, first)``."""
    first = np.asarray(kv.nonzero_spans) - kv.degree
    rows = np.arange(len(kv.gauss.pts)).reshape(len(first), -1, 1)
    cols = first[:, None, None] + np.arange(kv.degree + 1)
    return np.stack([kv.gauss.D[a][rows, cols] for a in (0, 1)]), first


def stiffness_whole_grid(g, weight=None):
    """``assemble_weighted_stiffness(g, weight)`` as a CSR matrix of the
    pairs that share an element, with every sum-factorisation stage over
    the whole Gauss grid at once: the metric entries H of the whole grid
    (with the weight 1 as a grid of ones), each term contracted along u and
    scattered into u band rows for all v points, then all terms along v and
    one sparse product adding every element into the v band rows; the
    values are read out of the band by the maps of :func:`csr_maps_4d`.
    The element pair tables and the u scatter are built here from the knot
    vectors' ``gauss`` tables (:func:`_element_blocks`), not read from the
    ``element_pairs`` memo entries the library's stiffness reads."""
    from mmiga import assembly, geometry

    geo = geometry.eval_geometry_grid(g, g.kv_u.gauss.pts, g.kv_v.gauss.pts, 1)
    wvals = _weight_values(weight, geo)
    j00, j01, j10, j11 = (geo.jac[..., a, b] for a in (0, 1) for b in (0, 1))
    s = np.multiply.outer(g.kv_u.gauss.wts, g.kv_v.gauss.wts) * wvals / geo.det
    H = {(0, 0): s * (j01 * j01 + j11 * j11),
         (0, 1): -s * (j00 * j01 + j10 * j11),
         (1, 1): s * (j00 * j00 + j10 * j10)}
    w = g.weights.w
    rational = not np.all(w == w.flat[0])
    if rational:
        sums = geometry._spline_sums(geometry.fixed_basis(g, "gauss"), w[..., None], 1)
        W = sums[0, 0][:, 0]
        e_u = -sums[1, 0][:, 0] / W
        e_v = -sums[0, 1][:, 0] / W
        H = {ab: h / (W * W) for ab, h in H.items()}
        H[0, 2] = H[0, 0] * e_u + H[0, 1] * e_v
        H[1, 2] = H[0, 1] * e_u + H[1, 1] * e_v
        H[2, 2] = H[0, 2] * e_u + H[1, 2] * e_v

    terms, phi = assembly._TERMS[:9 if rational else 4], assembly._PHI
    (Lu, first_u), (Lv, first_v) = (_element_blocks(kv) for kv in (g.kv_u, g.kv_v))
    nel_u, q_u, nu = Lu[0].shape
    nel_v, q_v, nv = Lv[0].shape
    iu, ju = np.triu_indices(nu)
    pairs_u = np.stack([(Lu[a][:, :, iu] * Lu[b][:, :, ju]).transpose(0, 2, 1)
                        for a in (0, 1) for b in (0, 1)])
    iv, jv = np.divmod(np.arange(nv * nv), nv)
    pairs_v = np.concatenate([Lv[phi[al][1]][:, :, iv] * Lv[phi[be][1]][:, :, jv]
                              for al, be in terms], axis=1).transpose(0, 2, 1).copy()
    rows = ((first_u[:, None] + iu) * nu + ju - iu).ravel()
    scatter_u = sp.csr_matrix((np.ones(len(rows)), (rows, np.arange(len(rows)))),
                              shape=(g.kv_u.n * nu, len(rows)))
    m = scatter_u.shape[0]
    z = np.empty((nel_v, len(terms) * q_v, m))
    for t, (al, be) in enumerate(terms):
        h = H[min(al, be), max(al, be)].reshape(nel_u, q_u, -1)
        x = pairs_u[2 * phi[al][0] + phi[be][0]] @ h
        xb = scatter_u @ x.reshape(nel_u * len(iu), -1)
        z[:, t * q_v:(t + 1) * q_v] = xb.reshape(m, nel_v, q_v).transpose(1, 2, 0)
    y = pairs_v @ z
    p = g.kv_v.degree
    rows = ((first_v[:, None] + iv) * (2 * p + 1) + jv - iv + p).ravel()
    scatter_v = sp.csr_matrix((np.ones(len(rows)), (rows, np.arange(len(rows)))),
                              shape=(g.kv_v.n * (2 * p + 1), len(rows)))
    gather, cols, indptr = csr_maps_4d(g.kv_u, g.kv_v)
    data = (scatter_v @ y.reshape(-1, m)).ravel()[gather]
    if rational:
        wf = w.ravel()
        data *= wf[np.repeat(np.arange(g.ndof), np.diff(indptr))] * wf[cols]
    return sp.csr_matrix((data, cols, indptr), shape=(g.ndof, g.ndof))


def error_norms_whole_grid(g, u, exact):
    """``error_norms(g, u, exact)`` with the geometry, the field, the exact
    solution and the errors evaluated on the whole error Gauss grid at
    once."""
    from mmiga import assembly, geometry, postproc

    quad = geometry.fixed_basis(g, "error_gauss")
    geo = geometry.eval_geometry_grid(g, quad.u.pts, quad.v.pts, 1)
    fg = assembly.eval_field_grid(g, u, quad.u.pts, quad.v.pts, nders=1, geo=geo)
    X, Y = geo.points[..., 0], geo.points[..., 1]
    w2 = np.multiply.outer(quad.u.wts, quad.v.wts) * geo.det
    e_val = fg.values - exact.u(X, Y)
    e_gx = fg.grad[..., 0] - exact.du_dx(X, Y)
    e_gy = fg.grad[..., 1] - exact.du_dy(X, Y)
    nel_u, nel_v = len(g.kv_u.nonzero_spans), len(g.kv_v.nonzero_spans)
    qu, qv = len(quad.u.pts) // nel_u, len(quad.v.pts) // nel_v
    l2_cells = (e_val * e_val * w2).reshape(nel_u, qu, nel_v, qv).sum(axis=(1, 3))
    h1_cells = ((e_gx * e_gx + e_gy * e_gy) * w2).reshape(nel_u, qu, nel_v, qv).sum(axis=(1, 3))

    lat = geometry.fixed_basis(g, "lattice")
    lgeo = geometry.eval_geometry_grid(g, lat.u.pts, lat.v.pts, 0)
    lvals = assembly.eval_field_grid(g, u, lat.u.pts, lat.v.pts).values
    linf = float(np.max(np.abs(lvals - exact.u(lgeo.points[..., 0], lgeo.points[..., 1]))))
    brk = geometry.fixed_basis(g, "corners")
    corners = geometry.eval_geometry_grid(g, brk.u.pts, brk.v.pts, 0).points
    diag = corners[1:, 1:] - corners[:-1, :-1]
    anti = corners[1:, :-1] - corners[:-1, 1:]
    h = float(max(np.hypot(diag[..., 0], diag[..., 1]).max(),
                  np.hypot(anti[..., 0], anti[..., 1]).max()))
    return postproc.ErrorReport(float(np.sqrt(l2_cells.sum())), float(np.sqrt(h1_cells.sum())),
                                linf, np.sqrt(l2_cells), g.ndof, h)
