import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mmiga.assembly import FieldCoefficients, eval_field_grid
from mmiga.geometry import (
    NurbsGeometry,
    Rectangle,
    boundary_mask,
    build_identity_geometry,
    eval_geometry_grid,
    fixed_basis,
    map_point,
    mesh_nodes,
    min_jacobian,
    rational_grid_sums,
    refit_from_node_targets,
)
from mmiga.postproc import ExactSolution, error_norms, export_vtk
from mmiga.splines import KnotVector, TensorWeights, greville_abscissae, make_open_knot_vector

from oracles import grad_fd, rational_basis_derivatives


def _identity(p=2, m=2, rect=Rectangle(0, 1, 0, 1)):
    kv = make_open_knot_vector(p, m, 1)
    return build_identity_geometry(rect, kv, kv)


def _perturbed(p=3, m=3, scale=0.04, seed=0):
    g = _identity(p, m)
    rng = np.random.default_rng(seed)
    cp = g.control_points.copy()
    cp[1:-1, 1:-1] += scale * rng.uniform(-1, 1, size=cp[1:-1, 1:-1].shape)
    return NurbsGeometry(g.kv_u, g.kv_v, g.weights, cp)


def test_identity_geometry_reproduces_the_affine_map():
    rng = np.random.default_rng(0)
    g = build_identity_geometry(
        Rectangle(0, 1, 0, 1),
        make_open_knot_vector(3, 4, 1),
        make_open_knot_vector(3, 4, 1),
    )
    for s in rng.uniform(0, 1, size=(100, 2)):
        ev = map_point(g, s)
        assert np.allclose(ev.point, s, atol=1e-13)
        assert np.allclose(ev.jac, np.eye(2), atol=1e-12)


def test_identity_geometry_biunit_square():
    g = _identity(p=2, m=3, rect=Rectangle(-1, 1, -1, 1))
    ev = map_point(g, (0.5, 0.5))
    assert np.allclose(ev.point, [0.0, 0.0], atol=1e-14)
    assert np.allclose(ev.jac, 2.0 * np.eye(2), atol=1e-12)
    assert min_jacobian(g) == pytest.approx(4.0, abs=1e-12)


def test_map_point_jacobian_matches_finite_differences():
    g = _perturbed()
    rng = np.random.default_rng(4)
    h = 1e-6
    for s in rng.uniform(0.05, 0.95, size=(20, 2)):
        ev = map_point(g, s)
        for comp in range(2):
            f = lambda u, v: map_point(g, (u, v), nders=0).point[comp]
            fd = grad_fd(f, s, h)
            assert np.allclose(ev.jac[comp], fd, rtol=1e-5, atol=1e-8)


def test_map_point_second_derivatives_match_finite_differences():
    g = _perturbed()
    s = (0.4, 0.6)
    ev = map_point(g, s, nders=2)
    h = 1e-5
    for comp in range(2):
        f = lambda u, v: map_point(g, (u, v), nders=0).point[comp]
        fuu = (f(s[0] + h, s[1]) - 2 * f(*s) + f(s[0] - h, s[1])) / h**2
        fvv = (f(s[0], s[1] + h) - 2 * f(*s) + f(s[0], s[1] - h)) / h**2
        fuv = (
            f(s[0] + h, s[1] + h) - f(s[0] + h, s[1] - h)
            - f(s[0] - h, s[1] + h) + f(s[0] - h, s[1] - h)
        ) / (4 * h**2)
        assert ev.second[0, comp] == pytest.approx(fuu, rel=1e-4, abs=1e-5)
        assert ev.second[1, comp] == pytest.approx(fuv, rel=1e-4, abs=1e-5)
        assert ev.second[2, comp] == pytest.approx(fvv, rel=1e-4, abs=1e-5)


def test_affine_reproduction_through_control_net_transform():
    g = _identity(p=3, m=3)
    A = np.array([[1.5, 0.3], [-0.2, 2.0]])
    shift = np.array([0.7, -1.1])
    cp = g.control_points @ A.T + shift
    ga = NurbsGeometry(g.kv_u, g.kv_v, g.weights, cp)
    rng = np.random.default_rng(1)
    for s in rng.uniform(0, 1, size=(50, 2)):
        ev = map_point(ga, s)
        assert np.allclose(ev.point, A @ np.asarray(s) + shift, atol=1e-12)
        assert np.allclose(ev.jac, A, atol=1e-12)


def test_grid_evaluation_agrees_with_pointwise():
    # map_point is the 1x1 grid; a multi-point grid must give the same values
    g = _perturbed(p=2, m=3, seed=5)
    pu = np.array([0.1, 0.37, 0.92])
    pv = np.array([0.2, 0.55])
    grid = eval_geometry_grid(g, pu, pv, nders=2)
    for i, u in enumerate(pu):
        for j, v in enumerate(pv):
            ev = map_point(g, (u, v), nders=2)
            assert np.allclose(grid.points[i, j], ev.point, atol=1e-13)
            assert np.allclose(grid.jac[i, j], ev.jac, atol=1e-13)
            assert np.allclose(grid.second[i, j], ev.second, atol=1e-12)


@pytest.mark.parametrize(
    "evaluate",
    [
        lambda g: eval_geometry_grid(g, [0.3], [0.6], nders=-1),
        lambda g: map_point(g, (0.3, 0.6), -1),
        lambda g: eval_field_grid(
            g, FieldCoefficients.from_grid(np.ones(g.shape)), [0.3], [0.6], nders=-1
        ),
    ],
    ids=["eval_geometry_grid", "map_point", "eval_field_grid"],
)
def test_negative_derivative_order_is_a_value_error(evaluate):
    with pytest.raises(ValueError, match="derivative order"):
        evaluate(_identity())


def test_mesh_nodes_are_greville_images():
    g = _identity(p=2, m=2)
    nodes = mesh_nodes(g)
    expected = [0.0, 0.25, 0.75, 1.0]
    assert np.allclose(nodes[:, 0, 0], expected, atol=1e-14)
    assert np.allclose(nodes[0, :, 1], expected, atol=1e-14)


def test_mesh_nodes_affine_geometry():
    g = _identity(p=2, m=2, rect=Rectangle(-1, 1, -1, 1))
    nodes = mesh_nodes(g)
    gu = greville_abscissae(g.kv_u)
    assert np.allclose(nodes[:, 0, 0], 2 * gu - 1, atol=1e-13)


def test_element_count_excludes_zero_measure_spans():
    kv = make_open_knot_vector(3, 4, 3)  # interior multiplicity 3
    g = build_identity_geometry(Rectangle(0, 1, 0, 1), kv, kv)
    gauss = fixed_basis(g, "gauss")
    assert len(gauss.u.pts) == len(gauss.v.pts) == 4 * (3 + 1)
    # each run of p + 1 Gauss points lies inside its own breakpoint interval
    element = np.searchsorted(kv.breakpoints, gauss.u.pts) - 1
    assert np.array_equal(element, np.repeat(np.arange(4), 4))


def test_refit_fixed_point():
    g = _perturbed(p=3, m=4, seed=8)
    refit = refit_from_node_targets(g, mesh_nodes(g))
    assert np.allclose(refit.control_points, g.control_points, atol=1e-12)


def test_refit_affine_targets_give_affine_net():
    g = _identity(p=2, m=3)
    A = np.array([[2.0, 0.5], [0.0, 1.5]])
    nodes = mesh_nodes(g)
    refit = refit_from_node_targets(g, nodes @ A.T)
    assert np.allclose(refit.control_points, g.control_points @ A.T, atol=1e-12)


def test_refit_reproduces_biquadratic_map():
    # targets sampled from a bi-quadratic polynomial map; p >= 2 basis
    # reproduces it exactly, so off-node probes must agree
    def poly_map(u, v):
        x = u + 0.15 * u * u + 0.05 * u * v
        y = v + 0.10 * v * v - 0.07 * u * v
        return np.stack([x, y], axis=-1)

    g = _identity(p=2, m=4)
    gu = greville_abscissae(g.kv_u)
    gv = greville_abscissae(g.kv_v)
    U, V = np.meshgrid(gu, gv, indexing="ij")
    refit = refit_from_node_targets(g, poly_map(U, V))
    rng = np.random.default_rng(2)
    for s in rng.uniform(0, 1, size=(40, 2)):
        ev = map_point(refit, s, nders=0)
        assert np.allclose(ev.point, poly_map(*s), atol=1e-10)


def test_refit_preserves_boundary_curve():
    g = _perturbed(p=3, m=4, seed=9)
    nodes = mesh_nodes(g)
    targets = nodes.copy()
    targets[1:-1, 1:-1] += 0.01
    refit = refit_from_node_targets(g, targets)
    t = np.linspace(0, 1, 101)
    for edge_pts in (
        (t, np.zeros_like(t)), (t, np.ones_like(t)),
        (np.zeros_like(t), t), (np.ones_like(t), t),
    ):
        before = eval_geometry_grid(g, *edge_pts, nders=0)
        after = eval_geometry_grid(refit, *edge_pts, nders=0)
        diag_b = np.array([before.points[i, i] for i in range(101)])
        diag_a = np.array([after.points[i, i] for i in range(101)])
        assert np.allclose(diag_a, diag_b, atol=1e-10)


def test_refit_boundary_ring_bitwise_stable_when_targets_match():
    g = _perturbed(p=3, m=4, seed=10)
    nodes = mesh_nodes(g)
    targets = nodes.copy()
    targets[1:-1, 1:-1] += 0.005
    refit = refit_from_node_targets(g, targets)
    assert np.array_equal(refit.control_points[0, :], g.control_points[0, :])
    assert np.array_equal(refit.control_points[-1, :], g.control_points[-1, :])
    assert np.array_equal(refit.control_points[:, 0], g.control_points[:, 0])
    assert np.array_equal(refit.control_points[:, -1], g.control_points[:, -1])


@pytest.mark.parametrize("shape", [(2, 2), (2, 5), (4, 3), (7, 7)])
def test_boundary_mask_counts_each_corner_once(shape):
    n1, n2 = shape
    mask = boundary_mask(shape)
    assert mask.shape == shape and mask.dtype == bool
    assert np.count_nonzero(mask) == 2 * (n1 + n2) - 4
    assert mask[[0, 0, -1, -1], [0, -1, 0, -1]].all()
    assert not mask[1:-1, 1:-1].any()


def test_min_jacobian_identity_and_folded():
    g = _identity(p=2, m=3)
    assert min_jacobian(g) == pytest.approx(1.0, abs=1e-13)
    # fold the map by dragging an interior control point far past its neighbors
    cp = g.control_points.copy()
    cp[2, 2] = [-0.8, -0.8]
    folded = NurbsGeometry(g.kv_u, g.kv_v, g.weights, cp)
    assert min_jacobian(folded) < 0.0


def test_min_jacobian_reads_a_given_gauss_grid_evaluation():
    g = _perturbed(p=2, m=4, seed=14)
    gauss = fixed_basis(g, "gauss")
    geo = eval_geometry_grid(g, gauss.u.pts, gauss.v.pts, 1)
    assert min_jacobian(g, geo) == min_jacobian(g)
    with pytest.raises(ValueError, match="Gauss grid"):
        min_jacobian(g, eval_geometry_grid(g, gauss.u.pts, gauss.v.pts, 0))
    greville = fixed_basis(g, "greville")
    with pytest.raises(ValueError, match="Gauss grid"):
        min_jacobian(g, eval_geometry_grid(g, greville.u.pts, greville.v.pts, 1))


def test_jacobian_grid_matches_finite_differences_randomized():
    g = _perturbed(p=2, m=4, seed=12)
    rng = np.random.default_rng(13)
    pu = np.sort(rng.uniform(0.02, 0.98, 8))
    pv = np.sort(rng.uniform(0.02, 0.98, 8))
    grid = eval_geometry_grid(g, pu, pv, nders=1)
    h = 1e-6
    for i in (0, 3, 7):
        for j in (1, 4, 6):
            for comp in range(2):
                f = lambda u, v: map_point(g, (u, v), nders=0).point[comp]
                fd = grad_fd(f, (pu[i], pv[j]), h)
                assert np.allclose(grid.jac[i, j, comp], fd, rtol=1e-5, atol=1e-8)


# ------------------------------------------------- grid contraction and tables

def _net(p, c0, weights, seed):
    """A perturbed 3 x 4 element net of degree p, C^{p-1} or C^0, with
    unit, equal non-unit or random weights."""
    mult = p if c0 else 1
    g0 = build_identity_geometry(Rectangle(0, 1, 0, 1), make_open_knot_vector(p, 3, mult),
                                 make_open_knot_vector(p, 4, mult))
    rng = np.random.default_rng(seed)
    cp = g0.control_points.copy()
    cp[1:-1, 1:-1] += 0.02 * rng.uniform(-1, 1, size=cp[1:-1, 1:-1].shape)
    w = {"unit": np.ones(g0.shape), "equal": np.full(g0.shape, 1.7),
         "random": rng.uniform(0.7, 1.4, size=g0.shape)}[weights]
    return NurbsGeometry(g0.kv_u, g0.kv_v, TensorWeights(w), cp)


# points in [0, 1]: the ends, knots of both knot vectors and repeats among them
_POINTS = st.lists(st.sampled_from([0.0, 1.0, 1 / 3, 0.5, 0.25]) | st.floats(0.0, 1.0),
                   min_size=1, max_size=5)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(p=st.sampled_from([2, 3]), c0=st.booleans(),
       weights=st.sampled_from(["unit", "equal", "random"]), nders=st.integers(0, 2),
       pts_u=_POINTS, pts_v=_POINTS, seed=st.integers(0, 2**16))
@example(p=3, c0=False, weights="random", nders=2, pts_u=[0.4], pts_v=[0.7], seed=0)
@example(p=2, c0=True, weights="equal", nders=2, pts_u=[0.0, 0.5, 0.5, 1.0],
         pts_v=[1.0, 0.25, 0.0], seed=1)
def test_grid_sums_match_the_one_hot_oracle(p, c0, weights, nders, pts_u, pts_v, seed):
    # one-hot coefficients make every basis function a column of the sums
    g = _net(p, c0, weights, seed)
    one_hot = np.eye(g.ndof).reshape(*g.shape, -1)
    sums = rational_grid_sums(g.kv_u, g.kv_v, g.weights, one_hot, pts_u, pts_v, nders)
    R = rational_basis_derivatives(g.kv_u, g.kv_v, g.weights.w, pts_u, pts_v)
    assert sorted(sums) == sorted(ab for ab in R if sum(ab) <= nders)
    for ab, vals in sums.items():
        ref = R[ab].reshape(vals.shape)
        assert np.max(np.abs(vals - ref)) <= 1e-13 * max(np.max(np.abs(ref)), 1.0), ab


@pytest.mark.parametrize("weights", ["unit", "equal", "random"])
def test_evaluations_with_tables_give_the_same_bits(monkeypatch, weights):
    # on a memo entry's own point arrays evaluation reads the memo tables;
    # on copies of them it tabulates, with the same bits
    g = _net(3, False, weights, seed=21)
    u = FieldCoefficients(np.random.default_rng(22).normal(size=g.ndof), g.shape)
    coeffs = np.random.default_rng(23).normal(size=(*g.shape, 3))
    same = lambda a, b: (a is None and b is None) or np.array_equal(a, b)
    for grid, top in (("gauss", 2), ("error_gauss", 2), ("greville", 2), ("lattice", 1),
                      ("corners", 0)):
        t = fixed_basis(g, grid)
        for nders in range(top + 1):
            (sums, geo, fg), (sums_c, geo_c, fg_c) = (
                (rational_grid_sums(g.kv_u, g.kv_v, g.weights, coeffs, pu, pv, nders),
                 eval_geometry_grid(g, pu, pv, nders), eval_field_grid(g, u, pu, pv, nders))
                for pu, pv in ((t.u.pts, t.v.pts), (t.u.pts.copy(), t.v.pts.copy())))
            assert all(np.array_equal(sums_c[ab], sums[ab]) for ab in sums), (grid, nders)
            for name in ("points", "jac", "det", "second"):
                assert same(getattr(geo_c, name), getattr(geo, name)), (grid, nders, name)
            for name in ("values", "grad", "hess"):
                assert same(getattr(fg_c, name), getattr(fg, name)), (grid, nders, name)
    gauss = fixed_basis(g, "gauss")
    copies = gauss.u.pts.copy(), gauss.v.pts.copy()
    assert min_jacobian(g) == eval_geometry_grid(g, *copies, 1).det.min()
    calls = _count_tabulations(monkeypatch)
    eval_geometry_grid(g, copies[0], gauss.v.pts, 1)
    assert calls == [0, 1]  # the copy's two orders; the v tables are the memo's
    # the knot vectors' memo tables give the bits of tables built per call
    gu, gv = greville_abscissae(g.kv_u), greville_abscissae(g.kv_v)
    nodes = mesh_nodes(g)
    assert np.array_equal(eval_geometry_grid(g, gu, gv, 0).points, nodes)
    targets = nodes.copy()
    targets[1:-1, 1:-1] += 0.01
    refit = refit_from_node_targets(g, targets)
    other = refit_from_node_targets(g, targets, nodes=nodes)
    assert np.array_equal(other.control_points, refit.control_points)


# ------------------------------------------------------------ knot-vector memo

FIXED_GRIDS = ("gauss", "gauss_hessian", "error_gauss", "greville", "greville_hessian",
               "lattice", "corners")


def _count_tabulations(monkeypatch):
    from mmiga import splines

    calls = []
    real = splines.basis_matrix

    def counting(kv, pts, der=0):
        calls.append(der)
        return real(kv, pts, der)

    monkeypatch.setattr(splines, "basis_matrix", counting)
    return calls


def test_geometries_on_the_same_knot_vectors_share_read_only_tables(monkeypatch):
    g = _net(3, False, "random", seed=31)
    nodes = mesh_nodes(g)
    targets = nodes.copy()
    targets[1:-1, 1:-1] += 0.002
    refit = refit_from_node_targets(g, targets)
    other = NurbsGeometry(g.kv_u, g.kv_v, TensorWeights(np.ones(g.shape)), refit.control_points)
    for grid in FIXED_GRIDS:
        first, *rest = (fixed_basis(h, grid) for h in (g, refit, other))
        assert all(t.u is first.u and t.v is first.v for t in rest), grid
        for t in (first.u, first.v):
            arrays = [t.pts, *t.D] + ([] if t.wts is None else [t.wts])
            assert not any(a.flags.writeable for a in arrays), grid
    # and the evaluations on those grids read them, up to order 2 on the
    # gauss and greville points: nothing is tabulated again
    calls = _count_tabulations(monkeypatch)
    mesh_nodes(other)
    min_jacobian(refit)
    refit_from_node_targets(other, targets)
    u = FieldCoefficients(np.ones(g.ndof), g.shape)
    for grid, top in (("gauss", 2), ("error_gauss", 1), ("greville", 2), ("lattice", 0),
                      ("corners", 0)):
        t = fixed_basis(other, grid)
        for nders in range(top + 1):
            eval_geometry_grid(other, t.u.pts, t.v.pts, nders)
            eval_field_grid(other, u, t.u.pts, t.v.pts, nders)
    assert calls == []


def test_a_shared_knot_vector_tabulates_each_fixed_grid_once(monkeypatch):
    calls = _count_tabulations(monkeypatch)
    exact = ExactSolution(lambda x, y: x * y, lambda x, y: y, lambda x, y: x)
    u = FieldCoefficients(np.ones(9 * 9), (9, 9))
    shared, other = _perturbed(p=3, m=6), _perturbed(p=3, m=6)
    kv = other.kv_v
    copies = NurbsGeometry(other.kv_u, KnotVector(kv.degree, kv.knots), other.weights,
                           other.control_points)
    assert shared.kv_u is shared.kv_v and copies.kv_u is not copies.kv_v
    counts = []
    for g in (shared, copies):
        calls.clear()
        for _ in range(2):
            min_jacobian(g)
            mesh_nodes(g)
            error_norms(g, u, exact)
        counts.append(len(calls))
    # gauss and greville at orders 0-1, error_gauss too, lattice and corners at 0
    assert counts == [8, 2 * 8]


def test_arbitrary_points_add_no_memo_entry(tmp_path):
    kv = make_open_knot_vector(3, 4, 1)
    g = build_identity_geometry(Rectangle(0, 1, 0, 1), kv, kv)
    fields = set(vars(kv))
    assert fields == {"degree", "knots"}  # building a geometry makes no table
    eval_geometry_grid(g, np.linspace(0, 1, 7), np.linspace(0, 1, 5), 2)
    map_point(g, (0.3, 0.6), 2)
    export_vtk(g, {"u": FieldCoefficients(np.ones(g.ndof), g.shape)}, 4, tmp_path / "g.vtk")
    assert set(vars(kv)) == fields
    mesh_nodes(g)
    assert set(vars(kv)) == fields | {"greville"}
    # order 2 on the Greville points builds the memo's second-order sibling
    eval_geometry_grid(g, kv.greville.pts, kv.greville.pts, 2)
    assert set(vars(kv)) == fields | {"greville", "greville_hessian"}
