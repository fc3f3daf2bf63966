import csv

import numpy as np
import pytest

from mmiga.assembly import FieldCoefficients, solve_poisson
from mmiga.geometry import NurbsGeometry, Rectangle, build_identity_geometry
from mmiga.linalg import LinearSolverSettings
from mmiga.movemesh import (
    MonitorSpec,
    MoveMeshConfig,
    PoissonProblem,
    move_mesh_solve,
)
from mmiga.postproc import (
    ErrorReport,
    ExactSolution,
    convergence_orders,
    error_norms,
    export_trace,
    export_vtk,
    read_vtk_points,
)
from mmiga.splines import KnotVector, TensorWeights, greville_abscissae, make_open_knot_vector

SINE = ExactSolution(
    lambda x, y: np.sin(x) * np.sin(y),
    lambda x, y: np.cos(x) * np.sin(y),
    lambda x, y: np.sin(x) * np.cos(y),
)


def _identity(p=3, m=4, rect=Rectangle(-1, 1, -1, 1)):
    kv = make_open_knot_vector(p, m, 1)
    return build_identity_geometry(rect, kv, kv)


def test_error_norms_exact_interpolant_is_zero():
    g = _identity(p=2, m=3, rect=Rectangle(0, 1, 0, 1))
    gu = greville_abscissae(g.kv_u)
    U, V = np.meshgrid(gu, gu, indexing="ij")
    u = FieldCoefficients.from_grid(1.5 * U - 0.5 * V + 2.0)
    exact = ExactSolution(
        lambda x, y: 1.5 * x - 0.5 * y + 2.0,
        lambda x, y: np.full_like(x, 1.5),
        lambda x, y: np.full_like(x, -0.5),
    )
    rep = error_norms(g, u, exact)
    assert rep.L2 <= 1e-10 and rep.H1_semi <= 1e-10 and rep.L_inf <= 1e-10


@pytest.mark.parametrize("mult", [1, 3])
def test_lattice_max_reads_the_same_values_as_the_per_element_lattice(mult):
    # each shared element edge is sampled once; the repeats it drops are the
    # same floats, so the max over the lattice keeps its bits
    from mmiga.assembly import eval_field_grid
    from mmiga.geometry import eval_geometry_grid
    from mmiga.splines import _element_lattice

    kv_u, kv_v = make_open_knot_vector(3, 5, mult), make_open_knot_vector(3, 4, mult)
    g0 = build_identity_geometry(Rectangle(-1, 1, -1, 1), kv_u, kv_v)
    rng = np.random.default_rng(11)
    cp = g0.control_points.copy()
    cp[1:-1, 1:-1] += 0.03 * rng.uniform(-1, 1, size=cp[1:-1, 1:-1].shape)
    g = NurbsGeometry(kv_u, kv_v, TensorWeights(rng.uniform(0.7, 1.4, g0.shape)), cp)
    u = FieldCoefficients(rng.normal(size=g.ndof), g.shape)
    lu, lv = _element_lattice(kv_u, 5), _element_lattice(kv_v, 5)
    x = eval_geometry_grid(g, lu, lv, 0).points
    err = eval_field_grid(g, u, lu, lv).values - SINE.u(x[..., 0], x[..., 1])
    assert error_norms(g, u, SINE).L_inf == np.max(np.abs(err))


def test_error_norms_zero_field_against_sine():
    # ||sin x sin y||_{L2([-1,1]^2)} = 1 - sin(2)/2, from the 1D integral
    # int_{-1}^{1} sin^2 = 1 - sin(2)/2 squared across the tensor product
    g = _identity(p=3, m=6)
    u = FieldCoefficients(np.zeros(g.ndof), g.shape)
    rep = error_norms(g, u, SINE)
    expected = 1.0 - np.sin(2.0) / 2.0
    assert rep.L2 == pytest.approx(expected, abs=1e-6)
    assert rep.dofs == g.ndof
    assert rep.h == pytest.approx(np.sqrt(2) * (2 / 6), rel=1e-12)


def test_error_norms_consistency_global_vs_elements():
    g = _identity(p=2, m=5)
    rng = np.random.default_rng(0)
    u = FieldCoefficients(rng.normal(size=g.ndof), g.shape)
    rep = error_norms(g, u, SINE)
    assert rep.L2 == pytest.approx(np.sqrt((rep.per_element_L2**2).sum()), rel=1e-12)
    assert rep.per_element_L2.shape == (5, 5)
    assert np.all(rep.per_element_L2 >= 0)


def test_error_norms_with_tables_give_the_same_bits():
    # the memo tables of one pair of knot vectors serve every geometry on
    # them, with the bits of tables built afresh
    g = _identity(p=3, m=4)
    rng = np.random.default_rng(1)
    cp = g.control_points.copy()
    cp[1:-1, 1:-1] += 0.05 * rng.uniform(-1, 1, size=cp[1:-1, 1:-1].shape)
    u = FieldCoefficients(rng.normal(size=g.ndof), g.shape)
    error_norms(g, u, SINE)
    for w in (g.weights, TensorWeights(rng.uniform(0.7, 1.4, size=g.shape))):
        geom = NurbsGeometry(g.kv_u, g.kv_v, w, cp)
        fresh = NurbsGeometry(*(KnotVector(kv.degree, kv.knots) for kv in (g.kv_u, g.kv_v)), w, cp)
        a, b = error_norms(fresh, u, SINE), error_norms(geom, u, SINE)
        assert (a.L2, a.H1_semi, a.L_inf, a.h) == (b.L2, b.H1_semi, b.L_inf, b.h)
        assert np.array_equal(a.per_element_L2, b.per_element_L2)


def test_error_norms_table_row_121_dofs():
    f = lambda x, y: 2.0 * np.sin(x) * np.sin(y)
    g = _identity(p=3, m=8)
    u = solve_poisson(g, f, SINE.u, LinearSolverSettings(tol=1e-12))
    rep = error_norms(g, u, SINE)
    assert rep.dofs == 121
    assert rep.L2 == pytest.approx(2.41e-06, rel=2.0)  # within factor 3


def test_convergence_orders_exact_ratios():
    reports = [
        ErrorReport(1e-2, 1e-1, 1e-1, np.zeros((1, 1)), 25, h=0.5),
        ErrorReport(2.5e-3, 5e-2, 5e-2, np.zeros((1, 1)), 81, h=0.25),
    ]
    orders = convergence_orders(reports)
    assert orders[0].L2 is None
    assert orders[1].L2 == pytest.approx(2.0, abs=1e-12)
    assert orders[1].H1 == pytest.approx(1.0, abs=1e-12)


def test_convergence_orders_paper_style_ratio():
    reports = [
        ErrorReport(6.38e-4, 1.0, 1.0, np.zeros((1, 1)), 25, h=1.0),
        ErrorReport(3.78e-5, 1.0, 1.0, np.zeros((1, 1)), 49, h=0.5),
    ]
    orders = convergence_orders(reports)
    # the published order was computed from unrounded errors; the rounded
    # table entries reproduce it to about three decimals
    assert orders[1].L2 == pytest.approx(4.0782, abs=2e-3)


def test_convergence_orders_zero_error_reported_absent():
    reports = [
        ErrorReport(1e-2, 1e-1, 1e-1, np.zeros((1, 1)), 25, h=0.5),
        ErrorReport(0.0, 5e-2, 5e-2, np.zeros((1, 1)), 81, h=0.25),
    ]
    orders = convergence_orders(reports)
    assert orders[1].L2 is None
    assert orders[1].H1 == pytest.approx(1.0)


def test_convergence_orders_smooth_problem_monotone_decrease():
    f = lambda x, y: 2.0 * np.sin(x) * np.sin(y)
    reports = []
    for m in (2, 4, 8):
        g = _identity(p=3, m=m)
        u = solve_poisson(g, f, SINE.u, LinearSolverSettings(tol=1e-12))
        reports.append(error_norms(g, u, SINE))
    l2 = [r.L2 for r in reports]
    assert l2[0] > l2[1] > l2[2]


def test_vtk_export_round_trip(tmp_path):
    g = _identity(p=2, m=3, rect=Rectangle(0, 1, 0, 1))
    u = FieldCoefficients(np.zeros(g.ndof), g.shape)
    path = tmp_path / "mesh.vtk"
    export_vtk(g, {"u": u}, samples_per_element=2, path=path)
    pts, data = read_vtk_points(path)
    assert len(pts) == (3 * 1 + 1) ** 2
    assert np.allclose(data["u"], 0.0)
    # node grid on the identity geometry: breakpoints per direction
    xs = np.unique(np.round(pts[:, 0], 12))
    assert np.allclose(xs, [0, 1 / 3, 2 / 3, 1], atol=1e-12)


def test_vtk_point_and_cell_counts(tmp_path):
    g = _identity(p=2, m=4, rect=Rectangle(0, 1, 0, 1))
    rng = np.random.default_rng(1)
    u = FieldCoefficients(rng.normal(size=g.ndof), g.shape)
    path = tmp_path / "mesh.vtk"
    export_vtk(g, {"u": u}, samples_per_element=4, path=path)
    text = path.read_text().splitlines()
    points_line = next(l for l in text if l.startswith("POINTS"))
    cells_line = next(l for l in text if l.startswith("CELLS"))
    types_line = next(l for l in text if l.startswith("CELL_TYPES"))
    assert int(points_line.split()[1]) == (4 * 3 + 1) ** 2
    assert int(cells_line.split()[1]) == 16 * 9
    assert int(types_line.split()[1]) == 16 * 9
    # all quads
    idx = text.index(types_line)
    assert all(t == "9" for t in text[idx + 1: idx + 1 + 16 * 9])


def test_vtk_round_trip_coordinates_exact(tmp_path):
    g = _identity(p=3, m=3, rect=Rectangle(-1, 1, -1, 1))
    path = tmp_path / "grid.vtk"
    export_vtk(g, {}, samples_per_element=3, path=path)
    pts, _ = read_vtk_points(path)
    from mmiga.geometry import eval_geometry_grid

    # first lattice point and last must be the domain corners
    assert np.allclose(pts[0, :2], [-1, -1], atol=1e-12)
    assert np.allclose(pts[-1, :2], [1, 1], atol=1e-12)


DELTA = 0.01


def _r(x, y):
    return np.maximum(np.hypot(x - 0.5, y - 0.5), 1e-12)


def _sech2(s):
    return np.cosh(np.clip(s, -300.0, 300.0)) ** -2.0


def tanh_exact(x, y):
    return np.tanh((0.25 - _r(x, y)) / DELTA)


def tanh_rhs(x, y):
    r = _r(x, y)
    s = (0.25 - r) / DELTA
    return (2.0 / DELTA**2) * _sech2(s) * np.tanh(s) + _sech2(s) / (DELTA * r)


def tanh_dx(x, y):
    r = _r(x, y)
    return -_sech2((0.25 - r) / DELTA) / DELTA * (x - 0.5) / r


def tanh_dy(x, y):
    r = _r(x, y)
    return -_sech2((0.25 - r) / DELTA) / DELTA * (y - 0.5) / r


def test_trace_export_identity_monitor(tmp_path):
    kv = make_open_knot_vector(3, 8, 1)
    g = build_identity_geometry(Rectangle(0, 1, 0, 1), kv, kv)
    problem = PoissonProblem(tanh_rhs, tanh_exact, ExactSolution(tanh_exact, tanh_dx, tanh_dy))
    state = move_mesh_solve(problem, g, MonitorSpec("gradient", alpha=0.0), MoveMeshConfig())
    path = tmp_path / "trace.csv"
    export_trace(state, path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["iter", "xi_inf_err", "tau_used", "min_jacobian", "L2", "H1", "Linf", "cpu_seconds"]
    assert len(rows) == 2  # header + single converged iteration
    vals = [float(v) for v in rows[1]]
    assert all(np.isfinite(vals))
    assert vals[1] <= 1e-9  # xi_inf_err at the fixed point


def test_trace_export_real_run_improves(tmp_path):
    kv = make_open_knot_vector(3, 16, 1)
    g = build_identity_geometry(Rectangle(0, 1, 0, 1), kv, kv)
    problem = PoissonProblem(tanh_rhs, tanh_exact, ExactSolution(tanh_exact, tanh_dx, tanh_dy))
    state = move_mesh_solve(problem, g, MonitorSpec("gradient", alpha=0.1), MoveMeshConfig(max_outer=5))
    path = tmp_path / "trace.csv"
    export_trace(state, path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == len(state.trace) + 1
    first = [float(v) for v in rows[1]]
    last = [float(v) for v in rows[-1]]
    assert all(np.isfinite(first)) and all(np.isfinite(last))
    assert last[4] < first[4]  # L2 column shrinks
