import logging

import numpy as np
import pytest

from mmiga import cli
from mmiga.assembly import FieldCoefficients, discretization, eval_field_grid, solve_poisson
from mmiga.errors import DegenerateMapError, MeshWrapError
from mmiga.geometry import (
    NurbsGeometry,
    Rectangle,
    boundary_mask,
    build_identity_geometry,
    eval_geometry_grid,
    fixed_basis,
    mesh_nodes,
    min_jacobian,
)
from mmiga.linalg import LinearSolverSettings
from mmiga.movemesh import (
    BoundaryMap,
    MonitorSpec,
    MoveMeshConfig,
    PoissonProblem,
    compute_movement,
    eval_monitor,
    init_logical_mesh,
    limit_movement,
    make_boundary_map,
    monitor_grid,
    move_mesh_solve,
    solve_harmonic_map,
    update_mesh,
)
from mmiga.postproc import ExactSolution
from mmiga.splines import greville_abscissae, make_open_knot_vector

from oracles import (
    bilinear_interp,
    fd_laplace_dirichlet,
    fd_weighted_laplace_dirichlet,
    move_mesh_reference,
)

UNIT = Rectangle(0.0, 1.0, 0.0, 1.0)
BIUNIT = Rectangle(-1.0, 1.0, -1.0, 1.0)

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


TANH_PROBLEM = PoissonProblem(tanh_rhs, tanh_exact, ExactSolution(tanh_exact, tanh_dx, tanh_dy))


def _identity(p=3, m=8, rect=UNIT):
    kv = make_open_knot_vector(p, m, 1)
    return build_identity_geometry(rect, kv, kv)


# ------------------------------------------------------------- boundary map

def test_boundary_map_identity():
    bm = make_boundary_map(UNIT, UNIT)
    x = np.array([0.0, 0.3, 1.0])
    xi, eta = bm(x, np.zeros(3))
    assert np.allclose(xi, x) and np.allclose(eta, 0.0)


def test_boundary_map_biunit_to_unit():
    bm = make_boundary_map(BIUNIT, UNIT)
    xi, eta = bm(np.array([-1.0, 0.0, 1.0]), np.array([-1.0, 1.0, 0.5]))
    assert np.allclose(xi, [0.0, 0.5, 1.0])
    assert np.allclose(eta, [0.0, 1.0, 0.75])


def test_boundary_map_edge_midpoints():
    bm = make_boundary_map(BIUNIT, UNIT)
    xi, eta = bm(0.0, -1.0)  # midpoint of the bottom edge
    assert (xi, eta) == (0.5, 0.0)


# --------------------------------------------------------- logical mesh init

def test_init_logical_mesh_identity():
    g = _identity(p=3, m=6)
    lm = init_logical_mesh(g, make_boundary_map(UNIT, UNIT))
    gu = greville_abscissae(g.kv_u)
    expected = np.stack(np.meshgrid(gu, gu, indexing="ij"), axis=-1)
    assert np.max(np.abs(lm.nodes - expected)) <= 1e-9


def test_init_logical_mesh_affine():
    g = _identity(p=2, m=5, rect=BIUNIT)
    lm = init_logical_mesh(g, make_boundary_map(BIUNIT, UNIT))
    gu = greville_abscissae(g.kv_u)
    expected = np.stack(np.meshgrid(gu, gu, indexing="ij"), axis=-1)
    assert np.max(np.abs(lm.nodes - expected)) <= 1e-9


def _stretched_geometry(p=3, m=8):
    """Square domain, graded control net (denser toward one corner)."""
    kv = make_open_knot_vector(p, m, 1)
    g = build_identity_geometry(UNIT, kv, kv)
    grade = lambda t: t**2 * (3 - 2 * t) * 0.35 + 0.65 * t  # smooth monotone grading
    cp = g.control_points.copy()
    cp[:, :, 0] = grade(cp[:, :, 0])
    cp[:, :, 1] = grade(cp[:, :, 1])
    return NurbsGeometry(g.kv_u, g.kv_v, g.weights, cp)


def test_init_logical_mesh_matches_fd_laplace_oracle():
    g = _stretched_geometry()
    bm = make_boundary_map(UNIT, UNIT)
    lm = init_logical_mesh(g, bm, LinearSolverSettings(tol=1e-12))
    x, y, U0 = fd_laplace_dirichlet(lambda px, py: bm(px, py)[0], n=257)
    _, _, U1 = fd_laplace_dirichlet(lambda px, py: bm(px, py)[1], n=257)
    nodes = mesh_nodes(g)
    ref0 = bilinear_interp(x, y, U0, nodes[..., 0].ravel(), nodes[..., 1].ravel())
    ref1 = bilinear_interp(x, y, U1, nodes[..., 0].ravel(), nodes[..., 1].ravel())
    assert np.max(np.abs(lm.nodes[..., 0].ravel() - ref0)) <= 1e-3
    assert np.max(np.abs(lm.nodes[..., 1].ravel() - ref1)) <= 1e-3


# -------------------------------------------------------------------- monitor

def test_monitor_constant_field_is_one():
    g = _identity(p=2, m=4)
    u = FieldCoefficients(np.full(g.ndof, 3.7), g.shape)
    spec = MonitorSpec("gradient", alpha=0.5)
    m = monitor_grid(spec, g, u, np.linspace(0, 1, 9), np.linspace(0, 1, 9))
    assert np.allclose(m, 1.0, atol=1e-11)


def test_monitor_linear_field_gradient_kind():
    g = _identity(p=2, m=4)
    gu = greville_abscissae(g.kv_u)
    U, V = np.meshgrid(gu, gu, indexing="ij")
    u = FieldCoefficients.from_grid(U)  # interpolates u = x
    val = eval_monitor(MonitorSpec("gradient", alpha=0.1), g, u, (0.4, 0.6))
    assert val == pytest.approx(np.sqrt(1.1), abs=1e-10)


def test_monitor_kind_normalization():
    spec = MonitorSpec("gradient", eps=5.0, alpha=0.2, beta=0.7)
    assert spec.eps == 1.0 and spec.beta == 0.0 and spec.alpha == 0.2
    spec = MonitorSpec("hessian", eps=2.0, alpha=0.2, beta=0.7)
    assert spec.eps == 1.0 and spec.alpha == 0.0 and spec.beta == 0.7
    with pytest.raises(ValueError):
        MonitorSpec("layer")
    with pytest.raises(ValueError):
        MonitorSpec("combined", eps=0.0)


@pytest.mark.parametrize("name", ["eps", "alpha", "beta"])
def test_monitor_rejects_non_finite_parameters(name):
    # also those the kind pins: a non-finite setting is a malformed input
    for kind in ("gradient", "hessian", "combined"):
        for value in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                MonitorSpec(kind, **{name: value})


@pytest.mark.parametrize("kwargs", [{"tolerance": float("nan")}, {"tolerance": float("inf")},
                                    {"tolerance": 0.0}, {"movement_cap": float("nan")},
                                    {"movement_cap": float("inf")}, {"movement_cap": -0.5}])
def test_move_mesh_config_rejects_out_of_range_values(kwargs):
    with pytest.raises(ValueError):
        MoveMeshConfig(**kwargs)


def test_smoothed_monitor_evaluates_the_field_once_on_the_greville_grid(monkeypatch):
    from mmiga import movemesh

    g = _identity(p=3, m=8)
    u = FieldCoefficients(np.random.default_rng(2).normal(size=g.ndof), g.shape)
    calls = []

    def counting(g_, u_, pts_u, pts_v, *args, **kwargs):
        calls.append((np.asarray(pts_u), np.asarray(pts_v)))
        return real(g_, u_, pts_u, pts_v, *args, **kwargs)

    real = movemesh.eval_field_grid
    monkeypatch.setattr(movemesh, "eval_field_grid", counting)
    pts = np.linspace(0, 1, 32)
    monitor_grid(MonitorSpec("gradient", alpha=0.1, smoothing=2), g, u, pts, pts)
    gu = greville_abscissae(g.kv_u)
    assert len(calls) == 1
    assert np.array_equal(calls[0][0], gu) and np.array_equal(calls[0][1], gu)


def test_monitor_peaks_on_the_layer_circle():
    g = _identity(p=3, m=32)
    u = solve_poisson(g, tanh_rhs, tanh_exact)
    spec = MonitorSpec("gradient", alpha=0.1)
    pts = np.linspace(0.01, 0.99, 64)
    m = monitor_grid(spec, g, u, pts, pts)
    X, Y = np.meshgrid(pts, pts, indexing="ij")
    r = np.hypot(X - 0.5, Y - 0.5)
    k = np.unravel_index(np.argmax(m), m.shape)
    assert abs(r[k] - 0.25) < 0.05  # max sits on the annulus
    assert m.max() > 5.0 * np.median(m)


# --------------------------------------------------------- harmonic map solve

def test_harmonic_map_unit_monitor_reproduces_reference():
    g = _identity(p=3, m=6)
    bm = make_boundary_map(UNIT, UNIT)
    lm = init_logical_mesh(g, bm)
    u = FieldCoefficients(np.zeros(g.ndof), g.shape)
    xi = solve_harmonic_map(g, MonitorSpec("gradient", alpha=0.0), u, bm)
    for k in range(2):
        assert np.max(np.abs(xi[k].values - lm.fields[k].values)) <= 1e-9


def test_harmonic_map_scaling_invariance():
    g = _identity(p=2, m=6)
    bm = make_boundary_map(UNIT, UNIT)
    u = solve_poisson(g, tanh_rhs, tanh_exact)

    class ScaledSpec(MonitorSpec):
        pass

    xi_a = solve_harmonic_map(g, MonitorSpec("combined", eps=1.0), u, bm)
    xi_b = solve_harmonic_map(g, MonitorSpec("combined", eps=9.0), u, bm)
    # eps-only monitors are constant in space; any constant cancels out
    for k in range(2):
        assert np.max(np.abs(xi_a[k].values - xi_b[k].values)) <= 1e-9


def test_harmonic_map_against_fd_oracle_and_circle_concentration():
    g = _identity(p=3, m=32)
    bm = make_boundary_map(UNIT, UNIT)
    lm = init_logical_mesh(g, bm)
    u = solve_poisson(g, tanh_rhs, tanh_exact)
    spec = MonitorSpec("gradient", alpha=0.1)
    xi = solve_harmonic_map(g, spec, u, bm)
    from mmiga.assembly import eval_field_grid

    vals = [eval_field_grid(g, f, lm.params_u, lm.params_v).values for f in xi]

    # largest map defect sits on the annulus of rapid variation
    defect = np.linalg.norm(lm.nodes - np.stack(vals, axis=-1), axis=-1)
    nodes = mesh_nodes(g)
    r = np.hypot(nodes[..., 0] - 0.5, nodes[..., 1] - 0.5)
    k = np.unravel_index(np.argmax(defect), defect.shape)
    assert abs(r[k] - 0.25) < 0.1

    # fine finite-difference solve of the same weighted equation; one nodal
    # smoothing pass keeps the shared coefficient resolvable by both
    # discretizations. The oracle always sees tensor grids, and the identity
    # geometry makes parametric and physical coordinates coincide.
    smooth = MonitorSpec("gradient", alpha=0.1, smoothing=1)
    xi_s = solve_harmonic_map(g, smooth, u, bm)
    vals_s = eval_field_grid(g, xi_s[0], lm.params_u, lm.params_v).values

    def inv_monitor(px, py):
        return 1.0 / monitor_grid(smooth, g, u, px[:, 0], py[0, :])

    x, y, U0 = fd_weighted_laplace_dirichlet(inv_monitor, lambda a, b: bm(a, b)[0], n=257)
    ref = bilinear_interp(x, y, U0, nodes[..., 0].ravel(), nodes[..., 1].ravel())
    assert np.max(np.abs(vals_s.ravel() - ref)) <= 1e-2


# ------------------------------------------------------------------- movement

def test_movement_zero_defect_gives_zero():
    g = _identity(p=3, m=5)
    bm = make_boundary_map(UNIT, UNIT)
    lm = init_logical_mesh(g, bm)
    mv = compute_movement(g, lm.fields, lm)
    assert np.max(np.abs(mv)) <= 1e-9


def _linear_map_fields(g, jac_diag=(1.0, 1.0)):
    """Coefficient fields of the map (x, y) -> (a x, b y)."""
    gu = greville_abscissae(g.kv_u)
    gv = greville_abscissae(g.kv_v)
    U, V = np.meshgrid(gu, gv, indexing="ij")
    return (
        FieldCoefficients.from_grid(jac_diag[0] * U),
        FieldCoefficients.from_grid(jac_diag[1] * V),
    )


def test_movement_identity_map_single_displacement():
    g = _identity(p=2, m=5)
    bm = make_boundary_map(UNIT, UNIT)
    lm = init_logical_mesh(g, bm)
    xi = _linear_map_fields(g)
    nodes = lm.nodes.copy()
    nodes[3, 3] += [0.01, 0.0]
    lm2 = type(lm)(lm.logical, lm.fields, nodes, lm.params_u, lm.params_v)
    mv = compute_movement(g, xi, lm2)
    assert np.allclose(mv[3, 3], [0.01, 0.0], atol=1e-9)
    mask = np.ones(mv.shape[:2], bool)
    mask[3, 3] = False
    assert np.max(np.abs(mv[mask])) <= 1e-9


def test_movement_diagonal_jacobian_inversion():
    g = _identity(p=2, m=5)
    bm = make_boundary_map(UNIT, UNIT)
    lm = init_logical_mesh(g, bm)
    xi = _linear_map_fields(g, jac_diag=(2.0, 4.0))
    # reference nodes displaced by (0.02, 0.04) relative to the map values
    from mmiga.assembly import eval_field_grid

    vals = [eval_field_grid(g, f, lm.params_u, lm.params_v).values for f in xi]
    nodes = np.stack(vals, axis=-1)
    nodes[2, 3] += [0.02, 0.04]
    lm2 = type(lm)(lm.logical, lm.fields, nodes, lm.params_u, lm.params_v)
    mv = compute_movement(g, xi, lm2)
    assert np.allclose(mv[2, 3], [0.01, 0.01], atol=1e-10)


def test_movement_affine_map_closed_form_everywhere():
    g = _identity(p=3, m=6)
    bm = make_boundary_map(UNIT, UNIT)
    lm = init_logical_mesh(g, bm)
    a, b = 1.7, 0.6
    xi = _linear_map_fields(g, jac_diag=(a, b))
    from mmiga.assembly import eval_field_grid

    vals = [eval_field_grid(g, f, lm.params_u, lm.params_v).values for f in xi]
    defect = lm.nodes - np.stack(vals, axis=-1)
    mv = compute_movement(g, xi, lm)
    expected = np.stack([defect[..., 0] / a, defect[..., 1] / b], axis=-1)
    expected[0, :] = expected[-1, :] = 0.0
    expected[:, 0] = expected[:, -1] = 0.0
    assert np.max(np.abs(mv - expected)) <= 1e-10


def test_movement_degenerate_jacobian_raises_with_node():
    g = _identity(p=2, m=5)
    bm = make_boundary_map(UNIT, UNIT)
    lm = init_logical_mesh(g, bm)
    # constant map: gradient identically zero, J = 0 at every node
    xi = (
        FieldCoefficients(np.full(g.ndof, 0.5), g.shape),
        FieldCoefficients(np.full(g.ndof, 0.5), g.shape),
    )
    with pytest.raises(DegenerateMapError, match="node"):
        compute_movement(g, xi, lm)


def test_limit_movement_caps_only_large_steps():
    g = _identity(p=2, m=4)
    nodes = mesh_nodes(g)
    mv = np.zeros_like(nodes)
    mv[2, 2] = [1.0, 0.0]  # absurdly large
    mv[1, 2] = [1e-4, 0.0]  # small, must pass through untouched
    capped = limit_movement(mv, nodes, frac=0.5)
    assert np.linalg.norm(capped[2, 2]) <= 0.5 * 0.25 + 1e-12
    assert np.allclose(capped[1, 2], [1e-4, 0.0])


# ------------------------------------------------------------------- updates

def test_update_mesh_zero_movement_keeps_geometry():
    g = _identity(p=3, m=5)
    g2, tau, _ = update_mesh(g, np.zeros((g.shape[0], g.shape[1], 2)), 0.5)
    assert tau == 0.5
    assert np.max(np.abs(g2.control_points - g.control_points)) <= 1e-12


def test_update_mesh_small_uniform_shift_moves_half():
    g = _identity(p=2, m=5)
    mv = np.zeros((g.shape[0], g.shape[1], 2))
    mv[1:-1, 1:-1, 0] = 0.01
    g2, tau, _ = update_mesh(g, mv, 0.5)
    assert tau == 0.5
    nodes = mesh_nodes(g2)
    ref = mesh_nodes(g)
    assert np.allclose(nodes[2:-2, 2:-2, 0] - ref[2:-2, 2:-2, 0], 0.005, atol=1e-10)
    # the accepted mesh keeps the boundary ring of control points bit for
    # bit: move_mesh_solve builds its Dirichlet vectors once on that ring
    ring = boundary_mask(g.shape)
    assert np.array_equal(g2.control_points[ring], g.control_points[ring])


def test_update_mesh_backtracks_on_fold():
    g = _identity(p=2, m=4)
    mv = np.zeros((g.shape[0], g.shape[1], 2))
    # drag one interior node across its neighbor: folds at tau = 1
    mv[2, 2] = [0.9, 0.0]
    g2, tau, geo = update_mesh(g, mv, 1.0)
    assert tau < 1.0
    assert min_jacobian(g2) > 0.0
    # the check's evaluation of the accepted mesh comes back, for its solves
    gauss = fixed_basis(g2, "gauss")
    ref = eval_geometry_grid(g2, gauss.u.pts, gauss.v.pts, 1)
    for a, b in ((geo.points, ref.points), (geo.jac, ref.jac), (geo.det, ref.det)):
        assert np.array_equal(a, b)
    assert float(geo.det.min()) == min_jacobian(g2)


def test_update_mesh_wrap_failure_raises():
    g = _identity(p=2, m=4)
    mv = np.zeros((g.shape[0], g.shape[1], 2))
    mv[2, 2] = [200.0, 0.0]  # hopeless even after six halvings
    with pytest.raises(MeshWrapError):
        update_mesh(g, mv, 1.0)


def test_update_mesh_rejects_nonzero_boundary_movement():
    g = _identity(p=2, m=4)
    mv = np.zeros((g.shape[0], g.shape[1], 2))
    mv[0, 2] = [0.1, 0.0]
    with pytest.raises(ValueError):
        update_mesh(g, mv, 0.5)


# ------------------------------------------------------------ the outer loop

def test_identity_monitor_is_a_fixed_point():
    g = _identity(p=3, m=8)
    spec = MonitorSpec("gradient", alpha=0.0)  # M = 1 everywhere
    cfg = MoveMeshConfig(lin=LinearSolverSettings(tol=1e-10))
    state = move_mesh_solve(TANH_PROBLEM, g, spec, cfg)
    assert state.converged
    assert len(state.trace) == 1
    assert state.trace[0].xi_inf_err <= 10.0 * 1e-10
    assert state.trace[0].tau_used == 0.0
    assert np.array_equal(state.geometry.control_points, g.control_points)


def test_move_mesh_reduces_error_and_keeps_mesh_valid():
    g = _identity(p=3, m=16)
    spec = MonitorSpec("gradient", alpha=0.1)
    cfg = MoveMeshConfig(max_outer=8)
    state = move_mesh_solve(TANH_PROBLEM, g, spec, cfg)
    assert len(state.trace) >= 1
    assert all(t.min_jacobian > 0 for t in state.trace)
    assert state.trace[-1].L2 < state.trace[0].L2
    assert state.trace[-1].xi_inf_err <= state.trace[0].xi_inf_err
    # boundary nodes bit-identical across iterations
    first = mesh_nodes(state.initial_geometry)
    last = mesh_nodes(state.geometry)
    assert np.array_equal(first[0, :], last[0, :])
    assert np.array_equal(first[-1, :], last[-1, :])
    assert np.array_equal(first[:, 0], last[:, 0])
    assert np.array_equal(first[:, -1], last[:, -1])


def test_move_mesh_concentrates_nodes_at_circle():
    g = _identity(p=3, m=16)
    spec = MonitorSpec("hessian", beta=0.01)
    cfg = MoveMeshConfig(max_outer=6)
    state = move_mesh_solve(TANH_PROBLEM, g, spec, cfg)
    before = mesh_nodes(state.initial_geometry).reshape(-1, 2)
    after = mesh_nodes(state.geometry).reshape(-1, 2)

    def mean_near_distance(pts, quantile=0.1):
        d = np.abs(np.hypot(pts[:, 0] - 0.5, pts[:, 1] - 0.5) - 0.25)
        k = max(1, int(quantile * len(d)))
        return np.sort(d)[:k].mean()

    assert mean_near_distance(after) < mean_near_distance(before)


def test_move_mesh_matches_the_uncached_reference_loop():
    # the run reuses one discretization, one set of Dirichlet vectors and
    # each PDE solve's geometry grid; the reference rebuilds all of them on
    # every call, and every figure must come out with the same bits
    prob = cli.manufacture_rhs("case2_tanh")
    kv = make_open_knot_vector(3, 8, 1)
    g0 = build_identity_geometry(prob.domain, kv, kv)
    problem = PoissonProblem(prob.f, prob.bc, prob.exact)
    spec = MonitorSpec("gradient", alpha=0.1)
    cfg = MoveMeshConfig(max_outer=4)
    state = move_mesh_solve(problem, g0, spec, cfg)
    rows, g, u, xi = move_mesh_reference(problem, g0, spec, cfg)
    got = [(t.iteration, t.xi_inf_err, t.tau_used, t.min_jacobian, t.L2, t.H1, t.Linf)
           for t in state.trace]
    assert len(got) == 4 and not state.converged
    assert np.array_equal(np.array(got), np.array(rows))
    assert np.array_equal(state.geometry.control_points, g.control_points)
    assert np.array_equal(state.solution.values, u.values)
    for k in range(2):
        assert np.array_equal(state.xi[k].values, xi[k].values)


def _converging_run(monkeypatch):
    """case1_sine, p=3, m=8, gradient monitor: converges in a few outer
    iterations. Returns the boundary map, monitor, config and state of the
    run, and the (tolerance, initial guess, result) of every map solve it
    made."""
    from mmiga import movemesh

    prob = cli.manufacture_rhs("case1_sine")
    kv = make_open_knot_vector(3, 8, 1)
    g0 = build_identity_geometry(prob.domain, kv, kv)
    problem = PoissonProblem(prob.f, prob.bc, prob.exact)
    spec = MonitorSpec("gradient", alpha=0.1)
    cfg = MoveMeshConfig()
    solves = []

    def recording(g, spec, u, bmap, lin=None, **kwargs):
        xi = solve_harmonic_map(g, spec, u, bmap, lin, **kwargs)
        solves.append((lin.tol, kwargs["x0"], xi))
        return xi

    monkeypatch.setattr(movemesh, "solve_harmonic_map", recording)
    state = move_mesh_solve(problem, g0, spec, cfg)
    return make_boundary_map(prob.domain, cfg.logical), spec, cfg, state, solves


def test_map_solves_follow_the_outer_defect_above_the_solver_tolerance(monkeypatch):
    _, _, cfg, state, solves = _converging_run(monkeypatch)
    assert state.converged and len(state.trace) >= 3
    tols = [t for t, _, _ in solves]
    assert all(t >= cfg.lin.tol for t in tols)
    # the first solve and the one the run stops on are full-accuracy; the
    # ones between are loosened by the defect before them
    assert tols[0] == tols[-1] == cfg.lin.tol
    assert all(t > cfg.lin.tol for t in tols[1:len(state.trace)])
    assert len(tols) == len(state.trace) + 1
    # every solve starts from the map before it, the first from the reference
    assert solves[0][1] is state.logical_mesh.fields
    assert all(x0 is before[2] for before, (_, x0, _) in zip(solves, solves[1:]))
    assert solves[-1][2] is state.xi


def test_converged_map_agrees_with_a_cold_full_tolerance_solve(monkeypatch):
    bmap, spec, cfg, state, _ = _converging_run(monkeypatch)
    assert state.converged
    cold = solve_harmonic_map(state.geometry, spec, state.solution, bmap, cfg.lin)
    for k in range(2):
        diff = np.max(np.abs(state.xi[k].values - cold[k].values))
        assert diff <= 1e-8 * np.max(np.abs(cold[k].values))
    lm = state.logical_mesh
    nodes = np.stack([eval_field_grid(state.geometry, f, lm.params_u, lm.params_v).values
                      for f in cold], axis=-1)
    assert abs(np.max(np.abs(lm.nodes - nodes)) - state.trace[-1].xi_inf_err) <= 1e-9


@pytest.mark.parametrize("spec", [MonitorSpec("gradient", alpha=0.1),
                                  MonitorSpec("hessian", beta=0.01),
                                  MonitorSpec("gradient", alpha=0.1, smoothing=1),
                                  MonitorSpec("hessian", beta=0.01, smoothing=1)],
                         ids=["gradient", "hessian", "gradient-smoothed", "hessian-smoothed"])
def test_move_mesh_builds_its_basis_tables_once_per_run(monkeypatch, spec):
    # every fixed point set of the run is tabulated on first use, into the
    # memo of its knot vectors, so more outer iterations make no more
    # basis_matrix calls
    from mmiga import assembly, movemesh, postproc, splines

    calls = []

    def counting(kv, pts, der=0):
        calls.append(der)
        return real(kv, pts, der)

    real = splines.basis_matrix
    # splines is the one module that tabulates, for the memo and for grid_basis
    assert not any(hasattr(m, "basis_matrix") for m in (assembly, movemesh, postproc))
    monkeypatch.setattr(splines, "basis_matrix", counting)
    prob = cli.manufacture_rhs("case2_tanh")
    problem = PoissonProblem(prob.f, prob.bc, prob.exact)
    counts = []
    for max_outer in (1, 3):
        kv = make_open_knot_vector(3, 8, 1)  # fresh knots: a memo outlives its run
        g0 = build_identity_geometry(prob.domain, kv, kv)
        calls.clear()
        state = move_mesh_solve(problem, g0, spec, MoveMeshConfig(max_outer=max_outer))
        assert len(state.trace) == max_outer and not state.converged
        assert all(t.tau_used > 0 for t in state.trace)  # every iteration moved the mesh
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def test_move_mesh_logs_the_discretization_build(caplog):
    g = _identity(p=2, m=4)
    with caplog.at_level(logging.INFO, logger="mmiga.movemesh"):
        move_mesh_solve(TANH_PROBLEM, g, MonitorSpec("gradient", alpha=0.0))
    lines = [r.getMessage() for r in caplog.records if "discretization" in r.getMessage()]
    assert len(lines) == 1
    assert lines[0].startswith("discretization built in ")
    assert lines[0].endswith(f" s, {discretization(g).nbytes} bytes")
