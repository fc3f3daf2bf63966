import logging
import re

import numpy as np
import pytest

from mmiga import cli
from mmiga.assembly import (
    FieldCoefficients,
    boundary_values,
    eval_field_grid,
    solve_poisson,
)
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
    ANDERSON_DEPTH,
    BoundaryMap,
    MonitorSpec,
    MoveMeshConfig,
    PoissonProblem,
    compute_movement,
    init_logical_mesh,
    limit_movement,
    make_boundary_map,
    monitor_grid,
    move_mesh_solve,
    solve_harmonic_map,
    update_mesh,
)
from mmiga.movemesh import _anderson_step, _MoveMeshRun
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
    val = monitor_grid(MonitorSpec("gradient", alpha=0.1), g, u, [0.4], [0.6])
    assert val.shape == (1, 1)
    assert val[0, 0] == pytest.approx(np.sqrt(1.1), abs=1e-10)


def test_monitor_kind_pins_its_parameters():
    # a pinned parameter may be left at its pin, and no other value
    assert MonitorSpec("gradient", eps=1.0, alpha=0.2, beta=0.0).alpha == 0.2
    assert MonitorSpec("hessian", eps=1.0, alpha=0.0, beta=0.7).beta == 0.7
    for kind, name, value in (("gradient", "eps", 5.0), ("gradient", "beta", 0.7),
                              ("hessian", "eps", 2.0), ("hessian", "alpha", 0.2)):
        with pytest.raises(ValueError, match=f"the {kind} monitor pins {name} to"):
            MonitorSpec(kind, **{name: value})
    with pytest.raises(ValueError):
        MonitorSpec("layer")
    with pytest.raises(ValueError, match="eps must be strictly positive"):
        MonitorSpec("combined", eps=0.0, alpha=0.1, beta=0.01)


def test_a_monitor_weight_left_out_is_its_kind_default_or_an_error():
    # the default monitor is written once, in MonitorSpec: a weight left out
    # takes its pin or the kind's default and never gives the identity
    assert MonitorSpec() == MonitorSpec("gradient") == MonitorSpec("gradient", alpha=0.1)
    assert MonitorSpec(smoothing=1).alpha == 0.1
    hessian = MonitorSpec("hessian", beta=0.01)
    assert (hessian.eps, hessian.alpha, hessian.beta) == (1.0, 0.0, 0.01)
    assert MonitorSpec("gradient", alpha=0.0).alpha == 0.0  # the identity, asked for
    for kind, kwargs, name in (("hessian", {}, "beta"), ("combined", {"beta": 0.1}, "alpha"),
                               ("combined", {"alpha": 0.1}, "beta")):
        with pytest.raises(ValueError, match=f"the {kind} monitor needs {name}"):
            MonitorSpec(kind, **kwargs)


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

def _cold(g, bm):
    """Cold starts of both map components: each component of the boundary
    map ``bm`` on the ring, zero inside."""
    return tuple(FieldCoefficients(boundary_values(g, bm.component(k)), g.shape)
                 for k in range(2))


def test_harmonic_map_unit_monitor_reproduces_reference():
    g = _identity(p=3, m=6)
    bm = make_boundary_map(UNIT, UNIT)
    lm = init_logical_mesh(g, bm)
    u = FieldCoefficients(np.zeros(g.ndof), g.shape)
    xi = solve_harmonic_map(g, MonitorSpec("gradient", alpha=0.0), u, _cold(g, bm))
    for k in range(2):
        assert np.max(np.abs(xi[k].values - lm.fields[k].values)) <= 1e-9


def test_harmonic_map_scaling_invariance():
    g = _identity(p=2, m=6)
    bm = make_boundary_map(UNIT, UNIT)
    u = solve_poisson(g, tanh_rhs, tanh_exact)

    class ScaledSpec(MonitorSpec):
        pass

    xi_a = solve_harmonic_map(g, MonitorSpec("combined", eps=1.0, alpha=0.0, beta=0.0), u,
                              _cold(g, bm))
    xi_b = solve_harmonic_map(g, MonitorSpec("combined", eps=9.0, alpha=0.0, beta=0.0), u,
                              _cold(g, bm))
    # eps-only monitors are constant in space; any constant cancels out
    for k in range(2):
        assert np.max(np.abs(xi_a[k].values - xi_b[k].values)) <= 1e-9


def test_harmonic_map_against_fd_oracle_and_circle_concentration():
    g = _identity(p=3, m=32)
    bm = make_boundary_map(UNIT, UNIT)
    lm = init_logical_mesh(g, bm)
    u = solve_poisson(g, tanh_rhs, tanh_exact)
    spec = MonitorSpec("gradient", alpha=0.1)
    xi = solve_harmonic_map(g, spec, u, _cold(g, bm))

    vals = [eval_field_grid(g, f, g.kv_u.greville.pts, g.kv_v.greville.pts).values for f in xi]

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
    xi_s = solve_harmonic_map(g, smooth, u, _cold(g, bm))
    vals_s = eval_field_grid(g, xi_s[0], g.kv_u.greville.pts, g.kv_v.greville.pts).values

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
    lm2 = type(lm)(lm.fields, nodes)
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

    vals = [eval_field_grid(g, f, g.kv_u.greville.pts, g.kv_v.greville.pts).values for f in xi]
    nodes = np.stack(vals, axis=-1)
    nodes[2, 3] += [0.02, 0.04]
    lm2 = type(lm)(lm.fields, nodes)
    mv = compute_movement(g, xi, lm2)
    assert np.allclose(mv[2, 3], [0.01, 0.01], atol=1e-10)


def test_movement_affine_map_closed_form_everywhere():
    g = _identity(p=3, m=6)
    bm = make_boundary_map(UNIT, UNIT)
    lm = init_logical_mesh(g, bm)
    a, b = 1.7, 0.6
    xi = _linear_map_fields(g, jac_diag=(a, b))
    from mmiga.assembly import eval_field_grid

    vals = [eval_field_grid(g, f, g.kv_u.greville.pts, g.kv_v.greville.pts).values for f in xi]
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


def _moves(records):
    """(iteration, nodes capped, tau halvings, kind) of each INFO line a run
    logged for a moved mesh; kind is "accelerated" or "damped"."""
    pattern = re.compile(r"outer iteration (\d+): defect \S+, (\d+) nodes capped, "
                         r"(\d+) tau halvings, (accelerated|damped) \(")
    found = [pattern.match(r.getMessage()) for r in records if r.levelno == logging.INFO]
    return [(int(m[1]), int(m[2]), int(m[3]), m[4]) for m in found if m]


@pytest.mark.parametrize("spec, n_accelerated",
                         [(MonitorSpec("gradient", alpha=0.1), 0),
                          (MonitorSpec("hessian", beta=0.01), 1),
                          (MonitorSpec("gradient", alpha=0.1, smoothing=1), 1),
                          (MonitorSpec("combined", eps=1.0, alpha=0.05, beta=0.005), 1),
                          (MonitorSpec("gradient", alpha=0.003), 3)],
                         ids=["gradient", "hessian", "gradient-smoothed", "combined",
                              "gradient-slow"])
def test_move_mesh_matches_the_uncached_reference_loop(spec, n_accelerated, caplog):
    # the run reuses one set of Dirichlet vectors and each PDE solve's
    # geometry grid; the reference rebuilds both on every call, and states
    # the Anderson rule of the moves on its own; every figure must come out
    # with the same bits
    prob = cli.manufacture_rhs("case2_tanh")
    kv = make_open_knot_vector(3, 8, 1)
    g0 = build_identity_geometry(prob.domain, kv, kv)
    problem = PoissonProblem(prob.f, prob.bc, prob.exact)
    cfg = MoveMeshConfig(max_outer=4)
    with caplog.at_level(logging.INFO, logger="mmiga.movemesh"):
        state = move_mesh_solve(problem, g0, spec, cfg)
    rows, g, u, xi = move_mesh_reference(problem, g0, spec, cfg)
    got = [(t.iteration, t.xi_inf_err, t.tau_used, t.min_jacobian, t.L2, t.H1, t.Linf)
           for t in state.trace]
    assert len(got) == 4 and not state.converged
    assert all(t.tau_used > 0 for t in state.trace)  # every iteration moved the mesh
    # the comparison covers this many accelerated moves
    assert sum(kind == "accelerated" for *_, kind in _moves(caplog.records)) == n_accelerated
    assert np.array_equal(np.array(got), np.array(rows))
    assert np.array_equal(state.geometry.control_points, g.control_points)
    assert np.array_equal(state.solution.values, u.values)
    for k in range(2):
        assert np.array_equal(state.xi[k].values, xi[k].values)


def test_a_run_ending_on_a_wrap_keeps_its_last_valid_state(monkeypatch):
    # the k-th mesh update wraps: the run stops there, with a trace row for
    # iteration k and the mesh, solution and snapshots of iteration k - 1
    from mmiga import movemesh

    k, updates, solves = 3, [], []

    def wrapping(*args, **kwargs):
        updates.append(args)
        if len(updates) == k:
            raise MeshWrapError(f"update {k} folds")
        return update_mesh(*args, **kwargs)

    def recording(*args, **kwargs):
        solves.append((len(updates), solve_harmonic_map(*args, **kwargs)))
        return solves[-1][1]

    monkeypatch.setattr(movemesh, "update_mesh", wrapping)
    monkeypatch.setattr(movemesh, "solve_harmonic_map", recording)
    state = move_mesh_solve(TANH_PROBLEM, _identity(p=3, m=8), MonitorSpec("gradient", alpha=0.1),
                            MoveMeshConfig(max_outer=10))
    assert state.wrap_failure == f"update {k} folds" and not state.converged
    assert len(updates) == k and len(state.trace) == k
    assert state.trace[-1].tau_used == 0.0
    assert all(t.tau_used > 0 for t in state.trace[:-1])
    assert [it for it, _, _ in state.snapshots] == list(range(k))
    _, g, u = state.snapshots[-1]
    assert state.geometry is g and state.solution is u
    # the map is the one solved in iteration k, after the (k-1)-th update
    assert solves[-1][0] == k - 1 and state.xi is solves[-1][1]


@pytest.mark.parametrize("n", range(1, ANDERSON_DEPTH + 1))
def test_anderson_step_reaches_the_fixed_point_of_an_affine_contraction(n):
    # x -> M x + c in R^n, n <= depth: the mix of the last pairs spans the
    # whole space after n differences, so n + 2 steps land on the fixed
    # point; the damped steps x + tau f are still far from it
    rng = np.random.default_rng(n)
    S = np.eye(n) + 0.3 * rng.standard_normal((n, n))
    M = S @ np.diag(np.linspace(0.95, 0.5, n)) @ np.linalg.inv(S)
    c = rng.standard_normal(n)
    fixed = np.linalg.solve(np.eye(n) - M, c)
    tau = 0.5
    x, damped, xs, fs = np.zeros(n), np.zeros(n), [], []
    for _ in range(n + 2):
        xs = xs[-ANDERSON_DEPTH:] + [x]
        fs = fs[-ANDERSON_DEPTH:] + [M @ x + c - x]
        x = x + _anderson_step(xs, fs, tau)
        damped = damped + tau * (M @ damped + c - damped)
    scale = max(1.0, np.max(np.abs(fixed)))
    assert np.max(np.abs(x - fixed)) <= 1e-12 * scale
    assert np.max(np.abs(damped - fixed)) > 1e-2 * scale
    # one pair is the damped step itself
    assert np.array_equal(_anderson_step([x], [c], tau), tau * c)


def _slow_run(monkeypatch, trigger=None):
    """case2_tanh, p=3, m=8, gradient monitor with alpha = 0.003, four outer
    iterations: no node is capped, and the moves of iterations 2-4 are
    accelerated. ``trigger`` fires one safeguard: "cap" cuts one node back
    in iteration 3, "halving" reports a halved tau for the move of
    iteration 2, "defect" makes iteration 3's defect grow. Returns the
    capped movements and the movements handed to the mesh update."""
    from mmiga import movemesh

    capped, moves = [], []

    def limiting(movement, nodes, frac):
        out = limit_movement(movement, nodes, frac)
        if trigger == "cap" and len(capped) == 2:
            out = out.copy()
            out[3, 4] *= 0.5
        capped.append(out)
        return out

    def updating(g, movement, tau, **kwargs):
        moves.append(movement)
        g, tau_used, geo = update_mesh(g, movement, tau, **kwargs)
        return g, 0.5 * tau_used if trigger == "halving" and len(moves) == 2 else tau_used, geo

    def solving(run, lin):
        solve_map(run, lin)
        if trigger == "defect" and len(run.state.trace) == 2:
            run.xi_err *= 10.0

    solve_map = _MoveMeshRun._solve_map
    monkeypatch.setattr(movemesh, "limit_movement", limiting)
    monkeypatch.setattr(movemesh, "update_mesh", updating)
    monkeypatch.setattr(_MoveMeshRun, "_solve_map", solving)
    prob = cli.manufacture_rhs("case2_tanh")
    kv = make_open_knot_vector(3, 8, 1)
    move_mesh_solve(PoissonProblem(prob.f, prob.bc, prob.exact),
                    build_identity_geometry(prob.domain, kv, kv),
                    MonitorSpec("gradient", alpha=0.003), MoveMeshConfig(max_outer=4))
    assert len(capped) == len(moves) == 4
    return capped, moves


def test_moves_are_damped_until_two_pairs_and_accelerated_after(monkeypatch):
    capped, moves = _slow_run(monkeypatch)
    assert np.array_equal(moves[0], capped[0])
    assert all(not np.array_equal(m, c) for m, c in zip(moves[1:], capped[1:]))
    for m in moves:  # the mix leaves the boundary ring alone
        assert not m[boundary_mask(m.shape[:2])].any()


@pytest.mark.parametrize("trigger", ["cap", "halving", "defect"])
def test_a_safeguard_makes_the_next_move_the_damped_step(monkeypatch, trigger):
    # a capped node, a halved tau or a grown defect clears the history, so
    # iteration 3, mixed in the run without the trigger, moves by its
    # capped movement, bit for bit
    capped, moves = _slow_run(monkeypatch, trigger)
    assert np.array_equal(moves[2], capped[2])


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

    def recording(g, spec, u, start, lin=None, **kwargs):
        xi = solve_harmonic_map(g, spec, u, start, lin, **kwargs)
        solves.append((lin.tol, start, xi))
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
    g = state.geometry
    cold = solve_harmonic_map(g, spec, state.solution, _cold(g, bmap), cfg.lin)
    ring = boundary_mask(g.shape).ravel()
    for k in range(2):
        # the data carried from solve to solve are those of the final mesh
        assert np.array_equal(state.xi[k].values[ring], cold[k].values[ring])
        diff = np.max(np.abs(state.xi[k].values - cold[k].values))
        assert diff <= 1e-8 * np.max(np.abs(cold[k].values))
    lm = state.logical_mesh
    nodes = np.stack([eval_field_grid(g, f, g.kv_u.greville.pts, g.kv_v.greville.pts).values
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


_REPRODUCIBLE_RUN = """
import hashlib
import numpy as np
from mmiga import cli
from mmiga.geometry import build_identity_geometry
from mmiga.movemesh import MonitorSpec, MoveMeshConfig, PoissonProblem, move_mesh_solve
from mmiga.splines import make_open_knot_vector

prob = cli.manufacture_rhs("case2_tanh")
# alpha = 0.1 moves by capped steps only; alpha = 0.003 mixes its moves
# from iteration 2 on, so the least-squares solves are hashed too
for alpha, max_outer in ((0.1, 3), (0.003, 4)):
    kv = make_open_knot_vector(3, 8, 1)
    state = move_mesh_solve(PoissonProblem(prob.f, prob.bc, prob.exact),
                            build_identity_geometry(prob.domain, kv, kv),
                            MonitorSpec("gradient", alpha=alpha), MoveMeshConfig(max_outer=max_outer))
    rows = [(t.iteration, t.xi_inf_err, t.tau_used, t.min_jacobian, t.L2, t.H1, t.Linf)
            for t in state.trace]
    digest = hashlib.sha256()
    for a in (np.array(rows), state.geometry.control_points, state.geometry.weights.w,
              state.solution.values, state.xi[0].values, state.xi[1].values):
        digest.update(np.ascontiguousarray(a, dtype=float).tobytes())
    print(len(rows), min(t.tau_used for t in state.trace), digest.hexdigest())
"""


def test_a_run_repeats_its_bits_in_fresh_processes():
    # two interpreters with different hash seeds and one BLAS thread each
    # give the same trace (without its timings), net, solution and map
    import os
    import subprocess
    import sys

    import mmiga

    src = os.path.dirname(os.path.dirname(os.path.abspath(mmiga.__file__)))
    outs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, OPENBLAS_NUM_THREADS="1",
                   OMP_NUM_THREADS="1", PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", _REPRODUCIBLE_RUN], env=env,
                              capture_output=True, text=True, timeout=300, check=True)
        outs.append(proc.stdout.split())
    assert outs[0] == outs[1]
    assert outs[0][0::3] == ["3", "4"]
    assert all(float(tau) > 0 for tau in outs[0][1::3])  # every iteration moved the mesh


def test_move_mesh_builds_the_element_pairs_once_per_knot_vector(monkeypatch):
    # every mesh of a run shares the knot vectors of the first, so each
    # builds its element_pairs memo entry on the first stiffness and no
    # later assembly builds another
    from mmiga import movemesh
    from mmiga.splines import KnotVector

    prop = KnotVector.__dict__["element_pairs"]
    build, assemble = prop.func, movemesh.assemble_weighted_stiffness
    built, assembled = [], []

    def counting_build(kv):
        built.append(kv)
        return build(kv)

    def counting_assemble(*args, **kwargs):
        assembled.append(1)
        return assemble(*args, **kwargs)

    monkeypatch.setattr(prop, "func", counting_build)
    monkeypatch.setattr(movemesh, "assemble_weighted_stiffness", counting_assemble)
    g = build_identity_geometry(UNIT, make_open_knot_vector(2, 6), make_open_knot_vector(2, 5))
    state = move_mesh_solve(TANH_PROBLEM, g, MonitorSpec("gradient", alpha=0.1),
                            MoveMeshConfig(max_outer=3))
    assert len(state.trace) == 3 and len(assembled) >= 2 + 2 * 3
    assert len(built) == 2 and built[0] is g.kv_u and built[1] is g.kv_v


def test_each_outer_iteration_logs_its_move(caplog):
    # one INFO line per iteration: capped nodes, tau halvings and the kind
    # of move, or the defect that stopped the run
    prob = cli.manufacture_rhs("case2_tanh")
    kv = make_open_knot_vector(3, 8, 1)
    with caplog.at_level(logging.INFO, logger="mmiga.movemesh"):
        state = move_mesh_solve(PoissonProblem(prob.f, prob.bc, prob.exact),
                                build_identity_geometry(prob.domain, kv, kv),
                                MonitorSpec("gradient", alpha=0.003), MoveMeshConfig(max_outer=4))
    lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("outer ")]
    assert len(lines) == len(state.trace) == 4
    assert lines[0].endswith(", 0 nodes capped, 0 tau halvings, damped (run start)")
    for k in (1, 2, 3):
        assert lines[k].endswith(f", 0 nodes capped, 0 tau halvings, accelerated ({k} columns)")
    assert _moves(caplog.records) == [(k, 0, 0, "damped" if k == 1 else "accelerated")
                                      for k in (1, 2, 3, 4)]
    caplog.clear()
    g = _identity(p=2, m=4)
    with caplog.at_level(logging.INFO, logger="mmiga.movemesh"):
        move_mesh_solve(TANH_PROBLEM, g, MonitorSpec("gradient", alpha=0.0))
    lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("outer ")]
    assert len(lines) == 1 and lines[0].startswith("outer iteration 1: defect ")
    assert lines[0].endswith(", converged")


def test_the_benchmark_run_converges_faster_by_mixing_only_uncapped_moves(caplog):
    # the benchmark's case2_converge run: p=3, m=32, gradient monitor with
    # alpha = 0.1, default configuration. The first 20 iterations are capped
    # and damped as without the mix (41 iterations, L2 1.3711e-2); the mixed
    # moves after them converge in 27
    prob = cli.manufacture_rhs("case2_tanh")
    kv = make_open_knot_vector(3, 32, 1)
    cfg = MoveMeshConfig()
    with caplog.at_level(logging.INFO, logger="mmiga.movemesh"):
        state = move_mesh_solve(PoissonProblem(prob.f, prob.bc, prob.exact),
                                build_identity_geometry(prob.domain, kv, kv),
                                MonitorSpec("gradient", alpha=0.1), cfg)
    assert state.converged and len(state.trace) <= 30
    moves = _moves(caplog.records)
    assert [it for it, *_ in moves] == list(range(1, len(state.trace)))
    halvings = [round(np.log2(cfg.tau / t.tau_used)) for t in state.trace[:-1]]
    assert [h for _, _, h, _ in moves] == halvings and sum(halvings) == 3
    assert state.trace[-1].L2 == pytest.approx(1.3711e-2, rel=0.01)
    assert any(kind == "accelerated" for *_, kind in moves)
    assert all(kind == "damped" for _, n_capped, _, kind in moves if n_capped)
