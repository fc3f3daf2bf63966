"""Acceptance gate: every criterion prints one pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``. The convergence studies
reproduce the published error tables within factor 3; the mesh-redistribution
cases check the documented improvement properties at their stated tolerances.
"""

import time

import numpy as np
import pytest

from mmiga.assembly import FieldCoefficients, eval_field_grid, solve_poisson
from mmiga.geometry import (
    NurbsGeometry,
    Rectangle,
    build_identity_geometry,
    mesh_nodes,
    min_jacobian,
    refit_from_node_targets,
)
from mmiga.cli import manufacture_rhs
from mmiga.linalg import LinearSolverSettings
from mmiga.movemesh import (
    MonitorSpec,
    MoveMeshConfig,
    PoissonProblem,
    init_logical_mesh,
    make_boundary_map,
)
from mmiga.movemesh import move_mesh_solve
from mmiga.postproc import convergence_orders, error_norms
from mmiga.splines import (
    eval_basis,
    greville_abscissae,
    make_open_knot_vector,
)

from oracles import bilinear_interp, fd_laplace_dirichlet

K_TABLE = {25: 6.38e-4, 49: 3.78e-5, 121: 2.41e-6, 361: 1.57e-7, 1156: 1.01e-8}
HP_TABLE = {49: 1.72e-4, 169: 1.15e-5, 625: 7.56e-7, 2401: 4.85e-8, 9409: 3.08e-9}

LIN = LinearSolverSettings(tol=1e-12)


def _report(label, checks):
    ok = all(checks.values())
    print(f"\n[{'PASS' if ok else 'FAIL'}] {label}")
    for name, good in checks.items():
        mark = "ok" if good else "FAILED"
        print(f"    {mark}: {name}")
    assert ok, f"{label}: failed {[n for n, c in checks.items() if not c]}"


def _convergence_run(refinement, ms):
    setup = manufacture_rhs("case1_sine")
    mult = {"k": 1, "hp": 3}[refinement]
    reports = []
    t0 = time.perf_counter()
    for m in ms:
        kv = make_open_knot_vector(3, m, mult)
        g = build_identity_geometry(setup.domain, kv, kv)
        u = solve_poisson(g, setup.f, setup.bc, LIN)
        reports.append(error_norms(g, u, setup.exact))
    return reports, time.perf_counter() - t0


@pytest.fixture(scope="module")
def k_run():
    return _convergence_run("k", (2, 4, 8, 16, 31))


@pytest.fixture(scope="module")
def hp_run():
    return _convergence_run("hp", (2, 4, 8, 16, 32))


@pytest.fixture(scope="module")
def case2_setup():
    return manufacture_rhs("case2_tanh")


@pytest.fixture(scope="module")
def case2_problem(case2_setup):
    return PoissonProblem(case2_setup.f, case2_setup.bc, case2_setup.exact)


def _movemesh_run(problem, degree, elements, spec, max_outer):
    kv = make_open_knot_vector(degree, elements, 1)
    g0 = build_identity_geometry(Rectangle(0, 1, 0, 1), kv, kv)
    t0 = time.perf_counter()
    state = move_mesh_solve(problem, g0, spec, MoveMeshConfig(max_outer=max_outer))
    return state, time.perf_counter() - t0


@pytest.fixture(scope="module")
def case2_run(case2_problem):
    return _movemesh_run(case2_problem, 3, 32, MonitorSpec("gradient", alpha=0.1), 18)


@pytest.fixture(scope="module")
def case3_run(case2_problem):
    return _movemesh_run(case2_problem, 3, 32, MonitorSpec("hessian", beta=0.01), 6)


@pytest.fixture(scope="module")
def case4_run(case2_problem):
    return _movemesh_run(case2_problem, 2, 32, MonitorSpec("gradient", alpha=0.1), 15)


def test_criterion_1_k_refinement_table(k_run):
    reports, elapsed = k_run
    orders = convergence_orders(reports)
    checks = {"runtime < 60 s": elapsed < 60.0}
    for rep in reports:
        ref = K_TABLE[rep.dofs]
        checks[f"L2 at {rep.dofs} dofs within factor 3 of {ref:.2e} (got {rep.L2:.2e})"] = (
            ref / 3.0 <= rep.L2 <= 3.0 * ref
        )
    for lvl in orders[-2:]:
        checks[f"L2 order >= 3.8 at {lvl.dofs} dofs (got {lvl.L2:.3f})"] = lvl.L2 >= 3.8
        checks[f"H1 order >= 2.8 at {lvl.dofs} dofs (got {lvl.H1:.3f})"] = lvl.H1 >= 2.8
    _report("criterion 1: k-refinement convergence", checks)


def test_criterion_2_hp_refinement_table(hp_run):
    reports, elapsed = hp_run
    orders = convergence_orders(reports)
    checks = {"runtime < 180 s": elapsed < 180.0}
    for rep in reports:
        ref = HP_TABLE[rep.dofs]
        checks[f"L2 at {rep.dofs} dofs within factor 3 of {ref:.2e} (got {rep.L2:.2e})"] = (
            ref / 3.0 <= rep.L2 <= 3.0 * ref
        )
    for lvl in orders[-2:]:
        checks[f"L2 order >= 3.8 at {lvl.dofs} dofs (got {lvl.L2:.3f})"] = lvl.L2 >= 3.8
        checks[f"H1 order >= 2.9 at {lvl.dofs} dofs (got {lvl.H1:.3f})"] = lvl.H1 >= 2.9
    _report("criterion 2: hp-refinement convergence", checks)


def test_criterion_3_dof_economy(k_run, hp_run):
    k_reports, _ = k_run
    hp_reports, _ = hp_run
    target = 5e-8

    def nearest(reports):
        return min(reports, key=lambda r: abs(np.log(r.L2 / target)))

    k_row = nearest(k_reports)
    hp_row = nearest(hp_reports)
    ratio = k_row.dofs / hp_row.dofs
    _report(
        "criterion 3: dof economy of the smooth basis",
        {
            f"error-matched rows are 361 vs 2401 dofs (got {k_row.dofs} vs {hp_row.dofs})":
                (k_row.dofs, hp_row.dofs) == (361, 2401),
            f"dof ratio <= 0.25 (got {ratio:.3f})": ratio <= 0.25,
        },
    )


def test_criterion_4_identity_monitor_fixed_point(case2_problem):
    kv = make_open_knot_vector(3, 32, 1)
    g0 = build_identity_geometry(Rectangle(0, 1, 0, 1), kv, kv)
    t0 = time.perf_counter()
    state = move_mesh_solve(
        case2_problem, g0, MonitorSpec("gradient", alpha=0.0),
        MoveMeshConfig(lin=LinearSolverSettings(tol=1e-10)),
    )
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 4: identity-monitor fixed point",
        {
            "runtime < 10 s": elapsed < 10.0,
            f"map defect <= 10x linear tol (got {state.trace[0].xi_inf_err:.2e})":
                state.trace[0].xi_inf_err <= 10.0 * 1e-10,
            "zero mesh updates (trace length 1)": len(state.trace) == 1 and state.converged,
            "geometry bit-identical": np.array_equal(
                state.geometry.control_points, g0.control_points
            ),
        },
    )


def test_criterion_5_case2_gradient_monitor(case2_run, case2_setup):
    state, elapsed = case2_run
    rep0 = error_norms(state.initial_geometry, state.initial_solution, case2_setup.exact)
    rep1 = error_norms(state.geometry, state.solution, case2_setup.exact)
    _report(
        "criterion 5: circular-layer run with gradient monitor",
        {
            "runtime < 300 s": elapsed < 300.0,
            f"final L2 <= 0.5 x initial ({rep1.L2:.3e} vs {rep0.L2:.3e})":
                rep1.L2 <= 0.5 * rep0.L2,
            f"max per-element L2 < 0.01 (got {rep1.per_element_L2.max():.3e})":
                rep1.per_element_L2.max() < 0.01,
            "min Jacobian positive throughout":
                all(t.min_jacobian > 0 for t in state.trace) and min_jacobian(state.geometry) > 0,
            "no wrap failure": state.wrap_failure is None,
        },
    )


def test_criterion_6_case3_hessian_monitor(case3_run, case2_setup):
    state, elapsed = case3_run
    rep0 = error_norms(state.initial_geometry, state.initial_solution, case2_setup.exact)
    rep1 = error_norms(state.geometry, state.solution, case2_setup.exact)

    def mean_near_distance(g, quantile=0.1):
        pts = mesh_nodes(g).reshape(-1, 2)
        d = np.abs(np.hypot(pts[:, 0] - 0.5, pts[:, 1] - 0.5) - 0.25)
        k = max(1, int(quantile * len(d)))
        return float(np.sort(d)[:k].mean())

    before = mean_near_distance(state.initial_geometry)
    after = mean_near_distance(state.geometry)
    _report(
        "criterion 6: circular-layer run with curvature monitor",
        {
            "runtime < 300 s": elapsed < 300.0,
            f"final L2 < initial ({rep1.L2:.3e} vs {rep0.L2:.3e})": rep1.L2 < rep0.L2,
            f"nodes concentrate at the circle ({after:.4f} < {before:.4f})": after < before,
            "min Jacobian positive throughout": all(t.min_jacobian > 0 for t in state.trace),
        },
    )


def _lattice_overshoot(g, u):
    from mmiga.postproc import _element_lattice

    lu = _element_lattice(g.kv_u, 5)
    lv = _element_lattice(g.kv_v, 5)
    vals = eval_field_grid(g, u, lu, lv).values
    return float(np.abs(vals).max() - 1.0)


def test_criterion_7_gibbs_suppression(case4_run, case2_setup):
    state, elapsed = case4_run
    rep0 = error_norms(state.initial_geometry, state.initial_solution, case2_setup.exact)
    rep1 = error_norms(state.geometry, state.solution, case2_setup.exact)
    o0 = _lattice_overshoot(state.initial_geometry, state.initial_solution)
    o1 = _lattice_overshoot(state.geometry, state.solution)
    _report(
        "criterion 7: oscillation suppression at 1156 dofs",
        {
            "runtime < 180 s": elapsed < 180.0,
            "1156 dofs": state.geometry.ndof == 1156,
            f"lattice max-norm strictly reduced ({rep1.L_inf:.3e} < {rep0.L_inf:.3e})":
                rep1.L_inf < rep0.L_inf,
            f"overshoot reduced >= 50% ({o0:.3e} -> {o1:.3e})": o1 <= 0.5 * o0,
        },
    )


def test_criterion_8_property_suites():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    checks = {}

    # partition of unity at 1e-13 over random bases and points
    worst = 0.0
    for _ in range(1000):
        p = int(rng.integers(1, 5))
        kv = make_open_knot_vector(p, int(rng.integers(1, 9)), int(rng.integers(1, p + 1)))
        ev = eval_basis(kv, float(rng.uniform(0, 1)))
        worst = max(worst, abs(ev.values.sum() - 1.0))
    checks[f"partition of unity <= 1e-13 (got {worst:.1e})"] = worst <= 1e-13

    # derivatives vs central differences at 1e-5 relative
    kv = make_open_knot_vector(3, 5, 1)
    coeffs = rng.normal(size=kv.n)
    h = 1e-6
    worst = 0.0
    for t in rng.uniform(0.05, 0.95, 100):
        if np.min(np.abs(kv.breakpoints - t)) < 1e-3:
            continue
        ev = eval_basis(kv, t, nders=1)
        d = coeffs[ev.first_index: ev.first_index + 4] @ ev.ders[1]
        f = lambda s: coeffs[(e := eval_basis(kv, s)).first_index: e.first_index + 4] @ e.values
        fd = (f(t + h) - f(t - h)) / (2 * h)
        worst = max(worst, abs(d - fd) / max(abs(fd), 1e-12))
    checks[f"derivative vs finite difference <= 1e-5 (got {worst:.1e})"] = worst <= 1e-5

    # stiffness symmetry (exact) and SPD on the interior block
    from mmiga.assembly import assemble_weighted_stiffness, dof_map

    kv = make_open_knot_vector(3, 4, 1)
    g = build_identity_geometry(Rectangle(0, 1, 0, 1), kv, kv)
    cp = g.control_points.copy()
    cp[1:-1, 1:-1] += 0.03 * rng.uniform(-1, 1, size=cp[1:-1, 1:-1].shape)
    g = NurbsGeometry(g.kv_u, g.kv_v, g.weights, cp)
    A = assemble_weighted_stiffness(g)
    asym = (A - A.T).tocoo()
    checks["stiffness exactly symmetric"] = asym.nnz == 0 or np.max(np.abs(asym.data)) == 0.0
    dm = dof_map(*g.shape)
    A_ii = A.tocsr()[dm.interior][:, dm.interior]
    spd = all(
        (x := rng.normal(size=A_ii.shape[0])) @ (A_ii @ x) > 0 for _ in range(100)
    )
    checks["interior stiffness SPD on 100 probes"] = spd

    # affine reproduction at 1e-12
    A_mat = np.array([[1.2, 0.4], [-0.3, 1.7]])
    ga = NurbsGeometry(g.kv_u, g.kv_v, g.weights,
                       build_identity_geometry(Rectangle(0, 1, 0, 1), kv, kv).control_points @ A_mat.T)
    from mmiga.geometry import map_point

    worst = 0.0
    for s in rng.uniform(0, 1, size=(100, 2)):
        worst = max(worst, np.max(np.abs(map_point(ga, s, 0).point - A_mat @ s)))
    checks[f"affine reproduction <= 1e-12 (got {worst:.1e})"] = worst <= 1e-12

    # refit idempotence at 1e-12
    refit = refit_from_node_targets(g, mesh_nodes(g))
    drift = np.max(np.abs(refit.control_points - g.control_points))
    checks[f"refit idempotence <= 1e-12 (got {drift:.1e})"] = drift <= 1e-12

    # boundary invariance across iterations is bit-exact
    setup = manufacture_rhs("case2_tanh")
    problem = PoissonProblem(setup.f, setup.bc, setup.exact)
    kv = make_open_knot_vector(3, 8, 1)
    g0 = build_identity_geometry(Rectangle(0, 1, 0, 1), kv, kv)
    state = move_mesh_solve(problem, g0, MonitorSpec("gradient", alpha=0.1),
                            MoveMeshConfig(max_outer=3))
    first = mesh_nodes(state.initial_geometry)
    last = mesh_nodes(state.geometry)
    checks["boundary nodes bit-identical across iterations"] = (
        np.array_equal(first[0, :], last[0, :])
        and np.array_equal(first[-1, :], last[-1, :])
        and np.array_equal(first[:, 0], last[:, 0])
        and np.array_equal(first[:, -1], last[:, -1])
    )

    # quadrature exactness at 1e-13
    from mmiga.assembly import gauss_rule

    worst = 0.0
    for q in range(1, 17):
        rule = gauss_rule(q)
        for d in range(2 * q):
            worst = max(worst, abs(rule.weights @ rule.points**d - 1.0 / (d + 1)))
    checks[f"quadrature exactness <= 1e-13 (got {worst:.1e})"] = worst <= 1e-13

    checks["runtime < 30 s"] = (time.perf_counter() - t0) < 30.0
    _report("criterion 8: property suites", checks)


def test_criterion_9_fd_laplace_oracle_equivalence():
    t0 = time.perf_counter()
    kv = make_open_knot_vector(3, 8, 1)
    g = build_identity_geometry(Rectangle(0, 1, 0, 1), kv, kv)
    grade = lambda t: t**2 * (3 - 2 * t) * 0.35 + 0.65 * t
    cp = g.control_points.copy()
    cp[:, :, 0] = grade(cp[:, :, 0])
    cp[:, :, 1] = grade(cp[:, :, 1])
    g = NurbsGeometry(g.kv_u, g.kv_v, g.weights, cp)

    bm = make_boundary_map(Rectangle(0, 1, 0, 1), Rectangle(0, 1, 0, 1))
    lm = init_logical_mesh(g, bm, LinearSolverSettings(tol=1e-12))
    nodes = mesh_nodes(g)
    worst = 0.0
    for k in range(2):
        x, y, U = fd_laplace_dirichlet(lambda px, py: bm(px, py)[k], n=257)
        ref = bilinear_interp(x, y, U, nodes[..., 0].ravel(), nodes[..., 1].ravel())
        worst = max(worst, float(np.max(np.abs(lm.nodes[..., k].ravel() - ref))))
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 9: logical-mesh init matches the 257^2 finite-difference oracle",
        {
            "runtime < 60 s": elapsed < 60.0,
            f"nodal agreement <= 1e-3 (got {worst:.2e})": worst <= 1e-3,
        },
    )
