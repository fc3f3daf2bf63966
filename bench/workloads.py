"""The benchmark's workloads and the checks on their outputs.

Every input is one of the paper's fixed problems; nothing is drawn at
random. A unit builds its knot vectors, geometry and problem from scratch,
so no cache can carry over from one unit to the next. The checks are pure
functions of plain records, so the self-test can feed them wrong results.
"""

from __future__ import annotations

import math
import traceback
from dataclasses import dataclass

from mmiga import assembly, cli, geometry, linalg, movemesh, postproc, splines

CG_TOL = 1e-12
DEGREE = 3
REF_RTOL = 0.02  # library norms against the reference quadrature
RAISED = "raised"  # prefix of the failure of an operation that raised

# the paper's tables (L2 error at a dof count) that the sweeps reach
K_PAPER = {361: 1.57e-7}
K_PAPER_FACTOR = 1.2
HP_PAPER = {2401: 4.85e-8, 9409: 3.08e-9}
HP_PAPER_FACTOR = 3.0

# case2_tanh run: default MoveMeshConfig stops at 1e-4 x the diameter of the
# unit logical square
CASE2_ELEMENTS = 32
CASE2_STOP_TOL = 1e-4 * math.sqrt(2.0)
CASE2_MIN_L2_GAIN = 0.5


@dataclass
class Level:
    """One level solve of a sweep, as the library reported it and as the
    reference recomputed it."""

    m: int
    dofs: int
    l2: float
    h1: float
    l2_ref: float
    h1_ref: float
    error: str | None = None


@dataclass
class MoveRun:
    """One moving-mesh run to the stop tolerance."""

    converged: bool
    wrap_failure: str | None
    final_defect: float
    trace_min_jacobians: list[float]
    l2: float  # library's L2 at the last trace entry
    l2_initial_ref: float
    l2_final_ref: float
    min_det_ref: float
    outer_iters: int


def _rel_off(a: float, b: float) -> float:
    return abs(a / b - 1.0) if b > 0 else math.inf


def _order(coarse: float, fine: float, m_coarse: int, m_fine: int) -> float:
    if coarse <= 0 or fine <= 0:
        return -math.inf
    return math.log(coarse / fine) / math.log(m_fine / m_coarse)


def check_sweep(levels, expected_ms, dofs_of, paper, paper_factor, min_l2_order, min_h1_order):
    """Failures of each level, one list per level.

    Each level must be the expected size, agree with the reference norms,
    match the paper's table where it has a row, and beat the minimum L2 and
    H1 orders against the level before it.
    """
    out = []
    for i, (lv, m) in enumerate(zip(levels, expected_ms)):
        fails = []
        if lv.error is not None:
            out.append([f"{RAISED} at m={lv.m}: {lv.error}"])
            continue
        if lv.m != m or lv.dofs != dofs_of(m):
            fails.append(f"level {i}: expected m={m} with {dofs_of(m)} dofs, "
                         f"got m={lv.m} with {lv.dofs}")
        for name, got, ref in (("L2", lv.l2, lv.l2_ref), ("H1", lv.h1, lv.h1_ref)):
            if not _rel_off(got, ref) <= REF_RTOL:
                fails.append(f"m={lv.m}: {name} {got:.4e} is not within {REF_RTOL:.0%} "
                             f"of the reference {ref:.4e}")
        if lv.dofs in paper:
            ref = paper[lv.dofs]
            if not ref / paper_factor <= lv.l2 <= ref * paper_factor:
                fails.append(f"{lv.dofs} dofs: L2 {lv.l2:.3e} not within {paper_factor}x "
                             f"of the paper's {ref:.2e}")
        if i > 0:
            prev = levels[i - 1]
            if prev.error is None:
                o2 = _order(prev.l2, lv.l2, prev.m, lv.m)
                o1 = _order(prev.h1, lv.h1, prev.m, lv.m)
                if not o2 >= min_l2_order:
                    fails.append(f"m={lv.m}: L2 order {o2:.3f} < {min_l2_order}")
                if not o1 >= min_h1_order:
                    fails.append(f"m={lv.m}: H1 order {o1:.3f} < {min_h1_order}")
        out.append(fails)
    return out


def check_move(run: MoveRun) -> list[str]:
    """Failures of one moving-mesh run."""
    fails = []
    if not run.converged:
        fails.append(f"not converged after {run.outer_iters} outer iterations")
    if run.wrap_failure is not None:
        fails.append(f"ended on a mesh wrap: {run.wrap_failure}")
    if not run.final_defect < CASE2_STOP_TOL:
        fails.append(f"final map defect {run.final_defect:.3e} >= {CASE2_STOP_TOL:.3e}")
    if not run.trace_min_jacobians or not all(j > 0 for j in run.trace_min_jacobians):
        fails.append("min_jacobian not positive on every trace entry")
    if not run.min_det_ref > 0:
        fails.append(f"reference min Jacobian {run.min_det_ref:.3e} on the final mesh")
    if not run.l2_final_ref <= CASE2_MIN_L2_GAIN * run.l2_initial_ref:
        fails.append(f"final L2 {run.l2_final_ref:.3e} > {CASE2_MIN_L2_GAIN} x initial "
                     f"{run.l2_initial_ref:.3e}")
    if not _rel_off(run.l2, run.l2_final_ref) <= REF_RTOL:
        fails.append(f"final L2 {run.l2:.4e} is not within {REF_RTOL:.0%} of the "
                     f"reference {run.l2_final_ref:.4e}")
    return fails


def _spline_data(g):
    return (g.kv_u.knots, g.kv_v.knots, g.kv_u.degree, g.kv_v.degree, g.weights.w,
            g.control_points)


def _exact(setup):
    return setup.exact.u, setup.exact.du_dx, setup.exact.du_dy


def _error_text(exc: BaseException) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


@dataclass
class Sweep:
    """Poisson solve plus error norms at each level of one refinement family."""

    multiplicity: int
    ms: tuple[int, ...]
    paper: dict
    paper_factor: float
    min_l2_order: float
    min_h1_order: float

    def dofs_of(self, m: int) -> int:
        n = DEGREE + 1 + (m - 1) * self.multiplicity
        return n * n

    def level_input(self, m: int):
        """Problem and identity geometry of one level, built from scratch."""
        prob = cli.manufacture_rhs("case1_sine")
        kv = splines.make_open_knot_vector(DEGREE, m, self.multiplicity)
        return prob, geometry.build_identity_geometry(prob.domain, kv, kv)

    def setup(self):
        """The inputs of one unit, as a user would build them."""
        return [self.level_input(m) for m in self.ms]

    def unit(self, span):
        """Solve every level; returns the solves for :meth:`check`."""
        lin = linalg.LinearSolverSettings(tol=CG_TOL)
        solves = []
        for m in self.ms:
            with span(f"bench.level.m{m}"):
                try:
                    prob, g = self.level_input(m)
                    u = assembly.solve_poisson(g, prob.f, prob.bc, lin)
                    rep = postproc.error_norms(g, u, prob.exact)
                    solves.append((m, prob, g, u, rep, None))
                except Exception as exc:  # a failed operation is counted, not fatal
                    solves.append((m, None, None, None, None, _error_text(exc)))
        return solves

    def check(self, solves):
        """(l2_err, failures per operation) of one unit."""
        import reference  # imported here to keep it out of the set-up timing

        levels = []
        for m, prob, g, u, rep, err in solves:
            if err is not None:
                levels.append(Level(m, 0, math.nan, math.nan, math.nan, math.nan, err))
                continue
            l2_ref, h1_ref = reference.error_norms(*_spline_data(g), u.grid, _exact(prob))
            levels.append(Level(m, g.ndof, rep.L2, rep.H1_semi, l2_ref, h1_ref))
        fails = check_sweep(levels, self.ms, self.dofs_of, self.paper, self.paper_factor,
                            self.min_l2_order, self.min_h1_order)
        return levels[-1].l2, fails


@dataclass
class Converge:
    """The case2_tanh moving-mesh run from the identity geometry to the stop
    tolerance, with the gradient monitor and the default configuration."""

    def setup(self):
        """The inputs of one unit, as a user would build them."""
        prob = cli.manufacture_rhs("case2_tanh")
        kv = splines.make_open_knot_vector(DEGREE, CASE2_ELEMENTS, 1)
        g0 = geometry.build_identity_geometry(prob.domain, kv, kv)
        problem = movemesh.PoissonProblem(prob.f, prob.bc, prob.exact)
        spec = movemesh.MonitorSpec("gradient", alpha=0.1)
        return prob, problem, g0, spec, movemesh.MoveMeshConfig()

    def unit(self, span):
        """One run to the stop tolerance; returns it for :meth:`check`."""
        try:
            prob, problem, g0, spec, cfg = self.setup()
            return prob, movemesh.move_mesh_solve(problem, g0, spec, cfg), None
        except Exception as exc:  # a failed operation is counted, not fatal
            return None, None, _error_text(exc)

    def check(self, result):
        """(l2_err, failures of the one operation) of one unit."""
        import reference  # imported here to keep it out of the set-up timing

        prob, state, err = result
        if err is not None:
            return math.nan, [[f"{RAISED}: {err}"]]
        exact = _exact(prob)
        g_init, u_init = state.initial_geometry, state.initial_solution
        last = state.trace[-1]
        run = MoveRun(
            converged=state.converged,
            wrap_failure=state.wrap_failure,
            final_defect=last.xi_inf_err,
            trace_min_jacobians=[t.min_jacobian for t in state.trace],
            l2=last.L2,
            l2_initial_ref=reference.error_norms(*_spline_data(g_init), u_init.grid, exact)[0],
            l2_final_ref=reference.error_norms(*_spline_data(state.geometry),
                                               state.solution.grid, exact)[0],
            min_det_ref=reference.min_det(*_spline_data(state.geometry)),
            outer_iters=len(state.trace),
        )
        return last.L2, [check_move(run)]


WORKLOADS = {
    "k_sweep": Sweep(1, (16, 32, 64, 128), K_PAPER, K_PAPER_FACTOR, 3.8, 2.8),
    "hp_sweep": Sweep(DEGREE, (16, 32, 64), HP_PAPER, HP_PAPER_FACTOR, 3.8, 2.9),
    "case2_converge": Converge(),
}
