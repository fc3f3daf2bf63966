"""Configuration-driven experiment runner.

A run is described by one strict-schema JSON document, whose schema is
:class:`RunConfig`: an unknown key, and a key the run's mode does not read,
are rejected with the offending path. Two modes: ``convergence`` sweeps a
refinement sequence and writes the error table, ``movemesh`` runs the mesh
redistribution loop and writes the trace, mesh snapshots and a summary.

Exit codes: 0 success, 2 configuration error, 3 solver failure, 4 mesh-wrap
failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

import numpy as np

from .assembly import solve_poisson
from .errors import (
    AssemblyError,
    ConfigError,
    DegenerateMapError,
    MeshWrapError,
    MmigaError,
    SolverError,
)
from .geometry import Rectangle, build_identity_geometry
from .linalg import LinearSolverSettings
from .movemesh import MonitorSpec, MoveMeshConfig, PoissonProblem, move_mesh_solve
from .postproc import (
    ExactSolution,
    convergence_orders,
    error_norms,
    export_trace,
    export_vtk,
)
from .splines import make_open_knot_vector

__all__ = ["RunConfig", "ProblemSetup", "manufacture_rhs", "run", "main"]

EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_WRAP = 4

TANH_CENTER = (0.5, 0.5)
TANH_RADIUS = 0.25
TANH_WIDTH = 0.01


@dataclass(frozen=True)
class ProblemSetup:
    """Source term, Dirichlet data, exact solution and domain for one case."""

    domain: Rectangle
    f: callable
    bc: callable
    exact: ExactSolution | None


def _sech2(s):
    return np.cosh(np.clip(s, -300.0, 300.0)) ** -2.0


def _tanh_radius(x, y):
    # sqrt of the squares rather than hypot: the domain is O(1), so hypot's
    # overflow guard buys nothing and costs twice the time
    dx, dy = x - TANH_CENTER[0], y - TANH_CENTER[1]
    return np.maximum(np.sqrt(dx * dx + dy * dy), 1e-12)


def _case2_fields():
    d = TANH_WIDTH

    def u(x, y):
        return np.tanh((TANH_RADIUS - _tanh_radius(x, y)) / d)

    def f(x, y):
        # radial form: -(u'' + u'/r) with r guarded away from zero; the
        # guard is numerically inert because sech^2 underflows there
        r = _tanh_radius(x, y)
        s = (TANH_RADIUS - r) / d
        sech2 = _sech2(s)
        return (2.0 / d**2) * sech2 * np.tanh(s) + sech2 / (d * r)

    def du_dx(x, y):
        r = _tanh_radius(x, y)
        return -_sech2((TANH_RADIUS - r) / d) / d * (x - TANH_CENTER[0]) / r

    def du_dy(x, y):
        r = _tanh_radius(x, y)
        return -_sech2((TANH_RADIUS - r) / d) / d * (y - TANH_CENTER[1]) / r

    return u, f, du_dx, du_dy


def _manufactured_fields(expr: str, domain: Rectangle):
    import sympy

    x, y = sympy.symbols("x y")
    try:
        u_sym = sympy.sympify(expr, locals={"x": x, "y": y})
    except (sympy.SympifyError, SyntaxError) as exc:
        raise ConfigError(f"problem.u: cannot parse expression {expr!r}: {exc}") from exc
    f_sym = -(sympy.diff(u_sym, x, 2) + sympy.diff(u_sym, y, 2))
    mods = ["numpy"]
    u = sympy.lambdify((x, y), u_sym, mods)
    f = sympy.lambdify((x, y), f_sym, mods)
    ux = sympy.lambdify((x, y), sympy.diff(u_sym, x), mods)
    uy = sympy.lambdify((x, y), sympy.diff(u_sym, y), mods)

    def vec(fn):
        def wrapped(px, py):
            return np.broadcast_to(np.asarray(fn(px, py), dtype=float), np.broadcast(px, py).shape).copy()

        return wrapped

    return ProblemSetup(domain, vec(f), vec(u), ExactSolution(vec(u), vec(ux), vec(uy)))


def manufacture_rhs(problem) -> ProblemSetup:
    """Source / boundary data / exact solution for a named or custom problem.

    ``problem`` is either the string "case1_sine" (u = sin x sin y on
    [-1,1]^2), "case2_tanh" (circular internal layer on the unit square), or
    a dict {"name": "manufactured", "u": "<expression>", "domain": [[..],[..]]}
    whose source term is derived symbolically.
    """
    if problem == "case1_sine":
        u = lambda x, y: np.sin(x) * np.sin(y)
        return ProblemSetup(
            Rectangle(-1.0, 1.0, -1.0, 1.0),
            lambda x, y: 2.0 * np.sin(x) * np.sin(y),
            u,
            ExactSolution(
                u,
                lambda x, y: np.cos(x) * np.sin(y),
                lambda x, y: np.sin(x) * np.cos(y),
            ),
        )
    if problem == "case2_tanh":
        u, f, ux, uy = _case2_fields()
        return ProblemSetup(Rectangle(0.0, 1.0, 0.0, 1.0), f, u, ExactSolution(u, ux, uy))
    if isinstance(problem, dict):
        name = problem.get("name")
        if name != "manufactured":
            raise ConfigError(f"problem.name: expected 'manufactured', got {name!r}")
        allowed = {"name", "u", "domain"}
        unknown = set(problem) - allowed
        if unknown:
            raise ConfigError(f"problem.{sorted(unknown)[0]}: unknown key")
        if "u" not in problem:
            raise ConfigError("problem.u: missing expression")
        rect = _rectangle("problem.domain", problem.get("domain", [[0.0, 1.0], [0.0, 1.0]]))
        return _manufactured_fields(problem["u"], rect)
    raise ConfigError(f"problem: unknown problem {problem!r}")


# the keys that one mode alone reads, top-level keys and whole sections;
# both modes read every other key
_MODE_ONLY = {
    "levels": "convergence",
    "elements_list": "convergence",
    "elements": "movemesh",
    "monitor": "movemesh",
    "movemesh": "movemesh",
}
_CASE_MODE = {"case1_sine": "convergence", "case2_tanh": "movemesh"}


def _require(cond, msg):
    if not cond:
        raise ConfigError(msg)


def _is_int(x) -> bool:
    """An integer in JSON terms: ``true``/``false`` load as bool, a subclass
    of int, and are not integers here."""
    return isinstance(x, int) and not isinstance(x, bool)


@dataclass(frozen=True)
class RunConfig:
    """Validated run description, and the schema of a run's JSON document.

    Each top-level key is a field. The ``monitor``, ``movemesh`` and
    ``solver`` objects hold the fields of :class:`MonitorSpec`,
    :class:`MoveMeshConfig` (but ``lin``, which ``solver`` sets) and
    :class:`LinearSolverSettings`; ``movemesh.lin`` must equal ``solver``.
    A value out of range raises ConfigError with its key, and so does a
    setting the mode does not read: a field of :data:`_MODE_ONLY` off its
    default (for ``movemesh``, ``MoveMeshConfig(lin=solver)``) in the other
    mode, or ``levels`` off its default with ``elements_list``.
    """

    mode: str
    problem: object
    degree: int
    refinement: str = "k"
    levels: int = 4
    elements: int = 32
    elements_list: tuple[int, ...] | None = None
    monitor: MonitorSpec = MonitorSpec()
    movemesh: MoveMeshConfig = field(default_factory=MoveMeshConfig)
    solver: LinearSolverSettings = LinearSolverSettings()
    output_dir: str = "out"
    vtk_samples: int = 4

    def __post_init__(self):
        mode = self.mode
        _require(mode in ("convergence", "movemesh"),
                 f"mode: expected convergence|movemesh, got {mode!r}")
        _require(_is_int(self.degree) and 1 <= self.degree <= 4,
                 f"degree: expected integer in [1, 4], got {self.degree!r}")
        _require(self.refinement in ("k", "hp"),
                 f"refinement: expected k|hp, got {self.refinement!r}")
        if isinstance(self.problem, str):
            case = _CASE_MODE.get(self.problem)
            _require(case is not None, f"problem: unknown case {self.problem!r}")
            _require(case == mode, f"problem: {case} cases require mode={case}")
        _require(_is_int(self.levels) and 1 <= self.levels <= 8,
                 f"levels: expected integer in [1, 8], got {self.levels!r}")
        _require(_is_int(self.elements) and self.elements >= 2,
                 f"elements: expected integer >= 2, got {self.elements!r}")
        if self.elements_list is not None:
            ms = self.elements_list
            _require(isinstance(ms, (list, tuple)) and len(ms) >= 2
                     and all(_is_int(m) and m >= 1 for m in ms),
                     "elements_list: expected a list of >= 2 positive integers")
            object.__setattr__(self, "elements_list", tuple(ms))
        _require(isinstance(self.output_dir, str),
                 f"output_dir: expected a path string, got {self.output_dir!r}")
        _require(_is_int(self.vtk_samples) and self.vtk_samples >= 2,
                 f"vtk_samples: expected integer >= 2, got {self.vtk_samples!r}")
        _require(self.movemesh.lin == self.solver,
                 f"movemesh.lin: {self.movemesh.lin} differs from solver {self.solver}; "
                 f"a run reads one linear-solver setting")
        defaults = {f.name: f.default for f in fields(self)}
        defaults["movemesh"] = MoveMeshConfig(lin=self.solver)
        for key, key_mode in _MODE_ONLY.items():
            _require(key_mode == mode or getattr(self, key) == defaults[key],
                     f"{key}: only valid in {key_mode} mode")
        _require(self.elements_list is None or self.levels == defaults["levels"],
                 "levels: not read when elements_list is given")


def _names(cls) -> set[str]:
    return {f.name for f in fields(cls)}


def _rectangle(path: str, value) -> Rectangle:
    """The rectangle ``[[x0, x1], [y0, y1]]`` of a config document, whose
    corners are finite numbers (JSON ``true``/``false`` are not)."""
    try:
        (x0, x1), (y0, y1) = value
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: expected [[x0, x1], [y0, y1]], got {value!r}") from exc
    _require(all(type(c) in (int, float) and np.isfinite(c) for c in (x0, x1, y0, y1)),
             f"{path}: expected finite numbers, got {value!r}")
    try:
        return Rectangle(x0, x1, y0, y1)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _section(name: str, sec, cls, **fixed):
    """``cls`` built from the config object ``sec``, whose keys are fields of
    ``cls`` that ``fixed`` does not set. No value may be a JSON
    ``true``/``false``: a bool, a subclass of int, must pass neither for an
    integer nor for a real. Only the keys present are passed, so every
    default is the one ``cls`` declares."""
    _require(isinstance(sec, dict), f"{name}: expected an object")
    unknown = set(sec) - (_names(cls) - set(fixed))
    if unknown:
        raise ConfigError(f"{name}.{sorted(unknown)[0]}: unknown key")
    for key, value in sec.items():
        _require(not isinstance(value, bool), f"{name}: {key} must be a number, got {value!r}")
    try:
        return cls(**sec, **fixed)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def parse_config(doc: dict) -> RunConfig:
    """Validate a JSON document against the strict schema of
    :class:`RunConfig`. A key the chosen mode does not read is an error
    when it is present, whatever its value."""
    _require(isinstance(doc, dict), "top level: expected an object")
    unknown = set(doc) - _names(RunConfig)
    if unknown:
        raise ConfigError(f"{sorted(unknown)[0]}: unknown key")
    for f in fields(RunConfig):
        _require(f.name in doc or f.default is not MISSING or f.default_factory is not MISSING,
                 f"{f.name}: required key missing")
    for key in sorted(set(doc) & set(_MODE_ONLY)):
        _require(_MODE_ONLY[key] == doc["mode"], f"{key}: only valid in {_MODE_ONLY[key]} mode")
    _require(not {"levels", "elements_list"} <= set(doc),
             "levels: not read when elements_list is given")

    kw = {k: v for k, v in doc.items() if k not in ("monitor", "movemesh", "solver")}
    kw["solver"] = _section("solver", doc.get("solver", {}), LinearSolverSettings)
    mm = doc.get("movemesh", {})
    if isinstance(mm, dict) and "logical" in mm:
        mm = {**mm, "logical": _rectangle("movemesh.logical", mm["logical"])}
    kw["movemesh"] = _section("movemesh", mm, MoveMeshConfig, lin=kw["solver"])
    if "monitor" in doc:
        kw["monitor"] = _section("monitor", doc["monitor"], MonitorSpec)
    return RunConfig(**kw)


def _geometry_for(setup: ProblemSetup, degree: int, m: int, refinement: str):
    mult = 1 if refinement == "k" else degree
    kv = make_open_knot_vector(degree, m, mult)
    return build_identity_geometry(setup.domain, kv, kv)


def _fmt(x) -> str:
    return f"{x:.17g}"


def run_convergence(cfg: RunConfig, outdir: Path, quiet: bool) -> None:
    setup = manufacture_rhs(cfg.problem)
    if setup.exact is None:
        raise ConfigError("problem: convergence mode needs an exact solution")
    ms = cfg.elements_list or tuple(2 * 2**k for k in range(cfg.levels))
    reports = []
    for m in ms:
        g = _geometry_for(setup, cfg.degree, m, cfg.refinement)
        u = solve_poisson(g, setup.f, setup.bc, cfg.solver)
        rep = error_norms(g, u, setup.exact)
        reports.append(rep)
        export_vtk(g, {"u": u}, cfg.vtk_samples, outdir / f"solution_m{m}.vtk")
        if not quiet:
            print(f"m={m} dofs={rep.dofs} L2={rep.L2:.4e} H1={rep.H1_semi:.4e}")
    orders = convergence_orders(reports)
    with open(outdir / "table.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("dofs,L2,L2_order,H1,H1_order\n")
        for rep, order in zip(reports, orders):
            l2o = "" if order.L2 is None else _fmt(order.L2)
            h1o = "" if order.H1 is None else _fmt(order.H1)
            fh.write(f"{rep.dofs},{_fmt(rep.L2)},{l2o},{_fmt(rep.H1_semi)},{h1o}\n")


def run_movemesh(cfg: RunConfig, outdir: Path, quiet: bool) -> int:
    setup = manufacture_rhs(cfg.problem)
    g0 = _geometry_for(setup, cfg.degree, cfg.elements, cfg.refinement)
    problem = PoissonProblem(setup.f, setup.bc, setup.exact)
    t0 = time.perf_counter()
    state = move_mesh_solve(problem, g0, cfg.monitor, cfg.movemesh)
    wall = time.perf_counter() - t0

    export_trace(state, outdir / "trace.csv")
    # a run that stops on its first iteration has one snapshot, written as
    # both the initial and the final mesh
    n = len(state.snapshots)
    snaps = [("initial", 0), ("final", n - 1)]
    if n >= 3:
        snaps.append(("intermediate", n // 2))
    for label, idx in snaps:
        it, g, u = state.snapshots[idx]
        export_vtk(g, {"u": u}, cfg.vtk_samples, outdir / f"mesh_{label}.vtk")

    # the final snapshot is the mesh of the last trace row, whose norms the
    # run has taken already
    initial = final = None
    if setup.exact is not None:
        rep = error_norms(state.initial_geometry, state.initial_solution, setup.exact)
        initial = {"L2": rep.L2, "H1": rep.H1_semi, "Linf": rep.L_inf}
        last = state.trace[-1]
        final = {"L2": last.L2, "H1": last.H1, "Linf": last.Linf}
    summary = {
        "dofs": state.geometry.ndof,
        "initial": initial,
        "final": final,
        "iterations": len(state.trace),
        "converged": state.converged,
        "stop_reason": "converged" if state.converged else "wrap" if state.wrap_failure
        else "max_outer",
        "wrap_failure": state.wrap_failure,
        "wall_seconds": wall,
    }
    with open(outdir / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    if not quiet:
        print(json.dumps(summary, indent=2))
    return EXIT_WRAP if state.wrap_failure else 0


def run(config_path, out_dir=None, quiet=False) -> int:
    """Execute one experiment; returns the process exit code."""
    try:
        with open(config_path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except json.JSONDecodeError as exc:
        print(f"config error: invalid JSON: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        cfg = parse_config(doc)
        outdir = Path(out_dir) if out_dir is not None else Path(cfg.output_dir)
        try:
            outdir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"output_dir: cannot create {str(outdir)!r}: {exc}") from exc
        if cfg.mode == "convergence":
            run_convergence(cfg, outdir, quiet)
            return 0
        return run_movemesh(cfg, outdir, quiet)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MeshWrapError as exc:
        print(f"mesh-wrap failure: {exc}", file=sys.stderr)
        return EXIT_WRAP
    except (SolverError, AssemblyError, DegenerateMapError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except MmigaError as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


def compare_linf(path_a, path_b) -> int:
    """Print the lattice max-norm errors of two run summaries and their ratio."""
    out = {}
    for key, path in (("a", path_a), ("b", path_b)):
        try:
            with open(path, encoding="utf-8") as fh:
                summary = json.load(fh)
            linf = summary["final"]["Linf"]
            # a JSON boolean is no number, and NaN fails the range test
            if type(linf) not in (int, float) or not 0 <= linf < np.inf:
                raise TypeError(f"final.Linf must be a finite number >= 0, got {linf!r}")
            if key == "b" and linf == 0:
                raise ValueError("final.Linf is 0, and the ratio divides by it")
            out[key] = {"path": str(path), "final_linf": linf, "dofs": summary.get("dofs")}
        except (OSError, ValueError, KeyError, TypeError) as exc:
            print(f"config error: cannot read summary {path}: {exc}", file=sys.stderr)
            return EXIT_CONFIG
    out["ratio"] = out["a"]["final_linf"] / out["b"]["final_linf"]
    print(json.dumps(out, indent=2))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="mmiga", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one experiment from a JSON config")
    p_run.add_argument("config", help="path to the run configuration")
    p_run.add_argument("--out", default=None, help="output directory (overrides the config)")
    p_run.add_argument("--quiet", action="store_true", help="suppress progress output")

    p_cmp = sub.add_parser("compare-linf", help="compare the final max-norm errors of two runs")
    p_cmp.add_argument("summary_a")
    p_cmp.add_argument("summary_b")

    args = parser.parse_args(argv)
    if args.command == "run":
        return run(args.config, args.out, args.quiet)
    return compare_linf(args.summary_a, args.summary_b)


if __name__ == "__main__":
    sys.exit(main())
