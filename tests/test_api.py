"""The public surface stays whole: every name a module exports resolves, and
every function the benchmark tracer wraps still lives where it looks."""

import importlib
import importlib.util
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import mmiga

MODULES = sorted(info.name for info in pkgutil.iter_modules(mmiga.__path__))
TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"mmiga.{name}")
    exported = getattr(module, "__all__", ())
    assert [n for n in exported if not hasattr(module, n)] == []


def test_no_function_takes_basis_tables():
    # the tables of the knots' fixed grids live on the knot vectors, which
    # find them from the points: no caller passes a grid twice
    takers = set()
    for name in MODULES:
        module = importlib.import_module(f"mmiga.{name}")
        for obj in (getattr(module, n) for n in getattr(module, "__all__", ())):
            if inspect.isfunction(obj) and "tables" in inspect.signature(obj).parameters:
                takers.add(f"{obj.__module__}.{obj.__name__}")
    assert takers == set()
    from mmiga.movemesh import update_mesh

    assert not {"greville", "quadrature"} & set(inspect.signature(update_mesh).parameters)


def test_no_function_takes_boundary_data_or_a_guess_apart_from_its_start():
    # a Dirichlet solve reads its data from the ring of its start field and
    # its first guess from the interior: no second way in for either, and
    # solve_poisson is the one-shot solve. cg_solve, the vector solve, takes
    # the interior the Dirichlet solve hands it as x0
    takers = set()
    for name in MODULES:
        module = importlib.import_module(f"mmiga.{name}")
        for obj in (getattr(module, n) for n in getattr(module, "__all__", ())):
            if inspect.isfunction(obj) and {"boundary", "x0"} & set(
                    inspect.signature(obj).parameters):
                takers.add(f"{obj.__module__}.{obj.__name__}")
    assert takers == {"mmiga.linalg.cg_solve"}
    from mmiga.assembly import solve_poisson

    assert list(inspect.signature(solve_poisson).parameters) == ["g", "f", "bc", "lin"]


def test_no_function_takes_nodes_and_no_elimination_takes_a_discretization():
    # a refit and a mesh update evaluate the nodes of their geometry
    # themselves, and a Dirichlet elimination applies the interior rows of
    # its matrix, so it reads nothing of a discretization
    takers = set()
    for name in MODULES:
        module = importlib.import_module(f"mmiga.{name}")
        for obj in (getattr(module, n) for n in getattr(module, "__all__", ())):
            if inspect.isfunction(obj) and "nodes" in inspect.signature(obj).parameters:
                takers.add(f"{obj.__module__}.{obj.__name__}")
    assert takers == set()
    from mmiga.assembly import apply_dirichlet

    assert list(inspect.signature(apply_dirichlet).parameters) == ["A", "b", "start"]


def test_no_function_takes_a_discretization():
    # the stiffness reads its knot-only data from the memo entries of its
    # geometry's knot vectors, so no function takes them as an argument, and
    # a Dirichlet solve takes its preconditioner's factors from them too
    takers = set()
    for name in MODULES:
        module = importlib.import_module(f"mmiga.{name}")
        for obj in (getattr(module, n) for n in getattr(module, "__all__", ())):
            if inspect.isfunction(obj) and "disc" in inspect.signature(obj).parameters:
                takers.add(f"{obj.__module__}.{obj.__name__}")
    assert takers == set()
    from mmiga import assembly

    assert not hasattr(assembly, "Discretization") and not hasattr(assembly, "discretization")
    assert list(inspect.signature(assembly.solve_dirichlet).parameters) == [
        "A", "b", "g", "start", "lin"]


def _load_tracing():
    """The benchmark's tracer, loaded from its file without touching it."""
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_traced_functions_exist():
    tracing = _load_tracing()
    missing = [
        f"{mod}.{fn}"
        for mod, fns in tracing.TRACED.items()
        for fn in fns
        if not callable(getattr(importlib.import_module(f"mmiga.{mod}"), fn, None))
    ]
    assert missing == []


def test_moving_mesh_run_calls_every_traced_layer():
    # the benchmark books its per-layer figures on these names: a refactor
    # that routes around one of them would zero that layer's figures
    from mmiga import cli, geometry, movemesh, splines

    tracing = _load_tracing()
    prob = cli.manufacture_rhs("case2_tanh")
    kv = splines.make_open_knot_vector(3, 6, 1)
    g0 = geometry.build_identity_geometry(prob.domain, kv, kv)
    problem = movemesh.PoissonProblem(prob.f, prob.bc, prob.exact)
    tracer = tracing.Tracer()
    with tracing.traced_library(tracer):
        state = movemesh.move_mesh_solve(problem, g0, movemesh.MonitorSpec("gradient", alpha=0.1),
                                         movemesh.MoveMeshConfig(max_outer=2))
    assert len(state.trace) == 2 and not state.converged  # the mesh moved
    uncalled = [
        f"{mod}.{fn}"
        for mod, fns in tracing.TRACED.items()
        for fn in fns
        if tracer.counts[f"{mod}.{fn}.calls"] < 1
    ]
    assert uncalled == []


def test_the_solves_leave_scipy_linalg_unloaded():
    # the dense 1D solves, the preconditioner factors and the smoothed
    # monitor's interpolation are numpy's: a Poisson solve and two
    # moving-mesh runs, in a fresh interpreter, load scipy.sparse and not
    # scipy.linalg
    script = """
import sys
import mmiga
from mmiga import cli, geometry, linalg, movemesh, splines
assert "scipy.linalg" not in sys.modules, "import mmiga"
prob = cli.manufacture_rhs("case1_sine")
kv = splines.make_open_knot_vector(3, 8, 1)  # C2 cubics
g = geometry.build_identity_geometry(prob.domain, kv, kv)
mmiga.assembly.solve_poisson(g, prob.f, prob.bc, linalg.LinearSolverSettings())
assert "scipy.linalg" not in sys.modules, "solve_poisson"
prob = cli.manufacture_rhs("case2_tanh")
g = geometry.build_identity_geometry(prob.domain, kv, kv)
state = movemesh.move_mesh_solve(movemesh.PoissonProblem(prob.f, prob.bc, prob.exact), g,
                                 movemesh.MonitorSpec("gradient", alpha=0.1),
                                 movemesh.MoveMeshConfig(max_outer=2))
assert len(state.trace) == 2
assert "scipy.linalg" not in sys.modules, "move_mesh_solve"
state = movemesh.move_mesh_solve(movemesh.PoissonProblem(prob.f, prob.bc, prob.exact), g,
                                 movemesh.MonitorSpec("gradient", alpha=0.1, smoothing=1),
                                 movemesh.MoveMeshConfig(max_outer=2))
assert len(state.trace) == 2
assert "scipy.linalg" not in sys.modules, "smoothed monitor"
"""
    src = str(Path(mmiga.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
