"""The public surface stays whole: every name a module exports resolves, and
every function the benchmark tracer wraps still lives where it looks."""

import importlib
import importlib.util
import inspect
import pkgutil
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


def test_only_the_grid_primitives_take_basis_tables():
    # the tables of the knots' fixed grids live on the knot vectors; a
    # tables parameter serves arbitrary points only
    takers = set()
    for name in MODULES:
        module = importlib.import_module(f"mmiga.{name}")
        for obj in (getattr(module, n) for n in getattr(module, "__all__", ())):
            if inspect.isfunction(obj) and "tables" in inspect.signature(obj).parameters:
                takers.add(f"{obj.__module__}.{obj.__name__}")
    assert takers == {"mmiga.geometry.rational_grid_sums", "mmiga.geometry.eval_geometry_grid",
                      "mmiga.assembly.eval_field_grid", "mmiga.movemesh.monitor_grid"}
    from mmiga.movemesh import update_mesh

    assert not {"greville", "quadrature"} & set(inspect.signature(update_mesh).parameters)


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
