import csv
import dataclasses
import json

import numpy as np
import pytest

from mmiga.cli import (
    _MONITOR_KEYS,
    _MOVEMESH_KEYS,
    _SOLVER_KEYS,
    RunConfig,
    main,
    manufacture_rhs,
    parse_config,
    run,
)
from mmiga.errors import ConfigError
from mmiga.linalg import LinearSolverSettings
from mmiga.movemesh import MonitorSpec, MoveMeshConfig

from oracles import grad_fd


def _write(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


BASE_CONV = {
    "mode": "convergence",
    "problem": "case1_sine",
    "degree": 3,
    "refinement": "k",
    "levels": 3,
}

BASE_MOVE = {
    "mode": "movemesh",
    "problem": "case2_tanh",
    "degree": 3,
    "elements": 8,
    "monitor": {"kind": "gradient", "alpha": 0.1},
    "movemesh": {"max_outer": 2},
}


# ------------------------------------------------------------- manufacturing

def test_case1_rhs_is_negative_laplacian():
    import sympy

    x, y = sympy.symbols("x y")
    u = sympy.sin(x) * sympy.sin(y)
    f_sym = sympy.simplify(-(sympy.diff(u, x, 2) + sympy.diff(u, y, 2)))
    assert sympy.simplify(f_sym - 2 * sympy.sin(x) * sympy.sin(y)) == 0
    setup = manufacture_rhs("case1_sine")
    assert setup.f(0.3, -0.7) == pytest.approx(2 * np.sin(0.3) * np.sin(-0.7))


def test_case2_rhs_matches_symbolic_oracle():
    import sympy

    x, y = sympy.symbols("x y", real=True)
    r = sympy.sqrt((x - sympy.Rational(1, 2)) ** 2 + (y - sympy.Rational(1, 2)) ** 2)
    u = sympy.tanh((sympy.Rational(1, 4) - r) / sympy.Rational(1, 100))
    f_sym = -(sympy.diff(u, x, 2) + sympy.diff(u, y, 2))
    f_num = sympy.lambdify((x, y), f_sym, "mpmath")
    setup = manufacture_rhs("case2_tanh")
    probe = (0.75, 0.5)
    expected = float(f_num(*probe))
    assert setup.f(*probe) == pytest.approx(expected, rel=1e-8)
    probe2 = (0.6, 0.35)
    assert setup.f(*probe2) == pytest.approx(float(f_num(*probe2)), rel=1e-8)


def test_case2_rhs_finite_and_tiny_at_corner():
    setup = manufacture_rhs("case2_tanh")
    val = setup.f(0.0, 0.0)
    assert np.isfinite(val)
    assert abs(val) < 1e-30


def test_case2_gradient_matches_finite_differences():
    setup = manufacture_rhs("case2_tanh")
    for pt in ((0.74, 0.5), (0.52, 0.28), (0.31, 0.62)):
        fd = grad_fd(lambda a, b: float(setup.bc(a, b)), pt, h=1e-7)
        assert setup.exact.du_dx(*pt) == pytest.approx(fd[0], rel=2e-4, abs=1e-8)
        assert setup.exact.du_dy(*pt) == pytest.approx(fd[1], rel=2e-4, abs=1e-8)


def test_manufactured_problem_from_expression():
    setup = manufacture_rhs({"name": "manufactured", "u": "x**2 + y**2", "domain": [[0, 2], [0, 1]]})
    assert setup.f(0.5, 0.5) == pytest.approx(-4.0)
    assert setup.bc(1.0, 1.0) == pytest.approx(2.0)
    assert setup.exact.du_dx(1.5, 0.0) == pytest.approx(3.0)
    assert setup.domain.x1 == 2.0


def test_manufactured_rejects_bad_expression():
    with pytest.raises(ConfigError, match="problem.u"):
        manufacture_rhs({"name": "manufactured", "u": "sin(x y"})


# ----------------------------------------------------------------- validation

def test_parse_config_minimal_defaults():
    # parse_config spells out every default a second time: the two copies
    # must agree
    for mode, problem in (("convergence", "case1_sine"), ("movemesh", "case2_tanh")):
        cfg = parse_config({"mode": mode, "problem": problem, "degree": 3})
        assert cfg == RunConfig(mode, problem, 3)


def test_unknown_top_level_key_rejected():
    doc = dict(BASE_CONV)
    doc["elments"] = 4
    with pytest.raises(ConfigError, match="elments"):
        parse_config(doc)


def test_unknown_nested_key_rejected_with_path():
    doc = dict(BASE_MOVE)
    doc["monitor"] = {"kind": "gradient", "alfa": 0.1}
    with pytest.raises(ConfigError, match="monitor.alfa"):
        parse_config(doc)


def test_mode_problem_compatibility_enforced():
    doc = dict(BASE_CONV)
    doc["problem"] = "case2_tanh"
    with pytest.raises(ConfigError):
        parse_config(doc)
    doc = dict(BASE_MOVE)
    doc["problem"] = "case1_sine"
    with pytest.raises(ConfigError):
        parse_config(doc)


@pytest.mark.parametrize("key,value", [("degree", 0), ("degree", 5), ("levels", 0), ("levels", 9)])
def test_range_validation(key, value):
    doc = dict(BASE_CONV)
    doc[key] = value
    with pytest.raises(ConfigError):
        parse_config(doc)


@pytest.mark.parametrize("extra", [
    pytest.param({"bogus": 1}, id="bogus"),
    pytest.param({"deterministic": 1}, id="deterministic"),
    pytest.param({"solver": {"precond": "diagonal"}}, id="solver.precond"),
])
def test_unknown_key_exits_2(tmp_path, extra):
    doc = {**BASE_CONV, **extra}
    path = _write(tmp_path, doc)
    assert run(path, out_dir=tmp_path / "out", quiet=True) == 2


# section None puts the key at the top level; JSON true/false load as bool,
# a subclass of int, and must pass neither for integers nor for real numbers
@pytest.mark.parametrize("section,key,value", [
    ("movemesh", "tau", "x"),
    ("monitor", "alpha", "big"),
    ("solver", "tol", "tiny"),
    ("movemesh", "max_outer", 2.5),
    (None, "degree", True),
    (None, "levels", True),
    (None, "elements", True),
    (None, "vtk_samples", True),
    ("movemesh", "max_outer", True),
    ("monitor", "smoothing", False),
    ("solver", "maxit", True),
    ("movemesh", "tau", True),
    ("movemesh", "tolerance", True),
    ("movemesh", "movement_cap", True),
    ("monitor", "eps", True),
    ("monitor", "alpha", True),
    ("monitor", "beta", False),
    ("solver", "tol", True),
    (None, "output_dir", 5),
    # json.load reads NaN, Infinity and -Infinity; no setting takes them
    ("solver", "tol", float("nan")),
    ("solver", "tol", float("inf")),
    ("solver", "maxit", 0),
    ("solver", "maxit", -3),
    ("movemesh", "tolerance", float("nan")),
    ("movemesh", "tolerance", float("inf")),
    ("movemesh", "movement_cap", float("nan")),
    ("movemesh", "movement_cap", float("inf")),
    ("monitor", "eps", float("nan")),
    ("monitor", "alpha", float("inf")),
    ("monitor", "alpha", float("nan")),
    ("monitor", "beta", float("nan")),
])
def test_wrong_typed_value_exits_2(tmp_path, capsys, section, key, value):
    doc = dict(BASE_MOVE)
    if section is None:
        doc[key] = value
    else:
        doc[section] = {**doc.get(section, {}), key: value}
    path = _write(tmp_path, doc)
    assert run(path, out_dir=tmp_path / "out", quiet=True) == 2
    assert capsys.readouterr().err.startswith(f"config error: {section or key}: ")


@pytest.mark.parametrize("via", ["config", "--out"])
def test_output_dir_that_cannot_be_created_exits_2(tmp_path, capsys, via):
    blocker = tmp_path / "file"
    blocker.write_text("")
    target = str(blocker / "out")  # a directory under an existing file
    if via == "config":
        argv = [str(_write(tmp_path, {**BASE_CONV, "output_dir": target}))]
    else:
        argv = [str(_write(tmp_path, BASE_CONV)), "--out", target]
    assert main(["run", *argv, "--quiet"]) == 2
    assert capsys.readouterr().err.startswith("config error: output_dir: cannot create ")


def test_config_section_keys_are_the_dataclass_fields():
    # a key parsed into no field, or a field no key sets, is a setting the
    # schema offers and the run never reads
    def names(cls):
        return {f.name for f in dataclasses.fields(cls)}

    assert _SOLVER_KEYS == names(LinearSolverSettings)
    assert _MONITOR_KEYS == names(MonitorSpec)
    assert _MOVEMESH_KEYS == names(MoveMeshConfig) - {"lin"}


def test_invalid_json_exits_2(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert run(path, out_dir=tmp_path / "out", quiet=True) == 2


# ----------------------------------------------------------------- run: conv

def test_convergence_run_writes_table_and_vtk(tmp_path):
    doc = dict(BASE_CONV)
    path = _write(tmp_path, doc)
    out = tmp_path / "out"
    assert run(path, out_dir=out, quiet=True) == 0
    with open(out / "table.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["dofs", "L2", "L2_order", "H1", "H1_order"]
    assert len(rows) == 4
    assert rows[1][2] == ""  # first level has no order
    dofs = [int(r[0]) for r in rows[1:]]
    assert dofs == [25, 49, 121]
    l2 = [float(r[1]) for r in rows[1:]]
    assert l2[0] > l2[1] > l2[2]
    orders = [float(r[2]) for r in rows[2:]]
    assert all(o > 3.5 for o in orders)
    for m in (2, 4, 8):
        assert (out / f"solution_m{m}.vtk").exists()


def test_convergence_run_deterministic(tmp_path):
    doc = dict(BASE_CONV)
    doc["levels"] = 2
    path = _write(tmp_path, doc)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert run(path, out_dir=out1, quiet=True) == 0
    assert run(path, out_dir=out2, quiet=True) == 0
    assert (out1 / "table.csv").read_text() == (out2 / "table.csv").read_text()


def test_convergence_custom_elements_list(tmp_path):
    doc = dict(BASE_CONV)
    doc.pop("levels")
    doc["elements_list"] = [2, 4]
    path = _write(tmp_path, doc)
    out = tmp_path / "out"
    assert run(path, out_dir=out, quiet=True) == 0
    with open(out / "table.csv") as fh:
        rows = list(csv.reader(fh))
    assert [int(r[0]) for r in rows[1:]] == [25, 49]


# ----------------------------------------------------------------- run: move

def test_movemesh_run_artifacts_complete(tmp_path):
    doc = dict(BASE_MOVE)
    path = _write(tmp_path, doc)
    out = tmp_path / "out"
    code = run(path, out_dir=out, quiet=True)
    assert code == 0
    assert (out / "trace.csv").exists()
    vtks = sorted(p.name for p in out.glob("*.vtk"))
    assert "mesh_initial.vtk" in vtks and "mesh_final.vtk" in vtks
    with open(out / "summary.json") as fh:
        summary = json.load(fh)
    assert set(summary) >= {"dofs", "initial", "final", "iterations", "wall_seconds"}
    assert summary["dofs"] == 11 * 11
    assert summary["initial"]["L2"] > 0
    assert summary["iterations"] >= 1


def test_movemesh_identity_monitor_single_row(tmp_path):
    doc = dict(BASE_MOVE)
    doc["monitor"] = {"kind": "combined", "eps": 1.0, "alpha": 0.0, "beta": 0.0}
    path = _write(tmp_path, doc)
    out = tmp_path / "out"
    assert run(path, out_dir=out, quiet=True) == 0
    with open(out / "trace.csv") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 2
    with open(out / "summary.json") as fh:
        summary = json.load(fh)
    assert summary["converged"] is True
    assert summary["final"]["L2"] == pytest.approx(summary["initial"]["L2"])


def test_compare_linf_subcommand(tmp_path, capsys):
    for name, linf in (("a.json", 0.5), ("b.json", 0.25)):
        (tmp_path / name).write_text(json.dumps({"dofs": 100, "final": {"Linf": linf}}))
    code = main(["compare-linf", str(tmp_path / "a.json"), str(tmp_path / "b.json")])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["ratio"] == pytest.approx(2.0)


def test_main_run_smoke(tmp_path):
    doc = dict(BASE_CONV)
    doc["levels"] = 2
    path = _write(tmp_path, doc)
    assert main(["run", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 0
