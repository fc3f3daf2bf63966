import csv
import dataclasses
import json

import numpy as np
import pytest

from mmiga.cli import RunConfig, main, manufacture_rhs, parse_config, run
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
    # parse_config passes only the keys present: every default is RunConfig's
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
    doc = dict(BASE_CONV if key == "levels" else BASE_MOVE)
    if section is None:
        doc[key] = value
    else:
        doc[section] = {**doc.get(section, {}), key: value}
    path = _write(tmp_path, doc)
    assert run(path, out_dir=tmp_path / "out", quiet=True) == 2
    assert capsys.readouterr().err.startswith(f"config error: {section or key}: ")


@pytest.mark.parametrize("value", [[[0, True], [0, 1]], [[0, 1, 2], [0, 1]],
                                   [[0, float("inf")], [0, 1]], [[1, 0], [0, 1]], "ab", 3])
def test_malformed_rectangle_is_a_config_error(tmp_path, capsys, value):
    # the logical rectangle at parse time, the manufactured domain at run time
    doc = {**BASE_MOVE, "movemesh": {"logical": value}}
    assert run(_write(tmp_path, doc), out_dir=tmp_path / "out", quiet=True) == 2
    assert capsys.readouterr().err.startswith("config error: movemesh.logical: ")
    with pytest.raises(ConfigError, match="problem.domain: "):
        manufacture_rhs({"name": "manufactured", "u": "x", "domain": value})


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


# a valid value other than the default of each key a run accepts, as the
# document entries that set it (a pinned monitor parameter needs a kind that
# frees it)
NON_DEFAULT = {
    "problem": {"problem": {"name": "manufactured", "u": "x * y"}},
    "degree": {"degree": 2},
    "refinement": {"refinement": "hp"},
    "levels": {"levels": 2},
    "elements": {"elements": 8},
    "elements_list": {"elements_list": [2, 4]},
    "output_dir": {"output_dir": "elsewhere"},
    "vtk_samples": {"vtk_samples": 3},
    "monitor.kind": {"monitor": {"kind": "hessian", "beta": 0.01}},
    "monitor.eps": {"monitor": {"kind": "combined", "eps": 2.0, "alpha": 0.1, "beta": 0.0}},
    "monitor.alpha": {"monitor": {"alpha": 0.3}},
    "monitor.beta": {"monitor": {"kind": "hessian", "beta": 0.01}},
    "monitor.smoothing": {"monitor": {"alpha": 0.1, "smoothing": 1}},
    "movemesh.logical": {"movemesh": {"logical": [[0, 2], [0, 1]]}},
    "movemesh.tau": {"movemesh": {"tau": 0.25}},
    "movemesh.tolerance": {"movemesh": {"tolerance": 1e-3}},
    "movemesh.max_outer": {"movemesh": {"max_outer": 7}},
    "movemesh.movement_cap": {"movemesh": {"movement_cap": None}},
    "solver.tol": {"solver": {"tol": 1e-8}},
    "solver.maxit": {"solver": {"maxit": 100}},
}

# the RunConfig fields each mode's run reads (a movemesh run reads its
# solver settings as movemesh.lin), and the document keys each mode rejects
READS = {
    "convergence": {"problem", "degree", "refinement", "levels", "elements_list", "solver",
                    "output_dir", "vtk_samples"},
    "movemesh": {"problem", "degree", "refinement", "elements", "monitor", "movemesh",
                 "output_dir", "vtk_samples"},
}
REJECTS = {"convergence": {"elements", "monitor", "movemesh"},
           "movemesh": {"levels", "elements_list"}}


def test_every_accepted_key_is_read(tmp_path, capsys):
    # the schema is the dataclasses' fields. A key that a mode accepts sets
    # a field that its run reads; a key of the other mode, and a monitor
    # parameter off its kind's pin, exit 2 with the key's path
    def names(cls):
        return {f.name for f in dataclasses.fields(cls)}

    sections = {"monitor": names(MonitorSpec), "movemesh": names(MoveMeshConfig) - {"lin"},
                "solver": names(LinearSolverSettings)}
    paths = {f"{name}.{key}" for name, keys in sections.items() for key in keys}
    assert paths | names(RunConfig) - set(sections) - {"mode"} == set(NON_DEFAULT)

    def exits_2(doc, path):
        assert run(_write(tmp_path, doc), out_dir=tmp_path / "out", quiet=True) == 2
        return capsys.readouterr().err.startswith(f"config error: {path}: ")

    for mode, problem in (("convergence", "case1_sine"), ("movemesh", "case2_tanh")):
        base = {"mode": mode, "problem": problem, "degree": 3}
        default = parse_config(base)
        for path, entries in NON_DEFAULT.items():
            key = path.split(".")[0]
            doc = {**base, **entries}
            if key in REJECTS[mode]:
                assert exits_2(doc, key), (mode, path)
                continue
            cfg = parse_config(doc)
            changed = {f for f in names(RunConfig) if getattr(cfg, f) != getattr(default, f)}
            assert changed & READS[mode], (mode, path)
    for kind, pinned in (("gradient", ("eps", "beta")), ("hessian", ("eps", "alpha"))):
        for name in pinned:
            doc = {**BASE_MOVE, "monitor": {"kind": kind, name: 0.5}}
            assert exits_2(doc, "monitor"), (kind, name)


def test_levels_with_elements_list_exits_2(tmp_path, capsys):
    # elements_list sets the levels, so a levels key beside it is not read
    doc = {**BASE_CONV, "elements_list": [2, 4]}
    assert run(_write(tmp_path, doc), out_dir=tmp_path / "out", quiet=True) == 2
    assert capsys.readouterr().err.startswith("config error: levels: ")


def test_a_monitor_weight_left_out_is_the_default_or_a_config_error(tmp_path, capsys):
    # the run's default monitor is MonitorSpec's: a monitor object that
    # leaves out the gradient weight gets it, never the identity monitor
    base = {"mode": "movemesh", "problem": "case2_tanh", "degree": 3}
    default = parse_config(base).monitor
    assert default == MonitorSpec("gradient", alpha=0.1)
    assert parse_config({**base, "monitor": {"kind": "gradient"}}).monitor == default
    assert parse_config({**base, "monitor": {"smoothing": 1}}).monitor.alpha == 0.1
    for monitor in ({"kind": "hessian"}, {"kind": "combined", "alpha": 0.1}):
        doc = {**base, "monitor": monitor}
        assert run(_write(tmp_path, doc), out_dir=tmp_path / "out", quiet=True) == 2
        assert capsys.readouterr().err.startswith("config error: monitor: "), monitor


def test_run_config_holds_one_linear_solver_setting():
    # a movemesh run reads movemesh.lin and a convergence run solver: the two
    # must agree, or the run would use a setting its config does not show
    loose = LinearSolverSettings(tol=1e-6)
    with pytest.raises(ConfigError, match="movemesh.lin: "):
        RunConfig("movemesh", "case2_tanh", 3, solver=loose)
    cfg = RunConfig("movemesh", "case2_tanh", 3, solver=loose,
                    movemesh=MoveMeshConfig(lin=loose))
    assert cfg.movemesh.lin == cfg.solver == loose
    assert parse_config({**BASE_MOVE, "solver": {"tol": 1e-6}}).movemesh.lin == loose


def test_run_config_rejects_a_setting_its_mode_does_not_read():
    # a RunConfig built in Python is held to the rules of a document: a
    # setting of the other mode, or levels beside elements_list, raises
    # once it is off its default; at its default it is not a setting
    for kw in ({"elements": 8}, {"monitor": MonitorSpec("gradient", alpha=0.2)},
               {"movemesh": MoveMeshConfig(tau=0.25)}):
        with pytest.raises(ConfigError, match=f"{next(iter(kw))}: only valid in movemesh mode"):
            RunConfig("convergence", "case1_sine", 3, **kw)
    with pytest.raises(ConfigError, match="levels: not read when elements_list is given"):
        RunConfig("convergence", "case1_sine", 3, levels=3, elements_list=(2, 4))
    with pytest.raises(ConfigError, match="elements: only valid in movemesh mode"):
        RunConfig("convergence", "case1_sine", 3, levels=3, elements_list=(2, 4), elements=8)
    for kw in ({"levels": 3}, {"elements_list": (2, 4)}):
        with pytest.raises(ConfigError, match=f"{next(iter(kw))}: only valid in convergence mode"):
            RunConfig("movemesh", "case2_tanh", 3, **kw)
    RunConfig("convergence", "case1_sine", 3, elements=32, elements_list=(2, 4), levels=4,
              monitor=MonitorSpec(), movemesh=MoveMeshConfig())
    RunConfig("movemesh", "case2_tanh", 3, elements=8, levels=4, elements_list=None)
    # the movemesh section a convergence run carries is the solver's default
    loose = LinearSolverSettings(tol=1e-6)
    RunConfig("convergence", "case1_sine", 3, solver=loose, movemesh=MoveMeshConfig(lin=loose))
    assert parse_config({**BASE_CONV, "solver": {"tol": 1e-6}}).solver == loose


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
    assert summary["converged"] is False and summary["stop_reason"] == "max_outer"
    # the final norms are those of the last trace row, bit for bit
    with open(out / "trace.csv") as fh:
        last = list(csv.DictReader(fh))[-1]
    assert {k: float(last[k]) for k in ("L2", "H1", "Linf")} == summary["final"]


def test_movemesh_run_ending_on_a_wrap_writes_its_artifacts(tmp_path, monkeypatch):
    from mmiga import movemesh
    from mmiga.errors import MeshWrapError

    def wrapping(*args, **kwargs):
        raise MeshWrapError("mesh update still folds (test)")

    monkeypatch.setattr(movemesh, "update_mesh", wrapping)
    doc = dict(BASE_MOVE)
    out = tmp_path / "out"
    assert run(_write(tmp_path, doc), out_dir=out, quiet=True) == 4
    with open(out / "trace.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1 and float(rows[0]["tau_used"]) == 0.0
    with open(out / "summary.json") as fh:
        summary = json.load(fh)
    assert summary["wrap_failure"] == "mesh update still folds (test)"
    assert summary["converged"] is False and summary["iterations"] == 1
    assert summary["stop_reason"] == "wrap"


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
    assert summary["converged"] is True and summary["stop_reason"] == "converged"
    assert summary["final"]["L2"] == pytest.approx(summary["initial"]["L2"])
    # one snapshot, written as both the initial and the final mesh
    assert (out / "mesh_initial.vtk").read_bytes() == (out / "mesh_final.vtk").read_bytes()
    assert not (out / "mesh_intermediate.vtk").exists()


def test_compare_linf_subcommand(tmp_path, capsys):
    # a zero error is a valid dividend
    for linf_a, ratio in ((0.5, 2.0), (0, 0.0)):
        for name, linf in (("a.json", linf_a), ("b.json", 0.25)):
            (tmp_path / name).write_text(json.dumps({"dofs": 100, "final": {"Linf": linf}}))
        code = main(["compare-linf", str(tmp_path / "a.json"), str(tmp_path / "b.json")])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["ratio"] == pytest.approx(ratio)


@pytest.mark.parametrize("linf_a, linf_b", [
    (0.5, 0), (0.5, "x"), (0.5, [1]), (0.5, True), (0.5, None), (0.5, -1.0), (0.5, float("nan")),
    ("x", 0.5), (True, 0.5), (float("inf"), 0.5),
])
def test_compare_linf_rejects_a_malformed_summary(tmp_path, capsys, linf_a, linf_b):
    # a divisor of 0, a value that is no finite number >= 0, and a JSON
    # boolean are malformed input, like a missing key
    for name, linf in (("a.json", linf_a), ("b.json", linf_b)):
        (tmp_path / name).write_text(json.dumps({"dofs": 100, "final": {"Linf": linf}}))
    code = main(["compare-linf", str(tmp_path / "a.json"), str(tmp_path / "b.json")])
    assert code == 2
    assert "config error: cannot read summary" in capsys.readouterr().err


def test_main_run_smoke(tmp_path):
    doc = dict(BASE_CONV)
    doc["levels"] = 2
    path = _write(tmp_path, doc)
    assert main(["run", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 0
