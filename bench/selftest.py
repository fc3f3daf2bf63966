"""Fast self-test of the benchmark: every output check must reject a wrong
result, the span arithmetic must partition a traced wall, and the traced
wrappers must record library calls and then get out of the way.

    python3 bench/selftest.py

Exits 0 when every case passes; runs in a few seconds.
"""

from __future__ import annotations

import copy
import dataclasses
import sys
from contextlib import nullcontext
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402


def _k_levels():
    """Today's k-sweep figures, as the library and the reference give them."""
    rows = [(16, 361, 1.616e-7, 8.188e-6), (32, 1225, 1.0375e-8, 1.0509e-6),
            (64, 4489, 6.582e-10, 1.3328e-7), (128, 17161, 4.1475e-11, 1.6787e-8)]
    return [W.Level(m, d, l2, h1, l2 * 1.001, h1 * 0.999) for m, d, l2, h1 in rows]


def _check_k(levels):
    k = W.WORKLOADS["k_sweep"]
    return W.check_sweep(levels, k.ms, k.dofs_of, k.paper, k.paper_factor, k.min_l2_order,
                         k.min_h1_order)


def _good_move():
    return W.MoveRun(converged=True, wrap_failure=None, final_defect=1.32e-4,
                     trace_min_jacobians=[0.9, 0.3, 0.056], l2=1.3713e-2,
                     l2_initial_ref=5.86e-2, l2_final_ref=1.3710e-2, min_det_ref=0.05,
                     outer_iters=41)


def case_sweep_accepts_todays_figures():
    assert not any(_check_k(_k_levels())), _check_k(_k_levels())


def case_sweep_rejects_wrong_results():
    bad = {}
    lv = _k_levels()
    lv[0].l2 *= 2.0  # doubled L2 at 361 dofs: off the paper and off the reference
    bad["doubled L2"] = lv
    lv = _k_levels()
    for x in lv:  # doubled consistently: the reference still disagrees
        x.l2 *= 2.0
    bad["doubled L2 everywhere"] = lv
    lv = _k_levels()
    lv[1], lv[2] = lv[2], lv[1]
    bad["swapped levels"] = lv
    lv = _k_levels()
    lv[3].l2, lv[3].l2_ref = lv[2].l2 / 8.0, lv[2].l2 / 8.0  # third order only
    bad["L2 order 3"] = lv
    lv = _k_levels()
    lv[2].h1, lv[2].h1_ref = lv[1].h1 / 4.0, lv[1].h1 / 4.0
    bad["H1 order 2"] = lv
    lv = _k_levels()
    lv[3].h1 *= 1.5
    bad["H1 off the reference"] = lv
    lv = _k_levels()
    lv[2] = W.Level(64, 0, np.nan, np.nan, np.nan, np.nan, "SolverError: boom")
    bad["raised"] = lv
    for name, levels in bad.items():
        fails = _check_k(levels)
        assert any(fails), f"{name}: accepted"
    fails = _check_k(bad["raised"])
    assert fails[2][0].startswith(W.RAISED), fails


def case_hp_paper_factor():
    hp = W.WORKLOADS["hp_sweep"]
    rows = [(16, 2401, 6.1337e-8, 4.7802e-6), (32, 9409, 3.869e-9, 5.956e-7),
            (64, 37249, 2.4298e-10, 7.43e-8)]
    levels = [W.Level(m, d, l2, h1, l2, h1) for m, d, l2, h1 in rows]
    args = (hp.ms, hp.dofs_of, hp.paper, hp.paper_factor, hp.min_l2_order, hp.min_h1_order)
    assert not any(W.check_sweep(levels, *args))
    far = copy.deepcopy(levels)
    for x in far:  # every level 4x worse: orders hold, the paper's table does not
        x.l2 *= 4.0
        x.l2_ref *= 4.0
    assert W.check_sweep(far, *args)[0], "4x the paper's L2 accepted"


def case_move_accepts_todays_run():
    assert W.check_move(_good_move()) == [], W.check_move(_good_move())


def case_move_rejects_wrong_results():
    wrong = {
        "converged=False": {"converged": False},
        "wrap": {"wrap_failure": "mesh update still folds"},
        "defect above tolerance": {"final_defect": 2e-4},
        "folded trace entry": {"trace_min_jacobians": [0.9, -1e-3, 0.05]},
        "empty trace": {"trace_min_jacobians": []},
        "folded final mesh": {"min_det_ref": -1e-4},
        "no L2 gain": {"l2_final_ref": 0.04, "l2": 0.04},
        "doubled L2": {"l2": 2 * 1.3713e-2},
    }
    for name, change in wrong.items():
        run = dataclasses.replace(_good_move(), **change)
        assert W.check_move(run), f"{name}: accepted"
    _, fails = W.WORKLOADS["case2_converge"].check((None, None, "MeshWrapError: boom"))
    assert fails[0][0].startswith(W.RAISED), fails


def case_self_times_partition_the_root():
    clock = iter(float(t) for t in range(100))
    real = tracing.time.perf_counter
    tracing.time.perf_counter = lambda: next(clock)
    try:
        tr = tracing.Tracer()
        with tr.span("root"):           # 0 .. 9
            with tr.span("a"):          # 1 .. 6
                with tr.span("a1"):     # 2 .. 3
                    pass
                with tr.span("a2"):     # 4 .. 5
                    pass
            with tr.span("b"):          # 7 .. 8
                pass
    finally:
        tracing.time.perf_counter = real
    own = dict(zip(tr.names, tr.self_times()))
    assert own == {"root": 9 - 5 - 1, "a": 5 - 1 - 1, "a1": 1, "a2": 1, "b": 1}, own
    assert sum(tr.self_times()) == tr.ends[0] - tr.starts[0]
    assert tr.subtree(1) == {1, 2, 3}
    assert tr.self_by_name(1) == {"a": 3, "a1": 1, "a2": 1}


def case_traced_library_records_and_restores():
    from mmiga import assembly, cli, geometry, linalg, movemesh, splines

    before = (assembly.assemble_weighted_stiffness, movemesh.assemble_weighted_stiffness,
              assembly.cg_solve, geometry.basis_matrix)
    prob = cli.manufacture_rhs("case1_sine")
    kv = splines.make_open_knot_vector(3, 4, 1)
    g = geometry.build_identity_geometry(prob.domain, kv, kv)
    tr = tracing.Tracer()
    with tracing.traced_library(tr), tr.span("bench.unit"):
        assert movemesh.assemble_weighted_stiffness is not before[1]
        assembly.solve_poisson(g, prob.f, prob.bc, linalg.LinearSolverSettings(tol=1e-12))
    after = (assembly.assemble_weighted_stiffness, movemesh.assemble_weighted_stiffness,
             assembly.cg_solve, geometry.basis_matrix)
    assert all(a is b for a, b in zip(before, after)), "wrappers left in place"
    assert tr.counts["assembly.assemble_weighted_stiffness.calls"] == 1
    assert tr.counts["linalg.cg_solve.calls"] == 1 and tr.counts["linalg.cg_solve.iters"] > 0
    assert tr.counts["splines.basis_matrix.points"] > 0
    assert abs(sum(tr.self_times()) - (tr.ends[0] - tr.starts[0])) < 1e-9
    assert all(p < i for i, p in enumerate(tr.parents))


def case_reference_reproduces_a_linear_field():
    from mmiga import geometry, splines
    from mmiga.geometry import Rectangle

    kv = splines.make_open_knot_vector(3, 5, 1)
    g = geometry.build_identity_geometry(Rectangle(-1, 2, 0, 1), kv, kv)
    x, y = g.control_points[..., 0], g.control_points[..., 1]
    coeffs = 2.0 * x - 3.0 * y + 0.5  # linear precision: the field is exactly 2x - 3y + 0.5
    exact = (lambda x, y: 2.0 * x - 3.0 * y + 0.5, lambda x, y: 2.0 + 0 * x,
             lambda x, y: -3.0 + 0 * y)
    l2, h1 = reference.error_norms(kv.knots, kv.knots, 3, 3, g.weights.w, g.control_points,
                                   coeffs, exact)
    assert l2 < 1e-12 and h1 < 1e-11, (l2, h1)
    assert abs(reference.min_det(kv.knots, kv.knots, 3, 3, g.weights.w,
                                 g.control_points) - 3.0) < 1e-12


def case_unit_and_check_run_end_to_end():
    sweep = W.Sweep(1, (4, 8), {}, 1.0, 3.5, 2.5)
    l2, fails = sweep.check(sweep.unit(lambda name: nullcontext()))
    assert l2 > 0 and not any(fails), fails


CASES = [v for k, v in sorted(globals().items()) if k.startswith("case_")]


def main() -> int:
    if not __debug__:
        sys.exit("selftest.py: the cases are asserts; run without -O")
    failed = 0
    for case in CASES:
        try:
            case()
            print(f"ok    {case.__name__}")
        except AssertionError as exc:
            failed += 1
            print(f"FAIL  {case.__name__}: {exc}")
    print(f"{len(CASES) - failed} passed, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
