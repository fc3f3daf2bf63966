"""Bit-identity check of two source trees of mmiga.

    python3 tools/bitcheck.py SRC_A SRC_B

SRC_A and SRC_B are directories that hold the ``mmiga`` package, such as the
``src`` directories of two checkouts. The script runs one fixed battery of
computations once per tree, each in a fresh Python process with one BLAS
thread and that tree first on the import path, and hashes every result. It
prints each key whose hashes differ, or that only one tree produced, with how
far it moved, and exits 1 if there is any; else it prints the number of keys
compared and exits 0. How far a key moved is max |a - b| / max |a| for float
arrays (and floats) of equal shape, the worst such leaf of a nested result;
where the two results differ in length, or in a leaf that is not a float
array, both lengths or both values are printed instead.

The battery, 146 keys on fixed inputs (a comparison of two trees takes
about 4 s):

- moving-mesh runs on case2_tanh: the benchmark's ``case2_converge`` run
  (p=3, m=32, gradient monitor, to the stop tolerance); the Hessian,
  gradient-smoothed, Hessian-smoothed and combined monitors (p=3, m=16,
  8 outer iterations); acceptance criterion 7's run (p=2, m=32, gradient,
  15 iterations) and criterion 6's (p=3, m=32, Hessian, 6 iterations).
  Each keeps its trace (without the wall-clock ``cpu_seconds``), final net,
  solution, both map components, every snapshot, ``converged`` and
  ``wrap_failure``;
- ``solve_poisson`` coefficients and every ``error_norms`` field on
  case1_sine, C^2 cubics at m=16, 32 and 128 and C^0 cubics at m=16 and
  64, the sizes of the benchmark's sweeps where the grid contractions run
  by blocks;
- on a perturbed rational net, C^2 along u and C^0 along v: the geometry
  and a field on every fixed grid at orders 0-2 (the lattice at order 0),
  the field given the geometry's evaluation; a refit to moved nodes;
  ``boundary_values``; the stiffness as a dense array, whatever its sparse
  format, with no diffusion weight and with a random array of one, and the
  load vector;
- the stiffness, with no diffusion weight and with a callable one, on three
  more perturbed nets: rational with degree 2 along u and 3 along v; 2 x 2
  cubic elements, where two pairs of functions share one diagonal offset;
  and a square net with equal weights of 1.7, whose two directions share
  one knot vector;
- ``boundary_values`` on two perturbed nets whose rings move too, so
  their edges are curves, both with random weights: a non-square one of
  degree 2 along u and 3 along v, and one whose ring weights are all
  equal, so the quotient rule runs on edges of equal weights;
- the preconditioner's 1D factors on the first perturbed rational net
  and on a square C^0 net (p=3, m=16): the ``interior_eigen`` arrays
  ``U``, ``lam``, ``k`` and ``m`` of each direction's knot vector.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import subprocess
import sys
import tempfile
from dataclasses import fields

ONE_THREAD = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _feed(h, obj) -> None:
    """Feed a canonical byte form of ``obj`` to the hash ``h``."""
    import numpy as np

    if isinstance(obj, np.ndarray):
        a = np.ascontiguousarray(obj)
        h.update(f"array{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    elif isinstance(obj, (list, tuple)):
        h.update(f"seq{len(obj)}".encode())
        for x in obj:
            _feed(h, x)
    elif isinstance(obj, dict):
        h.update(f"map{len(obj)}".encode())
        for k in sorted(obj, key=repr):
            h.update(repr(k).encode())
            _feed(h, obj[k])
    elif isinstance(obj, (float, np.floating)):
        h.update(np.float64(obj).tobytes())
    else:
        h.update(repr(obj).encode())


def _digest(obj) -> str:
    h = hashlib.sha256()
    _feed(h, obj)
    return h.hexdigest()


def _net(g):
    return g.kv_u.knots, g.kv_v.knots, g.weights.w, g.control_points


def _runs(out: dict) -> None:
    from mmiga import cli, geometry, movemesh, splines

    prob = cli.manufacture_rhs("case2_tanh")
    problem = movemesh.PoissonProblem(prob.f, prob.bc, prob.exact)
    gradient = movemesh.MonitorSpec("gradient", alpha=0.1)
    hessian = movemesh.MonitorSpec("hessian", beta=0.01)
    runs = {
        "case2_converge": (3, 32, gradient, 50),
        "hessian": (3, 16, hessian, 8),
        "gradient_smoothed": (3, 16, movemesh.MonitorSpec("gradient", alpha=0.1, smoothing=1), 8),
        "hessian_smoothed": (3, 16, movemesh.MonitorSpec("hessian", beta=0.01, smoothing=1), 8),
        "combined": (3, 16, movemesh.MonitorSpec("combined", eps=1.0, alpha=0.05, beta=0.005), 8),
        "criterion_7": (2, 32, gradient, 15),
        "criterion_6": (3, 32, hessian, 6),
    }
    for name, (p, m, spec, max_outer) in runs.items():
        kv = splines.make_open_knot_vector(p, m, 1)
        g0 = geometry.build_identity_geometry(prob.domain, kv, kv)
        s = movemesh.move_mesh_solve(problem, g0, spec,
                                     movemesh.MoveMeshConfig(max_outer=max_outer))
        out[f"run.{name}.trace"] = [
            [getattr(t, f.name) for f in fields(t) if f.name != "cpu_seconds"] for t in s.trace]
        out[f"run.{name}.geometry"] = _net(s.geometry)
        out[f"run.{name}.solution"] = s.solution.values
        for k, xi in enumerate(s.xi):
            out[f"run.{name}.xi{k}"] = xi.values
        out[f"run.{name}.snapshots"] = [(it, _net(g), u.values) for it, g, u in s.snapshots]
        out[f"run.{name}.converged"] = s.converged
        out[f"run.{name}.wrap_failure"] = s.wrap_failure


def _solves(out: dict) -> None:
    from mmiga import assembly, cli, geometry, linalg, postproc, splines

    prob = cli.manufacture_rhs("case1_sine")
    lin = linalg.LinearSolverSettings(tol=1e-12)
    for label, m, mult in (("C2_m16", 16, 1), ("C2_m32", 32, 1), ("C0_m16", 16, 3),
                           ("C2_m128", 128, 1), ("C0_m64", 64, 3)):
        kv = splines.make_open_knot_vector(3, m, mult)
        g = geometry.build_identity_geometry(prob.domain, kv, kv)
        u = assembly.solve_poisson(g, prob.f, prob.bc, lin)
        out[f"poisson.{label}.solution"] = u.values
        rep = postproc.error_norms(g, u, prob.exact)
        for f in fields(rep):
            out[f"poisson.{label}.error_norms.{f.name}"] = getattr(rep, f.name)


def _rational_net(rng):
    """The perturbed rational net, C^2 along u and C^0 along v, drawn from
    ``rng``."""
    from mmiga import geometry, splines

    kv_u, kv_v = splines.make_open_knot_vector(3, 6, 1), splines.make_open_knot_vector(3, 5, 3)
    g0 = geometry.build_identity_geometry(geometry.Rectangle(0, 1, 0, 1), kv_u, kv_v)
    cp = g0.control_points.copy()
    cp[1:-1, 1:-1] += 0.02 * rng.uniform(-1, 1, size=cp[1:-1, 1:-1].shape)
    w = splines.TensorWeights(rng.uniform(0.7, 1.4, size=g0.shape))
    return geometry.NurbsGeometry(kv_u, kv_v, w, cp)


def _grids(out: dict) -> None:
    import numpy as np

    from mmiga import assembly, geometry

    rng = np.random.default_rng(7)
    g = _rational_net(rng)
    u = assembly.FieldCoefficients(rng.normal(size=g.ndof), g.shape)
    for grid, top in (("gauss", 2), ("error_gauss", 2), ("greville", 2), ("corners", 2),
                      ("lattice", 0)):
        t = geometry.fixed_basis(g, grid)
        for nders in range(top + 1):
            geo = geometry.eval_geometry_grid(g, t.u.pts, t.v.pts, nders)
            fg = assembly.eval_field_grid(g, u, t.u.pts, t.v.pts, nders, geo=geo)
            out[f"grid.{grid}.{nders}.geometry"] = (geo.points, geo.jac, geo.det, geo.second)
            out[f"grid.{grid}.{nders}.field"] = (fg.values, fg.grad, fg.hess)
    targets = geometry.mesh_nodes(g)
    targets[1:-1, 1:-1] += 0.003 * rng.uniform(-1, 1, size=targets[1:-1, 1:-1].shape)
    out["refit"] = geometry.refit_from_node_targets(g, targets).control_points
    out["boundary_values"] = assembly.boundary_values(g, lambda x, y: np.sin(3 * x) * np.exp(y))
    shape = (len(g.kv_u.gauss.pts), len(g.kv_v.gauss.pts))
    out["stiffness"] = assembly.assemble_weighted_stiffness(g).toarray()
    out["stiffness.weighted"] = assembly.assemble_weighted_stiffness(
        g, rng.uniform(0.5, 2.0, size=shape)).toarray()
    out["load"] = assembly.assemble_load(g, lambda x, y: np.cos(2 * x) * (1 + y * y))


def _stiffnesses(out: dict) -> None:
    import numpy as np

    from mmiga import assembly, geometry, splines

    rng = np.random.default_rng(11)
    square = splines.make_open_knot_vector(3, 5, 1)
    nets = {
        "mixed_degrees": (splines.make_open_knot_vector(2, 5, 1),
                          splines.make_open_knot_vector(3, 4, 1), "random"),
        "cubic_2x2": (splines.make_open_knot_vector(3, 2, 1),
                      splines.make_open_knot_vector(3, 2, 1), "random"),
        "square_equal": (square, square, "equal"),
    }
    for label, (kv_u, kv_v, weights) in nets.items():
        g0 = geometry.build_identity_geometry(geometry.Rectangle(0, 1, 0, 1), kv_u, kv_v)
        cp = g0.control_points.copy()
        cp[1:-1, 1:-1] += 0.02 * rng.uniform(-1, 1, size=cp[1:-1, 1:-1].shape)
        w = (rng.uniform(0.7, 1.4, size=g0.shape) if weights == "random"
             else np.full(g0.shape, 1.7))
        g = geometry.NurbsGeometry(kv_u, kv_v, splines.TensorWeights(w), cp)
        out[f"stiffness.{label}"] = assembly.assemble_weighted_stiffness(g).toarray()
        out[f"stiffness.{label}.weighted"] = assembly.assemble_weighted_stiffness(
            g, lambda x, y: 1.0 + x * x + 0.5 * np.sin(3.0 * y)).toarray()


def _edges(out: dict) -> None:
    import numpy as np

    from mmiga import assembly, geometry, splines

    rng = np.random.default_rng(13)
    nets = {
        "mixed_degrees": (splines.make_open_knot_vector(2, 7, 1),
                          splines.make_open_knot_vector(3, 4, 2)),
        "equal_on_ring": (splines.make_open_knot_vector(3, 5, 1),
                          splines.make_open_knot_vector(3, 6, 3)),
    }
    for label, (kv_u, kv_v) in nets.items():
        g0 = geometry.build_identity_geometry(geometry.Rectangle(0, 1, 0, 2), kv_u, kv_v)
        cp = g0.control_points + 0.03 * rng.uniform(-1, 1, size=g0.control_points.shape)
        w = rng.uniform(0.7, 1.4, size=g0.shape)
        if label == "equal_on_ring":
            w[geometry.boundary_mask(g0.shape)] = 1.3
        g = geometry.NurbsGeometry(kv_u, kv_v, splines.TensorWeights(w), cp)
        out[f"boundary_values.{label}"] = assembly.boundary_values(
            g, lambda x, y: np.sin(3 * x) * np.exp(y))


def _preconditioner_factors(out: dict) -> None:
    import numpy as np

    from mmiga import geometry, splines

    kv = splines.make_open_knot_vector(3, 16, 3)
    square = geometry.build_identity_geometry(geometry.Rectangle(0, 1, 0, 1), kv, kv)
    for label, g in (("rational", _rational_net(np.random.default_rng(7))), ("C0_m16", square)):
        for d, kv in (("u", g.kv_u), ("v", g.kv_v)):
            for name in ("U", "lam", "k", "m"):
                out[f"knots.{label}.{d}.interior_eigen.{name}"] = getattr(kv.interior_eigen, name)


def battery() -> dict:
    """Key -> every result of the battery, in this process."""
    out: dict = {}
    _runs(out)
    _solves(out)
    _grids(out)
    _stiffnesses(out)
    _edges(out)
    _preconditioner_factors(out)
    return out


def _results(src: str, path: str) -> dict:
    """The battery's results of the tree ``src``, from a fresh process that
    pickles them to ``path``."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src), **{k: "1" for k in ONE_THREAD})
    done = subprocess.run([sys.executable, os.path.abspath(__file__), "--battery", path],
                          env=env, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"battery failed on {src}:\n{done.stderr}")
    with open(path, "rb") as fh:
        return pickle.load(fh)


def _moved(a, b):
    """How far the result ``b`` moved from ``a``: the largest
    max |a - b| / max |a| over their float leaves, or the first pair of
    lengths or non-float values that differ, as text."""
    import numpy as np

    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        if len(a) != len(b):
            return f"lengths {len(a)} vs {len(b)}"
        worst = 0.0
        for x, y in zip(a, b):
            moved = _moved(x, y)
            if isinstance(moved, str):
                return moved
            worst = max(worst, moved)
        return worst
    fa, fb = np.asarray(a), np.asarray(b)
    if fa.shape != fb.shape:
        return f"shapes {fa.shape} vs {fb.shape}"
    if fa.dtype.kind == fb.dtype.kind == "f":
        diff, scale = np.abs(fa - fb).max(initial=0.0), np.abs(fa).max(initial=0.0)
        return diff / scale if scale > 0 else 0.0 if diff == 0 else float("inf")
    if np.array_equal(fa, fb):
        return 0.0
    return f"{a!r} vs {b!r}" if fa.ndim == 0 else f"{fa.dtype} arrays of shape {fa.shape}"


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "--battery":
        with open(argv[1], "wb") as fh:
            pickle.dump(battery(), fh)
        return 0
    if len(argv) != 2 or not all(os.path.isdir(os.path.join(a, "mmiga")) for a in argv):
        print("usage: python3 tools/bitcheck.py SRC_A SRC_B (directories that hold mmiga)",
              file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as scratch:
        res_a, res_b = (_results(src, os.path.join(scratch, f"{k}.pickle"))
                        for k, src in enumerate(argv))
    a, b = ({key: _digest(value) for key, value in res.items()} for res in (res_a, res_b))
    differ = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
    for key in differ:
        if key not in a or key not in b:
            print(f"differs: {key}  (only in {argv[0] if key in a else argv[1]})")
            continue
        moved = _moved(res_a[key], res_b[key])
        print(f"differs: {key}  ({moved if isinstance(moved, str) else f'{moved:.2e}'})")
    print(f"{len(differ)} of {len(a.keys() | b.keys())} keys differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
