"""In-memory span recorder and the wrappers that feed it.

A traced unit replaces each function in ``TRACED`` with a wrapper in every
``mmiga`` module namespace that holds it, so calls made from inside the
library (``movemesh`` calling ``assemble_weighted_stiffness``, ``geometry``
calling ``basis_matrix``) are recorded too. Each span keeps its name, start,
end and parent; self time is a span's duration minus that of its children.
Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# module -> functions wrapped in a traced unit. The per-point scalar
# functions (eval_basis, find_span) are left out on purpose: they run once
# per tabulated point, about 530k times per moving-mesh run, and their
# wrappers would swamp the trace.
TRACED = {
    "splines": ("basis_matrix",),
    "geometry": ("eval_geometry_grid", "rational_grid_sums", "refit_from_node_targets",
                 "min_jacobian"),
    "assembly": ("assemble_weighted_stiffness", "assemble_load", "apply_dirichlet",
                 "eval_field_grid"),
    "linalg": ("cg_solve", "banded_solve"),
    "movemesh": ("init_logical_mesh", "monitor_grid", "solve_harmonic_map", "compute_movement",
                 "update_mesh", "move_mesh_solve"),
    "postproc": ("error_norms",),
}


def _basis_points(args, kwargs, result):
    pts = kwargs["pts"] if "pts" in kwargs else args[1]
    return {"splines.basis_matrix.points": int(np.atleast_1d(pts).shape[0])}


def _cg_iters(args, kwargs, result):
    return {"linalg.cg_solve.iters": int(result[1])}


def _tau_halvings(args, kwargs, result):
    tau = kwargs["tau"] if "tau" in kwargs else args[2]
    return {"movemesh.tau_halvings": int(round(math.log2(float(tau) / result[1])))}


def _outer_iters(args, kwargs, result):
    return {"movemesh.outer_iters": len(result.trace)}


# counts taken from a call's arguments or result, keyed by the wrapped
# function's qualified name; every wrapped function also counts its calls
COUNTERS = {
    "splines.basis_matrix": _basis_points,
    "linalg.cg_solve": _cg_iters,
    "movemesh.update_mesh": _tau_halvings,
    "movemesh.move_mesh_solve": _outer_iters,
}


class Tracer:
    """Spans of one traced unit: (name, start, end, parent index)."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(math.nan)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            self.counts[name + ".calls"] += 1
            if counter is not None:
                for key, val in counter(args, kwargs, result).items():
                    self.counts[key] += val
            return result

        return traced

    def self_times(self) -> list[float]:
        """Per-span duration minus the durations of its direct children."""
        own = [e - s for s, e in zip(self.starts, self.ends)]
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.ends[idx] - self.starts[idx]
        return own

    def self_by_name(self, root: int | None = None) -> dict[str, float]:
        """Self time summed per span name, over all spans or one subtree."""
        keep = None if root is None else self.subtree(root)
        out: dict[str, float] = defaultdict(float)
        for idx, t in enumerate(self.self_times()):
            if keep is None or idx in keep:
                out[self.names[idx]] += t
        return dict(out)

    def subtree(self, root: int) -> set[int]:
        keep = {root}
        for idx in range(root + 1, len(self.names)):
            if self.parents[idx] in keep:
                keep.add(idx)
        return keep

    def dump(self) -> dict:
        return {
            "names": self.names,
            "start": self.starts,
            "end": self.ends,
            "parent": self.parents,
            "counts": dict(self.counts),
        }


def span_cost(calls: int = 20000) -> float:
    """Seconds a traced call adds to a bare one, timed on a no-op."""

    def noop():
        return None

    traced = Tracer().wrap("noop", noop)
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    t1 = time.perf_counter()
    for _ in range(calls):
        traced()
    t2 = time.perf_counter()
    return max((t2 - t1) - (t1 - t0), 0.0) / calls


@contextmanager
def traced_library(tracer: Tracer):
    """Swap every function in ``TRACED`` for its traced wrapper, in every
    loaded ``mmiga`` module that looks it up, and restore them on exit."""
    wrappers = {}  # id of the original function -> (original, wrapper)
    for mod_name, fns in TRACED.items():
        owner = sys.modules[f"mmiga.{mod_name}"]
        for fn_name in fns:
            fn = getattr(owner, fn_name)
            wrappers[id(fn)] = (fn, tracer.wrap(f"{mod_name}.{fn_name}", fn))
    patched = []
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "mmiga" and not mod_name.startswith("mmiga."):
            continue
        for attr, val in list(vars(module).items()):
            entry = wrappers.get(id(val))
            if entry is not None and entry[0] is val:
                setattr(module, attr, entry[1])
                patched.append((module, attr, val))
    try:
        yield
    finally:
        for module, attr, val in patched:
            setattr(module, attr, val)
