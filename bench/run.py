"""Benchmark of the mmiga Poisson solver and its moving-mesh loop.

Run from the repository root, without installing the package:

    python3 bench/run.py --workload k_sweep --seed 1 --seconds 30 --trace 0

One process runs one workload (``k_sweep``, ``hp_sweep`` or
``case2_converge``, see ``workloads.py``) in whole units until the next unit
would end after ``--seconds``; every run does at least one unit.

``--trace 0`` reports the end-to-end metrics named in ``BENCHMARK.json``:
the median wall time of a unit, the median set-up time of fresh
interpreters, the process's peak resident memory and the L2 error.
``--trace 1`` alternates an untraced and a traced unit and reports the
per-layer metrics (self times and counts of the library functions in
``tracing.TRACED``) and the tracing overhead.

The inputs are the paper's fixed problems; ``--seed`` is recorded but
selects nothing. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; a fuller record, and
the spans of a traced run, go to ``bench/out/``.
"""

import os

# one BLAS thread, set before numpy loads: a second thread costs CPU time
# and gains no wall time on these problem sizes
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 3  # fresh interpreters timed per run for setup_s
PROBE_FLAG = "--setup-probe"


def _use_checkout_sources() -> None:
    """Import mmiga from this checkout's ``src``, never from an install."""
    if not (SRC / "mmiga" / "__init__.py").is_file():
        sys.exit(f"bench/run.py: no mmiga sources at {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))


def _setup_probe(name: str) -> None:
    """Child process: import the library, build the workload's inputs, and
    print the monotonic clock (shared with the parent) once they are ready."""
    _use_checkout_sources()
    import workloads

    workloads.WORKLOADS[name].setup()
    print(repr(time.perf_counter()))


def _setup_seconds(name: str) -> float:
    t0 = time.perf_counter()
    child = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), PROBE_FLAG, name],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=False,
    )
    if child.returncode != 0:
        sys.exit(f"bench/run.py: set-up probe failed:\n{child.stderr}")
    return float(child.stdout.strip().splitlines()[-1]) - t0


def _blas_threads():
    """Threads of the OpenBLAS that numpy loaded, or None if not found."""
    import ctypes

    import numpy  # noqa: F401  (loads the BLAS)

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _environment(seed: int) -> dict:
    import numpy
    import scipy

    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30, check=False)
        if git.returncode == 0:
            sha = git.stdout.strip()
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": _blas_threads(),
        "cpus": os.cpu_count(),
        "seed": seed,
    }


def _median_dict(dicts: list[dict]) -> dict:
    keys = {k for d in dicts for k in d}
    return {k: statistics.median(d.get(k, 0) for d in dicts) for k in keys}


def _layer_figures(tracer, root: int) -> dict:
    """Self time per traced name (and the benchmark's own spans together as
    ``bench``) in the subtree under ``root``."""
    by_name = tracer.self_by_name(root)
    out = {"bench": sum(t for n, t in by_name.items() if n.startswith("bench."))}
    out.update({n: t for n, t in by_name.items() if not n.startswith("bench.")})
    return out


def _run_units(wl, seconds: float, traced: bool):
    """Run whole units until the next would end after ``seconds``.

    Returns the untraced walls, the peak resident memory after the first
    unit, the traced-unit figures, the l2 errors, the failures of every
    operation, and the per-level figures and spans of the last traced unit.
    Later units reuse heap the first one left behind, so only the first
    unit's peak is what a user of one sweep or one run would see.
    """
    import tracing

    walls, traced_units, l2s, failures = [], [], [], []
    levels, spans, peak_mb = {}, None, None
    begin = time.perf_counter()
    while True:
        gc.collect()  # every unit starts from the same collector state
        t0 = time.perf_counter()
        result = wl.unit(lambda name: nullcontext())
        walls.append(time.perf_counter() - t0)
        if peak_mb is None:
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        l2, fails = wl.check(result)
        l2s.append(l2)
        failures.extend(fails)
        last = walls[-1]
        if traced:
            gc.collect()
            tracer = tracing.Tracer()
            with tracing.traced_library(tracer), tracer.span("bench.unit"):
                result = wl.unit(tracer.span)
            wall_t = tracer.ends[0] - tracer.starts[0]
            l2, fails = wl.check(result)
            failures.extend(fails)
            figures = {f"{n}.self_s": t for n, t in _layer_figures(tracer, 0).items()}
            figures.update(tracer.counts)
            figures["trace.wall_s"] = wall_t
            figures["trace.overhead_s"] = wall_t - walls[-1]
            figures["trace.spans"] = len(tracer.names)
            figures["trace.self_sum_s"] = sum(tracer.self_times())
            traced_units.append(figures)
            levels = {tracer.names[i]: _layer_figures(tracer, i)
                      for i, p in enumerate(tracer.parents) if p == 0}
            spans = tracer.dump()
            last += wall_t
        if time.perf_counter() - begin + last > seconds:
            return walls, peak_mb, traced_units, l2s, failures, levels, spans


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == [PROBE_FLAG]:
        _setup_probe(argv[1])
        return 0
    _use_checkout_sources()
    import tracing
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wl = workloads.WORKLOADS[args.workload]
    traced = args.trace == 1

    setups = [] if traced else [_setup_seconds(args.workload) for _ in range(SETUP_PROBES)]
    env = _environment(args.seed)
    print("# env " + json.dumps(env), flush=True)
    walls, peak_mb, traced_units, l2s, failures, levels, spans = _run_units(
        wl, args.seconds, traced)

    failed = sum(1 for f in failures if f)
    # an operation that raised is only failed; one that returned a wrong
    # result also makes the run incorrect
    correct = not any(msg for f in failures for msg in f
                      if not msg.startswith(workloads.RAISED))
    finite_l2 = [e for e in l2s if math.isfinite(e)]  # a raised level has no error
    values = {
        "wall_s": statistics.median(walls),
        "l2_err": statistics.median(finite_l2) if finite_l2 else math.inf,
        "peak_rss_mb": peak_mb,
    }
    if setups:
        values["setup_s"] = statistics.median(setups)
    if traced:
        med = _median_dict(traced_units)
        values.update(med)
        # trace.overhead_s, a paired wall difference, is swamped by host
        # speed drift; this estimate times the wrapper itself
        values["trace.span_overhead_s"] = tracing.span_cost() * med["trace.spans"]
        # self times partition the traced wall; a gap means a lost span
        if abs(med["trace.self_sum_s"] - med["trace.wall_s"]) > 1e-6:
            print(f"# self times sum to {med['trace.self_sum_s']:.6f} s, traced wall "
                  f"{med['trace.wall_s']:.6f} s")
            correct = False

    wanted = spec["per_layer"] if traced else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        # a per-layer name absent from the trace is a function this workload never called
        value = values.get(m["name"], 0) if traced else values[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"# {m['name']} = {metrics[m['name']]['value']:.6g} {m['unit']}")
    for i, f in enumerate(failures):
        for msg in f:
            print(f"# FAILED operation {i}: {msg}")
    if levels:
        print("# self time under each top-level span of the last traced unit, s")
        for level, figs in levels.items():
            top = sorted(figs.items(), key=lambda kv: -kv[1])
            print(f"#   {level}: " + ", ".join(f"{n} {t:.4f}" for n, t in top if t >= 1e-3))

    result = {"correct": correct, "attempted": len(failures), "failed": failed,
              "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"env": env, "args": vars(args), "result": result, "unit_walls_s": walls,
              "setup_s": setups, "traced_units": traced_units, "levels": levels,
              "failures": failures}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if spans is not None:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(spans) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
