"""Benchmark of kscontrol: one workload per process, end to end or traced.

    python3 bench/run.py --workload simulate-128 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ``src/``
through ``PYTHONPATH`` (it need not be installed).  The run builds its
inputs from ``--seed``, repeats whole operations for ``--seconds`` seconds,
checks the outputs and prints, as its last line, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` alternates untraced and
traced operations and reports the per-layer metrics, including the tracing
overhead.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer as tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_REPEATS = 11
IMPORT_PROBE = ("import time; t = time.perf_counter(); import kscontrol; "
                "print(repr(time.perf_counter() - t))")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("simulate-128", "gradient-64", "optimize-12"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def prepare_environment() -> None:
    """Single-threaded BLAS/OpenMP and ``src/`` on the path, before NumPy loads."""
    if "numpy" in sys.modules:
        raise RuntimeError("NumPy loaded before the thread counts were set")
    if not (SRC / "kscontrol" / "__init__.py").is_file():
        raise FileNotFoundError(f"no kscontrol sources under {SRC}")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    sys.path.insert(0, str(SRC))


def import_seconds() -> float:
    """Time ``import kscontrol`` in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT,
                          capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def machine_info() -> dict:
    import numpy

    info = {"python": platform.python_version(), "numpy": numpy.__version__,
            "cpu_count": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0))}
    try:  # os.sysconf lacks the cache names; getconf asks the C library
        conf = subprocess.run(["getconf", "-a"], capture_output=True, text=True,
                              timeout=10).stdout
    except OSError:
        conf = ""
    for line in conf.splitlines():
        key, _, value = line.partition(" ")
        if key in ("LEVEL1_DCACHE_SIZE", "LEVEL2_CACHE_SIZE", "LEVEL3_CACHE_SIZE"):
            info[key.lower()] = value.strip()
    return info


def layer_metrics(delta: dict, cells: int) -> dict:
    """Per-layer figures of one traced operation from the tracer's totals."""
    self_s, total_s, counts = delta["self_s"], delta["total_s"], delta["counts"]

    def ratio(a, b):
        return a / b if b else 0.0

    lap_calls = counts.get("mesh.laplacian.calls", 0)
    cg_solves = counts.get("linalg.cg.calls", 0)
    cg_iters = counts.get("linalg.cg.iters", 0)
    fwd_steps = counts.get("forward.steps", 0)
    fwd_sweeps = counts.get("forward.sweeps", 0)
    adj_steps = counts.get("adjoint.steps", 0)
    adj_sweeps = counts.get("adjoint.cg_solves", 0) // 2  # each inner sweep: eta then lam
    iterations = counts.get("optimize.iterations", 0)
    trials = counts.get("optimize.marches", 0) - counts.get("optimize.solve.calls", 0)
    op_s = total_s["bench.op"]
    return {
        "mesh.laplacian.calls": (lap_calls, "count"),
        "mesh.laplacian.self_s": (self_s.get("mesh.laplacian", 0.0), "s"),
        "mesh.laplacian.ns_per_cell": (1e9 * ratio(self_s.get("mesh.laplacian", 0.0),
                                                   lap_calls * cells), "ns/cell"),
        "mesh.flux.calls": (counts.get("mesh.flux.calls", 0), "count"),
        "mesh.flux.self_s": (self_s.get("mesh.flux", 0.0), "s"),
        "mesh.field2d.built": (counts.get("mesh.field2d.calls", 0), "count"),
        "mesh.field2d.self_s": (self_s.get("mesh.field2d", 0.0), "s"),
        "linalg.cg.solves": (cg_solves, "count"),
        "linalg.cg.iters": (cg_iters, "count"),
        "linalg.cg.iters_per_solve": (ratio(cg_iters, cg_solves), "iters/solve"),
        "linalg.cg.self_s": (self_s.get("linalg.cg", 0.0), "s"),
        "linalg.cg.apply_s": (total_s.get("linalg.cg.apply", 0.0), "s"),
        "linalg.cg.apply.self_s": (self_s.get("linalg.cg.apply", 0.0), "s"),
        "forward.solves": (counts.get("forward.calls", 0), "count"),
        "forward.steps": (fwd_steps, "count"),
        "forward.sweeps": (fwd_sweeps, "count"),
        "forward.sweeps_per_step": (ratio(fwd_sweeps, fwd_steps), "sweeps/step"),
        "forward.self_s": (self_s.get("forward", 0.0), "s"),
        "forward.total_s": (total_s.get("forward", 0.0), "s"),
        "adjoint.solves": (counts.get("adjoint.calls", 0), "count"),
        "adjoint.steps": (adj_steps, "count"),
        "adjoint.sweeps": (adj_sweeps, "count"),
        "adjoint.sweeps_per_step": (ratio(adj_sweeps, adj_steps), "sweeps/step"),
        "adjoint.self_s": (self_s.get("adjoint", 0.0), "s"),
        "adjoint.total_s": (total_s.get("adjoint", 0.0), "s"),
        "control.gradient.calls": (counts.get("control.gradient.calls", 0), "count"),
        "control.gradient.self_s": (self_s.get("control.gradient", 0.0), "s"),
        "optimize.iterations": (iterations, "count"),
        "optimize.trials": (trials, "count"),
        "optimize.trials_per_accept": (ratio(trials, iterations), "trials/accept"),
        "optimize.cost.self_s": (self_s.get("optimize.cost", 0.0), "s"),
        "optimize.solve.self_s": (self_s.get("optimize.solve", 0.0), "s"),
        "verify.monitor.self_s": (self_s.get("verify.monitor", 0.0), "s"),
        "io_cli.setup_s": (total_s.get("io_cli.setup", 0.0), "s"),
        "io_cli.snapshots": (counts.get("io_cli.write.calls", 0), "count"),
        "io_cli.bytes_written": (counts.get("io_cli.bytes_written", 0), "B"),
        "io_cli.write_s": (total_s.get("io_cli.write", 0.0), "s"),
        "io_cli.run.self_s": (self_s.get("io_cli.run", 0.0), "s"),
        "bench.self_s": (self_s["bench.op"], "s"),
        "trace.layers_self_share": (100.0 * ratio(op_s - self_s["bench.op"], op_s), "%"),
    }


def difference(after: dict, before: dict) -> dict:
    return {part: {k: v - before[part].get(k, 0) for k, v in after[part].items()}
            for part in after}


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        prepare_environment()
    except (FileNotFoundError, RuntimeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    import_s = [] if args.trace else [import_seconds() for _ in range(SETUP_REPEATS)]
    import kscontrol

    if not Path(kscontrol.__file__).resolve().is_relative_to(SRC):
        print(f"error: kscontrol imported from {kscontrol.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads

    info = machine_info()
    print("machine " + json.dumps(info))
    workdir = OUT / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, workloads.WORKLOADS[args.workload], workdir, import_s, info)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, wl, workdir: Path, import_s: list[float], info: dict) -> int:
    build_s = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        inputs = wl.build(args.seed, workdir)
        build_s.append(time.perf_counter() - t0)

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)

    op_s: list[float] = []      # untraced operations
    traced_s: list[float] = []  # traced operations
    deltas: list[dict] = []
    works: list[dict] = []
    fails: list[str] = []
    attempted = failed = 0
    first_result = None
    min_ops = 2 if tracer else 1
    t_start = time.perf_counter()

    def time_left() -> bool:
        # start an operation only if a typical one still fits in the window
        typical = statistics.median(op_s + traced_s) if op_s or traced_s else 0.0
        return time.perf_counter() - t_start + typical <= args.seconds

    while attempted < min_ops or time_left():
        traced = tracer is not None and attempted % 2 == 1
        attempted += 1
        before = tracer.snapshot() if traced else None
        try:
            if traced:
                tracer.start_op()
            t0 = time.perf_counter()
            try:
                result = wl.run(inputs)
            finally:
                elapsed = time.perf_counter() - t0
                if traced:
                    tracer.end_op()
        except Exception as err:  # a failed operation is counted, not fatal
            failed += 1
            print(f"operation {attempted - 1} failed: {type(err).__name__}: {err}")
            continue
        (traced_s if traced else op_s).append(elapsed)
        if traced:
            deltas.append(difference(tracer.snapshot(), before))
        works.append(wl.work(inputs, result))
        if first_result is None:
            first_result = result
            fails += wl.check(inputs, result)

    if works and any(w != works[0] for w in works):
        fails.append(f"work counts differ between operations: {works}")
    cells = wl.n * wl.n
    print(f"workload {wl.name} seed {args.seed}: {attempted} operations, {failed} failed; "
          f"work per operation {json.dumps(works[0] if works else None)}")
    print("operation seconds " + json.dumps([round(t, 4) for t in op_s + traced_s]))

    metrics: dict[str, dict] = {}
    if first_result is not None and not args.trace:
        solve_s = statistics.median(op_s)
        metrics = {
            "setup_s": {"value": statistics.median(import_s) + statistics.median(build_s),
                        "unit": "s"},
            "solve_s": {"value": solve_s, "unit": "s"},
            "cell_steps_per_s": {"value": wl.cell_steps(first_result) / solve_s,
                                 "unit": "cell-steps/s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }
    elif first_result is not None and deltas and op_s:
        per_op = [layer_metrics(d, cells) for d in deltas]
        for name, (_, unit) in per_op[0].items():
            values = [m[name][0] for m in per_op]
            if unit in ("count", "B") and any(v != values[0] for v in values):
                fails.append(f"{name} differs between traced operations: {values}")
            metrics[name] = {"value": statistics.median(values), "unit": unit}
        traced_median = statistics.median(traced_s)
        untraced_median = statistics.median(op_s)
        metrics["trace.solve_s"] = {"value": traced_median, "unit": "s"}
        metrics["trace.untraced_solve_s"] = {"value": untraced_median, "unit": "s"}
        metrics["trace.overhead_s"] = {"value": traced_median - untraced_median, "unit": "s"}
        OUT.mkdir(parents=True, exist_ok=True)
        tracer.dump(OUT / f"trace-{wl.name}-seed{args.seed}.jsonl",
                    {"workload": wl.name, "seed": args.seed, "machine": info,
                     "metrics": metrics})
    elif first_result is not None:
        fails.append("no traced operation paired with an untraced one succeeded")

    for msg in fails:
        print(f"CHECK FAILED: {msg}")
    print(json.dumps({"correct": not fails and first_result is not None,
                      "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
