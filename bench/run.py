"""Benchmark of the robustdp solvers: end-to-end metrics, or per-layer
metrics with ``--trace 1``.

Run from the repository root:

    python3 bench/run.py --workload paper --seed 1 --seconds 32 --trace 0

The program under test is imported from ``src/`` next to this directory and
from nowhere else.  For ``--seconds`` seconds (and at least ``MIN_PASSES``
times) a run alternates one timed set-up of the workload with one timed pass
over its fixed list of solver cells.  Each set-up and each cell is timed
between two probes of machine speed, and its wall time is scaled to the
probe's reference speed (see ``calibrate.py``), because the shared host's
speed drifts by 20-30 % over tens of seconds.  ``setup_s`` is the median
scaled set-up time, ``solve_s`` the sum over cells of each cell's median
scaled time.  Every cell of every pass is checked; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Earlier lines record the machine and library
versions, every timing sample (scaled, and wall times), and per cell the
iterations and a digest of the policy and worst-case rows, so that a speed
change can show its behaviour is unchanged.

With ``--trace 1`` the first half of the time is measured untraced and the
second half traced; ``trace.overhead`` is the ratio of their ``solve_s``.

BLAS is pinned to one thread before numpy is first imported: on a small
machine threaded OpenBLAS makes the same dense solve vary by two orders of
magnitude between processes, depending on what the other cores are doing.
All workloads run in this one process, with no worker pool.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space for generated inputs, inside the checkout (git-ignored).
WORKDIR = ROOT / ".bench_work"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("paper", "wide", "dense")
MIN_PASSES = 3
SAMPLE_NAMES = ("setup_s", "setup_wall_s", "cell_s", "solve_wall_s")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="one tiny cell per workload and a single pass")
    return p.parse_args(argv)


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


def median(values) -> float:
    return float(statistics.median(values))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def generate_input(workload, seed: int, smoke: bool) -> Path | None:
    """Write the workload's input file, if it has one, from a child process,
    so that the generator's memory does not count in this process's peak
    RSS.  The child has ended when this returns."""
    path = workload.input_path(seed, WORKDIR)
    if path is None:
        return None
    WORKDIR.mkdir(exist_ok=True)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(HERE))))
    subprocess.run(
        [sys.executable, "-c",
         "import sys, workloads; workloads.write_input(*sys.argv[1:])",
         workload.name, "1" if smoke else "0", str(seed), str(path)],
        env=env, check=True, timeout=150,
    )
    return path


def traced_metrics(run, seconds: float, min_passes: int, untraced: dict):
    """Install the layer wrappers, measure under them, and return the
    per-layer metrics and the traced samples."""
    import tracing
    import workloads
    from measure import solve_s

    tracer = tracing.Tracer()
    missing = tracer.install()
    if missing:
        print(f"not traced (no longer in the program): {missing}", file=sys.stderr)
    traced_run_cell = tracer.wrap(tracing.CELL_LAYER, workloads.run_cell)
    traced = run.measure(seconds, min_passes, traced_run_cell, tracer)
    metrics = tracing.layer_metrics(traced["setup_takes"], traced["pass_takes"])
    coverage = median([
        sum(s for layer, (s, _) in take["layers"].items()
            if layer not in tracing.SETUP_LAYERS) / elapsed
        for take, elapsed in zip(traced["pass_takes"], traced["solve_wall_s"])
    ])
    metrics["trace.overhead"] = (
        solve_s(traced["cell_s"]) / solve_s(untraced["cell_s"]), "ratio")
    metrics["trace.coverage"] = (coverage, "ratio")
    return metrics, {"traced_" + name: traced[name] for name in SAMPLE_NAMES}


def main(argv=None) -> int:
    args = parse_args(argv)
    if "numpy" in sys.modules:
        print("numpy was imported before BLAS threads could be pinned", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(SRC), str(HERE)]
    try:
        import robustdp
        import workloads
        from measure import Run, emit, solve_s
    except ImportError as e:
        print(f"cannot import the program from {SRC}: {e}", file=sys.stderr)
        return 2
    if not Path(robustdp.__file__).resolve().is_relative_to(SRC):
        print(f"robustdp was imported from {robustdp.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload](args.smoke)
    min_passes = 1 if args.smoke else MIN_PASSES
    emit({"env": environment(), "workload": args.workload, "seed": args.seed,
          "seconds": args.seconds, "trace": args.trace, "cells": len(workload.cells)})

    path = generate_input(workload, args.seed, args.smoke)
    try:
        run = Run(workload, path, args.seed)
        seconds = args.seconds / 2 if args.trace else args.seconds
        untraced = run.measure(seconds, min_passes, workloads.run_cell)
        samples = {name: untraced[name] for name in SAMPLE_NAMES}
        if args.trace:
            metrics, traced = traced_metrics(run, seconds, min_passes, untraced)
            samples.update(traced)
        else:
            metrics = {
                "setup_s": (median(untraced["setup_s"]), "s"),
                "solve_s": (solve_s(untraced["cell_s"]), "s"),
                "iterations": (run.iterations(), "count"),
                "peak_rss_mb": (peak_rss_mb(), "MB"),
                "pass_frac": (1.0 - run.failed / run.attempted, "ratio"),
            }
    finally:
        if path is not None:
            path.unlink(missing_ok=True)
            try:
                WORKDIR.rmdir()
            except OSError:
                pass
    run_digest = run.report_cells()
    emit({"samples": samples, "run_digest": run_digest})
    emit({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    })
    return 0


if __name__ == "__main__":
    sys.exit(main())
