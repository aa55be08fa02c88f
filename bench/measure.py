"""The benchmark's measurement loop and its per-cell records."""

from __future__ import annotations

import gc
import hashlib
import json
import statistics
import sys
import time
import traceback
from pathlib import Path

import calibrate
import workloads


def emit(record: dict) -> None:
    print(json.dumps(record), flush=True)


def solve_s(cell_s: list[list[float]]) -> float:
    """The sum over cells of each cell's median scaled time over the passes.
    Taking each cell's median first drops a pass's slow cells without
    dropping the pass."""
    return sum(statistics.median(times) for times in zip(*cell_s))


class Run:
    """Timed set-ups and passes of one workload, with every cell checked."""

    def __init__(self, workload, path: Path | None, seed: int):
        self.workload, self.path, self.seed = workload, path, seed
        self.setup = None
        self.checker = workloads.Checker()
        self.first: list | None = None
        self.attempted = 0
        self.failed = 0
        self.cell_ok = [True] * len(workload.cells)

    def timed_setup(self) -> tuple[float, float]:
        """One set-up: its wall time and its time scaled to the reference
        speed by the probes around it."""
        self.setup = None
        gc.collect()
        before = calibrate.probe()
        start = time.perf_counter()
        self.setup = self.workload.setup(self.path)
        wall = time.perf_counter() - start
        return wall, calibrate.scale(wall, before, calibrate.probe(wall))

    def timed_pass(self, run_cell) -> tuple[float, list[float]]:
        """One pass over the cells: the sum of their wall times, and each
        cell's time scaled by the probes right before and after it."""
        cells = self.workload.cells
        results = []
        wall = 0.0
        scaled = []
        gc.collect()
        before = calibrate.probe()
        for cell in cells:
            start = time.perf_counter()
            try:
                results.append(run_cell(self.setup, cell, self.seed))
            except Exception:
                traceback.print_exc()
                results.append(None)
            cell_s = time.perf_counter() - start
            after = calibrate.probe(cell_s)
            wall += cell_s
            scaled.append(calibrate.scale(cell_s, before, after))
            before = after
        ok = self.checker.check_pass(self.setup, cells, results)
        seen = [
            (r.iterations, workloads.digest(r)) if r is not None else None
            for r in results
        ]
        if self.first is None:
            self.first = seen
        for i, cell in enumerate(cells):
            if seen[i] != self.first[i]:
                print(f"{cell.label}: result differs between passes", file=sys.stderr)
                ok[i] = False
            self.cell_ok[i] = self.cell_ok[i] and ok[i]
        self.attempted += len(cells)
        self.failed += ok.count(False)
        return wall, scaled

    def measure(self, seconds: float, min_passes: int, run_cell, tracer=None) -> dict:
        """Alternate set-up and pass for ``seconds`` (at least ``min_passes``
        times), or until a pass has a failed cell.  Returns the time samples:
        per set-up its scaled and wall time (``setup_s``, ``setup_wall_s``),
        per pass the scaled time of each cell (``cell_s``) and the wall time
        of all cells (``solve_wall_s``); with a tracer, also its layer
        aggregates per set-up and per pass."""
        names = ("setup_s", "setup_wall_s", "cell_s", "solve_wall_s",
                 "setup_takes", "pass_takes")
        out = {name: [] for name in names}
        start = time.perf_counter()
        while not self.failed and (
            len(out["cell_s"]) < min_passes or time.perf_counter() - start < seconds
        ):
            wall, scaled = self.timed_setup()
            out["setup_wall_s"].append(wall)
            out["setup_s"].append(scaled)
            if tracer is not None:
                out["setup_takes"].append(tracer.take())
            wall, scaled = self.timed_pass(run_cell)
            out["solve_wall_s"].append(wall)
            out["cell_s"].append(scaled)
            if tracer is not None:
                out["pass_takes"].append(tracer.take())
        return out

    def iterations(self) -> int:
        return sum(entry[0] for entry in self.first if entry is not None)

    def report_cells(self) -> str:
        """Emit one record per cell; return a digest over all of them."""
        records = []
        for cell, entry, ok in zip(self.workload.cells, self.first, self.cell_ok):
            iterations, cell_digest = entry if entry is not None else (None, None)
            records.append({
                "cell": cell.label, "iterations": iterations,
                "digest": cell_digest, "ok": ok,
            })
        for record in records:
            emit(record)
        text = json.dumps([(r["cell"], r["iterations"], r["digest"]) for r in records])
        return hashlib.sha256(text.encode()).hexdigest()[:16]
