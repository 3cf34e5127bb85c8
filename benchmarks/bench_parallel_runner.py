"""Measure the parallel experiment runner: serial vs process-pool wall clock.

Runs the full two-app, five-level sweep (the data behind Tables 6/7 and
Figures 7/8) once serially and once through the worker pool, verifies
the rendered tables are byte-identical, and writes the measurements to
``BENCH_parallel_runner.json`` in the repository root.

Because per-cell wall times vary widely (Pet Store centralized is ~10x
RUBiS async), the report also includes an LPT (longest-processing-time)
packing projection of the measured per-cell walls onto 2/4/8 workers —
the expected makespan on machines with more cores than the one that ran
this script.

Run:  python benchmarks/bench_parallel_runner.py [--duration 150] [--jobs N]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent.parent / "src"))

from repro.core.patterns import PAPER_LEVELS, PatternLevel
from repro.experiments.calibration import default_workload
from repro.experiments.parallel import default_jobs
from repro.experiments.progress import ProgressReporter
from repro.experiments.runner import run_cells
from repro.experiments.tables import build_table, render_table


def lpt_makespan(walls, workers):
    """Longest-processing-time-first packing: projected pool makespan."""
    loads = [0.0] * workers
    for wall in sorted(walls, reverse=True):
        loads[loads.index(min(loads))] += wall
    return max(loads)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--duration", type=float, default=150.0,
                        help="simulated seconds per cell (default %(default)s)")
    parser.add_argument("--warmup", type=float, default=40.0)
    parser.add_argument("--seed", type=int, default=2003)
    parser.add_argument("--jobs", type=int, default=None,
                        help="pool size for the parallel pass (default: CPUs)")
    parser.add_argument("--output", default="BENCH_parallel_runner.json")
    args = parser.parse_args()
    jobs = default_jobs() if args.jobs is None else max(1, args.jobs)
    workload = default_workload(args.duration * 1000.0, args.warmup * 1000.0)
    cells = [(app, level) for app in ("petstore", "rubis") for level in PAPER_LEVELS]

    print(f"[1/2] serial sweep: {len(cells)} cells ...", file=sys.stderr)
    started = time.perf_counter()
    serial = run_cells(
        cells, workload=workload, seed=args.seed, jobs=1,
        progress=ProgressReporter(len(cells), label="serial"),
    )
    serial_wall = time.perf_counter() - started

    print(f"[2/2] parallel sweep: {jobs} worker(s) ...", file=sys.stderr)
    started = time.perf_counter()
    parallel = run_cells(
        cells, workload=workload, seed=args.seed, jobs=jobs,
        progress=ProgressReporter(len(cells), label="parallel"),
    )
    parallel_wall = time.perf_counter() - started

    identical = True
    for app in ("petstore", "rubis"):
        serial_series = {lvl: serial[(app, lvl)] for lvl in PAPER_LEVELS}
        parallel_series = {lvl: parallel[(app, lvl)] for lvl in PAPER_LEVELS}
        if render_table(build_table(serial_series)) != render_table(
            build_table(parallel_series)
        ):
            identical = False

    cell_walls = {f"{app}:{int(lvl)}": round(r.wall_seconds, 3)
                  for (app, lvl), r in serial.items()}
    report = {
        "benchmark": "parallel experiment runner (two-app five-level sweep)",
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "machine": {
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "simulated_seconds_per_cell": args.duration,
        "cells": len(cells),
        "jobs": jobs,
        "serial_wall_seconds": round(serial_wall, 3),
        "parallel_wall_seconds": round(parallel_wall, 3),
        "speedup": round(serial_wall / parallel_wall, 3),
        "tables_byte_identical": identical,
        "per_cell_wall_seconds_serial": cell_walls,
        "projected_pool_makespan_seconds": {
            str(w): round(lpt_makespan(cell_walls.values(), w), 3)
            for w in (2, 4, 8)
        },
    }
    # Honest-comparison conditions, as data a dashboard can branch on
    # rather than a prose note a human has to parse.  When the pool is
    # oversubscribed the measured speedup is not meaningful; use
    # projected_pool_makespan_seconds (LPT packing of the measured
    # per-cell walls) for the expected multi-core makespan.
    cpus = os.cpu_count() or 1
    report["conditions"] = {
        "cpu_count": cpus,
        "jobs": jobs,
        "pool_oversubscribed": jobs > cpus,
        "speedup_comparable": jobs <= cpus,
    }
    Path(args.output).write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    if not identical:
        print("ERROR: serial and parallel tables differ", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
