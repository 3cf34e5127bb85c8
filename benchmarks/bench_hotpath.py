"""Measure the serial hot path: wall clock per cell vs a golden baseline.

Runs the full two-app, five-level sweep (the data behind Tables 6/7 and
Figures 7/8) serially, renders every table and figure, and compares them
byte-for-byte against golden copies captured *before* the hot-path
optimizations.  Wall-clock per cell is compared against the baseline
walls recorded alongside the goldens, giving an honest speedup figure
for the same machine — or a clearly flagged non-comparison when the
baseline came from different hardware.

Workflow::

    # once, on the pre-optimization tree (already checked in):
    python benchmarks/bench_hotpath.py --write-golden

    # after any change to the request path:
    python benchmarks/bench_hotpath.py                  # full fidelity
    python benchmarks/bench_hotpath.py --duration 20 --warmup 5   # CI smoke

The script exits non-zero when any rendered table or figure differs from
its golden copy.  Speedup is *reported* always but *asserted* only with
``--require-speedup X``, and the assertion is skipped (with a structured
note in the report) when the run conditions make wall-clock comparisons
dishonest: an oversubscribed pool or a baseline recorded on a different
machine.
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
from repro.experiments.figures import build_figure, render_figure
from repro.experiments.progress import ProgressReporter
from repro.experiments.runner import run_cells
from repro.experiments.tables import build_table, render_table

APPS = ("petstore", "rubis")


def machine_info() -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
    }


def golden_prefix(golden_dir: Path, duration: float, warmup: float, seed: int) -> Path:
    return golden_dir / f"d{duration:g}_w{warmup:g}_s{seed}"


def render_artifacts(results) -> dict:
    """{app: {"table": text, "figure": text}} for one sweep's results."""
    artifacts = {}
    for app in APPS:
        series = {level: results[(app, level)] for level in PAPER_LEVELS}
        artifacts[app] = {
            "table": render_table(build_table(series)),
            "figure": render_figure(build_figure(series)),
        }
    return artifacts


def run_sweep(duration: float, warmup: float, seed: int, label: str):
    workload = default_workload(duration * 1000.0, warmup * 1000.0)
    cells = [(app, level) for app in APPS for level in PAPER_LEVELS]
    print(f"[{label}] serial sweep: {len(cells)} cells x {duration:g}s ...",
          file=sys.stderr)
    started = time.perf_counter()
    results = run_cells(
        cells, workload=workload, seed=seed, jobs=1,
        progress=ProgressReporter(len(cells), label=label),
    )
    total_wall = time.perf_counter() - started
    return results, total_wall


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--duration", type=float, default=150.0,
                        help="simulated seconds per cell (default %(default)s)")
    parser.add_argument("--warmup", type=float, default=40.0)
    parser.add_argument("--seed", type=int, default=2003)
    parser.add_argument("--golden-dir", default=str(Path(__file__).parent / "golden"))
    parser.add_argument("--write-golden", action="store_true",
                        help="record current output and walls as the golden baseline")
    parser.add_argument("--output", default="BENCH_hotpath.json")
    parser.add_argument("--require-speedup", type=float, default=None, metavar="X",
                        help="exit non-zero unless total speedup >= X "
                        "(skipped when conditions make the comparison dishonest)")
    args = parser.parse_args()

    golden_dir = Path(args.golden_dir)
    prefix = golden_prefix(golden_dir, args.duration, args.warmup, args.seed)

    results, total_wall = run_sweep(args.duration, args.warmup, args.seed,
                                    "golden" if args.write_golden else "sweep")
    artifacts = render_artifacts(results)
    cell_walls = {f"{app}:{int(level)}": round(r.wall_seconds, 3)
                  for (app, level), r in results.items()}

    if args.write_golden:
        prefix.mkdir(parents=True, exist_ok=True)
        for app in APPS:
            (prefix / f"{app}.table.txt").write_text(artifacts[app]["table"])
            (prefix / f"{app}.figure.txt").write_text(artifacts[app]["figure"])
        baseline = {
            "machine": machine_info(),
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "simulated_seconds_per_cell": args.duration,
            "warmup_seconds": args.warmup,
            "seed": args.seed,
            "total_wall_seconds": round(total_wall, 3),
            "per_cell_wall_seconds": cell_walls,
        }
        (prefix / "baseline.json").write_text(json.dumps(baseline, indent=2) + "\n")
        print(f"golden baseline written to {prefix}", file=sys.stderr)
        return 0

    # -- byte-identity against the golden artifacts ------------------------
    baseline_path = prefix / "baseline.json"
    if not baseline_path.exists():
        print(f"ERROR: no golden baseline at {prefix}; run with --write-golden "
              "on the reference tree first", file=sys.stderr)
        return 2
    baseline = json.loads(baseline_path.read_text())
    identical = True
    diffs = []
    for app in APPS:
        for kind in ("table", "figure"):
            golden_text = (prefix / f"{app}.{kind}.txt").read_text()
            if artifacts[app][kind] != golden_text:
                identical = False
                diffs.append(f"{app}.{kind}")

    # -- honest speedup conditions (structured, not prose) -----------------
    current_machine = machine_info()
    conditions = {
        "cpu_count": current_machine["cpu_count"],
        "jobs": 1,
        "pool_oversubscribed": False,  # serial run: one process, no pool
        "baseline_machine": baseline["machine"],
        "same_machine_as_baseline": (
            baseline["machine"]["cpu_count"] == current_machine["cpu_count"]
            and baseline["machine"]["platform"] == current_machine["platform"]
        ),
    }
    speedup_comparable = (
        conditions["same_machine_as_baseline"]
        and not conditions["pool_oversubscribed"]
    )

    baseline_walls = baseline["per_cell_wall_seconds"]
    per_cell = {
        cell: {
            "baseline_seconds": baseline_walls.get(cell),
            "current_seconds": wall,
            "speedup": (
                round(baseline_walls[cell] / wall, 3)
                if baseline_walls.get(cell) and wall > 0 else None
            ),
        }
        for cell, wall in cell_walls.items()
    }
    total_speedup = (
        round(baseline["total_wall_seconds"] / total_wall, 3) if total_wall > 0 else None
    )

    report = {
        "benchmark": "hot-path overhaul (serial two-app five-level sweep)",
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "machine": current_machine,
        "simulated_seconds_per_cell": args.duration,
        "warmup_seconds": args.warmup,
        "seed": args.seed,
        "cells": len(cell_walls),
        "tables_byte_identical": identical,
        "diverged_artifacts": diffs,
        "baseline_total_wall_seconds": baseline["total_wall_seconds"],
        "total_wall_seconds": round(total_wall, 3),
        "speedup": total_speedup,
        "speedup_comparable": speedup_comparable,
        "conditions": conditions,
        "per_cell": per_cell,
    }
    Path(args.output).write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))

    if not identical:
        print(f"ERROR: output diverged from golden: {', '.join(diffs)}",
              file=sys.stderr)
        return 1
    if args.require_speedup is not None:
        if not speedup_comparable:
            print(
                "NOTE: speedup assertion skipped — conditions are not "
                f"comparable: {json.dumps(conditions)}", file=sys.stderr,
            )
        elif total_speedup is None or total_speedup < args.require_speedup:
            print(
                f"ERROR: speedup {total_speedup} < required "
                f"{args.require_speedup}", file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
