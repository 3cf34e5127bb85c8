"""The repository's benchmark: one named workload, end-to-end or traced.

    python3 perfbench/run.py --workload paper-sweep --seed 2003 --seconds 40 --trace 0

Run from the repository root.  ``--trace 0`` repeats the workload for
``--seconds`` and measures the end-to-end metrics (host time, throughput,
memory); ``--trace 1`` runs one untraced and one traced pass and reports
where the host time went, layer by layer.  Either way the outputs are checked
for correctness, a readable report goes to stdout, and the last stdout
line is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {name: {"value": v, "unit": u}}}

See perfbench/README.md for the workloads, metrics and predictions.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Two passes of one seed are the least that can show nondeterminism.
MIN_PASSES = 2


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=2003,
                        help="workload seed (default: 2003, the golden seed)")
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="host-time budget for the measured passes (--trace 0)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(workload, seed: int, seconds: float) -> dict:
    """End-to-end metrics: passes of the workload until the budget is spent.

    Every pass runs the whole workload at the same seed.  Each host time
    is summed over cells of the cell's median across the passes, so a
    slow spell on the host that hits different cells in different passes
    is left out.
    """
    from workloads import LatencySink, check_pass, quantiles, run_pass, shape

    sink = LatencySink()
    started = time.perf_counter()
    passes, durations = [], []
    while len(passes) < MIN_PASSES or (
        time.perf_counter() - started + statistics.median(durations) <= seconds
    ):
        gc.collect()
        pass_started = time.perf_counter()
        passes.append(run_pass(workload, seed, sink))
        durations.append(time.perf_counter() - pass_started)

    def median_of(key: str) -> float:
        cells = range(len(passes[0].times))
        return sum(statistics.median(p.times[cell][key] for p in passes) for cell in cells)

    problems = [problem for each in passes for problem in check_pass(each)]
    if len({each.digest() for each in passes}) != 1:
        problems.append("simulated statistics differ between passes of one seed")
    sim_ms = quantiles(passes[0].samples)
    metrics = {
        "run_s": metric(median_of("run_s"), "s"),
        "setup_s": metric(median_of("setup_s"), "s"),
        "fetches_per_s": metric(passes[0].completed / median_of("sim_s"), "1/s"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        ),
    }
    report = {
        "passes": len(passes),
        **shape(passes[0]),
        "sim_p50_ms": sim_ms[49],
        "sim_p99_ms": sim_ms[98],
        "sim_samples": len(passes[0].samples),
    }
    return {
        "problems": problems,
        "attempted": sum(p.completed + p.failed for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": metrics,
        "report": report,
    }


def trace(workload, seed: int) -> dict:
    """Per-layer metrics from one traced pass, beside one untraced pass."""
    import test_tracer
    from layers import UNITS, install, layer_metrics
    from tracer import LayerTracer
    from workloads import LatencySink, check_pass, quantiles, run_pass, shape

    problems = test_tracer.run_all()
    sink = LatencySink()
    gc.collect()
    plain = run_pass(workload, seed, sink)
    tracer = LayerTracer()
    install(tracer)
    tracer.warn_missing()
    gc.collect()
    try:
        traced = run_pass(workload, seed, sink)
    finally:
        tracer.restore()

    for each in (plain, traced):
        problems.extend(check_pass(each))
    if plain.digest() != traced.digest():
        problems.append("tracing changed the simulated statistics")
    values = layer_metrics(tracer, traced.cells)
    wall = values["trace.sim_wall_s"]
    if abs(values["trace.unaccounted_s"]) > 1e-6 * max(wall, 1.0):
        problems.append(
            f"layer self times miss {values['trace.unaccounted_s']:.3g} s of the traced wall"
        )
    sim_ms = quantiles(traced.samples)
    attempted = traced.completed + traced.failed
    values.update({
        "fetches": traced.completed,
        "error_frac": traced.failed / attempted if attempted else 0.0,
        "sim_p50_ms": sim_ms[49],
        "sim_p99_ms": sim_ms[98],
        "sim_samples": len(traced.samples),
        "trace.overhead": fetches_per_s(plain) / fetches_per_s(traced),
    })
    return {
        "problems": problems,
        "attempted": sum(p.completed + p.failed for p in (plain, traced)),
        "failed": plain.failed + traced.failed,
        "metrics": {name: metric(values[name], unit) for name, unit in UNITS.items()},
        "report": shape(traced),
    }


def fetches_per_s(measured) -> float:
    return measured.completed / sum(t["sim_s"] for t in measured.times)


def print_report(name: str, seed: int, outcome: dict) -> None:
    print(f"perfbench workload {name} seed {seed}")
    for key, value in outcome["report"].items():
        print(f"  shape   {key:<28} {value}")
    for key, entry in outcome["metrics"].items():
        print(f"  metric  {key:<28} {entry['value']:.6g} {entry['unit']}")
    for problem in outcome["problems"]:
        print(f"  FAILED  {problem}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program's source is missing ({SRC / 'repro'}); "
              "run from a full checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.trace:
        outcome = trace(workload, args.seed)
    else:
        outcome = measure(workload, args.seed, args.seconds)
    print_report(workload.name, args.seed, outcome)
    print(json.dumps({
        "correct": not outcome["problems"],
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": outcome["metrics"],
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
