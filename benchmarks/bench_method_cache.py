"""Benchmark transactional method caching (level 6) against level 5.

Two independent gates, one report:

1. **Result identity.**  On a freshly deployed level-6 RUBiS system,
   every annotated cacheable method is invoked twice on an edge
   container.  The first call misses and executes through the real
   replica/JDBC path — that result is ground truth.  The second call
   must be served from the method cache and be deeply equal to it:
   caching may never change what a method returns.

2. **Read-page latency.**  The L5 and L6 cells run the paper's
   closed-loop workload at reduced fidelity; the report compares the
   remote-browser mean per read page (the pages the annotated methods
   serve) and gates on the aggregate improvement — a level-6 deployment
   must not regress the read path it exists to accelerate.

Workflow::

    python benchmarks/bench_method_cache.py                  # full fidelity
    python benchmarks/bench_method_cache.py --duration 60 --warmup 10 --jobs 2

Exits non-zero when any cache-served result differs from its direct
execution, when level 6 records no cache hits, or when the aggregate
read-page improvement falls below ``--require-improvement``.
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

from repro.apps import rubis
from repro.core.distribution import distribute
from repro.core.patterns import PatternLevel
from repro.experiments.calibration import default_workload
from repro.experiments.progress import ProgressReporter
from repro.experiments.runner import run_cells
from repro.middleware.context import InvocationContext, RequestInfo
from repro.simnet.kernel import Environment
from repro.simnet.rng import Streams
from repro.simnet.topology import TestbedConfig, build_testbed

# Remote-browser pages served by the annotated cacheable methods.
READ_PAGES = (
    "All Categories",
    "All Regions",
    "Bids",
    "Category",
    "Category & Region",
    "Item",
    "Region",
    "User Info",
)

LEVELS = [PatternLevel.ASYNC_UPDATES, PatternLevel.METHOD_CACHING]


def machine_info() -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
    }


# -- gate 1: cache-served results are identical to direct execution --------


def identity_cases(catalog) -> list:
    """Every annotated (component, method, args) with catalog-real args."""
    return [
        ("SB_BrowseCategories", "get_all", ()),
        ("SB_BrowseCategories", "get_for_region", (catalog.region_ids[0],)),
        ("SB_BrowseRegions", "get_all", ()),
        ("SB_SearchItemsInCategory", "get", (catalog.category_ids[0],)),
        (
            "SB_SearchItemsInCategoryRegion",
            "get",
            (catalog.category_ids[0], catalog.region_ids[0]),
        ),
        ("SB_ViewItem", "get", (catalog.item_ids[0],)),
        ("SB_ViewBidHistory", "get", (catalog.item_ids[0],)),
        ("SB_ViewUserInfo", "get", (catalog.user_ids[0],)),
    ]


def run_process(env: Environment, generator):
    process = env.process(generator)
    env.run()
    if not process.triggered:
        raise AssertionError("benchmark invocation did not finish")
    return process.value


def invoke_on_edge(env, system, component, method, args):
    server = system.servers["edge1"]
    ctx = InvocationContext(
        env=env,
        server=server,
        request=RequestInfo(component, "bench", "identity", "client-edge1-0"),
        costs=server.costs,
    )

    def proc():
        facade = yield from server.lookup(ctx, component)
        result = yield from facade.call(ctx, method, *args)
        return result

    return run_process(env, proc())


def run_identity_gate(seed: int) -> dict:
    database, catalog = rubis.populate_rubis(Streams(seed))
    env = Environment()
    testbed = build_testbed(env, TestbedConfig(db_colocated=True))
    application = rubis.build_application(
        PatternLevel.METHOD_CACHING, catalog=catalog
    )
    system = distribute(
        env, testbed, application, PatternLevel.METHOD_CACHING, database
    )
    cache = system.servers["edge1"].method_cache
    cases = []
    identical = True
    for component, method, args in identity_cases(catalog):
        hits_before = cache.stats.hits
        direct = invoke_on_edge(env, system, component, method, args)
        cached = invoke_on_edge(env, system, component, method, args)
        served_from_cache = cache.stats.hits == hits_before + 1
        case_identical = direct == cached and served_from_cache
        identical = identical and case_identical
        cases.append(
            {
                "component": component,
                "method": method,
                "served_from_cache": served_from_cache,
                "identical": case_identical,
            }
        )
    return {"cases": cases, "identical": identical}


# -- gate 2: L5 vs L6 read-page latency ------------------------------------


def run_perf_comparison(duration: float, warmup: float, seed: int, jobs: int):
    workload = default_workload(
        duration_ms=duration * 1000.0, warmup_ms=warmup * 1000.0
    )
    progress = ProgressReporter(len(LEVELS), stream=sys.stderr)
    results = run_cells(
        [("rubis", level) for level in LEVELS],
        workload=workload,
        seed=seed,
        jobs=jobs,
        progress=progress,
    )
    return {level: results[("rubis", level)] for level in LEVELS}


def page_means(result) -> dict:
    means = {}
    for page in READ_PAGES:
        mean = result.mean("remote-browser", page)
        if mean is not None:
            means[page] = round(mean, 3)
    return means


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--duration", type=float, default=120.0,
                        help="simulated seconds per cell (default %(default)s)")
    parser.add_argument("--warmup", type=float, default=20.0)
    parser.add_argument("--seed", type=int, default=2003)
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument("--output", default="BENCH_method_cache.json")
    parser.add_argument("--require-improvement", type=float, default=0.0,
                        metavar="MS",
                        help="exit non-zero unless the mean read-page "
                        "improvement (L5 minus L6, ms) is >= MS "
                        "(default %(default)s)")
    args = parser.parse_args()

    print("[bench] result-identity gate on a level-6 deployment ...",
          file=sys.stderr)
    identity = run_identity_gate(args.seed)

    print(
        f"[bench] L5 vs L6 RUBiS cells, {args.duration:g}s simulated each ...",
        file=sys.stderr,
    )
    cells = run_perf_comparison(args.duration, args.warmup, args.seed, args.jobs)
    l5, l6 = cells[LEVELS[0]], cells[LEVELS[1]]

    l5_pages = page_means(l5)
    l6_pages = page_means(l6)
    deltas = {
        page: round(l5_pages[page] - l6_pages[page], 3)
        for page in l5_pages
        if page in l6_pages
    }
    mean_improvement = (
        round(sum(deltas.values()) / len(deltas), 3) if deltas else None
    )
    cache_counters = (l6.cache_stats or {}).get("method_cache", {})
    total_hits = sum(c.get("hits", 0) for c in cache_counters.values())

    report = {
        "benchmark": "transactional method caching: level 6 vs level 5 (RUBiS)",
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "machine": machine_info(),
        "duration_s": args.duration,
        "warmup_s": args.warmup,
        "seed": args.seed,
        "results_identical": identity["identical"],
        "identity_cases": identity["cases"],
        "level5_read_page_means_ms": l5_pages,
        "level6_read_page_means_ms": l6_pages,
        "read_page_deltas_ms": deltas,
        "mean_read_page_improvement_ms": mean_improvement,
        "level6_method_cache": cache_counters,
        "level6_total_hits": total_hits,
        "level5_requests": l5.total_requests,
        "level6_requests": l6.total_requests,
    }
    Path(args.output).write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))

    if not identity["identical"]:
        bad = [c for c in identity["cases"] if not c["identical"]]
        print(f"ERROR: cache-served results differ from direct execution: {bad}",
              file=sys.stderr)
        return 1
    if total_hits <= 0:
        print("ERROR: level 6 recorded no method-cache hits", file=sys.stderr)
        return 1
    if mean_improvement is None or mean_improvement < args.require_improvement:
        print(
            f"ERROR: mean read-page improvement {mean_improvement} ms < "
            f"required {args.require_improvement} ms",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
