"""The benchmark's named workloads and one measured pass over each.

Every workload runs serially in this process through the public runner
API (``run_series`` for the paper sweep, ``run_configuration`` for the
one-cell workloads).  A pass returns host timings, fetch
accounting, the pooled post-warm-up simulated response times, and a
digest of every simulated statistic, so repeated passes of one seed can
be checked for determinism.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

from repro.apps.rubis import browser_pattern as rubis_browser
from repro.core.patterns import PAPER_LEVELS
from repro.experiments.calibration import default_workload
from repro.experiments.figures import build_figure, render_figure
from repro.experiments.runner import run_configuration, run_series
from repro.experiments.tables import build_table, render_table
from repro.simnet.monitor import ResponseTimeMonitor
from repro.workload.generator import WorkloadConfig
from repro.workload.openloop import OpenLoopConfig, TransitionMatrixPattern

GOLDEN_SEED = 2003
GOLDEN_DIR = Path(__file__).resolve().parent.parent / "benchmarks" / "golden" / "d150_w40_s2003"


def short_rubis_browser(catalog):
    """The stock RUBiS browse mix as mean-two-page Markov sessions."""
    return TransitionMatrixPattern(rubis_browser(catalog), mean_length=2.0)


@dataclass(frozen=True)
class Workload:
    name: str
    #: (app, level) cells, run in order.
    cells: tuple
    #: run_configuration keyword arguments shared by every cell.
    kwargs: dict = field(default_factory=dict)
    #: run through run_series, one series per app, as the experiments CLI does.
    series: bool = False


_SWEEP = Workload(
    name="paper-sweep",
    cells=tuple((app, level) for app in ("petstore", "rubis") for level in PAPER_LEVELS),
    kwargs={"workload": default_workload(duration_ms=150_000.0, warmup_ms=40_000.0)},
    series=True,
)

_CROWD = Workload(
    name="crowd-l5",
    cells=(("rubis", 5),),
    kwargs={
        "openloop": OpenLoopConfig(
            session_rate_per_s=300.0,
            duration_ms=40_000.0,
            warmup_ms=10_000.0,
            think_time_ms=60_000.0,
            browser_fraction=1.0,
        ),
        "browser_pattern": short_rubis_browser,
        "with_metrics": True,
        "with_spans": True,
        "obs_interval_ms": 1000.0,
        "obs_sample": 0.05,
    },
)

_BIDDING = Workload(
    name="bidding-l1",
    cells=(("rubis", 1),),
    kwargs={
        "workload": WorkloadConfig(
            total_rate_per_s=200.0,
            browser_fraction=0.5,
            think_time_ms=7_000.0,
            duration_ms=60_000.0,
            warmup_ms=10_000.0,
        )
    },
)

WORKLOADS: Dict[str, Workload] = {w.name: w for w in (_SWEEP, _CROWD, _BIDDING)}


# -- simulated response times --------------------------------------------------
class LatencySink:
    """Pools every post-warm-up page response time the monitors record.

    The runner keeps only running sums, so the sink wraps
    ``ResponseTimeMonitor.observe`` for the life of the benchmark process;
    create one per process.
    """

    def __init__(self):
        self.samples: List[float] = []
        original = ResponseTimeMonitor.observe
        samples = self.samples

        def observe(monitor, now, group, page, response_time):
            original(monitor, now, group, page, response_time)
            if now >= monitor.warmup:
                samples.append(response_time)

        ResponseTimeMonitor.observe = observe

    def take(self) -> List[float]:
        """The samples since the last call."""
        taken = list(self.samples)
        self.samples.clear()
        return taken


def quantiles(samples: List[float]) -> List[float]:
    """The 1st..99th percentiles, interpolated between order statistics."""
    return statistics.quantiles(samples, n=100, method="inclusive")


# -- one cell's outputs --------------------------------------------------------
def _hit_ratio_counts(per_owner: dict) -> List[int]:
    hits = misses = 0
    for per_item in per_owner.values():
        for counters in per_item.values():
            hits += counters["hits"]
            misses += counters["misses"]
    return [hits, misses]


def summarize_cell(result) -> dict:
    """Counts and a canonical record of one finished cell."""
    generator = result.generator
    system = result.system
    clients = getattr(generator, "clients", None)
    db = system.db_server
    executor = db.database.executor
    monitor_state = result.monitor.to_state()
    observed = monitor_state["discarded_warmup"] + sum(
        stats["count"] for _group, _page, stats in monitor_state["stats"]
    )
    summary = {
        "cell": f"{result.app}:{int(result.level)}",
        "completed": generator.total_requests(),
        "failed": (
            sum(client.errors for client in clients)
            if clients is not None
            else generator.errors
        ),
        "served": sum(server.http_requests for server in system.servers.values()),
        "observed": observed,
        "peak_active": len(clients) if clients is not None else generator.peak_active,
        "timed_events": system.env.stats()["sequence"],
        "db": {
            "statements": db.statements,
            "commits": db.commits,
            "rollbacks": db.rollbacks,
            "index_scans": executor.index_scans,
            "full_scans": executor.full_scans,
            "lock_waits": db.locks.waits,
            "lock_timeouts": db.locks.timeouts,
        },
        "query_cache": _hit_ratio_counts(result.cache_stats["query_cache"]),
        "replicas": _hit_ratio_counts(result.cache_stats["replicas"]),
        "spans": len(result.spans) if result.spans is not None else 0,
    }
    if clients is None:
        summary["sessions"] = {
            "arrivals": generator.arrivals,
            "admitted": generator.admitted,
            "completions": generator.completions,
            "dropped": generator.dropped_sessions,
            "active": generator.active,
        }
    record = {
        "summary": summary,
        "monitor": monitor_state,
        "cache_stats": result.cache_stats,
        "resilience": result.resilience,
        "metrics": result.metrics_state,
        "series": result.series_state,
    }
    summary["digest"] = hashlib.sha256(
        json.dumps(record, sort_keys=True).encode()
    ).hexdigest()
    return summary


# -- passes --------------------------------------------------------------------
@dataclass
class Pass:
    """One pass over every cell of a workload.

    ``times`` holds, per cell, its host seconds in total (``run_s``), in
    the simulation (``sim_s``, the runner's ``wall_seconds``) and in
    set-up plus result collection (``setup_s``, the difference).
    """

    cells: List[dict]
    times: List[Dict[str, float]]
    samples: List[float]
    golden_mismatch: List[str]

    @property
    def completed(self) -> int:
        return sum(cell["completed"] for cell in self.cells)

    @property
    def failed(self) -> int:
        return sum(cell["failed"] for cell in self.cells)

    def digest(self) -> str:
        ordered = sorted(self.samples)
        record = [cell["digest"] for cell in self.cells]
        record.append(hashlib.sha256(repr(ordered).encode()).hexdigest())
        return hashlib.sha256(json.dumps(record).encode()).hexdigest()


def _times(total: float, sim: float) -> Dict[str, float]:
    return {"run_s": total, "sim_s": sim, "setup_s": total - sim}


class _CellClock:
    """run_series progress hook: host seconds of each finished cell."""

    def __init__(self):
        self.last = time.perf_counter()
        self.times: List[Dict[str, float]] = []

    def cell_done(self, app, level, wall_seconds):
        now = time.perf_counter()
        self.times.append(_times(now - self.last, wall_seconds))
        self.last = now


def golden_mismatches(app: str, series: dict) -> List[str]:
    """Rendered table/figure names that differ from (or lack) a golden copy."""
    rendered = {
        "table": render_table(build_table(series)),
        "figure": render_figure(build_figure(series)),
    }
    mismatched = []
    for kind, text in rendered.items():
        golden = GOLDEN_DIR / f"{app}.{kind}.txt"
        if not golden.is_file() or golden.read_text() != text:
            mismatched.append(f"{app}.{kind}")
    return mismatched


def run_pass(workload: Workload, seed: int, sink: LatencySink) -> Pass:
    sink.take()
    cells: List[dict] = []
    times: List[Dict[str, float]] = []
    mismatch: List[str] = []
    if workload.series:
        for app in dict.fromkeys(app for app, _level in workload.cells):
            levels = [level for cell_app, level in workload.cells if cell_app == app]
            clock = _CellClock()
            series = run_series(app, levels=levels, seed=seed, progress=clock, **workload.kwargs)
            times.extend(clock.times)
            cells.extend(summarize_cell(series[level]) for level in levels)
            if seed == GOLDEN_SEED:
                mismatch.extend(golden_mismatches(app, series))
            del series
    else:
        for app, level in workload.cells:
            started = time.perf_counter()
            result = run_configuration(app, level, seed=seed, **workload.kwargs)
            times.append(_times(time.perf_counter() - started, result.wall_seconds))
            cells.append(summarize_cell(result))
            del result
    return Pass(cells, times, sink.take(), mismatch)


def check_pass(measured: Pass) -> List[str]:
    """Correctness failures of one pass (empty when it is correct)."""
    problems = [f"{name} differs from {GOLDEN_DIR}" for name in measured.golden_mismatch]
    for cell in measured.cells:
        name = cell["cell"]
        attempted = cell["completed"] + cell["failed"]
        if attempted != cell["served"]:
            problems.append(
                f"{name}: completed+failed={attempted} but servers saw {cell['served']}"
            )
        if cell["observed"] != cell["completed"]:
            problems.append(
                f"{name}: monitor saw {cell['observed']} of {cell['completed']} fetches"
            )
        sessions = cell.get("sessions")
        if sessions is not None and (
            sessions["completions"] != sessions["admitted"] or sessions["active"]
        ):
            problems.append(f"{name}: admitted sessions did not all complete: {sessions}")
    if not measured.samples:
        problems.append("no post-warm-up response times were recorded")
    return problems


def cache_counts(cells: List[dict], kind: str) -> List[int]:
    """[hits, misses] of ``kind`` ("query_cache" or "replicas") over cells."""
    return [sum(cell[kind][i] for cell in cells) for i in (0, 1)]


def shape(measured: Pass) -> Dict[str, object]:
    """What the workload stressed, for the report (not gated)."""
    cells = measured.cells
    query = cache_counts(cells, "query_cache")
    replica = cache_counts(cells, "replicas")
    return {
        "fetches": measured.completed,
        "failed": measured.failed,
        "workload.peak_active": max(cell["peak_active"] for cell in cells),
        "db.statements": sum(cell["db"]["statements"] for cell in cells),
        "cache.query_hits/lookups": f"{query[0]}/{sum(query)}",
        "cache.replica_hits/lookups": f"{replica[0]}/{sum(replica)}",
    }
