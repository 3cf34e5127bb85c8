"""Parallel experiment execution: a process-pool fan-out over cells.

The paper's evaluation grid is a set of independent *cells* — one
(application, :class:`PatternLevel`) pair each.  RAFDA-style separation
of application logic from distribution policy means a cell shares no
state with any other: every run builds its own seeded
:class:`~repro.simnet.kernel.Environment`, database, testbed and client
population from scratch.  That makes the sweep embarrassingly parallel,
and this module exploits it:

* each cell runs in its own worker process (``ProcessPoolExecutor``);
* the worker ships back a picklable :class:`CellResult` — serialized
  monitor state, a trace summary, and wall time — never live simulation
  objects;
* the parent merges results in canonical (app, level) order, so tables
  and figures are **byte-identical for any worker count and any
  completion order**.

Determinism rests on two facts: every cell is seeded independently from
the same master seed (so a cell's observations do not depend on which
process ran it), and :meth:`ResponseTimeMonitor.to_state` emits cells in
sorted order (so reconstruction does not depend on arrival order).

Each application's data is built once in the parent as a
:class:`~repro.experiments.runner.DataTemplate` and handed to every
worker through the pool initializer; every cell runs on a fork of it.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from ..core.patterns import PAPER_LEVELS, PatternLevel
from ..core.policy import PlacementPolicy
from ..faults.schedule import FaultSchedule
from ..simnet.monitor import ResponseTimeMonitor, TraceSummary
from ..simnet.topology import TopologyOverrides
from ..workload.generator import WorkloadConfig
from ..workload.openloop import OpenLoopConfig
from . import calibration
from .progress import ProgressReporter
from .runner import DataTemplate, run_configuration

__all__ = [
    "CellTask",
    "CellResult",
    "default_jobs",
    "run_cells",
    "run_series_parallel",
]


def default_jobs() -> int:
    """Worker-count default: one per CPU."""
    return max(1, os.cpu_count() or 1)


@dataclass(frozen=True)
class CellTask:
    """Everything a worker needs to run one cell.  Strictly picklable:
    the application itself is looked up by name inside the worker."""

    app: str
    level: int
    workload: Optional[WorkloadConfig]
    seed: int
    with_trace: bool = False
    with_spans: bool = False
    with_metrics: bool = False
    # Fault schedule (frozen dataclasses of tuples — picklable); None or
    # an empty schedule leaves the run untouched.
    faults: Optional[FaultSchedule] = None
    # Explicit placement policy (frozen, picklable); None runs the canned
    # configuration for ``level``.
    policy: Optional[PlacementPolicy] = None
    # Testbed overrides (frozen, picklable); None keeps the app's
    # calibrated topology.
    topology: Optional[TopologyOverrides] = None
    # Open-loop workload (frozen, picklable); None runs the closed-loop
    # client population described by ``workload``.
    openloop: Optional[OpenLoopConfig] = None
    # Windowed-telemetry interval in simulated ms; None leaves the
    # sampler uninstalled (no extra kernel events at all).
    obs_interval: Optional[float] = None
    # Deterministic span-sampling rate (see SpanRecorder.sample).
    obs_sample: float = 1.0


@dataclass
class CellResult:
    """Picklable outcome of one cell.

    Carries serialized monitor state instead of live simulation objects,
    plus enough derived data (request count, trace summary, wall time)
    for the tables, figures and benchmark reports.  Presents the same
    reporting surface as :class:`~repro.experiments.runner.ExperimentResult`
    (``app`` / ``level`` / ``monitor`` / ``mean`` / ``session_mean`` /
    ``groups``), so ``build_table`` and ``build_figure`` accept either.
    """

    app: str
    level: PatternLevel
    monitor_state: dict
    wall_seconds: float
    total_requests: int
    trace_summary: Optional[TraceSummary] = None
    # Observability snapshots (plain dicts, canonical key order): the
    # span table, the metrics registry, and the query-cache/replica
    # counters that previously died with the worker process.
    spans_state: Optional[dict] = None
    metrics_state: Optional[dict] = None
    series_state: Optional[dict] = None
    cache_stats: Optional[dict] = None
    # Canonical resilience snapshot (see repro.faults.report).
    resilience: Optional[dict] = None
    # Custom-policy row label and effective topology (see ExperimentResult).
    label: Optional[str] = None
    topology: Optional[dict] = None
    _monitor: Optional[ResponseTimeMonitor] = field(
        default=None, repr=False, compare=False
    )

    @classmethod
    def from_experiment(cls, result) -> "CellResult":
        """Condense a live ``ExperimentResult`` into its picklable form."""
        return cls(
            app=result.app,
            level=PatternLevel(result.level),
            monitor_state=result.monitor.to_state(),
            wall_seconds=result.wall_seconds,
            total_requests=result.generator.total_requests(),
            trace_summary=result.trace_summary,
            spans_state=result.spans_state,
            metrics_state=result.metrics_state,
            series_state=result.series_state,
            cache_stats=result.cache_stats,
            resilience=result.resilience,
            label=result.label,
            topology=result.topology,
        )

    @property
    def monitor(self) -> ResponseTimeMonitor:
        """The reconstructed response-time monitor (cached)."""
        if self._monitor is None:
            self._monitor = ResponseTimeMonitor.from_state(self.monitor_state)
        return self._monitor

    def mean(self, group: str, page: str) -> float:
        return self.monitor.mean(group, page)

    def session_mean(self, group: str) -> float:
        return self.monitor.session_mean(group)

    def groups(self) -> List[str]:
        return self.monitor.groups()


# The parent's data templates, installed in each pool worker by
# :func:`_install_templates` (empty in the parent process).
_worker_templates: Dict[str, DataTemplate] = {}


def _install_templates(templates: Dict[str, DataTemplate]) -> None:
    """Pool initializer: keep the templates for this worker's cells."""
    _worker_templates.update(templates)


def _run_worker_cell(task: CellTask) -> CellResult:
    """Pool entry point: run one cell on a fork of its app's template."""
    return _run_cell(task, _worker_templates[task.app])


def _run_cell(task: CellTask, template: DataTemplate) -> CellResult:
    """Run one cell on a fork of ``template`` and serialize the outcome."""
    result = run_configuration(
        task.app,
        PatternLevel(task.level),
        workload=task.workload,
        seed=task.seed,
        with_trace=task.with_trace,
        with_spans=task.with_spans,
        with_metrics=task.with_metrics,
        faults=task.faults,
        policy=task.policy,
        topology=task.topology,
        openloop=task.openloop,
        obs_interval_ms=task.obs_interval,
        obs_sample=task.obs_sample,
        template=template,
    )
    return CellResult.from_experiment(result)


def run_cells(
    cells: Iterable[Tuple[str, PatternLevel]],
    workload: Optional[WorkloadConfig] = None,
    seed: int = calibration.MASTER_SEED,
    with_trace: bool = False,
    with_spans: bool = False,
    with_metrics: bool = False,
    jobs: Optional[int] = None,
    progress: Optional[ProgressReporter] = None,
    faults: Optional[FaultSchedule] = None,
    policy: Optional[PlacementPolicy] = None,
    topology: Optional[TopologyOverrides] = None,
    openloop: Optional[OpenLoopConfig] = None,
    obs_interval_ms: Optional[float] = None,
    obs_sample: float = 1.0,
) -> Dict[Tuple[str, PatternLevel], CellResult]:
    """Run every (app, level) cell, fanning out across ``jobs`` processes.

    ``jobs=None`` uses one worker per CPU; ``jobs=1`` runs the cells in
    the current process (no pool, no pickling overhead) but still
    returns :class:`CellResult`, so downstream output is identical.
    Each app's data template is built once, here, for every worker.
    The returned dict is keyed in sorted (app, level) order regardless
    of completion order.
    """
    keys = [(app, PatternLevel(level)) for app, level in cells]
    if len(set(keys)) != len(keys):
        raise ValueError(f"duplicate cells in {keys!r}")
    tasks = {
        key: CellTask(
            key[0],
            int(key[1]),
            workload,
            seed,
            with_trace,
            with_spans,
            with_metrics,
            faults=faults,
            policy=policy,
            topology=topology,
            openloop=openloop,
            obs_interval=obs_interval_ms,
            obs_sample=obs_sample,
        )
        for key in keys
    }
    apps = dict.fromkeys(app for app, _level in tasks)
    templates = {app: DataTemplate.build(app, seed) for app in apps}
    jobs = default_jobs() if jobs is None else max(1, int(jobs))
    results: Dict[Tuple[str, PatternLevel], CellResult] = {}
    if jobs == 1 or len(tasks) <= 1:
        for key, task in tasks.items():
            results[key] = _run_cell(task, templates[task.app])
            if progress is not None:
                progress.cell_done(key[0], key[1], results[key].wall_seconds)
    else:
        with ProcessPoolExecutor(
            max_workers=min(jobs, len(tasks)),
            initializer=_install_templates,
            initargs=(templates,),
        ) as pool:
            futures = {
                pool.submit(_run_worker_cell, task): key for key, task in tasks.items()
            }
            for future in as_completed(futures):
                key = futures[future]
                results[key] = future.result()
                if progress is not None:
                    progress.cell_done(key[0], key[1], results[key].wall_seconds)
    return {
        key: results[key]
        for key in sorted(results, key=lambda k: (k[0], int(k[1])))
    }


def run_series_parallel(
    app: str,
    levels=None,
    workload: Optional[WorkloadConfig] = None,
    seed: int = calibration.MASTER_SEED,
    with_trace: bool = False,
    with_spans: bool = False,
    with_metrics: bool = False,
    jobs: Optional[int] = None,
    progress: Optional[ProgressReporter] = None,
    faults: Optional[FaultSchedule] = None,
    policy: Optional[PlacementPolicy] = None,
    topology: Optional[TopologyOverrides] = None,
    openloop: Optional[OpenLoopConfig] = None,
    obs_interval_ms: Optional[float] = None,
    obs_sample: float = 1.0,
) -> Dict[PatternLevel, CellResult]:
    """Parallel counterpart of :func:`~repro.experiments.runner.run_series`.

    Same grid, same seeds, same output — only the wall clock differs.
    """
    if policy is not None:
        levels = [policy.effective_level()]
    else:
        levels = [PatternLevel(level) for level in (levels or PAPER_LEVELS)]
    results = run_cells(
        [(app, level) for level in levels],
        workload=workload,
        seed=seed,
        with_trace=with_trace,
        with_spans=with_spans,
        with_metrics=with_metrics,
        jobs=jobs,
        progress=progress,
        faults=faults,
        policy=policy,
        topology=topology,
        openloop=openloop,
        obs_interval_ms=obs_interval_ms,
        obs_sample=obs_sample,
    )
    return {level: results[(app, level)] for level in levels}
