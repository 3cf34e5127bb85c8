"""Experiment orchestration: one function per (application, configuration).

``run_configuration`` stands up the full testbed — network, database,
application servers, client population — runs it for the configured
simulated duration, and returns the response-time monitor plus the
deployed system for inspection.  ``run_cells`` runs a grid of such
cells, in this process or across a worker pool, and ``run_series``
sweeps all five pattern levels of one app, which is exactly the data
behind Tables 6/7 and Figures 7/8.

A run's knobs are one :class:`RunSpec`.  Every level of a sweep runs
over the same populated database, so ``run_cells`` builds one
:class:`DataTemplate` (populate plus warm-up queries) per app and runs
each cell on a fork of it.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..apps import petstore, rubis
from ..core.distribution import DeployedSystem, distribute
from ..core.patterns import PAPER_LEVELS, PatternLevel
from ..core.policy import PlacementPolicy
from ..faults.injector import FaultInjector
from ..faults.report import collect_resilience
from ..faults.schedule import FaultSchedule
from ..obs.metrics import MetricsRegistry, collect_cache_stats, collect_system_metrics
from ..obs.spans import SpanRecorder
from ..obs.timeseries import TimeSeriesRecorder
from ..rdbms.engine import Database
from ..simnet.kernel import Environment
from ..simnet.monitor import ResponseTimeMonitor, Trace, TraceSummary
from ..simnet.rng import Streams
from ..simnet.topology import TestbedConfig, TopologyOverrides, build_testbed
from ..core.usage import WeightedPattern
from ..workload.generator import LoadGenerator, WorkloadConfig
from ..workload.openloop import OpenLoopConfig, OpenLoopGenerator, TransitionMatrixPattern
from . import calibration
from .parallel import fan_out
from .profile import dump_cell_profile, profile_call, warn_forced_serial

__all__ = [
    "AppSpec",
    "APPS",
    "DataTemplate",
    "ExperimentResult",
    "RunSpec",
    "run_cells",
    "run_configuration",
    "run_series",
]


@dataclass(frozen=True)
class AppSpec:
    """Everything the runner needs to know about one application."""

    name: str
    build_application: Callable
    populate: Callable
    browser_pattern: Callable
    writer_pattern: Callable
    writer_group: str
    costs: object
    db_costs: object
    testbed_config: Callable
    browser_pages: tuple
    writer_pages: tuple
    # catalog -> {query_id: [param tuples]} used to pre-warm query caches.
    warm_queries: Optional[Callable] = None


APPS: Dict[str, AppSpec] = {
    "petstore": AppSpec(
        name="petstore",
        build_application=petstore.build_application,
        populate=petstore.populate_petstore,
        browser_pattern=petstore.browser_pattern,
        writer_pattern=petstore.buyer_pattern,
        writer_group="buyer",
        costs=calibration.PETSTORE_COSTS,
        db_costs=calibration.PETSTORE_DB_COSTS,
        testbed_config=calibration.petstore_testbed_config,
        browser_pages=tuple(petstore.BROWSER_PAGES),
        writer_pages=tuple(petstore.BUYER_PAGES),
        warm_queries=lambda catalog: {
            "petstore.products_of_category": [(c,) for c in catalog.category_ids],
            "petstore.items_of_product": [(p,) for p in catalog.product_ids],
        },
    ),
    "rubis": AppSpec(
        name="rubis",
        build_application=rubis.build_application,
        populate=rubis.populate_rubis,
        browser_pattern=rubis.browser_pattern,
        writer_pattern=rubis.bidder_pattern,
        writer_group="bidder",
        costs=calibration.RUBIS_COSTS,
        db_costs=calibration.RUBIS_DB_COSTS,
        testbed_config=calibration.rubis_testbed_config,
        browser_pages=tuple(rubis.BROWSER_PAGES),
        writer_pages=tuple(rubis.BIDDER_PAGES),
        warm_queries=lambda catalog: {
            "rubis.all_categories": [()],
            "rubis.all_regions": [()],
            "rubis.items_in_category": [(c,) for c in catalog.category_ids],
            "rubis.items_in_category_region": [
                (c, r) for c in catalog.category_ids for r in catalog.region_ids
            ],
            "rubis.bid_history": [(i,) for i in catalog.item_ids],
            "rubis.user_comments": [(u,) for u in catalog.user_ids],
        },
    ),
}


@dataclass(frozen=True)
class DataTemplate:
    """One application's populated and warmed data, built once per sweep.

    :meth:`build` runs the app's ``populate`` once and its warm-up
    queries once against the result, keeping their rows in
    ``warm_rows`` (``query_id -> [(params, rows)]``).  Each cell runs
    on a :meth:`fork`.  The warm-up queries are SELECTs and deployment
    only reads the database, so a fork holds exactly the state a fresh
    populate plus warm-up would leave behind.
    """

    app: str
    seed: int
    database: Database
    # The app's identifier catalog; read-only once built, so forks share it.
    catalog: object
    # None when built without warm-up (``warm_replicas=False`` runs).
    warm_rows: Optional[Dict[str, list]]

    @classmethod
    def build(
        cls, app: str, seed: int = calibration.MASTER_SEED, warm: bool = True
    ) -> "DataTemplate":
        spec = APPS[app]
        database, catalog = spec.populate(Streams(seed), None)
        warm_rows = None
        if warm:
            warm_rows = {}
            if spec.warm_queries is not None:
                # The app's named queries are the same at every level.
                queries = spec.build_application(
                    PatternLevel.CENTRALIZED, catalog=catalog
                ).queries
                for query_id, params_list in spec.warm_queries(catalog).items():
                    sql = queries.get(query_id)
                    if sql is None:
                        continue
                    warm_rows[query_id] = [
                        (tuple(params), database.execute(sql, tuple(params)).rows)
                        for params in params_list
                    ]
        return cls(app, seed, database, catalog, warm_rows)

    def fork(self) -> "DataTemplate":
        """This template over an independent copy of its database."""
        return replace(self, database=self.database.fork())

    def check(self, app: str, seed: int, warm: bool) -> None:
        """Raise ValueError unless this template is the data of that run."""
        built = (self.app, self.seed, self.warm_rows is not None)
        if built != (app, seed, warm):
            raise ValueError(
                f"template (app, seed, warm) = {built!r} does not match "
                f"the run's {(app, seed, warm)!r}"
            )


@dataclass(frozen=True)
class RunSpec:
    """Every knob of a run, shared by all the cells of a sweep.

    Strictly picklable when its values are (the canned configs, policies,
    topologies and schedules are frozen dataclasses; ``browser_pattern``
    must then be a module-level function), so a process pool ships one
    copy to each worker.
    """

    # Closed-loop client population; None uses the calibrated default.
    workload: Optional[WorkloadConfig] = None
    seed: int = calibration.MASTER_SEED
    with_trace: bool = False
    with_spans: bool = False
    with_metrics: bool = False
    # Start read-only replicas and query caches hot (the paper's
    # measurement-excluded warm-up hour).
    warm_replicas: bool = True
    # Fault schedule; None or an empty schedule leaves the run untouched.
    faults: Optional[FaultSchedule] = None
    # Explicit placement policy; the cell's level is then ignored and the
    # policy's metadata level picks the application era.
    policy: Optional[PlacementPolicy] = None
    # Overrides of the app's calibrated testbed knobs.
    topology: Optional[TopologyOverrides] = None
    # Open-loop arrival engine (:mod:`repro.workload.openloop`) instead
    # of the closed-loop ``workload``; browser sessions become Markov
    # walks over the app's weighted page mix.
    openloop: Optional[OpenLoopConfig] = None
    # Replaces the app's stock browse mix: a callable taking the
    # populated catalog and returning a usage pattern, exactly like
    # :attr:`AppSpec.browser_pattern`.
    browser_pattern: Optional[Callable] = None
    # Windowed telemetry: a kernel sampler snapshots counters/gauges
    # every interval of simulated ms and the generator streams response
    # times into per-window histograms (see :mod:`repro.obs.timeseries`).
    # None leaves the sampler uninstalled.
    obs_interval_ms: Optional[float] = None
    # Deterministic fraction of sessions kept in the span table (hash of
    # the session id, not RNG), so tracing stays bounded at 10^6 sessions.
    obs_sample: float = 1.0


# Live simulation handles that stay behind when a result is pickled.
_LIVE_FIELDS = ("system", "generator", "trace", "fault_injector")
# Recorders that cross a pickle as their ``to_state()`` forms.
_STATE_FIELDS = {
    "monitor": ResponseTimeMonitor,
    "spans": SpanRecorder,
    "metrics": MetricsRegistry,
    "series": TimeSeriesRecorder,
}


@dataclass
class ExperimentResult:
    """Outcome of one configuration run.

    A result from this process keeps its live ``system``, ``generator``,
    ``trace`` and ``fault_injector``.  Pickling one (the worker-pool
    return) drops those four handles and carries the monitor and the
    span, metrics and time-series recorders as their ``to_state()``
    forms, rebuilt with ``from_state()`` on the other side; every other
    field is plain data.
    """

    app: str
    level: PatternLevel
    monitor: ResponseTimeMonitor
    system: Optional[DeployedSystem]
    # LoadGenerator (closed loop) or OpenLoopGenerator (open loop); both
    # expose the reporting surface the tables and artifacts consume.
    generator: object
    wall_seconds: float
    # CPU seconds over the same region as ``wall_seconds``; benchmarks
    # gate on this because it is immune to scheduler-preemption noise on
    # busy hosts (a big effect on 1-CPU CI runners).
    cpu_seconds: float = 0.0
    total_requests: int = 0
    trace: Optional[Trace] = None
    # Trace digest with resilience counters folded in (None without trace).
    trace_summary: Optional[TraceSummary] = None
    spans: Optional[SpanRecorder] = None
    metrics: Optional[MetricsRegistry] = None
    # Windowed telemetry (None unless an obs interval was requested).
    series: Optional[TimeSeriesRecorder] = None
    # Query-cache and replica counters, collected before the system is
    # dropped — previously this evidence died with the run.
    cache_stats: Optional[dict] = None
    # Canonical resilience snapshot (all-zero in fault-free runs) and the
    # injector that produced it (None when no schedule was installed).
    resilience: Optional[dict] = None
    fault_injector: Optional[FaultInjector] = None
    # Row label for tables/figures (a custom policy's name; None for the
    # canned configurations, which label themselves by level).
    label: Optional[str] = None
    # Effective topology of the run (edge count, WAN latency, client
    # groups) for results/metrics artifacts.
    topology: Optional[dict] = None

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        for name in _LIVE_FIELDS:
            state[name] = None
        for name in _STATE_FIELDS:
            if state[name] is not None:
                state[name] = state[name].to_state()
        return state

    def __setstate__(self, state: dict) -> None:
        for name, recorder in _STATE_FIELDS.items():
            if state[name] is not None:
                state[name] = recorder.from_state(state[name])
        self.__dict__.update(state)

    def mean(self, group: str, page: str) -> float:
        return self.monitor.mean(group, page)

    def session_mean(self, group: str) -> float:
        return self.monitor.session_mean(group)

    def groups(self) -> List[str]:
        return self.monitor.groups()

    @property
    def spans_state(self) -> Optional[dict]:
        """Picklable span-table snapshot (None when tracing was off)."""
        return self.spans.to_state() if self.spans is not None else None

    @property
    def metrics_state(self) -> Optional[dict]:
        """Picklable metrics snapshot (None when metrics were off)."""
        return self.metrics.to_state() if self.metrics is not None else None

    @property
    def series_state(self) -> Optional[dict]:
        """Picklable time-series snapshot (None when telemetry was off)."""
        return self.series.to_state() if self.series is not None else None


def topology_dict(config: TestbedConfig) -> dict:
    """The artifact-facing summary of a testbed config."""
    return {
        "edge_servers": config.edge_servers,
        "wan_latency_ms": config.wan_latency,
        "clients_per_group": config.clients_per_group,
    }


def _trace_summary(
    trace: Trace, spans: Optional[SpanRecorder], resilience: dict
) -> TraceSummary:
    """The trace digest with resilience and span-sampling counters folded in."""
    summary = replace(
        trace.summary(),
        retries=resilience.get("rmi_retries", 0),
        timeouts=resilience.get("rmi_timeouts", 0),
        failovers=resilience.get("failovers", 0),
        dropped_updates=resilience.get("dropped_updates", 0),
        dropped_sessions=resilience.get("dropped_sessions", 0),
    )
    if spans is not None and spans.sample_rate < 1.0:
        summary = replace(
            summary,
            span_sample_rate=spans.sample_rate,
            spans_sampled=spans.sampled_requests,
            spans_skipped=spans.skipped_requests,
        )
    return summary


def run_configuration(
    app: str,
    level: PatternLevel,
    template: Optional[DataTemplate] = None,
    **knobs,
) -> ExperimentResult:
    """Run one (application, configuration) cell of the evaluation.

    The configuration is a pattern ``level`` (compiled to its canned
    policy) unless the ``policy`` knob names an explicit
    :class:`PlacementPolicy`.  ``knobs`` are the :class:`RunSpec`
    fields.

    ``template`` is a :class:`DataTemplate` of the same (app, seed,
    warm-up) to run on a fork of; without one the cell builds its own and
    uses it directly.
    """
    return _run(app, level, RunSpec(**knobs), template)


def _run(
    app: str, level: PatternLevel, run: RunSpec, template: Optional[DataTemplate]
) -> ExperimentResult:
    from ..middleware.context import reset_ids

    reset_ids()
    spec = APPS[app]
    policy = run.policy
    if policy is not None:
        level = policy.effective_level()
    else:
        level = PatternLevel(level)
    workload = run.workload or calibration.default_workload()
    openloop = run.openloop

    if template is None:
        data = DataTemplate.build(app, run.seed, warm=run.warm_replicas)
    else:
        template.check(app, run.seed, run.warm_replicas)
        data = template.fork()
    database, catalog = data.database, data.catalog
    streams = Streams(run.seed)
    env = Environment()
    config = spec.testbed_config()
    if run.topology is not None:
        config = run.topology.apply(config)
    testbed = build_testbed(env, config)
    trace = Trace(max_records=2_000_000) if run.with_trace else None
    spans = (
        SpanRecorder(max_spans=2_000_000, sample_rate=run.obs_sample)
        if run.with_spans
        else None
    )
    metrics = MetricsRegistry() if run.with_metrics else None
    application = spec.build_application(level, catalog=catalog)
    system = distribute(
        env,
        testbed,
        application,
        policy if policy is not None else level,
        database,
        costs=spec.costs,
        db_cost_model=spec.db_costs,
        trace=trace,
        spans=spans,
        metrics=metrics,
        streams=streams,
    )
    if system.cluster is not None:
        # The raft heartbeat/election driver is horizon-bounded: the load
        # generators run the kernel to exhaustion, so an open-ended
        # driver would never let the simulation drain.
        horizon_ms = (
            openloop.duration_ms if openloop is not None else workload.duration_ms
        )
        system.cluster.start(horizon_ms)
    if run.warm_replicas:
        # Stand-in for the paper's measurement-excluded warm-up hour:
        # read-only replicas and query caches start hot.
        system.warm_replicas()
        system.warm_query_caches(data.warm_rows)
    # The caches hold copies of the stored warm-up rows; a one-cell run
    # owns its template, so dropping it frees them before the run.
    del data
    injector = None
    faults = run.faults
    if faults is not None and not faults.empty:
        # An empty schedule installs nothing at all — no kernel events,
        # no RNG draws — so fault-free runs stay byte-identical.
        injector = FaultInjector(faults, streams).install(env, system)
    browser_factory = run.browser_pattern or spec.browser_pattern
    if openloop is not None:
        browser = browser_factory(catalog)
        if isinstance(browser, WeightedPattern):
            browser = TransitionMatrixPattern(browser)
        generator = OpenLoopGenerator(
            system,
            streams,
            browser,
            spec.writer_pattern(catalog),
            config=openloop,
            writer_group_name=spec.writer_group,
        )
    else:
        generator = LoadGenerator(
            system,
            streams,
            browser_factory(catalog),
            spec.writer_pattern(catalog),
            config=workload,
            writer_group_name=spec.writer_group,
        )
    series = None
    if run.obs_interval_ms is not None:
        series = TimeSeriesRecorder(interval_ms=run.obs_interval_ms)
        generator.timeseries = series
        # Install after warm-up/fault setup so the sampler's baseline
        # snapshot excludes construction-time counter churn, and before
        # run() so window boundaries start at t=0.
        series.install(env, system, generator, faults=faults)
    started = time.perf_counter()
    cpu_started = time.process_time()
    monitor = generator.run(env)
    cpu = time.process_time() - cpu_started
    wall = time.perf_counter() - started
    # Close staleness windows before the metrics snapshot reads them.
    resilience = collect_resilience(system, generator=generator)
    if metrics is not None:
        collect_system_metrics(metrics, system, generator=generator)
    return ExperimentResult(
        app=app,
        level=level,
        monitor=monitor,
        system=system,
        generator=generator,
        wall_seconds=wall,
        cpu_seconds=cpu,
        total_requests=generator.total_requests(),
        trace=trace,
        trace_summary=(
            _trace_summary(trace, spans, resilience) if trace is not None else None
        ),
        spans=spans,
        metrics=metrics,
        series=series,
        cache_stats=collect_cache_stats(system),
        resilience=resilience,
        fault_injector=injector,
        label=policy.name if policy is not None else None,
        topology=topology_dict(config),
    )


Cell = Tuple[str, PatternLevel]


def _run_cell(
    cell: Cell, shared: Tuple[RunSpec, Dict[str, DataTemplate]]
) -> ExperimentResult:
    """Run one cell on a fork of its app's template."""
    run, templates = shared
    app, level = cell
    return _run(app, level, run, templates[app])


def _profile_cell(cell: Cell, shared) -> ExperimentResult:
    """:func:`_run_cell` under cProfile, its profile dumped to stderr."""
    result, stats = profile_call(_run_cell, cell, shared)
    dump_cell_profile(f"{cell[0]} L{int(cell[1])}", stats, sys.stderr)
    return result


def run_cells(
    cells: Iterable[Cell],
    jobs: int = 1,
    progress=None,
    profile: bool = False,
    **knobs,
) -> Dict[Cell, ExperimentResult]:
    """Run every (app, level) cell with the :class:`RunSpec` ``knobs``.

    ``jobs=1`` runs the cells in this process, in the given order, and
    returns live results; more fans them out across that many worker
    processes, whose results arrive pickled (no live system, generator
    or trace).  Either way each app's data is built once, here, as a
    :class:`DataTemplate`, and every cell runs on a fork of it.  Cells
    are seeded independently, so a result does not depend on who ran it
    or in what order the cells finished.  ``progress.cell_done(app,
    level, wall_seconds)`` is called as each cell finishes; the returned
    dict is keyed in sorted (app, level) order.

    ``profile=True`` runs each cell under cProfile and dumps the top-25
    cumulative entries plus a per-subsystem attribution to stderr (see
    :mod:`repro.experiments.profile`).  Results are unchanged — the
    profiler only costs wall-clock time.  A profiler cannot follow work
    into worker processes, so ``jobs != 1`` is then downgraded to 1 with
    a stderr warning.
    """
    run = RunSpec(**knobs)
    keys = [(app, PatternLevel(level)) for app, level in cells]
    if len(set(keys)) != len(keys):
        raise ValueError(f"duplicate cells in {keys!r}")
    if profile and jobs != 1:
        warn_forced_serial(jobs, sys.stderr)
        jobs = 1
    templates = {
        app: DataTemplate.build(app, run.seed, warm=run.warm_replicas)
        for app in dict.fromkeys(app for app, _level in keys)
    }

    def done(cell: Cell, result: ExperimentResult) -> None:
        if progress is not None:
            progress.cell_done(cell[0], cell[1], result.wall_seconds)

    results = fan_out(
        _profile_cell if profile else _run_cell,
        keys,
        jobs=jobs,
        shared=(run, templates),
        done=done,
    )
    return {
        key: results[key] for key in sorted(results, key=lambda k: (k[0], int(k[1])))
    }


def run_series(
    app: str,
    levels=None,
    jobs: int = 1,
    progress=None,
    profile: bool = False,
    **knobs,
) -> Dict[PatternLevel, ExperimentResult]:
    """All five configurations of one application (Tables 6/7).

    :func:`run_cells` over ``app``'s ``levels`` (default: the paper's
    five; a ``policy`` knob runs its single metadata level), keyed by
    level in that order.
    """
    policy = knobs.get("policy")
    if policy is not None:
        levels = [policy.effective_level()]
    else:
        levels = [PatternLevel(level) for level in (levels or PAPER_LEVELS)]
    results = run_cells(
        [(app, level) for level in levels],
        jobs=jobs,
        progress=progress,
        profile=profile,
        **knobs,
    )
    return {level: results[(app, level)] for level in levels}
