"""Which entry point belongs to which layer, and the per-layer metrics.

Layers are named after the program's modules.  Each entry point is
wrapped where its callers look it up: a class attribute, or the module
global a caller imported by name (``http_get`` in both workload
modules; ``build_testbed``/``distribute`` and the collectors in the
runner).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List

import repro.experiments.runner as runner
import repro.obs.timeseries as timeseries
import repro.workload.client as closed_loop
import repro.workload.openloop as open_loop
from repro.core.distribution import DeployedSystem
from repro.core.usage import UsagePattern
from repro.middleware.consistency import EdgeConsistencyManager
from repro.middleware.context import InvocationContext
from repro.middleware.jms import JmsProvider
from repro.middleware.rmi import RemoteRef
from repro.middleware.server import AppServer
from repro.rdbms.engine import Database
from repro.rdbms.jdbc import JdbcConnection
from repro.rdbms.server import DatabaseServer
from repro.simnet.kernel import Environment
from repro.simnet.network import Network, Node
from repro.simnet.transport import Connection

from tracer import LayerTracer
from workloads import cache_counts

# (owner, attribute, wrapper kind, layer, call counter)
ENTRY_POINTS = [
    (runner, "build_testbed", "phase", "setup.testbed", ""),
    (runner, "distribute", "phase", "setup.distribute", ""),
    (DeployedSystem, "warm_replicas", "phase", "setup.warm", ""),
    (DeployedSystem, "warm_query_caches", "phase", "setup.warm", ""),
    (runner, "collect_system_metrics", "phase", "obs.collect", ""),
    (runner, "collect_cache_stats", "phase", "obs.collect", ""),
    (Environment, "run", "root", "kernel", ""),
    (Network, "transfer", "gen", "net", "net.transfers"),
    (Connection, "open", "gen", "net", "net.connections"),
    (Node, "compute", "gen", "cpu", "cpu.compute_calls"),
    # Middleware charges CPU through this inlined copy of Node.compute.
    (InvocationContext, "cpu", "gen", "cpu", "cpu.compute_calls"),
    (closed_loop, "http_get", "gen", "web", "web.fetches"),
    (open_loop, "http_get", "gen", "web", "web.fetches"),
    (AppServer, "serve", "gen", "web", "web.requests"),
    (RemoteRef, "call", "gen", "rmi", "rmi.calls"),
    (JmsProvider, "publish", "gen", "jms", "jms.publishes"),
    (EdgeConsistencyManager, "deliver", "sync", "consistency", "consistency.deliveries"),
    (JdbcConnection, "execute", "gen", "db", "db.jdbc_calls"),
    (DatabaseServer, "execute", "gen", "db", "db.server_calls"),
    (Database, "execute", "sync", "db.engine", "db.engine_calls"),
    (closed_loop.Client, "run", "gen", "workload", ""),
    (open_loop.OpenLoopGenerator, "_arrivals", "gen", "workload", ""),
    (open_loop.OpenLoopGenerator, "_session", "gen", "workload", ""),
    (timeseries.TimeSeriesRecorder, "observe_response", "sync", "obs.observe", ""),
    (getattr(timeseries, "_Sampler", None), "run", "gen", "obs.sampler", ""),
]


def _pattern_classes(root=UsagePattern) -> List[type]:
    classes = [root]
    for subclass in root.__subclasses__():
        classes.extend(_pattern_classes(subclass))
    return classes


def install(tracer: LayerTracer) -> None:
    """Wrap every layer entry point; undo with ``tracer.restore()``."""
    for owner, attr, kind, layer, counter in ENTRY_POINTS:
        if owner is None:
            tracer.missing.append(f"{layer} ({attr})")
            continue
        tracer.patch(owner, attr, kind, layer, counter)
    for cls in _pattern_classes():
        if "session" in vars(cls):
            tracer.patch(cls, "session", "sync", "workload.draw", "workload.sessions")
    for name, spec in list(runner.APPS.items()):
        populate = tracer.wrap("phase", "setup.populate", spec.populate)
        tracer.patch_item(runner.APPS, name, replace(spec, populate=populate))


# name -> unit, in report order.
UNITS: Dict[str, str] = {
    "setup.populate_s": "s",
    "setup.testbed_s": "s",
    "setup.distribute_s": "s",
    "setup.warm_s": "s",
    "kernel.timed_events": "count",
    "kernel.self_s": "s",
    "kernel.ns_per_event": "ns",
    "net.transfers": "count",
    "net.connections": "count",
    "net.self_s": "s",
    "cpu.compute_calls": "count",
    "cpu.self_s": "s",
    "web.requests": "count",
    "web.self_s": "s",
    "rmi.calls": "count",
    "rmi.self_s": "s",
    "jms.publishes": "count",
    "jms.self_s": "s",
    "consistency.deliveries": "count",
    "consistency.self_s": "s",
    "cache.query_hit_ratio": "ratio",
    "cache.query_lookups": "count",
    "cache.replica_hit_ratio": "ratio",
    "cache.replica_lookups": "count",
    "db.statements": "count",
    "db.commits": "count",
    "db.engine_s": "s",
    "db.self_s": "s",
    "db.index_scans": "count",
    "db.full_scans": "count",
    "db.lock_waits": "count",
    "db.lock_timeouts": "count",
    "workload.sessions": "count",
    "workload.peak_active": "count",
    "workload.draw_s": "s",
    "workload.self_s": "s",
    "obs.sampler_s": "s",
    "obs.observe_s": "s",
    "obs.collect_s": "s",
    "obs.spans": "count",
    "fetches": "count",
    "error_frac": "ratio",
    "sim_p50_ms": "sim_ms",
    "sim_p99_ms": "sim_ms",
    "sim_samples": "count",
    "trace.sim_wall_s": "s",
    "trace.unaccounted_s": "s",
    "trace.overhead": "x",
}


def hit_ratio(counts: List[int]) -> float:
    """hits / (hits + misses); 0 when nothing was looked up."""
    lookups = counts[0] + counts[1]
    return counts[0] / lookups if lookups else 0.0


def layer_metrics(tracer: LayerTracer, cells: List[dict]) -> Dict[str, float]:
    """Per-layer numbers of one traced pass (``cells`` from summarize_cell)."""
    self_s = tracer.self_s
    calls = tracer.calls

    def total(key: str) -> int:
        return sum(cell["db"][key] for cell in cells)

    events = sum(cell["timed_events"] for cell in cells)
    query = cache_counts(cells, "query_cache")
    replica = cache_counts(cells, "replicas")
    sim_wall = tracer.traced_wall()
    return {
        "setup.populate_s": tracer.phase_s["setup.populate"],
        "setup.testbed_s": tracer.phase_s["setup.testbed"],
        "setup.distribute_s": tracer.phase_s["setup.distribute"],
        "setup.warm_s": tracer.phase_s["setup.warm"],
        "kernel.timed_events": events,
        "kernel.self_s": self_s["kernel"],
        "kernel.ns_per_event": self_s["kernel"] / events * 1e9 if events else 0.0,
        "net.transfers": calls["net.transfers"],
        "net.connections": calls["net.connections"],
        "net.self_s": self_s["net"],
        "cpu.compute_calls": calls["cpu.compute_calls"],
        "cpu.self_s": self_s["cpu"],
        "web.requests": calls["web.requests"],
        "web.self_s": self_s["web"],
        "rmi.calls": calls["rmi.calls"],
        "rmi.self_s": self_s["rmi"],
        "jms.publishes": calls["jms.publishes"],
        "jms.self_s": self_s["jms"],
        "consistency.deliveries": calls["consistency.deliveries"],
        "consistency.self_s": self_s["consistency"],
        "cache.query_hit_ratio": hit_ratio(query),
        "cache.query_lookups": sum(query),
        "cache.replica_hit_ratio": hit_ratio(replica),
        "cache.replica_lookups": sum(replica),
        "db.statements": total("statements"),
        "db.commits": total("commits"),
        "db.engine_s": self_s["db.engine"],
        "db.self_s": self_s["db"],
        "db.index_scans": total("index_scans"),
        "db.full_scans": total("full_scans"),
        "db.lock_waits": total("lock_waits"),
        "db.lock_timeouts": total("lock_timeouts"),
        "workload.sessions": calls["workload.sessions"],
        "workload.peak_active": max(cell["peak_active"] for cell in cells),
        "workload.draw_s": self_s["workload.draw"],
        "workload.self_s": self_s["workload"],
        "obs.sampler_s": self_s["obs.sampler"],
        "obs.observe_s": self_s["obs.observe"],
        "obs.collect_s": tracer.phase_s["obs.collect"],
        "obs.spans": sum(cell["spans"] for cell in cells),
        "trace.sim_wall_s": sim_wall,
        "trace.unaccounted_s": sim_wall - tracer.accounted(),
    }
