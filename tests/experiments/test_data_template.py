"""Build once, fork per cell: the data template behind every sweep.

A cell run on a fork of a :class:`DataTemplate` must be indistinguishable
from a cell that populated and warmed its own database: same monitor,
cache counters, resilience snapshot, metrics and final table contents,
at every level, under a sharded data tier and under a fault schedule.
The template itself must come out of a series untouched, and a sweep
must populate each app exactly once.
"""

import pickle
from dataclasses import replace
from pathlib import Path

import pytest

from repro.core.distribution import distribute
from repro.core.patterns import PatternLevel
from repro.core.policy import load_policy
from repro.experiments.runner import (
    APPS,
    DataTemplate,
    run_cells,
    run_configuration,
    run_series,
)
from repro.faults.scenarios import edge_partition
from repro.simnet.kernel import Environment
from repro.simnet.rng import Streams
from repro.simnet.topology import build_testbed
from repro.workload.generator import WorkloadConfig

SEED = 29
# Short and write-heavy, so every cell commits bids, comments or orders.
SHORT = WorkloadConfig(
    total_rate_per_s=30.0,
    browser_fraction=0.5,
    think_time_ms=2_000.0,
    duration_ms=20_000.0,
    warmup_ms=4_000.0,
)
POLICY_FILE = Path(__file__).resolve().parents[2] / "policies" / "sharded-replicated.json"


def _tables(database):
    return {
        name: [sorted(row.items()) for row in table.scan()]
        for name, table in database.tables.items()
    }


def _outcome(result):
    """Everything a cell leaves behind that a fork could have changed."""
    system = result.system
    cluster_tables = []
    if system.cluster is not None:
        cluster_tables = [
            _tables(member.database)
            for group in system.cluster.groups
            for member in group.members
        ]
    return {
        "monitor": result.monitor.to_state(),
        "cache_stats": result.cache_stats,
        "resilience": result.resilience,
        "metrics": result.metrics_state,
        "tables": _tables(system.db_server.database),
        "cluster_tables": cluster_tables,
    }


@pytest.fixture(scope="module")
def templates():
    return {app: DataTemplate.build(app, SEED) for app in APPS}


def _cells():
    for app in sorted(APPS):
        for level in PatternLevel:
            yield pytest.param(app, level, {}, id=f"{app}-L{int(level)}")
    yield pytest.param(
        "rubis", None, {"policy": load_policy(str(POLICY_FILE))}, id="rubis-sharded"
    )
    for app, level in (("rubis", 5), ("petstore", 3)):
        yield pytest.param(
            app,
            PatternLevel(level),
            {"faults": edge_partition(SHORT.duration_ms, SHORT.warmup_ms)},
            id=f"{app}-L{level}-edge-partition",
        )


@pytest.mark.parametrize("app, level, extra", list(_cells()))
def test_forked_cell_matches_fresh_cell(templates, app, level, extra):
    template = templates[app]
    frozen = pickle.dumps(template)
    kwargs = dict(workload=SHORT, seed=SEED, with_metrics=True, **extra)
    fresh = run_configuration(app, level, **kwargs)
    forked = run_configuration(app, level, template=template, **kwargs)
    assert _outcome(forked) == _outcome(fresh)
    assert pickle.dumps(template) == frozen


@pytest.mark.parametrize("app", sorted(APPS))
def test_warm_rows_are_what_the_queries_return(templates, app):
    """The stored rows land in every edge cache, equal to a live query."""
    spec = APPS[app]
    reference, catalog = spec.populate(Streams(SEED), None)
    level = PatternLevel.QUERY_CACHING
    application = spec.build_application(level, catalog=catalog)
    env = Environment()
    system = distribute(
        env,
        build_testbed(env, spec.testbed_config()),
        application,
        level,
        templates[app].fork().database,
        costs=spec.costs,
        db_cost_model=spec.db_costs,
    )
    system.warm_query_caches(templates[app].warm_rows)
    caches = [s.query_cache for s in system.servers.values() if s.query_cache is not None]
    assert caches
    for query_id, params_list in spec.warm_queries(catalog).items():
        sql = application.queries[query_id]
        for params in params_list:
            rows = reference.execute(sql, tuple(params)).rows
            for cache in caches:
                assert cache._entries[query_id].get(tuple(params)) == rows


def test_unpickled_template_runs_the_same_cell(templates):
    template = templates["rubis"]
    restored = pickle.loads(pickle.dumps(template))
    level = PatternLevel.QUERY_CACHING
    kwargs = dict(workload=SHORT, seed=SEED, with_metrics=True)
    assert _outcome(run_configuration("rubis", level, template=restored, **kwargs)) == (
        _outcome(run_configuration("rubis", level, template=template, **kwargs))
    )


def test_template_must_match_the_run(templates):
    with pytest.raises(ValueError):
        run_configuration("rubis", 1, workload=SHORT, seed=SEED + 1, template=templates["rubis"])
    with pytest.raises(ValueError):
        run_configuration(
            "rubis", 1, workload=SHORT, seed=SEED, warm_replicas=False,
            template=templates["rubis"],
        )


def _count_populates(monkeypatch):
    calls = []
    for name, spec in list(APPS.items()):
        def populate(streams, sizes, _inner=spec.populate, _name=name):
            calls.append(_name)
            return _inner(streams, sizes)

        monkeypatch.setitem(APPS, name, replace(spec, populate=populate))
    return calls


def test_run_series_populates_once_per_app(monkeypatch):
    calls = _count_populates(monkeypatch)
    series = run_series("petstore", workload=SHORT, seed=SEED)
    assert len(series) == 5
    assert calls == ["petstore"]


def test_run_cells_populates_once_per_app(monkeypatch):
    calls = _count_populates(monkeypatch)
    cells = [(app, level) for app in ("petstore", "rubis") for level in (1, 4)]
    run_cells(cells, workload=SHORT, seed=SEED, jobs=1)
    assert sorted(calls) == ["petstore", "rubis"]
