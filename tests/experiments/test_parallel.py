"""Tests for the parallel experiment execution layer.

The load-bearing property: a sweep's tables and figures are
byte-identical whether the cells ran serially in one process or fanned
out across a worker pool — whatever the worker count and completion
order.
"""

import io
import pickle

import pytest

from repro.core.patterns import PatternLevel
from repro.experiments import calibration
from repro.experiments.figures import build_figure, figure_to_csv, render_figure
from repro.experiments.parallel import default_jobs
from repro.experiments.progress import ProgressReporter
from repro.experiments.runner import (
    ExperimentResult,
    RunSpec,
    run_cells,
    run_configuration,
    run_series,
)
from repro.experiments.tables import build_table, render_table, table_to_csv

FAST = calibration.default_workload(duration_ms=20_000.0, warmup_ms=5_000.0)
LEVELS = [PatternLevel.CENTRALIZED, PatternLevel.STATEFUL_CACHING]


@pytest.fixture(scope="module")
def serial_series():
    return run_series("rubis", levels=LEVELS, workload=FAST, seed=21, jobs=1)


@pytest.fixture(scope="module")
def parallel_series():
    return run_series("rubis", levels=LEVELS, workload=FAST, seed=21, jobs=2)


# ---------------------------------------------------------------------------
# Determinism: serial and parallel sweeps are indistinguishable downstream
# ---------------------------------------------------------------------------


def test_parallel_series_returns_cell_results(parallel_series):
    assert set(parallel_series) == set(LEVELS)
    for level, result in parallel_series.items():
        assert isinstance(result, ExperimentResult)
        assert result.app == "rubis"
        assert result.level == level
        assert result.wall_seconds > 0
        assert result.total_requests > 0


def test_serial_and_parallel_monitor_tables_identical(serial_series, parallel_series):
    for level in LEVELS:
        assert (
            serial_series[level].monitor.table()
            == parallel_series[level].monitor.table()
        ), level


def test_serial_and_parallel_rendered_output_identical(serial_series, parallel_series):
    serial_table = build_table(serial_series)
    parallel_table = build_table(parallel_series)
    assert render_table(serial_table) == render_table(parallel_table)
    assert table_to_csv(serial_table) == table_to_csv(parallel_table)
    serial_figure = build_figure(serial_series)
    parallel_figure = build_figure(parallel_series)
    assert render_figure(serial_figure) == render_figure(parallel_figure)
    assert figure_to_csv(serial_figure) == figure_to_csv(parallel_figure)


def test_result_order_is_canonical_regardless_of_completion(parallel_series):
    assert list(parallel_series) == LEVELS
    results = run_cells(
        [("rubis", LEVELS[1]), ("rubis", LEVELS[0])],
        workload=FAST,
        seed=21,
        jobs=1,
    )
    assert list(results) == [("rubis", LEVELS[0]), ("rubis", LEVELS[1])]


# ---------------------------------------------------------------------------
# Pickled results: no live handles, the same reporting surface
# ---------------------------------------------------------------------------


def test_cell_result_pickle_roundtrip(parallel_series):
    result = parallel_series[LEVELS[0]]
    copy = pickle.loads(pickle.dumps(result))
    assert copy.app == result.app
    assert copy.level == result.level
    assert copy.monitor.table() == result.monitor.table()
    for group in result.groups():
        assert copy.session_mean(group) == result.session_mean(group)


def test_cell_result_matches_experiment_result_surface(
    serial_series, parallel_series
):
    serial = serial_series[LEVELS[0]]
    parallel = parallel_series[LEVELS[0]]
    assert parallel.groups() == serial.monitor.groups()
    for group in serial.monitor.groups():
        assert parallel.session_mean(group) == serial.session_mean(group)
        for page in serial.monitor.pages(group):
            assert parallel.mean(group, page) == serial.mean(group, page)


def test_pickled_result_drops_live_handles_and_keeps_every_snapshot():
    result = run_configuration(
        "rubis",
        PatternLevel.REMOTE_FACADE,
        workload=FAST,
        seed=21,
        with_trace=True,
        with_spans=True,
        with_metrics=True,
        obs_interval_ms=1000.0,
        obs_sample=0.5,
    )
    copy = pickle.loads(pickle.dumps(result))
    assert result.system is not None
    assert copy.system is None
    assert copy.generator is None
    assert copy.trace is None
    assert copy.monitor.table() == result.monitor.table()
    assert copy.spans_state == result.spans_state
    assert copy.metrics_state == result.metrics_state
    assert copy.series_state == result.series_state
    assert copy.trace_summary == result.trace_summary
    assert copy.total_requests == result.total_requests
    assert result.total_requests == result.generator.total_requests() > 0


def test_sampled_spans_do_not_depend_on_earlier_cells():
    """Client ids restart per population, so span sampling does too."""
    knobs = dict(workload=FAST, seed=5, with_spans=True, obs_sample=0.5)
    first = run_configuration("petstore", PatternLevel.CENTRALIZED, **knobs)
    second = run_configuration("petstore", PatternLevel.CENTRALIZED, **knobs)
    assert first.spans_state == second.spans_state


def test_sampled_spans_identical_for_any_worker_count():
    cells = [
        ("petstore", PatternLevel.CENTRALIZED),
        ("petstore", PatternLevel.REMOTE_FACADE),
    ]
    knobs = dict(workload=FAST, seed=5, with_spans=True, obs_sample=0.5)
    serial = run_cells(cells, jobs=1, **knobs)
    pooled = run_cells(cells, jobs=2, **knobs)
    for cell in cells:
        assert serial[cell].spans_state == pooled[cell].spans_state


def test_cell_task_is_picklable():
    spec = RunSpec(workload=FAST, seed=21)
    copy = pickle.loads(pickle.dumps(spec))
    assert copy == spec


def test_run_spec_rejects_unknown_knobs():
    with pytest.raises(TypeError):
        run_cells([("rubis", PatternLevel.CENTRALIZED)], workload=FAST, sede=21)


def test_run_cells_rejects_duplicate_cells():
    with pytest.raises(ValueError):
        run_cells(
            [("rubis", PatternLevel.CENTRALIZED), ("rubis", 1)],
            workload=FAST,
            jobs=1,
        )


def test_run_cells_spans_applications():
    results = run_cells(
        [("rubis", PatternLevel.CENTRALIZED), ("petstore", PatternLevel.CENTRALIZED)],
        workload=FAST,
        seed=21,
        jobs=2,
    )
    assert list(results) == [
        ("petstore", PatternLevel.CENTRALIZED),
        ("rubis", PatternLevel.CENTRALIZED),
    ]
    for result in results.values():
        assert result.total_requests > 0


def test_with_trace_ships_summary_not_records():
    results = run_cells(
        [("rubis", PatternLevel.REMOTE_FACADE)],
        workload=FAST,
        seed=21,
        with_trace=True,
        jobs=1,
    )
    summary = results[("rubis", PatternLevel.REMOTE_FACADE)].trace_summary
    assert summary is not None
    assert summary.records > 0
    assert sum(summary.by_kind.values()) == summary.records
    # Edge-to-main RMI crosses the WAN at the façade level.
    assert summary.wide_area_calls("rmi") > 0


def test_default_jobs_positive():
    assert default_jobs() >= 1


# ---------------------------------------------------------------------------
# Progress reporting
# ---------------------------------------------------------------------------


def test_progress_reporter_counts_and_prints():
    stream = io.StringIO()
    progress = ProgressReporter(2, stream=stream, label="cells")
    progress.cell_done("rubis", PatternLevel.CENTRALIZED, 1.25)
    assert not progress.finished
    progress.done("ablate_stub_caching", 0.5)
    assert progress.finished
    lines = stream.getvalue().strip().splitlines()
    assert lines[0].startswith("[1/2 cells] rubis level 1 done in 1.2")
    assert "[2/2 cells] ablate_stub_caching" in lines[1]


def test_run_series_reports_progress_in_both_modes():
    for jobs in (1, 2):
        stream = io.StringIO()
        progress = ProgressReporter(len(LEVELS), stream=stream)
        run_series(
            "rubis",
            levels=LEVELS,
            workload=FAST,
            seed=21,
            jobs=jobs,
            progress=progress,
        )
        assert progress.completed == len(LEVELS)
        assert stream.getvalue().count("done in") == len(LEVELS)
