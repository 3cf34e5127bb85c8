"""Shared fixtures for the benchmark suite.

Each benchmark regenerates one of the paper's artifacts.  The two
five-configuration series (Pet Store and RUBiS) are expensive, so they
are produced once per session by the table benchmarks and shared with
the figure benchmarks through this cache.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

# Make both `tests.helpers` (package form) and the repo root importable
# regardless of how pytest was launched.
sys.path.insert(0, str(Path(__file__).parent.parent))
sys.path.insert(0, str(Path(__file__).parent.parent / "tests"))

from repro.experiments.calibration import default_workload
from repro.experiments.parallel import default_jobs
from repro.experiments.runner import run_series

# Scaled-down run: the paper measured ~1 hour; 150 simulated seconds with
# a 40 s warm-up (plus pre-warmed replicas) reaches the same steady state.
BENCH_DURATION_MS = 150_000.0
BENCH_WARMUP_MS = 40_000.0

# Worker processes per series sweep.  The default (1) runs serially; set
# REPRO_BENCH_JOBS=0 for one worker per CPU or N for exactly N workers.
# Results are byte-identical either way — only the wall clock changes.
BENCH_JOBS = int(os.environ.get("REPRO_BENCH_JOBS", "1")) or default_jobs()

_series_cache = {}


def bench_workload():
    return default_workload(duration_ms=BENCH_DURATION_MS, warmup_ms=BENCH_WARMUP_MS)


def series_for(app: str):
    """The five-configuration series for ``app`` (cached per session)."""
    if app not in _series_cache:
        _series_cache[app] = run_series(
            app, workload=bench_workload(), seed=2003, jobs=BENCH_JOBS
        )
    return _series_cache[app]


@pytest.fixture(scope="session")
def petstore_series():
    return series_for("petstore")


@pytest.fixture(scope="session")
def rubis_series():
    return series_for("rubis")
