"""Run-time row ids are numbered per deployment, not per process.

Bid, comment and order ids used to come from module-level counters, so
the second cell a process ran wrote different ids from the first (and a
pool worker's ids depended on which cells it had run before).  Each
application descriptor now declares its sequences, so every cell starts
from the same ids.
"""

import pytest

from repro.apps import petstore, rubis
from repro.apps.petstore.facades import ORDER_IDS
from repro.apps.rubis.facades import BID_IDS
from repro.core.patterns import PatternLevel
from repro.experiments.runner import run_configuration
from repro.middleware.descriptors import ApplicationDescriptor, DescriptorError
from repro.workload.generator import WorkloadConfig

# Writer-heavy, so a short run places orders and bids.
WRITERS = WorkloadConfig(
    total_rate_per_s=30.0,
    browser_fraction=0.2,
    think_time_ms=2_000.0,
    duration_ms=40_000.0,
    warmup_ms=5_000.0,
)


def _written_ids(app, table, start):
    result = run_configuration(app, PatternLevel.CENTRALIZED, workload=WRITERS, seed=17)
    keys = result.system.db_server.database.tables[table].keys()
    return sorted(key for key in keys if key >= start)


@pytest.mark.parametrize(
    "app, table, start",
    [
        ("rubis", "bids", 1_000_000),
        ("rubis", "comments", 1_000_000),
        ("petstore", "orders", 100_000),
    ],
)
def test_back_to_back_cells_write_identical_ids(app, table, start):
    first = _written_ids(app, table, start)
    second = _written_ids(app, table, start)
    assert first, f"the workload wrote no {table}"
    assert first[0] == start
    assert second == first


def test_each_application_owns_its_sequences():
    first = rubis.build_application(PatternLevel.CENTRALIZED)
    second = rubis.build_application(PatternLevel.CENTRALIZED)
    assert first.next_id(BID_IDS) == 1_000_000
    assert first.next_id(BID_IDS) == 1_000_001
    assert second.next_id(BID_IDS) == 1_000_000
    shop = petstore.build_application(PatternLevel.CENTRALIZED)
    assert shop.next_id(ORDER_IDS) == 100_000


def test_duplicate_sequence_is_rejected():
    app = ApplicationDescriptor(name="x")
    app.add_sequence("ids", 1)
    with pytest.raises(DescriptorError):
        app.add_sequence("ids", 5)
