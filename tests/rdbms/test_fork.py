"""Cheap copies of the engine: ``BPlusTree.copy``, ``Table.fork``, ``Database.fork``.

A fork must answer every probe exactly as the original does (same rows,
same buckets, same tree shape, same executor counters) and share no
mutable state with it: writes to a fork leave the original unchanged
byte for byte.  Pickling, the route a fork's template takes to pool
workers, must preserve the same state while dropping the executor's
compiled-closure plan caches.
"""

import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rdbms.bptree import BPlusTree, _Branch
from repro.rdbms.engine import Database
from repro.rdbms.schema import Column, TableSchema
from repro.rdbms.types import INTEGER, TEXT

_settings = settings(max_examples=60, deadline=None)


# -- helpers -------------------------------------------------------------------
def _leaves(tree):
    """Leaves in left-to-right order, found by walking the branches."""
    out, stack = [], [tree._root]
    while stack:
        node = stack.pop()
        if isinstance(node, _Branch):
            stack.extend(reversed(node.children))
        else:
            out.append(node)
    return out


def _chain(tree):
    """Leaves in order, found by following the sibling links."""
    node = _leaves(tree)[0]
    out = []
    while node is not None:
        out.append(node)
        node = node.next
    return out


def _nodes(tree):
    out, stack = [], [tree._root]
    while stack:
        node = stack.pop()
        out.append(node)
        if isinstance(node, _Branch):
            stack.extend(node.children)
    return out


def _tree_state(tree):
    return {
        "items": [(key, sorted(bucket)) for key, bucket in tree.items()],
        "min": tree.min_key(),
        "max": tree.max_key(),
        "height": tree.height,
        "distinct": len(tree),
        "leaf_sizes": [len(leaf.keys) for leaf in _leaves(tree)],
    }


def _make_db():
    database = Database("fork")
    database.create_table(
        TableSchema(
            "t",
            [Column("id", INTEGER), Column("grp", INTEGER), Column("txt", TEXT)],
            primary_key="id",
            indexes=["grp", "txt"],
        )
    )
    return database


def _db_state(database):
    """Every observable part of a database, in canonical form."""
    tables = {}
    for name, table in database.tables.items():
        tables[name] = {
            "rows": [(key, sorted(row.items())) for key, row in table._rows.items()],
            "indexes": {
                column: sorted((value, sorted(keys)) for value, keys in index.items())
                for column, index in table._indexes.items()
            },
            "ordered": {
                column: _tree_state(tree) for column, tree in table._ordered.items()
            },
        }
    executor = database.executor
    return {
        "tables": tables,
        "counters": {name: getattr(executor, name) for name in executor.COUNTERS},
        "statements": database.statements_executed,
        "rows_scanned": database.rows_scanned_total,
        "transaction_id": database._last_transaction_id,
    }


def _apply(database, operations):
    for op, row_id, grp in operations:
        if op == "insert":
            if database.execute("SELECT id FROM t WHERE id = ?", (row_id,)).first():
                continue
            database.execute(
                "INSERT INTO t (id, grp, txt) VALUES (?, ?, ?)",
                (row_id, grp, f"Name{row_id % 7}"),
            )
        elif op == "update":
            database.execute("UPDATE t SET grp = ? WHERE id = ?", (grp, row_id))
        elif op == "delete":
            database.execute("DELETE FROM t WHERE id = ?", (row_id,))
        else:
            txn = database.begin()
            database.execute("DELETE FROM t WHERE grp = ?", (grp,), transaction=txn)
            txn.rollback()


def _probe(database):
    """Queries touching every access path: eq, range, prefix, full scan."""
    return [
        database.execute("SELECT * FROM t WHERE grp = ?", (2,)).rows,
        database.execute("SELECT id FROM t WHERE id >= ? AND id < ?", (5, 60)).rows,
        database.execute("SELECT id FROM t WHERE txt LIKE ?", ("name3%",)).rows,
        database.execute("SELECT COUNT(*) AS n FROM t").rows,
    ]


tree_ops = st.lists(
    st.tuples(
        st.sampled_from(["add", "add", "discard"]),
        st.integers(min_value=0, max_value=60),
        st.integers(min_value=0, max_value=3),
    ),
    max_size=200,
)

db_ops = st.lists(
    st.tuples(
        st.sampled_from(["insert", "insert", "update", "delete", "rollback"]),
        st.integers(min_value=0, max_value=24),
        st.integers(min_value=0, max_value=5),
    ),
    max_size=60,
)


# -- BPlusTree.copy -------------------------------------------------------------
def test_copy_keeps_leaves_emptied_by_lazy_deletion():
    tree = BPlusTree(order=4)
    for key in range(100):
        tree.add(key, key)
    for key in range(10, 60):
        tree.discard(key, key)
    assert any(not leaf.keys for leaf in _leaves(tree))
    clone = tree.copy()
    assert _tree_state(clone) == _tree_state(tree)
    assert [list(leaf.keys) for leaf in _chain(clone)] == [
        list(leaf.keys) for leaf in _chain(tree)
    ]


def test_copy_of_empty_tree():
    clone = BPlusTree().copy()
    assert len(clone) == 0 and clone.min_key() is None and clone.height == 1


@given(ops=tree_ops, after=tree_ops)
@_settings
def test_tree_copy_matches_and_is_independent(ops, after):
    tree = BPlusTree(order=4)
    for op, key, row_key in ops:
        getattr(tree, op)(key, row_key)
    before = _tree_state(tree)
    clone = tree.copy()
    assert _tree_state(clone) == before
    # The sibling chain of the copy visits exactly the leaves in order.
    assert [id(leaf) for leaf in _chain(clone)] == [id(leaf) for leaf in _leaves(clone)]
    # No node or bucket is shared.
    assert not {id(node) for node in _nodes(tree)} & {id(node) for node in _nodes(clone)}
    originals = {id(b) for leaf in _leaves(tree) for b in leaf.buckets}
    assert not originals & {id(b) for leaf in _leaves(clone) for b in leaf.buckets}
    for op, key, row_key in after:
        getattr(clone, op)(key, row_key)
    assert _tree_state(tree) == before


@given(ops=tree_ops)
@_settings
def test_tree_pickle_round_trip_relinks_leaves(ops):
    tree = BPlusTree(order=4)
    for op, key, row_key in ops:
        getattr(tree, op)(key, row_key)
    restored = pickle.loads(pickle.dumps(tree))
    assert _tree_state(restored) == _tree_state(tree)
    assert [id(leaf) for leaf in _chain(restored)] == [
        id(leaf) for leaf in _leaves(restored)
    ]


def test_deep_tree_pickles_without_recursing_along_the_leaf_chain():
    tree = BPlusTree(order=4)
    for key in range(20_000):
        tree.add(key, key)
    restored = pickle.loads(pickle.dumps(tree))
    assert list(restored.range_items(19_990)) == list(tree.range_items(19_990))


# -- Table.fork / Database.fork ---------------------------------------------------
@given(history=db_ops, after=db_ops)
@_settings
def test_database_fork_matches_and_is_independent(history, after):
    template = _make_db()
    _apply(template, history)
    _probe(template)
    state = _db_state(template)

    fork = template.fork()
    assert _db_state(fork) == state
    assert _probe(fork) == _probe(template)
    assert _db_state(fork) == _db_state(template)

    frozen = pickle.dumps(template)
    _apply(fork, after)
    _probe(fork)
    assert pickle.dumps(template) == frozen


def test_fork_carries_executor_counters_and_starts_with_empty_plan_caches():
    database = _make_db()
    _apply(database, [("insert", n, n % 3) for n in range(30)])
    _probe(database)
    txn = database.begin()
    txn.commit()
    executor = database.executor
    assert executor.index_scans and executor.full_scans and executor.range_scans
    assert len(executor._scan_plans) > 0

    fork = database.fork()
    for name in executor.COUNTERS:
        assert getattr(fork.executor, name) == getattr(executor, name)
    assert fork.statements_executed == database.statements_executed
    assert fork.rows_scanned_total == database.rows_scanned_total
    assert len(fork.executor._scan_plans) == 0
    assert fork.begin().id == database.begin().id
    # The fork's executor reads the fork's tables, not the template's.
    fork.execute("DELETE FROM t WHERE id = ?", (1,))
    assert database.execute("SELECT id FROM t WHERE id = ?", (1,)).rows == [{"id": 1}]


def test_database_pickle_drops_plan_caches_and_keeps_state():
    database = _make_db()
    _apply(database, [("insert", n, n % 4) for n in range(50)])
    _probe(database)
    assert len(database.executor._scan_plans) > 0
    restored = pickle.loads(pickle.dumps(database))
    assert len(restored.executor._scan_plans) == 0
    assert restored.executor.tables is restored.tables
    assert _db_state(restored) == _db_state(database)
    assert _probe(restored) == _probe(database)
