"""The database engine facade: DDL, statement execution, transactions.

This is the *pure* engine — it executes instantly in simulated time.
Timing, locking, and network protocol live in :mod:`repro.rdbms.server`
and :mod:`repro.rdbms.jdbc`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple, Union

from .compiler import EMPTY_ROW, compiled
from .executor import ExecutionError, Executor, ResultSet
from .expressions import EvaluationError
from .schema import TableSchema
from .sql import Delete, Insert, Select, Statement, Update, parse_cached
from .storage import Table
from .transactions import Transaction

__all__ = ["Database", "DatabaseError"]


class DatabaseError(Exception):
    """Raised for engine-level misuse (unknown table, bad DDL)."""


class Database:
    """A named collection of tables plus an executor.

    Statements may be SQL text (parsed and memoized) or pre-built
    statement ASTs.  Passing a :class:`Transaction` collects undo
    information; without one, statements auto-commit.
    """

    def __init__(self, name: str):
        self.name = name
        self.tables: Dict[str, Table] = {}
        self._executor = Executor(self.tables)
        self.statements_executed = 0
        self.rows_scanned_total = 0
        # Per-instance so a fresh Database starts at id 1: transaction
        # ids must not leak across cell runs in one worker process.
        self._last_transaction_id = 0

    @property
    def executor(self) -> Executor:
        """The query executor (read-only access to its scan counters)."""
        return self._executor

    def fork(self) -> "Database":
        """An independent copy of this database, counters included.

        Every table is forked (rows, hash buckets and tree nodes are
        copied), the executor's scan counters and the statement and
        transaction counters carry over, and the executor's plan caches
        start empty.  Writes to the fork never reach this database.
        """
        clone = Database(self.name)
        for name, table in self.tables.items():
            clone.tables[name] = table.fork()
        clone._executor = self._executor.fork(clone.tables)
        clone.statements_executed = self.statements_executed
        clone.rows_scanned_total = self.rows_scanned_total
        clone._last_transaction_id = self._last_transaction_id
        return clone

    # -- DDL / loading -----------------------------------------------------
    def create_table(self, schema: TableSchema) -> Table:
        if schema.name in self.tables:
            raise DatabaseError(f"table {schema.name!r} already exists")
        table = Table(schema)
        self.tables[schema.name] = table
        return table

    def table(self, name: str) -> Table:
        try:
            return self.tables[name]
        except KeyError:
            raise DatabaseError(f"no such table {name!r}") from None

    def load(self, table_name: str, rows) -> int:
        return self.table(table_name).bulk_load(rows)

    # -- transactions -----------------------------------------------------------
    def begin(self, read_only: bool = False) -> Transaction:
        self._last_transaction_id += 1
        return Transaction(
            self.tables, read_only=read_only, id=self._last_transaction_id
        )

    # -- execution -----------------------------------------------------------
    def prepare(self, sql: str) -> Statement:
        """Parse (memoized) without executing."""
        return parse_cached(sql)

    def execute(
        self,
        statement: Union[str, Statement],
        params: Tuple[Any, ...] = (),
        transaction: Optional[Transaction] = None,
    ) -> ResultSet:
        if isinstance(statement, str):
            statement = parse_cached(statement)
        if transaction is not None and transaction.read_only and not isinstance(statement, Select):
            raise DatabaseError("write statement in a read-only transaction")
        undo_log = transaction.undo_log if transaction is not None else None
        result = self._executor.execute(statement, params, undo_log=undo_log)
        self.statements_executed += 1
        self.rows_scanned_total += result.rows_scanned
        return result

    # -- introspection -----------------------------------------------------------
    def explain(
        self, statement: Union[str, Statement], params: Tuple[Any, ...] = ()
    ):
        """The query plan the executor would choose, without executing.

        Returns a :class:`~repro.rdbms.plan.QueryPlan`; ``.render()``
        yields EXPLAIN-style text including rejected candidate paths.
        """
        if isinstance(statement, str):
            statement = parse_cached(statement)
        return self._executor.explain(statement, params)

    def write_targets(self, statement: Union[str, Statement], params: Tuple[Any, ...] = ()) -> List[Tuple[str, Any]]:
        """The (table, key) pairs a mutation will touch — used for locking.

        For INSERTs this is the new primary key; for UPDATE/DELETE the
        matching rows' keys (or a whole-table sentinel when un-indexed and
        unpredictable).  SELECTs return no targets.
        """
        if isinstance(statement, str):
            statement = parse_cached(statement)
        if isinstance(statement, Select):
            return []
        if isinstance(statement, Insert):
            table = self.table(statement.table)
            pk = table.schema.primary_key
            for column, expr in zip(statement.columns, statement.values):
                if column == pk:
                    # Parameter indexes are statement-global, so the
                    # compiled closure reads the full parameter tuple.
                    return [(statement.table, compiled(expr)(EMPTY_ROW, params))]
            return [(statement.table, ("*",))]
        if isinstance(statement, (Update, Delete)):
            # Dry-run the executor's plan to find target keys.  Any
            # evaluation failure degrades to the whole-table sentinel,
            # which locks conservatively.
            table = self.table(statement.table)
            pk = table.schema.primary_key
            try:
                rows, _scanned, _index, _node = self._executor._scan_with_plan(
                    table, statement.where, params, copy_rows=False
                )
            except (ExecutionError, EvaluationError, IndexError):
                return [(statement.table, ("*",))]
            return [(statement.table, row[pk]) for row in rows]
        return []
