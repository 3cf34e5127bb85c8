"""Parallel experiment execution: a process-pool fan-out over independent work.

The paper's evaluation grid is a set of independent *cells* — one
(application, :class:`~repro.core.patterns.PatternLevel`) pair each.
RAFDA-style separation of application logic from distribution policy
means a cell shares no state with any other: every run builds its own
seeded :class:`~repro.simnet.kernel.Environment`, testbed and client
population, on its own fork of the app's data.  That makes the sweep
(and the ablations) embarrassingly parallel, and :func:`fan_out` is the
one loop that exploits it:

* each item runs in its own worker process (``ProcessPoolExecutor``),
  with the work's shared inputs shipped once per worker through the
  pool initializer;
* callers merge outcomes in a canonical order, so tables and figures
  are **byte-identical for any worker count and any completion order**.

Determinism rests on every cell being seeded independently from the
same master seed and numbering its ids (requests, transactions, client
sessions) from scratch, never from shared process state, so a cell's
observations do not depend on which process ran it or what it ran
before.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from typing import Any, Callable, Dict, Hashable, Iterable, Optional

__all__ = ["default_jobs", "fan_out"]


def default_jobs() -> int:
    """Worker-count default: one per CPU."""
    return max(1, os.cpu_count() or 1)


# The pool's ``(func, shared)``, installed in each worker by
# :func:`_install` (unset in the parent process).
_worker = None


def _install(func: Callable, shared: Any) -> None:
    global _worker
    _worker = (func, shared)


def _call(item: Hashable) -> Any:
    func, shared = _worker
    return func(item, shared)


def fan_out(
    func: Callable[[Hashable, Any], Any],
    items: Iterable[Hashable],
    jobs: int = 1,
    shared: Any = None,
    done: Optional[Callable[[Hashable, Any], None]] = None,
) -> Dict[Hashable, Any]:
    """``{item: func(item, shared)}`` for every item, in completion order.

    ``jobs <= 1`` (or a single item) calls ``func`` in this process, in
    item order; otherwise ``min(jobs, len(items))`` worker processes
    share the items, and ``func`` (a module-level function), ``shared``
    and every outcome must pickle.  ``done(item, outcome)`` runs in this
    process as each item finishes.
    """
    items = list(items)
    outcomes: Dict[Hashable, Any] = {}

    def finish(item: Hashable, outcome: Any) -> None:
        outcomes[item] = outcome
        if done is not None:
            done(item, outcome)

    if jobs <= 1 or len(items) <= 1:
        for item in items:
            finish(item, func(item, shared))
        return outcomes
    with ProcessPoolExecutor(
        max_workers=min(jobs, len(items)),
        initializer=_install,
        initargs=(func, shared),
    ) as pool:
        futures = {pool.submit(_call, item): item for item in items}
        for future in as_completed(futures):
            finish(futures[future], future.result())
    return outcomes
