"""Per-layer host-time attribution by wrapping layer entry points.

A :class:`LayerTracer` replaces a layer's entry point, where its callers
look it up (a class attribute or a module global), with a timing wrapper:

* a *root* wrapper (``Environment.run``) opens the traced region;
* a *sync* wrapper times one call;
* a *gen* wrapper returns a forwarding generator that times every resume
  (``send``/``throw``) of the wrapped generator, so simulated time spent
  suspended is never billed to the layer;
* a *phase* wrapper times a whole call outside the simulation (set-up
  and result collection) and is kept apart from the partition.

Inside the root, each timed interval is pushed on a layer stack; when it
ends, its duration is added to its parent's child time and its *self
time* is the duration minus that child time.  The self times of every
layer, the root's included, therefore add up to the root's wall time.
Layer wrappers reached outside a root (for example ``Database.execute``
while query caches warm up) call straight through, so set-up work is
billed only to its phase.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List

__all__ = ["LayerTracer"]


class LayerTracer:
    """Install timing wrappers, collect per-layer self time and call counts."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        #: layer -> self seconds inside the traced region.
        self.self_s: Dict[str, float] = defaultdict(float)
        #: counter -> calls made inside the traced region (or phase calls).
        self.calls: Dict[str, int] = defaultdict(int)
        #: root layer -> wall seconds of its outermost calls.
        self.root_s: Dict[str, float] = defaultdict(float)
        #: phase -> inclusive wall seconds.
        self.phase_s: Dict[str, float] = defaultdict(float)
        #: entry points that were not found (reported, never fatal).
        self.missing: List[str] = []
        self._stack: List[list] = []
        self._undo: List[Callable[[], None]] = []

    # -- the layer stack --------------------------------------------------------
    def _enter(self, layer: str) -> None:
        self._stack.append([layer, self.clock(), 0.0])

    def _exit(self) -> None:
        layer, start, child = self._stack.pop()
        elapsed = self.clock() - start
        self.self_s[layer] += elapsed - child
        if self._stack:
            self._stack[-1][2] += elapsed
        else:
            self.root_s[layer] += elapsed

    def forward(self, layer: str, gen):
        """Drive ``gen``, timing each resume as ``layer``; values and
        exceptions pass through unchanged in both directions."""
        stack = self._stack
        value = None
        error = None
        while True:
            timed = bool(stack)
            if timed:
                self._enter(layer)
            try:
                item = gen.send(value) if error is None else gen.throw(error)
            except StopIteration as stop:
                if timed:
                    self._exit()
                return stop.value
            except BaseException:
                if timed:
                    self._exit()
                raise
            if timed:
                self._exit()
            value = error = None
            try:
                value = yield item
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:
                error = exc

    # -- wrapper factories ------------------------------------------------------
    def wrap(self, kind: str, layer: str, fn: Callable, counter: str = "") -> Callable:
        """A timing wrapper around ``fn``; calls are counted as ``counter``
        (default: the layer name)."""
        factory = {
            "root": self._wrap_root,
            "sync": self._wrap_sync,
            "gen": self._wrap_gen,
            "phase": self._wrap_phase,
        }.get(kind)
        if factory is None:
            raise ValueError(f"unknown wrapper kind {kind!r}")
        return factory(layer, fn, counter or layer)

    def _wrap_root(self, layer, fn, counter):
        def root(*args, **kwargs):
            if self._stack:
                return fn(*args, **kwargs)
            self.calls[counter] += 1
            self._enter(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit()

        return root

    def _wrap_sync(self, layer, fn, counter):
        def sync(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            self.calls[counter] += 1
            self._enter(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit()

        return sync

    def _wrap_gen(self, layer, fn, counter):
        def gen(*args, **kwargs):
            inner = fn(*args, **kwargs)
            if not inspect.isgenerator(inner):
                return inner
            if self._stack:
                self.calls[counter] += 1
            return self.forward(layer, inner)

        return gen

    def _wrap_phase(self, layer, fn, counter):
        def phase(*args, **kwargs):
            self.calls[counter] += 1
            start = self.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.phase_s[layer] += self.clock() - start

        return phase

    # -- patching ---------------------------------------------------------------
    def patch(
        self, owner: Any, attr: str, kind: str, layer: str, counter: str = ""
    ) -> None:
        """Replace ``owner.attr`` (class attribute or module global).

        Only an attribute defined on ``owner`` itself is replaced, so an
        inherited method is wrapped once, where it is defined.  A missing
        entry point is recorded in :attr:`missing` and left alone: its
        time then shows up in the enclosing layer.
        """
        namespace = vars(owner)
        if attr not in namespace:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        original = namespace[attr]
        setattr(owner, attr, self.wrap(kind, layer, original, counter))
        self._undo.append(lambda: setattr(owner, attr, original))

    def patch_item(self, mapping: dict, key: Any, replacement: Any) -> None:
        """Replace ``mapping[key]`` until :meth:`restore`."""
        original = mapping[key]
        mapping[key] = replacement
        self._undo.append(lambda: mapping.__setitem__(key, original))

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._undo:
            self._undo.pop()()

    # -- reporting --------------------------------------------------------------
    def traced_wall(self) -> float:
        return sum(self.root_s.values())

    def accounted(self) -> float:
        return sum(self.self_s.values())

    def warn_missing(self, stream=sys.stderr) -> None:
        for name in self.missing:
            print(f"perfbench: entry point {name} not found; not traced", file=stream)
