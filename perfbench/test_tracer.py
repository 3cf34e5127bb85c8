"""Self-test of the layer tracer on a synthetic nested generator chain.

Runs under pytest (``python3 -m pytest perfbench/test_tracer.py``) and
from ``run.py --trace 1`` before every traced run, which calls each
``test_*`` function directly.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from tracer import LayerTracer

ROOT = Path(__file__).resolve().parent.parent


def check(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


class FakeClock:
    """A clock that moves only when the synthetic 'work' says so."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class Oops(Exception):
    pass


def _chain(clock: FakeClock, tracer: LayerTracer):
    """kernel -> outer (gen) -> middle (gen) -> leaf (sync), each doing
    a known amount of work per resume."""

    def leaf(x):
        clock.advance(1.0)
        return x + 1

    leaf = tracer.wrap("sync", "leaf", leaf)

    def middle(x):
        clock.advance(2.0)
        try:
            got = yield "m1"
        except Oops:
            got = -1
        clock.advance(2.0)
        return leaf(got) * x

    middle = tracer.wrap("gen", "middle", middle)

    def outer():
        clock.advance(3.0)
        first = yield "o1"
        value = yield from middle(first)
        clock.advance(3.0)
        return value

    outer = tracer.wrap("gen", "outer", outer)

    def kernel(throw_into_middle: bool):
        gen = outer()
        clock.advance(0.5)
        check(next(gen) == "o1", "outer's first item did not pass through")
        check(gen.send(10) == "m1", "middle's item did not pass through")
        clock.advance(0.5)
        try:
            if throw_into_middle:
                gen.throw(Oops())
            else:
                gen.send(4)
        except StopIteration as stop:
            return stop.value
        raise AssertionError("chain did not finish")

    return tracer.wrap("root", "kernel", kernel)


def test_self_times_partition_the_wrapped_total():
    clock = FakeClock()
    tracer = LayerTracer(clock)
    kernel = _chain(clock, tracer)
    check(kernel(False) == (4 + 1) * 10, "return value did not pass through")
    expected = {"kernel": 1.0, "outer": 6.0, "middle": 4.0, "leaf": 1.0}
    check(dict(tracer.self_s) == expected, f"self times {dict(tracer.self_s)}")
    check(tracer.traced_wall() == 12.0, f"wall {tracer.traced_wall()}")
    check(tracer.accounted() == tracer.traced_wall(), "self times do not sum to the wall")
    check(tracer.calls["outer"] == 1 and tracer.calls["middle"] == 1, "call counts")


def test_thrown_exception_reaches_the_wrapped_generator():
    clock = FakeClock()
    tracer = LayerTracer(clock)
    kernel = _chain(clock, tracer)
    check(kernel(True) == (-1 + 1) * 10, "thrown exception was not delivered")
    check(tracer.accounted() == tracer.traced_wall(), "partition broke on throw")


def test_raised_exception_passes_through_unchanged():
    clock = FakeClock()
    tracer = LayerTracer(clock)
    error = Oops("boom")

    def failing():
        clock.advance(1.0)
        yield "f1"
        raise error

    failing = tracer.wrap("gen", "failing", failing)

    def sync_failing():
        raise error

    sync_failing = tracer.wrap("sync", "sync_failing", sync_failing)

    def raised_by(call):
        try:
            call()
        except Oops as raised:
            return raised
        return None

    def kernel():
        gen = failing()
        next(gen)
        check(raised_by(lambda: gen.send(None)) is error, "generator exception was replaced")
        check(raised_by(sync_failing) is error, "sync exception was replaced")
        return "done"

    check(tracer.wrap("root", "kernel", kernel)() == "done", "root return value")
    check(tracer._stack == [], "layer stack left unbalanced")
    check(tracer.accounted() == tracer.traced_wall(), "partition broke on raise")


def test_close_reaches_the_wrapped_generator():
    tracer = LayerTracer(FakeClock())
    closed = []

    def body():
        try:
            yield 1
        finally:
            closed.append(True)

    gen = tracer.wrap("gen", "body", body)()
    next(gen)
    gen.close()
    check(closed == [True], "close() did not reach the wrapped generator")


def test_calls_outside_a_root_are_not_timed():
    clock = FakeClock()
    tracer = LayerTracer(clock)

    def work():
        clock.advance(5.0)
        return 7

    work = tracer.wrap("sync", "work", work)
    check(work() == 7, "untimed call changed the result")
    check(dict(tracer.self_s) == {}, "a call outside the root was timed")


def test_patch_and_restore():
    class Owner:
        def method(self):
            return 3

    original = Owner.__dict__["method"]
    tracer = LayerTracer(FakeClock())
    tracer.patch(Owner, "method", "sync", "owner")
    tracer.patch(Owner, "absent", "sync", "owner")
    check(Owner.__dict__["method"] is not original, "method was not wrapped")
    check(Owner().method() == 3, "wrapped method changed the result")
    check(tracer.missing == ["Owner.absent"], f"missing {tracer.missing}")
    tracer.restore()
    check(Owner.__dict__["method"] is original, "restore() did not undo the patch")


def test_benchmark_json_lists_every_layer_metric():
    """BENCHMARK.json's per_layer list and the traced run's report agree."""
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    from layers import UNITS

    spec = json.loads(spec_path.read_text())
    listed = {metric["name"]: metric["unit"] for metric in spec["per_layer"]}
    check(listed == UNITS, "BENCHMARK.json per_layer differs from layers.UNITS")


def run_all() -> list:
    """Run every test here; return the failure messages."""
    failures = []
    for name, test in sorted(globals().items()):
        if name.startswith("test_") and callable(test):
            try:
                test()
            except Exception as error:  # a failed self-test is reported, not raised
                failures.append(f"tracer self-test {name}: {error}")
    return failures
