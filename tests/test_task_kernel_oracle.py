"""The task kernel against its earlier form (``tests/task_kernel_reference.py``).

A finished actor lets go of its timer slot, and a join future or a
future's callback list is made on first use; none of that may move an
event.  A hypothesis property runs random actor programs on both kernels
-- delayed spawns, joins before start, while running and after finish on
actors that succeed or fail, several joiners on one actor, waits whose
timeouts race a resolve at the same instant, sleeps -- and compares the
``(time, seq, callback)`` log of every event run, what each actor saw,
how each ended, and every perf counter.  ``TestOracleHasTeeth`` shows the
property catches three plausible mistakes in that change.
"""

from __future__ import annotations

import pathlib
import sys
import types

import pytest
from hypothesis import example, given, settings, strategies as st

import task_kernel_reference as reference
from repro.netsim import simulator
from repro.obs.metrics import REGISTRY
from repro.perf.counters import counters

pytestmark = pytest.mark.expects_failed_actors

N_FUTURES = 3
TIMES = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0])
TIMEOUTS = st.none() | TIMES
OPS = st.one_of(
    st.tuples(st.just("sleep"), TIMES),
    st.tuples(st.just("wait"), st.integers(0, N_FUTURES - 1), TIMEOUTS),
    st.tuples(st.just("join"), st.integers(0, 4), TIMEOUTS),
    st.tuples(st.just("resolve"), st.integers(0, N_FUTURES - 1)),
)
# An actor: (start delay, its ops, how it ends).
ACTORS = st.tuples(TIMES, st.lists(OPS, max_size=4),
                   st.sampled_from(["return", "fail"]))
# A settle from outside: (future, time, "resolve" | "reject").
SETTLES = st.tuples(st.integers(0, N_FUTURES - 1), TIMES,
                    st.sampled_from(["resolve", "reject"]))
PROGRAMS = st.tuples(st.lists(ACTORS, min_size=1, max_size=5),
                     st.lists(SETTLES, max_size=4))


def _label(fn) -> tuple:
    """A callback as both kernels name it: what it does, and the actor it
    is for.  A timeout's callback was the actor's bound ``_timer_fire``;
    it is now the actor's timer slot itself."""
    if type(fn).__name__ == "_TimerSlot":
        return "timer", fn.task.name
    name = getattr(fn, "__name__", "?")
    owner = getattr(fn, "__self__", None)
    return ("timer" if name == "_timer_fire" else name,
            getattr(owner, "name", None))


def _logged(base: type) -> type:
    """``base`` with every event it runs logged as ``(time, seq, label)``."""

    class Logged(base):
        def post_at(self, time, fn, args=(), handle=None):
            super().post_at(time, self._wrap(fn), args, handle)

        def _soon(self, fn, args):
            super()._soon(self._wrap(fn), args)

        def _wrap(self, fn):
            entry, log = (self._seq, _label(fn)), self.log

            def run(*args):
                log.append((self.now, *entry))
                fn(*args)
            return run

    return Logged


def _run(program, kernel) -> dict:
    """Run ``program`` on ``kernel`` (a module with the kernel's names)."""
    actors, settles = program
    sim = _logged(kernel.Simulator)(seed=1)
    sim.log = []
    futures = [kernel.Future(sim) for _ in range(N_FUTURES)]
    tasks, seen = [], []

    def actor(task, index, ops, end):
        for step, op in enumerate(ops):
            try:
                if op[0] == "sleep":
                    got = yield kernel.Sleep(op[1])
                elif op[0] == "wait":
                    got = yield kernel.Wait(futures[op[1]], op[2])
                elif op[0] == "join":
                    got = yield kernel.Join(tasks[op[1] % len(tasks)], op[2])
                else:
                    future = futures[op[1]]
                    got = "late" if future.done else future.resolve(index)
                seen.append((index, step, sim.now, "ok", got))
            except Exception as error:  # noqa: BLE001 - what the actor saw
                seen.append((index, step, sim.now, type(error).__name__,
                             str(error)))
        if end == "fail":
            raise ValueError(f"actor {index} fails")
        return index

    def settle(which, how):
        future = futures[which]
        if not future.done:
            future.resolve(how) if how == "resolve" else future.reject(
                KeyError(which))

    counters.reset()
    for index, (delay, ops, end) in enumerate(actors):
        tasks.append(sim.spawn(actor, index, ops, end, name=f"a{index}",
                               delay=delay))
    for which, time, how in settles:
        sim.post_at(time, settle, (which, how))
    try:
        sim.run()
        crashed = None
    except Exception as error:  # noqa: BLE001 - a kernel bug surfaces here
        crashed = (type(error).__name__, str(error))
    return {
        "crashed": crashed,
        "log": sim.log,
        "seen": seen,
        "ended": [(task.finished, task.result, repr(task.exception))
                  for task in tasks],
        "failed": [task.name for task in sim._failed],
        "counters": counters.snapshot(),
        "now": sim.now,
    }


def _failed_count() -> int:
    return sum(counter.value for counter in REGISTRY.family("actors_failed"))


# Two joiners on an actor that is running, the first making its future.
@example(([(0.5, [("sleep", 1.0)], "fail"),
           (1.0, [("join", 0, None)], "return"),
           (1.0, [("join", 0, 2.0)], "return")], []))
# Two joiners on one actor, one before it starts and one while it runs.
@example(([(0.0, [("join", 1, None)], "return"),
           (0.5, [("sleep", 1.0)], "fail"),
           (1.0, [("join", 1, 2.0)], "return")], []))
# A timeout disarmed by its future, then one that fires on the same actor.
@example(([(0.0, [("wait", 0, 1.0), ("wait", 1, 0.5)], "return")],
          [(0, 0.5, "resolve")]))
# A join after the joined actor failed; a timeout racing its resolve.
@example(([(0.0, [], "fail"),
           (1.0, [("join", 0, None), ("wait", 0, 1.0)], "return")],
          [(0, 2.0, "reject")]))
@given(PROGRAMS)
@settings(deadline=None)
def test_same_events_results_and_counters_for_every_program(program):
    failed_before = _failed_count()
    current = _run(program, simulator)
    assert current["crashed"] is None
    assert _failed_count() - failed_before == len(current["failed"])
    assert current == _run(program, reference)


def _mutant(*edits: tuple) -> types.ModuleType:
    """``repro.netsim.simulator`` with each ``(old, new)`` edit made (every
    ``old`` must occur)."""
    source = pathlib.Path(simulator.__file__).read_text()
    for old, new in edits:
        assert old in source, old
        source = source.replace(old, new)
    module = types.ModuleType("simulator_mutant")
    exec(compile(source, "<mutant>", "exec"), module.__dict__)
    return module


class TestOracleHasTeeth:
    """Each mutant makes the property above, exactly as written, fail."""

    @pytest.fixture()
    def fails_under(self, monkeypatch):
        def check(*edits: tuple) -> None:
            monkeypatch.setattr(sys.modules[__name__], "simulator",
                                _mutant(*edits))
            with pytest.raises((AssertionError, ExceptionGroup)) as failed:
                test_same_events_results_and_counters_for_every_program()
            if isinstance(failed.value, ExceptionGroup):
                assert failed.value.split(AssertionError)[1] is None
        return check

    def test_finish_forgetting_a_join_future_made_while_running_is_caught(
            self, fails_under):
        fails_under(("            future = self._done_future = Future(self.sim)\n",
                     "            future = Future(self.sim)\n"
                     "            if self._gen is None:\n"
                     "                self._done_future = future\n"))

    def test_a_slot_detached_at_disarm_is_caught(self, fails_under):
        fails_under(("        slot.deadline = None\n        event = slot.event\n",
                     "        slot.deadline = None\n        slot.task = None\n"
                     "        event = slot.event\n"),
                    ("            self._timer.task = None",
                     "            pass"))

    def test_callbacks_run_in_reverse_order_is_caught(self, fails_under):
        fails_under(("        for callback, args in callbacks or ():\n",
                     "        for callback, args in reversed(callbacks or ()):\n"))
