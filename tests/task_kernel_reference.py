"""The task kernel's ``Future`` and ``SimTask`` as they were before a
finished actor let go of its timer slot and before join futures and
callback lists were made on first use, kept as the oracle the kernel in
:mod:`repro.netsim.simulator` is held to (``tests/test_task_kernel_oracle.py``):
the same events at the same ``(time, seq)``, the same results and the same
counters for any actor program.  Do not optimise this file.
"""

from __future__ import annotations

from types import GeneratorType
from typing import Any, Callable, Optional

from repro.netsim import simulator
from repro.netsim.simulator import (_INF, _TASK_SWITCHES, _TIMERS_CANCELLED,
                                    Event, Join, SimTimeoutError,
                                    SimulationError, Sleep, Wait)


class Future:
    """A one-shot container for a value that arrives later in sim-time."""

    __slots__ = ("_sim", "done", "_value", "_exception", "_callbacks")

    def __init__(self, sim: "Simulator") -> None:
        self._sim = sim
        self.done = False
        self._value: Any = None
        self._exception: Optional[BaseException] = None
        self._callbacks: list[tuple[Callable, tuple]] = []

    def resolve(self, value: Any = None) -> None:
        """Complete the future successfully."""
        self._finish(value=value)

    def reject(self, exception: BaseException) -> None:
        """Complete the future with an error."""
        self._finish(exception=exception)

    def _finish(self, value: Any = None, exception: Optional[BaseException] = None) -> None:
        if self.done:
            raise SimulationError("future resolved twice")
        self.done = True
        self._value = value
        self._exception = exception
        callbacks, self._callbacks = self._callbacks, []
        for callback, args in callbacks:
            self._sim._soon(callback, (self, *args))

    def result(self) -> Any:
        """The value (or raise the error).  Only valid once done."""
        if not self.done:
            raise SimulationError("future not yet resolved")
        if self._exception is not None:
            raise self._exception
        return self._value

    def add_done_callback(self, callback: Callable, *args: Any) -> None:
        """Run ``callback(self, *args)`` (via the event queue) once resolved."""
        if self.done:
            self._sim._soon(callback, (self, *args))
        else:
            self._callbacks.append((callback, args))


class SimTask:
    """A coroutine actor: a generator multiplexed onto the event loop.

    Created with :meth:`Simulator.spawn` from a callable that receives the
    :class:`SimTask` as its first argument and returns a generator (in
    practice a generator function), which suspends by yielding
    :class:`Wait` / :class:`Sleep` / :class:`Join` requests.  Nested
    blocking operations compose with ``yield from``.

    Event sequence numbers break same-instant ties, so the calls a
    suspension makes are pinned by every golden trace: arm the timer slot,
    then ``add_done_callback`` (one wake event, scheduled at once when the
    future is already done), then the completion check.
    """

    __slots__ = ("sim", "name", "finished", "result", "exception",
                 "_done_future", "_wait_generation", "_timer_event",
                 "_timer_deadline", "_timer_generation", "_fn", "_args",
                 "_gen", "_waiting_on", "_wait_timeout", "__weakref__")

    def __init__(self, sim: "Simulator", name: str, fn: Callable, args: tuple) -> None:
        self.sim = sim
        self.name = name
        self.finished = False
        self.result: Any = None
        self.exception: Optional[BaseException] = None
        self._done_future = Future(sim)
        # Guards against stale wake-ups: every wait bumps the generation,
        # and a wake callback registered by an earlier wait (e.g. a future
        # that resolves long after its timeout lost the race) no longer
        # matches, so it cannot resume the actor spuriously.
        self._wait_generation = 0
        # Reusable timeout slot: at most one wait is outstanding per
        # actor, so one queued entry serves every timeout this actor arms,
        # and the slot names the wait it times out by its generation.
        self._timer_event: Optional[Event] = None
        self._timer_deadline: Optional[float] = None
        self._timer_generation = 0
        self._fn = fn
        self._args = args
        self._gen: Optional[GeneratorType] = None
        self._waiting_on: Optional[Future] = None
        self._wait_timeout: Optional[float] = None

    # -- timer slot -------------------------------------------------------

    def _arm_timer(self, deadline: float, generation: int) -> None:
        """Point this actor's timer slot at ``deadline`` for wait ``generation``.

        Reuses the pending queue entry when possible: a disarmed tombstone
        at or before the new deadline is resurrected in place (the fire
        callback cascades forward to the true deadline when it pops
        early), so timeout-heavy loops do not grow the queue at all.
        """
        self._timer_deadline = deadline
        self._timer_generation = generation
        event = self._timer_event
        if event is not None and event._sim is None:
            event = self._timer_event = None    # left the queue while disarmed
        if event is None:
            self._timer_event = self.sim.schedule_at(deadline, self._timer_fire)
        elif event.time <= deadline:
            if event.cancelled:                 # resurrect the tombstone
                event.cancelled = False
                self.sim._cancelled -= 1
        else:                                   # pending entry is too late
            event.cancel()
            self._timer_event = self.sim.schedule_at(deadline, self._timer_fire)

    def _disarm_timer(self) -> None:
        """The awaited future won the race: tombstone the slot entry."""
        self._timer_deadline = None
        event = self._timer_event
        if event is not None and not event.cancelled:
            event.cancel()
            _TIMERS_CANCELLED.value += 1

    def _timer_fire(self) -> None:
        """Slot entry popped: fire the timeout, or cascade to the deadline."""
        self._timer_event = None
        deadline = self._timer_deadline
        if deadline is None:
            return
        if deadline > self.sim.now:             # re-armed further out
            self._timer_event = self.sim.schedule_at(deadline, self._timer_fire)
            return
        self._timer_deadline = None
        self._wait_timed_out(self._timer_generation)

    # -- scheduler side -------------------------------------------------

    def _start(self) -> None:
        gen = self._fn(self, *self._args)
        if not isinstance(gen, GeneratorType):
            self._finish_task(None, SimulationError(
                f"actor {self.name!r}: {self._fn!r} returned {gen!r}, not a "
                f"generator; actors are generator functions"))
            return
        self._gen = gen
        self._advance(None, None)

    def _advance(self, value: Any, exc: Optional[BaseException]) -> None:
        """Trampoline: resume the generator and service its requests.

        Runs until the task suspends on a pending future or finishes.
        Requests on already-done futures are serviced in the loop without
        suspending, but still register their wake event (which arrives
        stale): the sequence number it consumes is part of every golden
        trace.
        """
        if self.finished:
            return
        sim = self.sim
        previous = sim._current_task
        sim._current_task = self
        _TASK_SWITCHES.value += 1
        gen = self._gen
        try:
            while True:
                try:
                    request = gen.throw(exc) if exc is not None else gen.send(value)
                except StopIteration as stop:
                    self._finish_task(stop.value, None)
                    return
                except BaseException as error:  # noqa: BLE001 - surfaced via .exception
                    self._finish_task(None, error)
                    return
                value = None
                exc = None
                kind = type(request)
                if kind is Sleep:
                    duration = request.duration
                    if not 0.0 <= duration < _INF:
                        exc = SimulationError(f"cannot sleep for {duration!r}s")
                        continue
                    future = Future(sim)
                    sim.post_at(sim.now + duration, future.resolve, (None,))
                    timeout = None
                elif kind is Wait:
                    future = request.future
                    timeout = request.timeout
                elif kind is Join:
                    future = request.actor._done_future
                    timeout = request.timeout
                else:
                    exc = SimulationError(
                        f"task {self.name!r} yielded {request!r}; expected "
                        f"Wait, Sleep, or Join")
                    continue
                if timeout is not None and not 0.0 <= timeout < _INF:
                    exc = SimulationError(f"cannot wait with a timeout of {timeout!r}s")
                    continue
                if self._suspend(future, timeout):
                    return
                try:
                    value = future.result()
                except BaseException as error:  # noqa: BLE001 - rethrown in gen
                    exc = error
        finally:
            sim._current_task = previous

    def _suspend(self, future: Future, timeout: Optional[float]) -> bool:
        """Register for wake-up on ``future``; True if actually suspended.

        The order is load-bearing (see the class docstring): arm the
        timer slot first, then register the done-callback (which schedules
        a wake event immediately when the future is already done), then
        check completion.
        """
        generation = self._wait_generation = self._wait_generation + 1
        if timeout is not None:
            self._arm_timer(self.sim.now + timeout, generation)
        future.add_done_callback(self._wait_woken, generation)
        if future.done:
            if timeout is not None:
                self._disarm_timer()
            return False
        self._waiting_on = future
        self._wait_timeout = timeout
        return True

    def _wait_woken(self, _future: Future, generation: int) -> None:
        """The awaited future resolved: resume with its result."""
        if self.finished or generation != self._wait_generation:
            return      # stale registration from an abandoned wait
        future = self._waiting_on
        if future is None or not future.done:
            return      # already resumed at this instant
        self._waiting_on = None
        if self._wait_timeout is not None:
            self._disarm_timer()
        self._wait_timeout = None
        try:
            value, exc = future.result(), None
        except BaseException as error:  # noqa: BLE001 - rethrown in gen
            value, exc = None, error
        self._advance(value, exc)

    def _wait_timed_out(self, generation: int) -> None:
        """The timer slot fired for the current wait."""
        if self.finished or generation != self._wait_generation:
            return
        future = self._waiting_on
        if future is None:
            return
        self._waiting_on = None
        timeout = self._wait_timeout
        self._wait_timeout = None
        if future.done:
            # The future won at this same instant (resolved earlier in the
            # tick, wake event still queued): a done future always beats
            # its timeout, so deliver its result now and let the queued
            # wake arrive stale.
            try:
                value, exc = future.result(), None
            except BaseException as error:  # noqa: BLE001 - rethrown in gen
                value, exc = None, error
            self._advance(value, exc)
            return
        self._advance(None, SimTimeoutError(f"wait timed out after {timeout}s"))

    def _finish_task(self, result: Any,
                     exception: Optional[BaseException]) -> None:
        self.finished = True
        self.result = result
        self.exception = exception
        # Drop the frames eagerly: at N=100k actors, retaining every
        # finished generator (and its closed-over locals) is the
        # difference between O(live tasks) and O(all tasks) memory.
        self._gen = None
        self._fn = None
        self._args = ()
        self._waiting_on = None
        if exception is not None:
            # Retain failed actors so check_failures() can surface them.
            self.sim._failed.append(self)
            if not self._done_future.done:
                self._done_future.reject(exception)
        elif not self._done_future.done:
            self._done_future.resolve(result)



class Simulator(simulator.Simulator):
    """The kernel's scheduler, spawning the actors above."""

    def spawn(self, fn: Callable, *args: Any, name: str = "actor",
              delay: float = 0.0) -> SimTask:
        if not 0.0 <= delay < _INF:
            raise SimulationError(f"cannot spawn with a delay of {delay!r}s")
        actor = SimTask(self, name, fn, args)
        simulator._TASKS_SPAWNED.value += 1
        self.post_at(self.now + delay, actor._start)
        return actor
