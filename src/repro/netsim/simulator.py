"""The discrete-event core: clock, event queue, futures, and actors.

Two execution styles coexist:

* **Event-driven handlers** (relays, servers) register callbacks with
  :meth:`Simulator.schedule`; they must never block.
* **Coroutine tasks** (clients, Bento functions) run as
  :class:`SimTask`\\ s -- generators multiplexed onto the event loop by a
  trampoline.  An actor is a generator function that yields suspension
  requests (:class:`Wait`, :class:`Sleep`, :class:`Join`); a blocking
  operation is a generator function too, and its caller delegates to it
  with ``yield from``.  The whole simulation runs on **one** OS thread:
  suspending a task costs a generator frame, and memory per actor is
  O(task) bytes.

Every wake-up flows through the (deterministic) event queue and exactly
one actor runs at any instant, so fixed seeds replay bit-identical
schedules.  The order in which a suspension issues its
:meth:`Simulator.schedule` calls is part of that contract: event sequence
numbers break ties between same-instant events, so golden traces pin it.

The event heap stores ``(time, seq, event)`` tuples so ordering
comparisons run on C-level tuples -- in large runs those comparisons
used to dominate the profile.  Cancellation stays lazy, but
:meth:`Simulator.run` compacts the heap whenever cancelled entries
outnumber live ones (timeout-heavy workloads otherwise accumulate
far-future garbage without bound).

Timeouts use a *timer slot* per actor: an actor has at most one
outstanding wait, so its timeout owns a single reusable heap entry.
When the awaited future wins the race the slot is disarmed (a cancelled
tombstone that a later wait resurrects in place) instead of abandoning
one tombstone per wait -- a recv loop that used to leave thousands of
far-future entries for ``_compact`` to mop up now keeps the heap at one
entry per actor.
"""

from __future__ import annotations

import heapq
from types import GeneratorType
from typing import Any, Callable, Optional

from repro.obs.metrics import REGISTRY as _metrics
from repro.perf.profiling import active_profile
from repro.util.errors import ReproError
from repro.util.rng import DeterministicRandom

# Cached registry handles (the registry resets in place, so these survive).
_TIMERS_CANCELLED = _metrics.counter("timers_cancelled")
_TASKS_SPAWNED = _metrics.counter("actors_spawned", labels={"kind": "task"})
_TASK_SWITCHES = _metrics.counter("task_switches")
_EVENTS_PROCESSED = _metrics.counter("perf_events_processed")
_EVENTS_SCHEDULED = _metrics.counter("perf_events_scheduled")
_HEAP_COMPACTIONS = _metrics.counter("perf_heap_compactions")

# Compact the heap when it holds this many cancelled events and they
# outnumber the live ones.  Small enough to bound garbage, large enough
# that compaction cost is amortized over thousands of pops.
_COMPACT_MIN_CANCELLED = 64


def _discarded() -> None:  # pragma: no cover - never invoked
    """Sentinel ``fn`` stamped on cancelled events once they leave the heap,
    so a timer slot knows its tombstone can no longer be resurrected."""


class SimulationError(ReproError):
    """Raised for scheduler misuse (e.g., blocking outside an actor)."""


class SimTimeoutError(ReproError):
    """Raised when a wait exceeds its timeout."""


class Event:
    """A scheduled callback.  Returned by :meth:`Simulator.schedule`."""

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "_sim")

    def __init__(self, time: float, seq: int, fn: Callable, args: tuple,
                 sim: Optional["Simulator"] = None) -> None:
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the callback from running.  Safe to call repeatedly."""
        if not self.cancelled:
            self.cancelled = True
            if self._sim is not None:
                self._sim._cancelled += 1


class Future:
    """A one-shot container for a value that arrives later in sim-time."""

    def __init__(self, sim: "Simulator") -> None:
        self._sim = sim
        self.done = False
        self._value: Any = None
        self._exception: Optional[BaseException] = None
        self._callbacks: list[Callable[["Future"], None]] = []

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
        for callback in callbacks:
            self._sim.schedule(0.0, callback, self)

    def result(self) -> Any:
        """The value (or raise the error).  Only valid once done."""
        if not self.done:
            raise SimulationError("future not yet resolved")
        if self._exception is not None:
            raise self._exception
        return self._value

    def add_done_callback(self, callback: Callable[["Future"], None]) -> None:
        """Run ``callback(self)`` (via the event queue) once resolved."""
        if self.done:
            self._sim.schedule(0.0, callback, self)
        else:
            self._callbacks.append(callback)


# -- suspension requests -----------------------------------------------------
#
# Actors yield these to the trampoline; blocking operations yield them up
# through ``yield from`` chains.

class Wait:
    """Suspend until ``future`` resolves; the yield evaluates to its value.

    Raises :class:`SimTimeoutError` at the resumption point if ``timeout``
    simulated seconds elapse first (the future itself is left untouched).
    """

    __slots__ = ("future", "timeout")

    def __init__(self, future: Future, timeout: Optional[float] = None) -> None:
        self.future = future
        self.timeout = timeout


class Sleep:
    """Suspend for ``duration`` simulated seconds."""

    __slots__ = ("duration",)

    def __init__(self, duration: float) -> None:
        self.duration = duration


class Join:
    """Suspend until another actor finishes; evaluates to its result."""

    __slots__ = ("actor", "timeout")

    def __init__(self, actor: "SimTask", timeout: Optional[float] = None) -> None:
        self.actor = actor
        self.timeout = timeout


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
        # actor, so one heap entry serves every timeout this actor arms.
        self._timer_event: Optional[Event] = None
        self._timer_deadline: Optional[float] = None
        self._timer_on_fire: Optional[Callable[[], None]] = None
        self._fn = fn
        self._args = args
        self._gen: Optional[GeneratorType] = None
        self._waiting_on: Optional[Future] = None
        self._wait_timeout: Optional[float] = None

    # -- timer slot -------------------------------------------------------

    def _arm_timer(self, deadline: float, on_fire: Callable[[], None]) -> None:
        """Point this actor's timer slot at ``deadline``.

        Reuses the pending heap entry when possible: a disarmed tombstone
        at or before the new deadline is resurrected in place (the fire
        callback cascades forward to the true deadline when it pops
        early), so timeout-heavy loops do not grow the heap at all.
        """
        self._timer_deadline = deadline
        self._timer_on_fire = on_fire
        event = self._timer_event
        if event is not None and event.fn is _discarded:
            event = self._timer_event = None    # left the heap while disarmed
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
        self._timer_on_fire = None
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
        on_fire = self._timer_on_fire
        self._timer_deadline = None
        self._timer_on_fire = None
        if on_fire is not None:
            on_fire()

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
                    if duration < 0:
                        exc = ValueError("cannot sleep a negative duration")
                        continue
                    future = Future(sim)
                    sim.schedule(duration, future.resolve, None)
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
        self._wait_generation += 1
        generation = self._wait_generation

        def _wake(_arg: Any) -> None:
            self._wait_woken(generation)

        if timeout is not None:
            self._arm_timer(self.sim.now + timeout,
                            lambda: self._wait_timed_out(generation))
        future.add_done_callback(_wake)
        if future.done:
            if timeout is not None:
                self._disarm_timer()
            return False
        self._waiting_on = future
        self._wait_timeout = timeout
        return True

    def _wait_woken(self, generation: int) -> None:
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


#: The actor handle type blocking operations take as their first argument.
Actor = SimTask


class Simulator:
    """Deterministic discrete-event scheduler with a virtual clock."""

    def __init__(self, seed: int | str = 0) -> None:
        self.now = 0.0
        self.rng = DeterministicRandom(seed)
        self._heap: list[tuple[float, int, Event]] = []
        self._seq = 0
        self._seq_counted = 0   # events_scheduled accounted up to this seq
        self._cancelled = 0
        # Failed tasks only; successful tasks are dropped on completion
        # to keep memory O(live actors).
        self._failed: list[SimTask] = []
        self._running = False
        self._current_task: Optional[SimTask] = None

    # -- scheduling -------------------------------------------------------

    def schedule(self, delay: float, fn: Callable, *args: Any) -> Event:
        """Run ``fn(*args)`` after ``delay`` simulated seconds."""
        if delay < 0:
            raise SimulationError("cannot schedule into the past")
        seq = self._seq
        self._seq = seq + 1
        event = Event(self.now + delay, seq, fn, args, self)
        heapq.heappush(self._heap, (event.time, seq, event))
        return event

    def schedule_at(self, time: float, fn: Callable, *args: Any) -> Event:
        """Run ``fn(*args)`` at absolute simulated time ``time``.

        Past times clamp to now.  Future times are used *exactly* — no
        round trip through a relative delay — so completion times computed
        ahead of time (bulk transfers) land on the same floats the chunked
        event cascade would produce.
        """
        now = self.now
        seq = self._seq
        self._seq = seq + 1
        event = Event(time if time > now else now, seq, fn, args, self)
        heapq.heappush(self._heap, (event.time, seq, event))
        return event

    # -- actors ------------------------------------------------------------

    def spawn(self, fn: Callable, *args: Any, name: str = "actor",
              delay: float = 0.0) -> Actor:
        """Create an actor from a generator function ``fn(task, *args)``;
        it starts after ``delay`` sim-seconds."""
        actor = SimTask(self, name, fn, args)
        _TASKS_SPAWNED.value += 1
        self.schedule(delay, actor._start)
        return actor

    # -- running ------------------------------------------------------------

    def run(self, until: Optional[float] = None, max_events: int = 50_000_000) -> int:
        """Process events in order until the queue drains (or ``until``).

        Actor wake-ups happen synchronously inside their events, so when
        this returns with an empty queue every actor is parked or done.
        ``max_events`` is an exact bound: the run raises before event
        ``max_events + 1`` would execute.  Returns the number of events
        processed by this call (sharded runs sum these across epochs so
        one merged cap can cover K shards).
        """
        if self._running:
            raise SimulationError("run() re-entered; use actors to block")
        self._running = True
        profile = active_profile()
        if profile is not None:
            profile.enable()
        heap = self._heap
        pop = heapq.heappop
        processed = 0
        try:
            while heap:
                time, _seq, event = heap[0]
                if event.cancelled:
                    pop(heap)
                    event.fn = _discarded
                    self._cancelled -= 1
                    continue
                if until is not None and time > until:
                    break
                if processed >= max_events:
                    raise SimulationError(f"exceeded {max_events} events; runaway simulation?")
                pop(heap)
                self.now = time
                event.fn(*event.args)
                processed += 1
                if self._cancelled >= _COMPACT_MIN_CANCELLED and self._cancelled * 2 > len(heap):
                    self._compact()
                    heap = self._heap
            if until is not None and self.now < until:
                self.now = until
            return processed
        finally:
            self._running = False
            _EVENTS_PROCESSED.value += processed
            # Scheduling is counted in bulk here rather than per push; the
            # per-call increment is measurable at millions of events.
            _EVENTS_SCHEDULED.value += self._seq - self._seq_counted
            self._seq_counted = self._seq
            if profile is not None:
                profile.disable()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify.

        Pop order is unaffected: the heap is ordered by the unique
        ``(time, seq)`` key, so any valid heap over the live entries
        yields the same sequence.
        """
        live = []
        for entry in self._heap:
            if entry[2].cancelled:
                entry[2].fn = _discarded
            else:
                live.append(entry)
        self._heap = live
        heapq.heapify(self._heap)
        self._cancelled = 0
        _HEAP_COMPACTIONS.value += 1

    def next_event_time(self) -> float:
        """Earliest pending live event time (``inf`` when idle).

        Used by the sharded kernel to pick the next epoch horizon; pops
        cancelled tombstones off the top so the answer reflects work the
        loop would actually do.
        """
        heap = self._heap
        while heap and heap[0][2].cancelled:
            _, _, event = heapq.heappop(heap)
            event.fn = _discarded
            self._cancelled -= 1
        return heap[0][0] if heap else float("inf")

    def run_until_done(self, actor: Actor, until: Optional[float] = None) -> Any:
        """Run the simulation until ``actor`` completes, then return its result."""
        self.run(until=until)
        if not actor.finished:
            raise SimTimeoutError(f"actor {actor.name!r} did not finish by t={self.now}")
        if actor.exception is not None:
            raise actor.exception
        return actor.result

    def check_failures(self) -> None:
        """Raise the first exception any finished actor recorded."""
        if self._failed:
            raise self._failed[0].exception
