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
schedules.  Events run in ``(time, seq)`` order, ``seq`` being the order
in which they were scheduled, so which calls a suspension makes, and in
what order, is part of that contract and golden traces pin it.

The queue entry is the event: ``(time, seq, fn, args, handle)``, compared
as a C-level tuple (``seq`` is unique, so comparison never reaches
``fn``).  ``handle`` is an :class:`Event` only for a caller that may
cancel -- :meth:`Simulator.schedule` / :meth:`Simulator.schedule_at`
return one, and the timer slots, bulk transfers and fault schedules keep
it.  Everything else posts through :meth:`Simulator.post_at` and carries
``None``: every ``Future`` callback and so every task wake-up, ``spawn``,
``Sleep``, and every link and loopback completion of the network model.

The queue is two containers under that one order.  An entry due later
goes into a heap.  An entry due at the instant it is scheduled -- a zero
delay, a past time, every ``Future`` callback -- needs a place in line,
not a priority queue: it is appended to a FIFO run queue, sorted by
construction (its time is ``now``, its ``seq`` the largest yet).
:meth:`Simulator.run` takes the smaller head: the run queue's, unless a
heap entry due at the same instant was scheduled first (DESIGN.md §11 has
the measurements).

Cancellation is lazy in both: a cancelled entry stays queued as a
tombstone until it reaches the front or until :meth:`Simulator.run`
compacts both containers because tombstones outnumber live entries
(timeout-heavy workloads otherwise accumulate far-future garbage without
bound).  A handle whose entry has left the queue loses its back-pointer,
so a late ``cancel()`` counts nothing.

Timeouts use a *timer slot* per actor: an actor has at most one
outstanding wait, so its timeout owns a single reusable queue entry.
When the awaited future wins the race the slot is disarmed (a tombstone
that a later wait resurrects in place) instead of abandoning one
tombstone per wait.  A wait allocates no closure: the slot stores the
deadline and the wait's generation, and the wake-up is the bound
``_wait_woken`` registered with the generation as its argument.  What a
wait still allocates is what ordering needs: the wake's queue entry and
the callback record on the future.

An actor holds what it can still use.  A *pending* one (spawned, not
started) is its :class:`SimTask` and its start entry: its join future,
timer slot and a future's callback list are each made on first use.  A
*waiting* one is held by the futures it waits on and, under a timeout,
by its slot's queue entry, so it times out even if nothing else holds
it.  A *finished* one has dropped its frame and let go of its slot, so a
tombstone it leaves queued pins nothing; its holders keep it (and
``check_failures`` a failed one).
"""

from __future__ import annotations

import heapq
from collections import deque
from types import GeneratorType
from typing import Any, Callable, Optional

from repro.obs.metrics import REGISTRY as _metrics
from repro.util.errors import ReproError
from repro.util.rng import DeterministicRandom

# Cached registry handles (the registry resets in place, so these survive).
_TIMERS_CANCELLED = _metrics.counter("timers_cancelled")
_TASKS_SPAWNED = _metrics.counter("actors_spawned", labels={"kind": "task"})
# actors_failed{kind="task"} is registered by the first failure, so a run
# without one exports no new line (and it is no perf field: no digest).
_FAILED_LABELS = {"kind": "task"}
_TASK_SWITCHES = _metrics.counter("task_switches")
_EVENTS_PROCESSED = _metrics.counter("perf_events_processed")
_EVENTS_SCHEDULED = _metrics.counter("perf_events_scheduled")
_HEAP_COMPACTIONS = _metrics.counter("perf_heap_compactions")

# Compact the heap when it holds this many cancelled events and they
# outnumber the live ones.  Small enough to bound garbage, large enough
# that compaction cost is amortized over thousands of pops.
_COMPACT_MIN_CANCELLED = 64

_INF = float("inf")


class SimulationError(ReproError):
    """Raised for scheduler misuse (e.g., blocking outside an actor)."""


class SimTimeoutError(ReproError):
    """Raised when a wait exceeds its timeout."""


class Event:
    """A cancellable handle on one queue entry.  Returned by
    :meth:`Simulator.schedule` / :meth:`Simulator.schedule_at`."""

    __slots__ = ("time", "cancelled", "_sim")

    def __init__(self, time: float, sim: "Simulator") -> None:
        self.time = time
        self.cancelled = False
        self._sim: Optional["Simulator"] = sim  # None once off the queue

    def cancel(self) -> None:
        """Prevent the callback from running.  Safe to call repeatedly, and
        a no-op once the event has run."""
        sim = self._sim
        if sim is not None and not self.cancelled:
            self.cancelled = True
            sim._cancelled += 1


class Future:
    """A one-shot container for a value that arrives later in sim-time."""

    __slots__ = ("_sim", "done", "_value", "_exception", "_callbacks")

    def __init__(self, sim: "Simulator") -> None:
        self._sim = sim
        self.done = False
        self._value: Any = None
        self._exception: Optional[BaseException] = None
        self._callbacks: Optional[list[tuple[Callable, tuple]]] = None  # lazy

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
        callbacks, self._callbacks = self._callbacks, None
        for callback, args in callbacks or ():
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
        elif self._callbacks is None:
            self._callbacks = [(callback, args)]
        else:
            self._callbacks.append((callback, args))


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


class _TimerSlot:
    """An actor's one reusable timeout entry (see the module docstring):
    the deadline, the generation of the wait it times out, and the queued
    :class:`Event`, whose callback is the slot itself (no bound method to
    allocate).  It holds the actor until the actor finishes, then not."""

    __slots__ = ("task", "deadline", "generation", "event")

    def __init__(self, task: "SimTask") -> None:
        self.task: Optional[SimTask] = task     # None once it finished
        self.deadline: Optional[float] = None   # None while disarmed
        self.generation = 0
        self.event: Optional[Event] = None

    def __call__(self) -> None:
        """Slot entry popped: fire the timeout, or cascade to the deadline."""
        self.event = None
        deadline = self.deadline
        if deadline is None:
            return
        sim = self.task.sim
        if deadline > sim.now:                  # re-armed further out
            self.event = sim.schedule_at(deadline, self)
            return
        self.deadline = None
        self.task._wait_timed_out(self.generation)


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
                 "_done_future", "_wait_generation", "_timer", "_fn",
                 "_args", "_gen", "_waiting_on", "_wait_timeout",
                 "__weakref__")

    def __init__(self, sim: "Simulator", name: str, fn: Callable, args: tuple) -> None:
        self.sim = sim
        self.name = name
        self.finished = False
        self.result: Any = None
        self.exception: Optional[BaseException] = None
        self._done_future: Optional[Future] = None    # made by a Join
        # Guards against stale wake-ups: every wait bumps the generation,
        # and a wake callback registered by an earlier wait (e.g. a future
        # that resolves long after its timeout lost the race) no longer
        # matches, so it cannot resume the actor spuriously.
        self._wait_generation = 0
        self._timer: Optional[_TimerSlot] = None    # made by a first timeout
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
        slot = self._timer
        if slot is None:
            slot = self._timer = _TimerSlot(self)
        slot.deadline = deadline
        slot.generation = generation
        event = slot.event
        if event is not None and event._sim is None:
            event = slot.event = None           # left the queue while disarmed
        if event is None:
            slot.event = self.sim.schedule_at(deadline, slot)
        elif event.time <= deadline:
            if event.cancelled:                 # resurrect the tombstone
                event.cancelled = False
                self.sim._cancelled -= 1
        else:                                   # pending entry is too late
            event.cancel()
            slot.event = self.sim.schedule_at(deadline, slot)

    def _disarm_timer(self) -> None:
        """The awaited future won the race: tombstone the slot entry."""
        slot = self._timer
        slot.deadline = None
        event = slot.event
        if event is not None and not event.cancelled:
            event.cancel()
            _TIMERS_CANCELLED.value += 1

    def _join_future(self) -> Future:
        """The future a :class:`Join` waits on, made by the first one: a
        finished actor's is made done, so it queues no event itself."""
        future = self._done_future
        if future is None:
            future = self._done_future = Future(self.sim)
            if self.finished:
                future._finish(self.result, self.exception)
        return future

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
                    future = request.actor._join_future()
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
        if self._timer is not None:
            self._timer.task = None     # its queued tombstone lets go of us
        if exception is not None:
            # Retain failed actors so check_failures() can surface them.
            self.sim._failed.append(self)
            _metrics.counter("actors_failed", _FAILED_LABELS).value += 1
        if self._done_future is not None:
            self._done_future._finish(result, exception)


#: The actor handle type blocking operations take as their first argument.
Actor = SimTask


class Simulator:
    """Deterministic discrete-event scheduler with a virtual clock."""

    def __init__(self, seed: int | str = 0) -> None:
        self.now = 0.0
        self.rng = DeterministicRandom(seed)
        self._heap: list[tuple] = []            # entries due later
        self._ready: deque[tuple] = deque()     # entries due now
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
        return self.schedule_at(self.now + delay, fn, *args)

    def schedule_at(self, time: float, fn: Callable, *args: Any) -> Event:
        """Run ``fn(*args)`` at absolute simulated time ``time``; returns a
        handle that can cancel it.

        Past times clamp to now (negative and non-finite ones are refused).
        Future times are used *exactly* — no round trip through a relative
        delay — so completion times computed ahead of time (bulk transfers)
        land on the same floats the chunked event cascade would produce.
        """
        event = Event(max(time, self.now), self)
        self.post_at(time, fn, args, event)
        return event

    def post_at(self, time: float, fn: Callable, args: tuple = (),
                handle: Optional[Event] = None) -> None:
        """:meth:`schedule_at` for a caller that will never cancel: same
        checks, same place in ``(time, seq)`` order, no :class:`Event`.
        ``args`` is the argument tuple as is; ``handle`` is how
        ``schedule_at`` attaches the one it returns."""
        if not 0.0 <= time < _INF:
            raise SimulationError(f"cannot schedule at t={time!r}")
        seq = self._seq
        self._seq = seq + 1
        if time <= self.now:
            self._ready.append((self.now, seq, fn, args, handle))
        else:
            heapq.heappush(self._heap, (time, seq, fn, args, handle))

    def _soon(self, fn: Callable, args: tuple) -> None:
        """Run ``fn(*args)`` at this instant, after everything already due."""
        seq = self._seq
        self._seq = seq + 1
        self._ready.append((self.now, seq, fn, args, None))

    # -- actors ------------------------------------------------------------

    def spawn(self, fn: Callable, *args: Any, name: str = "actor",
              delay: float = 0.0) -> Actor:
        """Create an actor from a generator function ``fn(task, *args)``;
        it starts after ``delay`` sim-seconds."""
        if not 0.0 <= delay < _INF:
            raise SimulationError(f"cannot spawn with a delay of {delay!r}s")
        actor = SimTask(self, name, fn, args)
        _TASKS_SPAWNED.value += 1
        self.post_at(self.now + delay, actor._start)
        return actor

    # -- running ------------------------------------------------------------

    def run(self, until: Optional[float] = None, max_events: int = 50_000_000) -> int:
        """Process events in order until the queue drains (or ``until``).

        Actor wake-ups happen synchronously inside their events, so when
        this returns with an empty queue every actor is parked or done.
        ``max_events`` is an exact bound: the run raises before event
        ``max_events + 1`` would execute.  Returns the number of events
        processed by this call.
        """
        if self._running:
            raise SimulationError("run() re-entered; use actors to block")
        self._running = True
        heap, ready = self._heap, self._ready
        pop, popleft = heapq.heappop, ready.popleft
        horizon = _INF if until is None else until
        processed = 0
        try:
            while True:
                # Next in (time, seq) order: the run queue's head, unless a
                # heap entry due at the same instant was scheduled before it.
                from_ready = ready and not (heap and heap[0] < ready[0])
                if from_ready:
                    time, _seq, fn, args, handle = ready[0]
                elif heap:
                    time, _seq, fn, args, handle = heap[0]
                else:
                    break
                if handle is not None and handle.cancelled:
                    popleft() if from_ready else pop(heap)
                    handle._sim = None
                    self._cancelled -= 1
                    continue
                if time > horizon:
                    break
                if processed >= max_events:
                    raise SimulationError(f"exceeded {max_events} events; runaway simulation?")
                popleft() if from_ready else pop(heap)
                self.now = time
                if handle is not None:
                    handle._sim = None  # left the queue: a late cancel() is a no-op
                fn(*args)
                processed += 1
                cancelled = self._cancelled
                if cancelled >= _COMPACT_MIN_CANCELLED and cancelled * 2 > len(heap) + len(ready):
                    self._compact()
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

    def _compact(self) -> None:
        """Drop cancelled entries from both containers, in place.

        Pop order is unaffected: entries are ordered by the unique
        ``(time, seq)`` key, so any valid heap over the live entries
        yields the same sequence, and the run queue keeps its order.
        """
        for queue in (self._heap, self._ready):
            live = []
            for entry in queue:
                handle = entry[4]
                if handle is not None and handle.cancelled:
                    handle._sim = None
                else:
                    live.append(entry)
            queue.clear()
            queue.extend(live)
        heapq.heapify(self._heap)
        self._cancelled = 0
        _HEAP_COMPACTIONS.value += 1

    @property
    def queued(self) -> int:
        """Entries waiting in the kernel, cancelled tombstones included."""
        return len(self._heap) + len(self._ready)

    def next_event_time(self) -> float:
        """Earliest pending live event time (``inf`` when idle).

        Pops cancelled tombstones off the front so the answer reflects
        work the loop would actually do.
        """
        heap, ready = self._heap, self._ready
        while ready or heap:
            queue = ready if ready and not (heap and heap[0] < ready[0]) else heap
            time, _seq, _fn, _args, handle = queue[0]
            if handle is None or not handle.cancelled:
                return time
            ready.popleft() if queue is ready else heapq.heappop(heap)
            handle._sim = None
            self._cancelled -= 1
        return _INF

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
