"""An order oracle for the event kernel.

``Simulator`` keeps its events in two containers (a heap, and a FIFO run
queue for events due at the instant they are scheduled) and promises one
order: ``(time, seq)``.  The reference below keeps every event in one
``heapq`` under that key and nothing else, so it is the order by
definition.  Random programs run on both and must agree on what ran,
when, what each ``run()`` returned and what the counters say.

An entry carries a handle only when its caller asked for one
(``schedule`` / ``schedule_at``; ``post_at`` gives none), so the programs
mix handled, handle-less, cancelled and resurrected events.
"""

import heapq
import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.simulator import SimulationError, Simulator
from repro.perf.counters import counters

QUEUED, CANCELLED, GONE = "queued", "cancelled", "gone"


class ReferenceKernel:
    """Every event in one heap keyed ``(time, seq)``; entries are
    ``[time, seq, fn, args, state]`` (``seq`` is unique, so comparison
    never reaches ``fn``)."""

    def __init__(self):
        self.now, self.heap, self.seq, self.processed = 0.0, [], 0, 0

    def schedule(self, delay, fn, *args):
        return self.schedule_at(self.now + delay, fn, *args)

    def schedule_at(self, time, fn, *args):
        entry = [max(time, self.now), self.seq, fn, args, QUEUED]
        self.seq += 1
        heapq.heappush(self.heap, entry)
        return entry

    def post_at(self, time, fn, args=()):
        self.schedule_at(time, fn, *args)

    def _next_live(self):
        while self.heap and self.heap[0][4] == CANCELLED:
            heapq.heappop(self.heap)[4] = GONE
        return self.heap[0] if self.heap else None

    def next_event_time(self):
        entry = self._next_live()
        return entry[0] if entry else float("inf")

    def run(self, until=None, max_events=50_000_000):
        start = self.processed
        while (entry := self._next_live()) and (until is None or entry[0] <= until):
            if self.processed - start >= max_events:
                raise SimulationError("exceeded max_events")
            heapq.heappop(self.heap)[4] = GONE
            self.now = entry[0]
            self.processed += 1
            entry[2](*entry[3])
        if until is not None and self.now < until:
            self.now = until
        return self.processed - start


class OnReference:
    """Cancel and resurrect, on the reference (starting and posting are
    the kernel's own methods)."""

    def __init__(self):
        self.kernel = ReferenceKernel()

    def cancel(self, entry):
        if entry[4] == QUEUED:
            entry[4] = CANCELLED

    def resurrect(self, entry):
        if entry[4] == CANCELLED:
            entry[4] = QUEUED

    def totals(self):
        return self.kernel.processed, self.kernel.seq


class OnSimulator:
    """The same verbs on the kernel under test.  ``resurrect`` is what
    ``SimTask._arm_timer`` does to its slot's tombstone."""

    def __init__(self):
        self.kernel = Simulator()
        counters.reset()

    def cancel(self, event):
        event.cancel()

    def resurrect(self, event):
        if event.cancelled and event._sim is not None:   # still queued
            event.cancelled = False
            self.kernel._cancelled -= 1

    def totals(self):
        return counters.events_processed, counters.events_scheduled


# A program is a table of handler specs plus a driver script.  A handler,
# when it fires, logs itself and performs its actions; it may only start
# handlers further down the table, so every program terminates.
DELAYS = [0.0, 0.0, 0.0, 0.5, 1.0, 1.0, 2.5]
TIMES = [0.0, 1.0, 2.0, 3.5]    # absolute, so often already past: must clamp
_action = st.one_of(
    st.tuples(st.just("start"), st.integers(1, 6), st.sampled_from(DELAYS)),
    st.tuples(st.just("start_at"), st.integers(1, 6), st.sampled_from(TIMES)),
    st.tuples(st.just("post"), st.integers(1, 6), st.sampled_from(DELAYS)),
    st.tuples(st.just("post_at"), st.integers(1, 6), st.sampled_from(TIMES)),
    st.tuples(st.just("cancel"), st.integers(0, 1000), st.just(0.0)),
    st.tuples(st.just("resurrect"), st.integers(0, 1000), st.just(0.0)),
)
_handlers = st.lists(st.lists(_action, max_size=4), min_size=1, max_size=25)
_script = st.lists(st.one_of(
    st.tuples(st.just("start"), st.integers(0, 24), st.sampled_from(DELAYS)),
    st.tuples(st.just("post"), st.integers(0, 24), st.sampled_from(DELAYS)),
    st.tuples(st.just("cancel"), st.integers(0, 1000), st.just(0.0)),
    st.tuples(st.just("resurrect"), st.integers(0, 1000), st.just(0.0)),
    st.tuples(st.just("epoch"), st.just(0), st.sampled_from([-1.0, 0.0, 0.5, 1.0, 4.0])),
    st.tuples(st.just("capped"), st.integers(0, 6), st.just(0.0)),
    st.tuples(st.just("peek"), st.just(0), st.just(0.0)),
), min_size=1, max_size=30)


def execute(side, handlers, script):
    """Run the program on one side; returns its full transcript."""
    kernel = side.kernel
    log = []
    started = []        # every handle ever returned, fired ones included
    serials = itertools.count()

    def act(kind, number, amount, base=0):
        if kind in ("start", "start_at"):       # with a handle
            schedule = kernel.schedule if kind == "start" else kernel.schedule_at
            started.append(schedule(amount, fire, base + number, next(serials)))
        elif kind in ("post", "post_at"):       # without one
            time = kernel.now + amount if kind == "post" else amount
            kernel.post_at(time, fire, (base + number, next(serials)))
        elif started:
            getattr(side, kind)(started[number % len(started)])

    def fire(index, serial):
        log.append(("fire", serial, kernel.now))
        if index < len(handlers):
            for action in handlers[index]:
                act(*action, base=index)

    for kind, number, amount in script:
        if kind == "epoch":
            log.append(("epoch", kernel.run(until=kernel.now + amount), kernel.now))
        elif kind == "capped":
            try:
                log.append(("capped", kernel.run(max_events=number), kernel.now))
            except SimulationError:
                log.append(("overflow", kernel.now))
        elif kind == "peek":
            log.append(("peek", kernel.next_event_time()))
        else:
            act(kind, number, amount)
    log.append(("drain", kernel.run(), kernel.now, kernel.next_event_time()))
    log.append(("totals", *side.totals()))
    return log


class TestOrderOracle:
    @settings(deadline=None)    # max_examples: the profile in conftest.py
    @given(handlers=_handlers, script=_script)
    def test_same_order_as_one_heap(self, handlers, script):
        assert execute(OnSimulator(), handlers, script) == \
            execute(OnReference(), handlers, script)

    def test_heap_entry_due_now_runs_before_later_run_queue_entries(self):
        # The one case where the heap's top precedes the run queue's head:
        # both due at the same instant, the heap's scheduled first.
        log = []
        sim = Simulator()

        def first():
            log.append("first")
            sim.schedule(0.0, log.append, "zero-delay, seq 3")

        sim.schedule(1.0, first)                            # seq 0
        sim.schedule(1.0, log.append, "delayed, seq 1")
        sim.schedule_at(1.0, log.append, "delayed, seq 2")
        sim.run()
        assert log == ["first", "delayed, seq 1", "delayed, seq 2",
                       "zero-delay, seq 3"]
