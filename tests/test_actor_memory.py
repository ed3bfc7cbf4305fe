"""An actor holds memory only while it can still run.

The kernel promises memory in the live actors, not in all actors ever
spawned.  A finished actor must not stay reachable through the timer-slot
tombstone it leaves queued; a waiting actor must stay reachable through
its slot, so that it still times out; and an actor that has not started
carries no join future or callback list that nothing has asked for.
"""

from __future__ import annotations

import gc
import tracemalloc
import weakref

from repro.netsim.simulator import Future, SimTimeoutError, Simulator, Wait


def _noop() -> None:
    pass


def _tombstones(sim: Simulator) -> int:
    return sum(1 for entry in sim._heap
               if entry[4] is not None and entry[4].cancelled)


def test_a_finished_actor_is_not_held_by_its_queued_timer_tombstone():
    sim = Simulator(seed=1)
    # The rest of a simulation, still queued ahead of the 120 s deadlines:
    # it keeps their tombstones from reaching the front of the queue or
    # being compacted away, as live work does in any larger run.
    for _ in range(4_001):
        sim.post_at(50.0, _noop)

    def actor(task, index):
        future = Future(task.sim)
        task.sim.post_at(task.sim.now + 1.0, future.resolve, (index,))
        return (yield Wait(future, timeout=120.0))

    actors = [weakref.ref(sim.spawn(actor, i, delay=i * 0.002))
              for i in range(2_000)]
    sim.run(until=10.0)
    assert _tombstones(sim) == 2_000     # 120 s deadlines, all disarmed
    gc.collect()
    assert sum(ref() is not None for ref in actors) == 0


def test_a_waiting_actor_held_only_by_its_slot_still_times_out():
    """The future it waits on is its own: only the slot's queue entry
    reaches the actor, so the slot must hold it strongly."""
    sim = Simulator(seed=1)
    timed_out = []

    def actor(task):
        try:
            yield Wait(Future(task.sim), timeout=5.0)
        except SimTimeoutError:
            timed_out.append(task.sim.now)

    waiting = weakref.ref(sim.spawn(actor))
    sim.run(until=1.0)
    gc.collect()
    assert waiting() is not None
    sim.run()
    assert timed_out == [5.0]


def test_an_unstarted_actor_costs_a_bounded_number_of_bytes():
    """Traced bytes per spawned-but-unstarted actor (its task, start entry
    and their share of the heap), 2,000 actors, CPython 3.11 on x86-64:
    500 before the join future and the callback list were made on first
    use, 356 after.  The bound sits between the two."""
    sim = Simulator(seed=1)

    def actor(task):
        yield Wait(Future(task.sim))

    keep = []
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(2_000):
            keep.append(sim.spawn(actor, delay=100.0))
        per_actor = (tracemalloc.get_traced_memory()[0] - before) / 2_000
    finally:
        tracemalloc.stop()
    assert per_actor <= 420, per_actor
