"""The discrete-event core: ordering, futures, actors."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.simulator import (
    Future,
    Join,
    SimTimeoutError,
    SimulationError,
    Simulator,
    Sleep,
    Wait,
)
from repro.perf.counters import counters


class TestEventOrdering:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        seen = []
        sim.schedule(2.0, seen.append, "late")
        sim.schedule(1.0, seen.append, "early")
        sim.run()
        assert seen == ["early", "late"]

    def test_ties_run_in_schedule_order(self):
        sim = Simulator()
        seen = []
        for i in range(5):
            sim.schedule(1.0, seen.append, i)
        sim.run()
        assert seen == [0, 1, 2, 3, 4]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        times = []
        sim.schedule(3.5, lambda: times.append(sim.now))
        sim.run()
        assert times == [3.5]

    def test_cancelled_event_skipped(self):
        sim = Simulator()
        seen = []
        event = sim.schedule(1.0, seen.append, "no")
        event.cancel()
        sim.run()
        assert seen == []

    def test_run_until_stops_early(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, seen.append, "a")
        sim.schedule(5.0, seen.append, "b")
        sim.run(until=2.0)
        assert seen == ["a"]
        assert sim.now == 2.0

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_schedule_at_past_clamps_to_now(self):
        sim = Simulator()
        sim.schedule(2.0, lambda: sim.schedule_at(1.0, lambda: None))
        sim.run()   # must not raise

    def test_runaway_guard(self):
        sim = Simulator()

        def rearm():
            sim.schedule(0.0, rearm)

        sim.schedule(0.0, rearm)
        with pytest.raises(SimulationError):
            sim.run(max_events=1000)


class TestFuture:
    def test_resolve_then_result(self):
        sim = Simulator()
        future = Future(sim)
        future.resolve(42)
        assert future.result() == 42

    def test_reject_raises(self):
        sim = Simulator()
        future = Future(sim)
        future.reject(ValueError("boom"))
        with pytest.raises(ValueError):
            future.result()

    def test_double_resolve_rejected(self):
        sim = Simulator()
        future = Future(sim)
        future.resolve(1)
        with pytest.raises(SimulationError):
            future.resolve(2)

    def test_result_before_done_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            Future(sim).result()

    def test_callback_runs_via_event_queue(self):
        sim = Simulator()
        future = Future(sim)
        seen = []
        future.add_done_callback(lambda f: seen.append(f.result()))
        future.resolve("x")
        assert seen == []          # not synchronous
        sim.run()
        assert seen == ["x"]

    def test_callback_after_done(self):
        sim = Simulator()
        future = Future(sim)
        future.resolve(1)
        seen = []
        future.add_done_callback(lambda f: seen.append(True))
        sim.run()
        assert seen == [True]


class TestSimThreads:
    """Actors.  (The class keeps the name it had when actors were OS
    threads so the test ids stay stable.)"""

    def test_sleep_advances_virtual_time(self):
        sim = Simulator()

        def actor(thread):
            yield Sleep(2.5)
            return sim.now

        thread = sim.spawn(actor)
        assert sim.run_until_done(thread) == 2.5

    def test_threads_interleave_by_time(self):
        sim = Simulator()
        order = []

        def actor(thread, name, delay):
            yield Sleep(delay)
            order.append(name)

        sim.spawn(actor, "slow", 2.0)
        sim.spawn(actor, "fast", 1.0)
        sim.run()
        assert order == ["fast", "slow"]

    def test_wait_on_future(self):
        sim = Simulator()
        future = Future(sim)
        sim.schedule(1.0, future.resolve, "ready")

        def actor(thread):
            return (yield Wait(future))

        thread = sim.spawn(actor)
        assert sim.run_until_done(thread) == "ready"
        assert sim.now == 1.0

    def test_wait_timeout(self):
        sim = Simulator()
        future = Future(sim)

        def actor(thread):
            yield Wait(future, timeout=3.0)

        thread = sim.spawn(actor)
        sim.run()
        assert isinstance(thread.exception, SimTimeoutError)

    def test_wait_rejected_future_raises_in_thread(self):
        sim = Simulator()
        future = Future(sim)
        sim.schedule(0.5, future.reject, RuntimeError("down"))

        def actor(thread):
            yield Wait(future)

        thread = sim.spawn(actor)
        sim.run()
        assert isinstance(thread.exception, RuntimeError)

    def test_join_returns_result(self):
        sim = Simulator()

        def worker(thread):
            yield Sleep(1.0)
            return "done"

        def boss(thread):
            return (yield Join(worker_thread))

        worker_thread = sim.spawn(worker)
        boss_thread = sim.spawn(boss)
        assert sim.run_until_done(boss_thread) == "done"

    def test_spawn_delay(self):
        sim = Simulator()
        times = []

        def actor(thread):
            times.append(sim.now)
            yield Sleep(0.0)

        sim.spawn(actor, delay=4.0)
        sim.run()
        assert times == [4.0]

    def test_exception_surfaces_via_run_until_done(self):
        sim = Simulator()

        def actor(thread):
            raise KeyError("oops")
            yield   # unreachable: fails before its first suspension

        thread = sim.spawn(actor)
        with pytest.raises(KeyError):
            sim.run_until_done(thread)

    def test_check_failures(self):
        sim = Simulator()

        def actor(thread):
            raise ValueError("hidden")
            yield   # unreachable: fails before its first suspension

        sim.spawn(actor)
        sim.run()
        with pytest.raises(ValueError):
            sim.check_failures()

    def test_determinism_across_runs(self):
        def build_and_run():
            sim = Simulator(seed=99)
            trace = []

            def actor(thread, name):
                for _ in range(3):
                    yield Sleep(sim.rng.uniform(0.1, 1.0))
                    trace.append((name, round(sim.now, 9)))

            sim.spawn(actor, "a")
            sim.spawn(actor, "b")
            sim.run()
            return trace

        assert build_and_run() == build_and_run()


BAD_TIMES = [float("nan"), float("inf"), float("-inf"), -1.0]


def _idle(task):
    yield Sleep(5.0)


class TestNonFiniteTimesRejected:
    """A ``nan`` passes ``delay < 0`` and, once queued, compares false with
    everything: the queue stops being ordered and says nothing.  Every way
    a time enters the kernel refuses what is not a finite, non-negative
    number."""

    @pytest.mark.parametrize("delay", BAD_TIMES)
    def test_schedule(self, delay):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(delay, lambda: None)
        assert sim.queued == 0

    @pytest.mark.parametrize("time", BAD_TIMES)
    def test_schedule_at(self, time):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule_at(time, lambda: None)
        assert sim.queued == 0

    @pytest.mark.parametrize("time", BAD_TIMES)
    def test_post_at(self, time):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.post_at(time, lambda: None)
        assert sim.queued == 0

    @pytest.mark.parametrize("delay", BAD_TIMES)
    def test_spawn_delay(self, delay):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.spawn(_idle, delay=delay)
        assert sim.queued == 0

    @pytest.mark.parametrize("make_request", [
        lambda sim, bad: Sleep(bad),
        lambda sim, bad: Wait(Future(sim), timeout=bad),
        lambda sim, bad: Join(sim.spawn(_idle), timeout=bad),
    ], ids=["sleep", "wait", "join"])
    @pytest.mark.parametrize("bad", BAD_TIMES)
    def test_thrown_at_the_yield(self, make_request, bad):
        sim = Simulator()

        def actor(task):
            try:
                yield make_request(sim, bad)
            except SimulationError:
                yield Sleep(1.0)    # the actor is still usable
                return "refused", sim.now
            return "accepted", sim.now

        task = sim.spawn(actor)
        assert sim.run_until_done(task) == ("refused", 1.0)


class TestCancelAccounting:
    """``_cancelled`` counts the tombstones that are queued, no others: it
    is what decides when the kernel compacts."""

    def test_cancel_after_fire_is_a_noop(self):
        sim = Simulator()
        events = [sim.schedule(float(i % 3), lambda: None) for i in range(100)]
        assert sim.run() == 100
        for event in events:
            event.cancel()
        assert sim._cancelled == 0
        assert not any(event.cancelled for event in events)
        before = counters.heap_compactions
        sim.schedule(0.0, lambda: None)
        sim.run()
        assert counters.heap_compactions == before   # nothing to compact

    def test_handler_cancelling_its_own_event(self):
        sim = Simulator()
        holder = []
        holder.append(sim.schedule(1.0, lambda: holder[0].cancel()))
        sim.run()
        assert sim._cancelled == 0

    def test_compaction_trigger_counts_both_containers(self):
        # 64 tombstones against 124 heap entries alone would compact
        # (128 > 124); with the five run-queue entries they must not.
        sim = Simulator()
        for event in [sim.schedule(100.0, lambda: None) for _ in range(64)]:
            event.cancel()
        for _ in range(60):
            sim.schedule(200.0, lambda: None)

        def again():
            sim.schedule(0.0, again)

        for _ in range(5):
            sim.schedule(0.0, again)
        counters.reset()
        with pytest.raises(SimulationError):
            sim.run(max_events=50)
        assert counters.heap_compactions == 0
        assert sim.queued == 64 + 60 + 5

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(
        st.sampled_from(["schedule", "post", "cancel", "resurrect", "run", "wait"]),
        st.integers(0, 1000), st.sampled_from([0.0, 0.5, 1.0, 3.0])),
        max_size=60))
    def test_counts_queued_tombstones_under_any_mix(self, steps):
        sim = Simulator()
        events = []
        futures = []

        def queued_tombstones():
            return sum(entry[4] is not None and entry[4].cancelled
                       for queue in (sim._heap, sim._ready) for entry in queue)

        def waiter(task, timeout):
            # The timer slot: arm; if the future wins the slot entry is
            # tombstoned, and the second wait resurrects or replaces it.
            future = Future(sim)
            futures.append(future)
            try:
                yield Wait(future, timeout=timeout + 0.25)
                yield Wait(Future(sim), timeout=timeout)
            except SimTimeoutError:
                pass

        for kind, pick, amount in steps:
            if kind == "schedule":
                events.append(sim.schedule(amount, lambda: None))
            elif kind == "post":                    # an entry with no handle
                sim.post_at(sim.now + amount, lambda: None)
            elif kind == "cancel" and events:       # fired ones included
                events[pick % len(events)].cancel()
            elif kind == "resurrect" and events:    # as SimTask._arm_timer does
                event = events[pick % len(events)]
                if event.cancelled and event._sim is not None:
                    event.cancelled = False
                    sim._cancelled -= 1
            elif kind == "run":
                sim.run(until=sim.now + amount)
            elif kind == "wait":
                sim.spawn(waiter, amount)
                if futures and pick % 2:
                    futures.pop(pick % len(futures)).resolve(None)
            assert sim._cancelled == queued_tombstones()
        sim.run()
        assert sim._cancelled == 0 and sim.queued == 0
