"""The discrete-event core: ordering, futures, actors."""

import pytest

from repro.netsim.simulator import (
    Future,
    Join,
    SimTimeoutError,
    SimulationError,
    Simulator,
    Sleep,
    Wait,
)


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
