"""The coroutine task kernel: suspension protocol, exactness, rejections.

The contract under test is the one DESIGN.md §11 states: simulated
timestamps, wake-up ordering and timeout semantics are a pure function of
the program.  The retired OS-thread kernel was the reference for that
contract; its answers for a fixed corpus of actor programs are frozen at
the bottom of this file and the task kernel must reproduce every one.
"""

import ast
import functools
import hashlib
import pathlib

import pytest

from repro.netsim.simulator import (
    Future,
    Join,
    SimTask,
    SimTimeoutError,
    SimulationError,
    Simulator,
    Sleep,
    Wait,
)
from repro.perf.counters import counters
from repro.util.rng import DeterministicRandom


class TestSimTaskKernel:
    def test_generator_spawn_creates_task_not_thread(self):
        sim = Simulator()

        def actor(task):
            yield Sleep(1.0)
            return "done"

        handle = sim.spawn(actor, name="t")
        assert isinstance(handle, SimTask)
        sim.run_until_done(handle)
        assert handle.result == "done"

    @pytest.mark.expects_failed_actors
    def test_plain_callable_surfaces_simulation_error(self):
        # A callable that returns no generator cannot suspend; it fails
        # loudly, named, instead of "finishing synchronously".
        sim = Simulator()
        handle = sim.spawn(lambda task: 1, name="plain")
        with pytest.raises(SimulationError, match="'plain'.*not a generator"):
            sim.run_until_done(handle)
        with pytest.raises(SimulationError, match="'plain'"):
            sim.check_failures()

    def test_generator_behind_lambda_or_partial_runs(self):
        sim = Simulator()

        def actor(task, label):
            yield Sleep(1.0)
            return (label, sim.now)

        hidden = sim.spawn(lambda task: actor(task, "lambda"), name="a")
        partial = sim.spawn(functools.partial(actor, label="partial"),
                            name="b")
        sim.run()
        sim.check_failures()
        assert hidden.result == ("lambda", 1.0)
        assert partial.result == ("partial", 1.0)

    def test_sleep_advances_virtual_time(self):
        sim = Simulator()
        seen = []

        def actor(task):
            yield Sleep(2.5)
            seen.append(sim.now)
            yield Sleep(0.5)
            seen.append(sim.now)

        sim.run_until_done(sim.spawn(actor, name="t"))
        assert seen == [2.5, 3.0]

    def test_wait_returns_future_value(self):
        sim = Simulator()
        future = Future(sim)
        sim.schedule(3.0, future.resolve, 42)
        out = {}

        def actor(task):
            out["value"] = yield Wait(future)
            out["at"] = sim.now

        sim.run_until_done(sim.spawn(actor, name="t"))
        assert out == {"value": 42, "at": 3.0}

    def test_wait_timeout_raises_at_deadline(self):
        sim = Simulator()
        future = Future(sim)    # never resolved
        out = {}

        def actor(task):
            try:
                yield Wait(future, timeout=2.0)
            except SimTimeoutError:
                out["at"] = sim.now

        sim.run_until_done(sim.spawn(actor, name="t"))
        assert out["at"] == 2.0

    def test_wait_rejected_future_raises_in_task(self):
        sim = Simulator()
        future = Future(sim)
        sim.schedule(1.0, future.reject, RuntimeError("boom"))
        out = {}

        def actor(task):
            try:
                yield Wait(future)
            except RuntimeError as exc:
                out["error"] = str(exc)

        sim.run_until_done(sim.spawn(actor, name="t"))
        assert out["error"] == "boom"

    def test_join_returns_other_tasks_result(self):
        sim = Simulator()

        def child(task):
            yield Sleep(2.0)
            return "payload"

        def parent(task):
            value = yield Join(child_handle)
            return (value, sim.now)

        child_handle = sim.spawn(child, name="child")
        parent_handle = sim.spawn(parent, name="parent")
        sim.run_until_done(parent_handle)
        assert parent_handle.result == ("payload", 2.0)

    def test_nested_yield_from_composes(self):
        sim = Simulator()

        def inner(task):
            yield Sleep(1.0)
            return sim.now

        def outer(task):
            first = yield from inner(task)
            second = yield from inner(task)
            return (first, second)

        handle = sim.spawn(outer, name="outer")
        sim.run_until_done(handle)
        assert handle.result == (1.0, 2.0)

    def test_spawn_passes_extra_args(self):
        sim = Simulator()

        def actor(task, base, scale=1):
            yield Sleep(0.0)
            return base * scale

        handle = sim.spawn(actor, 7, name="t")
        sim.run_until_done(handle)
        assert handle.result == 7

    @pytest.mark.expects_failed_actors
    def test_bad_yield_surfaces_simulation_error(self):
        sim = Simulator()

        def actor(task):
            yield "not a request"

        handle = sim.spawn(actor, name="t")
        with pytest.raises(SimulationError):
            sim.run_until_done(handle)

    @pytest.mark.expects_failed_actors
    def test_exception_surfaces_via_run_until_done(self):
        sim = Simulator()

        def actor(task):
            yield Sleep(1.0)
            raise ValueError("task died")

        with pytest.raises(ValueError, match="task died"):
            sim.run_until_done(sim.spawn(actor, name="t"))

    def test_spawn_counters(self):
        sim = Simulator()
        counters.reset()

        def actor(task):
            yield Sleep(1.0)

        sim.spawn(actor, name="a")
        sim.run()
        snap = counters.snapshot()
        assert snap["tasks_spawned"] == 1
        assert snap["task_switches"] == 2    # start + one wake

    def test_tasks_interleave_by_time(self):
        sim = Simulator()
        order = []

        def actor(task, name, period):
            for _ in range(3):
                yield Sleep(period)
                order.append((name, sim.now))

        sim.spawn(actor, "slow", 2.0, name="a")
        sim.spawn(actor, "fast", 1.5, name="b")
        sim.run()
        assert order == [("fast", 1.5), ("slow", 2.0), ("fast", 3.0),
                         ("slow", 4.0), ("fast", 4.5), ("slow", 6.0)]


class TestStaleWakeRegression:
    """A future that loses the race against its timeout must not wake a
    *later* wait when it finally resolves (the stale-callback leak)."""

    def _program_events(self, sim, first, second):
        # first: waited with a 1s timeout, resolves late at t=2.0 (the
        # stale callback).  second: the wait the actor moves on to; it
        # must run its full course to t=4.0.
        sim.schedule(2.0, first.resolve, "late")
        sim.schedule(4.0, second.resolve, "on-time")

    def test_task_ignores_stale_wake(self):
        sim = Simulator()
        first, second = Future(sim), Future(sim)
        self._program_events(sim, first, second)
        out = {}

        def actor(task):
            try:
                yield Wait(first, timeout=1.0)
            except SimTimeoutError:
                out["timed_out_at"] = sim.now
            out["value"] = yield Wait(second, timeout=10.0)
            out["resumed_at"] = sim.now

        sim.run_until_done(sim.spawn(actor, name="t"))
        # The stale t=2.0 callback fired mid-second-wait; a leak would
        # resume the actor then (with first's value, or crash).
        assert out == {"timed_out_at": 1.0, "value": "on-time",
                       "resumed_at": 4.0}

    def test_abandoned_wait_timer_cannot_fire_next_wait(self):
        # The first wait's timer outlives it (deadline t=5.0); the future
        # resolves first.  When t=5.0 arrives the actor is in a *new*
        # wait — the old deadline must not cut it short.
        sim = Simulator()
        first, second = Future(sim), Future(sim)
        sim.schedule(1.0, first.resolve, "fast")
        sim.schedule(8.0, second.resolve, "slow")
        out = {}

        def actor(task):
            out["first"] = yield Wait(first, timeout=5.0)
            out["second"] = yield Wait(second, timeout=20.0)
            out["at"] = sim.now

        sim.run_until_done(sim.spawn(actor, name="t"))
        assert out == {"first": "fast", "second": "slow", "at": 8.0}


class TestMaxEventsExactBound:
    def test_run_stops_before_event_over_budget(self):
        sim = Simulator()
        ran = []
        for i in range(5):
            sim.schedule(float(i), ran.append, i)
        with pytest.raises(SimulationError):
            sim.run(max_events=4)
        assert ran == [0, 1, 2, 3]    # event 5 never executed

    def test_run_within_budget_completes(self):
        sim = Simulator()
        ran = []
        for i in range(4):
            sim.schedule(float(i), ran.append, i)
        sim.run(max_events=4)
        assert ran == [0, 1, 2, 3]


class TestOneKernel:
    def test_no_module_under_src_imports_threading(self):
        # Actors are tasks on one OS thread; a second execution model must
        # not come back by accident.
        import repro

        offenders = []
        for path in sorted(pathlib.Path(repro.__file__).parent.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    modules = [node.module or ""]
                else:
                    continue
                if any(m.split(".")[0] == "threading" for m in modules):
                    offenders.append(f"{path.name}:{node.lineno}")
        assert offenders == []


# -- actor programs: one op grammar for the property and the corpus ----------

N_FUTURES = 4


class _Ctx:
    def __init__(self, sim):
        self.sim = sim
        self.trace = []
        self.futures = [Future(sim) for _ in range(N_FUTURES)]


def _make_task_fn(ctx, program, name):
    def fn(task):
        for index, op in enumerate(program):
            kind = op[0]
            if kind == "sleep":
                yield Sleep(op[1])
                ctx.trace.append((ctx.sim.now, name, index, "slept"))
            elif kind == "wait":
                try:
                    value = yield Wait(ctx.futures[op[1]], timeout=op[2])
                    outcome = ("ok", value)
                except SimTimeoutError:
                    outcome = ("timeout",)
                ctx.trace.append((ctx.sim.now, name, index, "wait", outcome))
            elif kind == "spawn":
                child = f"{name}.{index}"
                ctx.sim.spawn(_make_task_fn(ctx, op[1], child), name=child)
                ctx.trace.append((ctx.sim.now, name, index, "spawned"))
            elif kind == "log":
                ctx.trace.append((ctx.sim.now, name, index, "log", op[1]))
            else:
                future = ctx.futures[op[1]]
                if not future.done:
                    future.resolve(op[2])
                ctx.trace.append((ctx.sim.now, name, index, "resolve", op[1]))
    return fn


def _run_kernel(programs):
    sim = Simulator()
    ctx = _Ctx(sim)
    counters.reset()
    for root, program in enumerate(programs):
        name = f"actor{root}"
        sim.spawn(_make_task_fn(ctx, program, name), name=name)
    sim.run()
    sim.check_failures()
    return ctx.trace, sim.now, counters.snapshot()["events_processed"]


# -- frozen cross-kernel corpus ---------------------------------------------
#
# The OS-thread kernel (deleted with this corpus's introduction) was the
# reference implementation of the suspension protocol.  Before it went, it
# ran every program below and the digest of its (trace, sim.now,
# events_processed) was recorded; the task kernel produced the same 205
# digests then and must keep producing them.  A digest that moves means
# the wake-up order, a timeout race or the number of events a suspension
# costs has changed -- which every golden trace in the repo depends on.

def _draw_time(rng, lo, hi):
    value = rng.uniform(lo, hi)
    # Half the draws land on a 0.5 s grid so that timeouts, sleeps and
    # resolves collide at one instant: the races the generation guard and
    # the done-future-beats-its-timeout rule exist for.
    return max(lo, round(value * 2) / 2) if rng.random() < 0.5 else value


def _draw_leaf(rng):
    kind = rng.choice(("sleep", "log", "resolve", "wait"))
    if kind == "sleep":
        return ("sleep", _draw_time(rng, 0.0, 4.0))
    if kind == "log":
        return ("log", rng.randint(0, 9))
    if kind == "resolve":
        return ("resolve", rng.randint(0, N_FUTURES - 1), rng.randint(0, 99))
    return ("wait", rng.randint(0, N_FUTURES - 1), _draw_time(rng, 0.1, 3.0))


def _draw_program(rng):
    ops = []
    for _ in range(rng.randint(0, 6)):
        if rng.random() < 0.2:
            ops.append(("spawn",
                        [_draw_leaf(rng) for _ in range(rng.randint(0, 4))]))
        else:
            ops.append(_draw_leaf(rng))
    return ops


#: Hand-written races, first in the corpus.
_RACES = (
    # Stale wake: future 0 loses to its 1 s timeout and resolves at t=2,
    # in the middle of the wait on future 1, which must run to t=4.
    [[("wait", 0, 1.0), ("wait", 1, 10.0)],
     [("sleep", 2.0), ("resolve", 0, 7), ("sleep", 2.0), ("resolve", 1, 8)]],
    # Timeout and resolve at the same instant, in both spawn orders.
    [[("wait", 0, 2.0), ("log", 1)], [("sleep", 2.0), ("resolve", 0, 5)]],
    [[("sleep", 2.0), ("resolve", 0, 5)], [("wait", 0, 2.0), ("log", 1)]],
    # An abandoned wait's deadline (t=5) must not cut the next wait short.
    [[("wait", 0, 5.0), ("wait", 1, 20.0)],
     [("sleep", 1.0), ("resolve", 0, 1), ("sleep", 7.0), ("resolve", 1, 2)]],
    # Waits on an already-done future never suspend but still cost a wake.
    [[("resolve", 0, 3), ("wait", 0, 1.0), ("wait", 0, 1.0), ("sleep", 0.0)]],
)


def _corpus():
    rng = DeterministicRandom("kernel-parity-corpus")
    drawn = [[_draw_program(rng) for _ in range(rng.randint(1, 3))]
             for _ in range(200)]
    return list(_RACES) + drawn


def _digest(result):
    return hashlib.sha256(repr(result).encode()).hexdigest()[:12]


#: Recorded from the thread kernel at commit 53a1916, in corpus order.
_THREAD_KERNEL_DIGESTS = """
    ef45f81fd001 53b8aea99b12 f3cbad0851d1 e39521b17ed2 dfe5c786c12a
    1676faed7e03 39048eb06318 563cd5a5b372 286e9dc4f78c 8f32804ebf25
    6ab813699aec e2d3ecf32328 e77fa751c42b 191130d3d9bf 001ca54b8ad2
    7b746382b88c b0b5a3891326 680ade33a81d 9ef557cd1080 0424797e5677
    1651513d65cb c565c4c84696 a206cec35938 a4f8e09bf167 7e1832cf502f
    6b41f468be2e 3eddf1c30096 afce946cf472 13652e2212e2 679b7e17fb44
    9480b7efeb98 e943ef19f742 c7617014e54c 250fd41c1502 316f7c836e83
    589e65e50c8c 86731eb8ef72 09591a796007 d622ff09184f d1db5a6fde73
    083453ee9bcf 9036cee399ea 19ccf88a8d90 fac1960ea92d 2d90d541f2fe
    d4c3463e68d8 9d369c784550 e8744a6c5dd3 616acf888c8b 88f97e261d4c
    b77fc22644c7 b6cb172c2565 47d9c7f0647f 02c80a570541 219433528244
    9b6c3d0ab388 a6385b074ee6 469317878c5b 9afbdeef0474 a395fdeaf1f7
    384959674dde 25e4c5f1cba3 c26eb1113318 6ef197715448 9135296dc9dd
    2be2799a2f33 9e6ef346ff5b 61296a9bd6c3 e2f665b4ee66 8958ffaf6cf1
    cd741f92b164 ef432282e44a cb554089f652 f5b53920f307 512b08b0bdf2
    6475488ec33c a34d5690c452 1c9bd233c95a 5c96aee8e627 f826b299f8e1
    5fe03d7dbd2e 6588c5f5ab54 562ca23837a9 04133ca862ab ddceaa88561d
    53b678f360bb ddcbb7871e32 36bf62ef7978 95d8cf9b0220 993e45480f90
    0f0a102e5010 dd4e2afd75b7 861949d4c413 38e691aa4218 b4b1b6ac5c0f
    9476f22a585d 253261f23fc4 44d4c6673b9f e11bc2068310 5ace5f003287
    1a7193bd4fe2 8ce0e8bfe977 55941c63d930 023be92fb40e 46c5fd714516
    efa2abc9d3c1 1d9ca0919fd6 05b0aedb30e9 523b2e031475 f8784a732fe9
    5b037ed53a91 ffa4caf2c2eb 5da6af510faa c6764a0b22ee b8a05a6204f9
    c5ae462a7ce7 811854eb2926 8f44d1349bc5 fa1d3e940b1f fd0a6ec660f9
    acaf11f9c2c9 7cb29293158c 30064cdf48c0 54e4ec55ebc5 d13971252c15
    44b6ee1a8b64 4f5c4fb3a49f 489bd176fc99 f16fb7e42d53 e7f11c296a2d
    f9f92f4e6bfe bdec1fe2d057 e07abdbe4deb 24c9c019f00b 6e15a000ed61
    558be3bec20b 6913ea9484f7 56687e6b8905 0ce233ff91c7 a865c3b22f71
    782ca7cb61e5 855391462c06 84082e534970 23701a607d06 6a6f95387200
    9da689a25874 28ffe307008d 2abdcf0f9c22 b361c747206a 119c6ec70c95
    b0620715dbb1 9d369c784550 f47e21640f7e b9643cf931a3 9d369c784550
    45c29eb1ee79 4ee2053c2c9a 5449624e54c0 b8a05a6204f9 278e2c8ebe40
    c5e2d989cde4 a88e8c0e8089 d4d9aa74e8f0 73817910517c 3711bb876cd0
    5f33e2afde3a fe7f515210b9 7ebdfca1fc18 b2e94231ef38 29dab26022cc
    fecc2f641e79 b8a05a6204f9 fd58f9372918 ee62e33dfc3f d36ead0eed47
    9d369c784550 b924a8bc4d2e 4759ce28298d 9d369c784550 68e30b33d495
    08e73a3eb508 441a7b807469 1af7a22ae19e e67ce3649c05 a95c9328d6d5
    4efefb872ff4 9d369c784550 7f2a1b632b21 9bab0f9cf2ca 94ed3970ae44
    d18ab8b5a765 6f6ce94ccfc8 a47911e6740f 9f440588e79b 3ff041217ea6
    2e09bbb549c2 45beff6f8e79 4bed0200d815 8717bbfbc464 a19e9419c577
    9e96381a42c0 082d98b41cdb 010be214595a 70110b9f5409 ab918cca2177
""".split()


class TestFrozenThreadKernelCorpus:
    def test_task_kernel_reproduces_every_recorded_digest(self):
        corpus = _corpus()
        assert len(corpus) == len(_THREAD_KERNEL_DIGESTS) == 205
        moved = [index for index, programs in enumerate(corpus)
                 if _digest(_run_kernel(programs))
                 != _THREAD_KERNEL_DIGESTS[index]]
        assert moved == []


# -- determinism property on the task kernel ----------------------------------

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

_sleep_op = st.tuples(st.just("sleep"),
                      st.floats(min_value=0.0, max_value=4.0,
                                allow_nan=False, allow_infinity=False))
_log_op = st.tuples(st.just("log"), st.integers(0, 9))
_resolve_op = st.tuples(st.just("resolve"),
                        st.integers(0, N_FUTURES - 1), st.integers(0, 99))
# Every wait carries a timeout so randomized programs always terminate.
_wait_op = st.tuples(st.just("wait"), st.integers(0, N_FUTURES - 1),
                     st.floats(min_value=0.1, max_value=3.0,
                               allow_nan=False, allow_infinity=False))
_leaf_op = st.one_of(_sleep_op, _log_op, _resolve_op, _wait_op)
_spawn_op = st.tuples(st.just("spawn"), st.lists(_leaf_op, max_size=4))
_program = st.lists(st.one_of(_leaf_op, _spawn_op), max_size=6)
_programs = st.lists(_program, min_size=1, max_size=3)


class TestKernelParityProperty:
    @settings(max_examples=30, deadline=None)
    @given(programs=_programs)
    def test_random_programs_trace_identically(self, programs):
        assert _run_kernel(programs) == _run_kernel(programs)
