"""Span/EventLog/Tracer unit tests: lifecycle, ids, and the detached path;
the one span idiom (``Tracer.span``), the operation spans of every stock
preset, and the guard that keeps call sites on that idiom."""

from __future__ import annotations

import ast
import pathlib
from types import SimpleNamespace

import pytest

import repro
from repro.core.errors import BentoError
from repro.functions.shard import ShardFunction
from repro.migrate.plane import MigrationPlane
from repro.netsim.simulator import Simulator, Sleep
from repro.obs.metrics import MetricsRegistry
from repro.obs.span import NO_SPAN, TRACER, EventLog, Span, Tracer
from repro.util.rng import DeterministicRandom
from repro.workload.presets import PRESETS, preset
from repro.workload.runner import run_workload


class TestSpan:
    def test_begin_end_duration(self):
        log = EventLog()
        span = log.begin_span("op", 1.0, kind="test")
        assert span.open
        assert span.duration is None
        span.end(3.5, ok=True)
        assert not span.open
        assert span.duration == 2.5
        assert span.attrs == {"kind": "test", "ok": True}

    def test_first_end_wins(self):
        log = EventLog()
        span = log.begin_span("op", 1.0)
        span.end(2.0, outcome="first")
        span.end(9.0, outcome="second")
        assert span.t_end == 2.0
        assert span.attrs == {"outcome": "first"}

    def test_end_clamps_to_begin(self):
        log = EventLog()
        span = log.begin_span("op", 5.0)
        span.end(4.0)
        assert span.t_end == 5.0
        assert span.duration == 0.0

    def test_annotate_merges_and_chains(self):
        log = EventLog()
        span = log.begin_span("op", 0.0, a=1)
        assert span.annotate(b=2) is span
        assert span.attrs == {"a": 1, "b": 2}

    def test_parent_link(self):
        log = EventLog()
        parent = log.begin_span("outer", 0.0)
        child = log.begin_span("inner", 1.0, parent=parent)
        assert child.parent_id == parent.span_id
        assert parent.parent_id is None

    def test_repr_states(self):
        log = EventLog()
        span = log.begin_span("op", 0.0)
        assert "open" in repr(span)
        span.end(1.0)
        assert "dur=" in repr(span)


class TestEventLog:
    def test_ids_sequential_across_spans_and_events(self):
        log = EventLog()
        s1 = log.begin_span("a", 0.0)
        e1 = log.instant("b", 0.5)
        s2 = log.begin_span("c", 1.0)
        assert [s1.span_id, e1.event_id, s2.span_id] == [1, 2, 3]
        assert len(log) == 3

    def test_open_spans_tracks_unended(self):
        log = EventLog()
        a = log.begin_span("a", 0.0)
        b = log.begin_span("b", 0.0)
        a.end(1.0)
        assert log.open_spans() == [b]

    def test_clear_restarts_ids(self):
        log = EventLog()
        log.begin_span("a", 0.0)
        log.instant("b", 0.0)
        log.clear()
        assert len(log) == 0
        assert log.begin_span("c", 0.0).span_id == 1

    def test_instant_event_fields(self):
        log = EventLog()
        event = log.instant("fault", 3.0, node="b")
        assert event.name == "fault"
        assert event.time == 3.0
        assert event.attrs == {"node": "b"}
        assert "fault" in repr(event)


class TestTracer:
    def test_detached_by_default(self):
        assert Tracer().log is None

    def test_attach_creates_log(self):
        tracer = Tracer()
        log = tracer.attach()
        assert isinstance(log, EventLog)
        assert tracer.log is log

    def test_attach_existing_log(self):
        tracer = Tracer()
        mine = EventLog()
        assert tracer.attach(mine) is mine
        assert tracer.log is mine

    def test_detach_returns_log(self):
        tracer = Tracer()
        log = tracer.attach()
        assert tracer.detach() is log
        assert tracer.log is None
        assert tracer.detach() is None

    def test_begin_and_event_noop_when_detached(self):
        tracer = Tracer()
        assert tracer.begin("op", 0.0) is None
        tracer.event("ev", 0.0)  # must not raise

    def test_begin_and_event_record_when_attached(self):
        tracer = Tracer()
        log = tracer.attach()
        span = tracer.begin("op", 0.0, key="v")
        tracer.event("ev", 1.0)
        assert isinstance(span, Span)
        assert log.spans == [span]
        assert [e.name for e in log.events] == ["ev"]

    def test_process_tracer_starts_detached_in_tests(self):
        # The conftest fixture detaches between tests; instrumented code
        # paths must therefore run at zero cost during the suite.
        assert TRACER.log is None


class _Clock:
    def __init__(self, now: float = 0.0) -> None:
        self.now = now


class TestSpanHelper:
    def test_normal_exit_ends_ok(self):
        tracer, clock = Tracer(), _Clock(1.0)
        log = tracer.attach()
        with tracer.span("op", clock, track="t") as span:
            clock.now = 3.0
            span.annotate(n=2)
        assert log.spans == [span]
        assert (span.t_begin, span.t_end) == (1.0, 3.0)
        assert span.attrs == {"track": "t", "n": 2, "ok": True}

    def test_a_raising_body_ends_failed_and_reraises(self):
        tracer, clock = Tracer(), _Clock()
        log = tracer.attach()
        with pytest.raises(KeyError):
            with tracer.span("op", clock):
                clock.now = 2.0
                raise KeyError("x")
        (span,) = log.spans
        assert span.t_end == 2.0
        assert span.attrs == {"ok": False, "error": "KeyError"}

    def test_an_explicit_end_wins(self):
        tracer, clock = Tracer(), _Clock()
        log = tracer.attach()
        with pytest.raises(ValueError):
            with tracer.span("op", clock) as span:
                span.end(clock.now, ok=False, retrieved=1)
                clock.now = 5.0
                raise ValueError
        assert log.spans[0].attrs == {"ok": False, "retrieved": 1}
        assert log.spans[0].t_end == 0.0

    def test_an_actor_killed_mid_operation_ends_failed(self):
        sim = Simulator()
        log = TRACER.attach(EventLog())

        def actor(task):
            with TRACER.span("op", sim):
                yield Sleep(10.0)

        task = sim.spawn(actor)
        sim.run(until=4.0)
        task._gen.close()
        (span,) = log.spans
        assert span.t_end == 4.0
        assert span.attrs == {"ok": False, "error": "GeneratorExit"}

    def test_detached_records_nothing_but_still_counts(self):
        tracer, clock = Tracer(), _Clock()
        registry = MetricsRegistry()
        ok, failed = registry.counter("ok"), registry.counter("failed")
        seconds = registry.histogram("seconds")
        with tracer.span("op", clock, ok=ok, failed=failed,
                         seconds=seconds, track="t") as first:
            clock.now = 2.5
            first.end(clock.now, ok=True, n=1)
        with pytest.raises(RuntimeError):
            with tracer.span("op", clock, ok=ok, failed=failed,
                             seconds=seconds) as second:
                raise RuntimeError
        assert first is second is NO_SPAN
        assert first.annotate(n=2) is NO_SPAN
        assert (ok.value, failed.value) == (1, 1)
        assert (seconds.count, seconds.sum) == (1, 2.5)

    def test_attached_counts_the_same(self):
        tracer, clock = Tracer(), _Clock()
        tracer.attach(EventLog())
        registry = MetricsRegistry()
        ok, failed = registry.counter("ok"), registry.counter("failed")
        with pytest.raises(RuntimeError):
            with tracer.span("op", clock, ok=ok, failed=failed):
                raise RuntimeError
        assert (ok.value, failed.value) == (0, 1)

    def test_an_empty_attached_log_still_records(self):
        # An EventLog with no records is falsy: the helper must test the
        # sink with ``is not None``, or the first span of a run is lost.
        tracer, log = Tracer(), EventLog()
        tracer.attach(log)
        assert not log
        with tracer.span("op", _Clock()):
            pass
        assert [span.name for span in log.spans] == ["op"]


class TestSiteEndsWin:
    def test_drain_keeps_its_reason(self):
        log = TRACER.attach(EventLog())
        server = SimpleNamespace(
            sim=Simulator(), relay=SimpleNamespace(nickname="box"),
            rng=DeterministicRandom("drain-span"))
        instance = SimpleNamespace(terminated=True, draining=False,
                                   instance_id="i1")
        gen = MigrationPlane(server).drain(None, instance)
        with pytest.raises(StopIteration) as stop:
            next(gen)
        assert stop.value.value is None
        (span,) = log.spans
        assert span.name == "migrate.drain"
        assert span.attrs == {"track": "box", "instance": "i1", "ok": False,
                              "error": "instance already terminated"}

    def test_gather_keeps_its_counts(self):
        log = TRACER.attach(EventLog())
        client = SimpleNamespace(
            sim=Simulator(),
            tor=SimpleNamespace(node=SimpleNamespace(name="alice"),
                                consensus=lambda: None))
        gen = ShardFunction.gather(None, client, {"k": 1, "n": 1,
                                                  "placements": []})
        with pytest.raises(BentoError):
            next(gen)
        (span,) = log.spans
        assert span.name == "functions.shard_gather"
        assert span.attrs == {"track": "alice", "k": 1, "n": 1, "ok": False,
                              "retrieved": 0, "failures": 0}


#: Spans that bracket a lifetime, ended by their owner (or left open at
#: the end of a run), not operations that succeed or fail.
LIFETIME_SPANS = ("netsim.connection", "core.session")


class TestPresetSpans:
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_operation_spans_end_with_ok(self, name):
        log = EventLog()
        run_workload(preset(name), trace_log=log)
        operations = [span for span in log.spans
                      if span.name not in LIFETIME_SPANS
                      and not span.name.startswith("fault.")]
        assert operations
        assert [span for span in operations
                if span.open or "ok" not in span.attrs] == []
        if name == "chain-pipeline":
            assert [span.name for span in log.spans].count(
                "chain.deploy") == 1


class TestOneSpanIdiom:
    #: Where a span is begun in one callback and ended in another.
    CALLBACK_MODULES = {"netsim/connection.py", "netsim/network.py",
                        "netsim/faults.py"}

    @staticmethod
    def _sources():
        root = pathlib.Path(repro.__file__).parent
        for path in sorted(root.rglob("*.py")):
            rel = path.relative_to(root).as_posix()
            if not rel.startswith("obs/"):
                yield rel, path.read_text(encoding="utf-8")

    def test_spans_begin_only_through_the_helper(self):
        offenders = [rel for rel, text in self._sources()
                     if "begin_span(" in text
                     and rel not in self.CALLBACK_MODULES]
        assert offenders == []

    def test_instants_go_through_the_tracer(self):
        assert [rel for rel, text in self._sources()
                if ".instant(" in text] == []

    def test_no_truthiness_test_on_a_log(self):
        # An EventLog defines __len__, so ``if log`` skips an empty one.
        def is_log(node):
            return ((isinstance(node, ast.Name) and node.id == "log")
                    or (isinstance(node, ast.Attribute)
                        and node.attr == "log"))

        offenders = []
        for rel, text in self._sources():
            for node in ast.walk(ast.parse(text)):
                tests = []
                if isinstance(node, (ast.If, ast.IfExp, ast.While)):
                    tests.append(node.test)
                elif isinstance(node, ast.BoolOp):
                    tests.extend(node.values)
                elif (isinstance(node, ast.UnaryOp)
                      and isinstance(node.op, ast.Not)):
                    tests.append(node.operand)
                if any(is_log(test) for test in tests):
                    offenders.append(f"{rel}:{node.lineno}")
        assert offenders == []
