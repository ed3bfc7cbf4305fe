"""Structured spans and instant events on the simulated clock.

The observability plane answers "what happened inside this circuit build /
Bento session / chaos run" without print-debugging.  Layers emit into an
:class:`EventLog` through the process-wide :data:`TRACER`: a **span**
brackets an operation in simulated time (parent link, key/value
attributes); an **instant event** marks a point (a fault, a retry).
Every operation, a generator's ``yield from`` included, is traced so::

    with TRACER.span("tor.stream_open", sim, ok=_CTR_OK, failed=_CTR_FAIL,
                     seconds=_HIST_OPEN, track=name) as span:
        yield from stream.wait_connected(thread)
        span.annotate(stream_id=stream.stream_id)

A normal exit ends the span ``ok=True`` unless the block ended it first
(the first end wins); a raise, ``GeneratorExit`` included, ends it
``ok=False`` with the exception's class name and propagates.  The optional
counters and histogram count the outcome, attached or not.  Detached,
``span`` yields the one shared :data:`NO_SPAN` and
``TRACER.event(name, t, **attrs)`` records nothing, so sites hold no guard
(and none tests ``if log``: an empty :class:`EventLog` is falsy).

All timestamps are **simulated seconds**; nothing here or in the exporters
reads the wall clock, and ids are sequential per log, so identical seeds
yield byte-identical trace exports.
"""

from __future__ import annotations

from typing import Any, Optional

__all__ = ["Span", "InstantEvent", "EventLog", "Tracer", "TRACER",
           "NO_SPAN"]


class Span:
    """One bracketed operation: begin/end times, parent link, attributes.

    Created via :meth:`EventLog.begin_span`; mutate with :meth:`annotate`
    and close with :meth:`end`.  ``t_end`` is ``None`` while open.
    """

    __slots__ = ("span_id", "parent_id", "name", "t_begin", "t_end", "attrs")

    def __init__(self, span_id: int, parent_id: Optional[int], name: str,
                 t_begin: float, attrs: dict[str, Any]) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.t_begin = t_begin
        self.t_end: Optional[float] = None
        self.attrs = attrs

    @property
    def open(self) -> bool:
        """Whether the span has not been ended yet."""
        return self.t_end is None

    @property
    def duration(self) -> Optional[float]:
        """Simulated seconds from begin to end (None while open)."""
        if self.t_end is None:
            return None
        return self.t_end - self.t_begin

    def annotate(self, **attrs: Any) -> "Span":
        """Merge attributes into the span; returns self for chaining."""
        self.attrs.update(attrs)
        return self

    def end(self, t_end: float, **attrs: Any) -> None:
        """Close the span at simulated time ``t_end``.

        Ending an already-ended span is a no-op (recovery paths may race
        their error handlers); the first end wins.  ``t_end`` is clamped
        to ``t_begin`` so clock rounding can never produce a negative
        duration.
        """
        if self.t_end is not None:
            return
        self.t_end = t_end if t_end >= self.t_begin else self.t_begin
        if attrs:
            self.attrs.update(attrs)

    def __repr__(self) -> str:
        state = "open" if self.t_end is None else f"dur={self.duration:.6f}"
        return f"<Span #{self.span_id} {self.name} {state}>"


class InstantEvent:
    """A point occurrence: a timestamp, a name, and attributes."""

    __slots__ = ("event_id", "name", "time", "attrs")

    def __init__(self, event_id: int, name: str, time: float,
                 attrs: dict[str, Any]) -> None:
        self.event_id = event_id
        self.name = name
        self.time = time
        self.attrs = attrs

    def __repr__(self) -> str:
        return f"<InstantEvent #{self.event_id} {self.name} t={self.time:g}>"


class EventLog:
    """The sink spans and events are emitted into.

    Keeps spans and instant events in emission order; ids are sequential
    across both (one shared counter), so emission order is recoverable
    from ids alone and exports are deterministic.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.events: list[InstantEvent] = []
        self._next_id = 1

    def begin_span(self, name: str, t: float,
                   parent: Optional[Span] = None, **attrs: Any) -> Span:
        """Open a span named ``name`` at simulated time ``t``."""
        span = Span(self._next_id,
                    parent.span_id if parent is not None else None,
                    name, t, attrs)
        self._next_id += 1
        self.spans.append(span)
        return span

    def instant(self, name: str, t: float, **attrs: Any) -> InstantEvent:
        """Record an instant event at simulated time ``t``."""
        event = InstantEvent(self._next_id, name, t, attrs)
        self._next_id += 1
        self.events.append(event)
        return event

    def open_spans(self) -> list[Span]:
        """Spans begun but not yet ended (emission order)."""
        return [span for span in self.spans if span.t_end is None]

    def clear(self) -> None:
        """Drop everything recorded and restart the id sequence."""
        self.spans.clear()
        self.events.clear()
        self._next_id = 1

    def __len__(self) -> int:
        return len(self.spans) + len(self.events)

    def __repr__(self) -> str:
        return (f"<EventLog spans={len(self.spans)} "
                f"events={len(self.events)}>")


class _NoSpan:
    """The span a detached :meth:`Tracer.span` yields: accepts and drops."""

    __slots__ = ()

    def annotate(self, **_attrs: Any) -> "_NoSpan":
        return self

    def end(self, _t_end: float, **_attrs: Any) -> None:
        pass


#: The one shared stand-in for a span when no log is attached.
NO_SPAN = _NoSpan()


class _Operation:
    """The context manager :meth:`Tracer.span` returns."""

    __slots__ = ("sim", "span", "t0", "ok", "failed", "seconds")

    def __init__(self, sim: Any, span: Any, ok: Any, failed: Any,
                 seconds: Any) -> None:
        self.sim, self.span, self.t0 = sim, span, sim.now
        self.ok, self.failed, self.seconds = ok, failed, seconds

    def __enter__(self) -> Any:
        return self.span

    def __exit__(self, kind: Any, _exc: Any, _tb: Any) -> bool:
        now = self.sim.now
        if kind is not None:
            if self.failed is not None:
                self.failed.value += 1
            self.span.end(now, ok=False, error=kind.__name__)
            return False
        if self.ok is not None:
            self.ok.value += 1
        if self.seconds is not None:
            self.seconds.observe(now - self.t0)
        self.span.end(now, ok=True)
        return False


class Tracer:
    """The process-wide instrumentation hub.

    Holds at most one attached :class:`EventLog`.  ``TRACER.log`` is
    ``None`` when detached — the check :meth:`span` and :meth:`event`
    make so that their callers need not.
    """

    __slots__ = ("log",)

    def __init__(self) -> None:
        self.log: Optional[EventLog] = None

    def attach(self, log: Optional[EventLog] = None) -> EventLog:
        """Attach (and return) an event log; replaces any previous sink."""
        if log is None:
            log = EventLog()
        self.log = log
        return log

    def detach(self) -> Optional[EventLog]:
        """Detach and return the current sink (None if already detached)."""
        log, self.log = self.log, None
        return log

    def begin(self, name: str, t: float, parent: Optional[Span] = None,
              **attrs: Any) -> Optional[Span]:
        """Open a span if a sink is attached; returns None otherwise.

        For a lifetime its owner ends (a Bento session), where
        :meth:`span`'s end on ``GeneratorExit`` would mark a session
        still open at the end of a run as failed.
        """
        log = self.log
        if log is None:
            return None
        return log.begin_span(name, t, parent=parent, **attrs)

    def span(self, name: str, sim: Any, ok: Any = None, failed: Any = None,
             seconds: Any = None, **attrs: Any) -> _Operation:
        """Trace one operation on ``sim``'s clock: ``with ... as span:``.

        The span (or :data:`NO_SPAN` when detached) begins now and ends
        when the block exits: ``ok=True``, or ``ok=False`` with the
        exception's class name, unless the block ended it first.
        ``ok`` / ``failed`` are counters bumped on success / failure and
        ``seconds`` a histogram observing a success's duration.
        """
        log = self.log
        span = (NO_SPAN if log is None
                else log.begin_span(name, sim.now, **attrs))
        return _Operation(sim, span, ok, failed, seconds)

    def event(self, name: str, t: float, **attrs: Any) -> None:
        """Record an instant event if a sink is attached."""
        log = self.log
        if log is not None:
            log.instant(name, t, **attrs)


#: The process-wide tracer every instrumented layer emits through.
TRACER = Tracer()
