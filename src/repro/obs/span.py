"""Structured spans and instant events on the simulated clock.

The observability plane answers "what happened inside this circuit build /
Bento session / chaos run" without print-debugging.  Layers emit into an
:class:`EventLog` through the process-wide :data:`TRACER`:

* a **span** brackets an operation in simulated time — ``begin_span`` at
  the start, :meth:`Span.end` when it completes — and carries a parent
  link plus key/value attributes;
* an **instant event** marks a point occurrence (a fault injected, a
  retry, a replica deploy).

Instrumentation must cost nearly nothing when nobody is looking, so every
call site guards on ``TRACER.log``::

    log = TRACER.log
    span = log.begin_span("tor.circuit_build", sim.now) if log else None
    ...
    if span is not None:
        span.end(sim.now, ok=True)

With no sink attached that is one attribute load and a comparison — no
allocation, no call.  All timestamps are **simulated seconds**; nothing in
this module (or the exporters) ever reads the wall clock, so identical
seeds yield byte-identical trace exports.

Span and event ids are assigned sequentially per :class:`EventLog`; since
the simulator dispatches events deterministically, the ids — and therefore
every exported artifact — are deterministic too.
"""

from __future__ import annotations

from typing import Any, Optional

__all__ = ["Span", "InstantEvent", "EventLog", "Tracer", "TRACER"]


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


class Tracer:
    """The process-wide instrumentation hub.

    Holds at most one attached :class:`EventLog`.  ``TRACER.log`` is
    ``None`` when detached — the single cheap check every instrumentation
    site performs before allocating anything.
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

        Prefer guarding on ``TRACER.log`` at hot sites — this convenience
        still builds the ``attrs`` dict before the check.
        """
        log = self.log
        if log is None:
            return None
        return log.begin_span(name, t, parent=parent, **attrs)

    def event(self, name: str, t: float, **attrs: Any) -> None:
        """Record an instant event if a sink is attached."""
        log = self.log
        if log is not None:
            log.instant(name, t, **attrs)


#: The process-wide tracer every instrumented layer emits through.
TRACER = Tracer()
