"""Tracing from outside ``src/``: layer attribution and phase spans.

Two instruments, both owned by the suite and both off while end-to-end
metrics are measured:

* :class:`LayerProfile` runs the timed region under ``cProfile`` and
  rolls its caller tables up to the layers in :mod:`layers`.  Every
  profiled second lands in exactly one layer; a builtin or stdlib frame
  (``pow``, ``hashlib``, ``heapq``...) is charged to the layer of the
  ``repro`` code that called it.
* :class:`Spans` records one span per call the driver makes into the
  public client API (name, start, end, parent, session id), in host and
  simulated time; :func:`chrome_trace` turns them into Chrome
  ``trace_event`` JSON.
"""

from __future__ import annotations

import cProfile
import sys
import time
from typing import Callable, Optional

from layers import LAYERS, classify

PHASES = ("circuit_build", "stream_open", "query_policy", "request_image",
          "load_function", "invoke", "shutdown", "put", "get")


class LayerProfile:
    """cProfile over one region, aggregated per layer."""

    def __init__(self) -> None:
        self._profile = cProfile.Profile()
        self._outer_layer = "driver"

    def enable(self) -> None:
        # Frames already running when the profile starts are never seen
        # to be entered, so cProfile records no self time for them.  When
        # the region opens inside a simulation that is the simulator's
        # event loop (measured: the whole remainder); remember whose
        # frame it is so aggregate() can charge the remainder there.
        frame = sys._getframe(1)
        while frame is not None:
            layer = classify(frame.f_code.co_filename)
            if layer not in (None, "driver"):
                self._outer_layer = layer
                break
            frame = frame.f_back
        self._profile.enable()

    def disable(self) -> None:
        self._profile.disable()

    def aggregate(self, wall_s: float) -> dict:
        """``{"self_s": {layer: s}, "calls_in": {layer: n}, ...}``.

        Every second of ``wall_s`` lands in exactly one layer: what
        cProfile timed goes by the caller tables, and the remainder
        (``unprofiled_s``, reported so that its size can be judged) to
        the layer whose frame was already running when the profile
        started.  Were cProfile to time more than the wall, the
        remainder would be negative and the sum would overshoot.
        """
        self._profile.create_stats()
        stats = self._profile.stats
        own = {func: classify(func[0]) for func in stats}
        shares: dict = {}

        def share_of(func, seen: frozenset) -> dict:
            """Layer mix of a builtin/stdlib function, from who calls it."""
            if func in shares:
                return shares[func]
            mix: dict = {}
            callers = stats[func][4]
            # Weight each caller by the cumulative time spent under the
            # edge; call counts break the tie when the clock saw nothing.
            by_time = any(edge[3] > 0 for edge in callers.values())
            for caller, edge in callers.items():
                weight = edge[3] if by_time else edge[0]
                if weight <= 0 or caller in seen:
                    continue
                layer = own.get(caller)
                if layer is not None:
                    mix[layer] = mix.get(layer, 0.0) + weight
                else:
                    for name, part in share_of(caller, seen | {func}).items():
                        mix[name] = mix.get(name, 0.0) + weight * part
            total = sum(mix.values())
            mix = ({name: part / total for name, part in mix.items()}
                   if total > 0 else {"driver": 1.0})
            if not seen:        # a mix cut short by a cycle is not cached
                shares[func] = mix
            return mix

        def layers_of(func) -> dict:
            layer = own.get(func)
            return {layer: 1.0} if layer is not None \
                else share_of(func, frozenset())

        self_s = dict.fromkeys(LAYERS, 0.0)
        calls_in = dict.fromkeys(LAYERS, 0.0)
        for func, (_cc, _nc, tottime, _ct, callers) in stats.items():
            layer = own[func]
            if layer is not None:
                self_s[layer] += tottime
                for caller, edge in callers.items():
                    outside = 1.0 - layers_of(caller).get(layer, 0.0)
                    calls_in[layer] += edge[0] * outside
                continue
            # Builtin or stdlib: each caller edge carries this function's
            # own time under that caller; what no edge accounts for was
            # called from outside the profile.
            for caller, edge in callers.items():
                for name, part in layers_of(caller).items():
                    self_s[name] += edge[2] * part
                tottime -= edge[2]
            self_s["driver"] += max(tottime, 0.0)
        profiled_s = sum(self_s.values())
        unprofiled_s = wall_s - profiled_s
        self_s[self._outer_layer] += max(unprofiled_s, 0.0)
        return {
            "self_s": self_s,
            "calls_in": {layer: round(n) for layer, n in calls_in.items()},
            "profiled_s": profiled_s,
            "unprofiled_s": unprofiled_s,
            "unprofiled_share": unprofiled_s / wall_s,
            "unprofiled_layer": self._outer_layer,
        }


class Spans:
    """Spans around the driver's own calls into the client API.

    Disabled (the default) it records nothing and ``wrap`` is a plain
    ``yield from``.  ``sim_clock`` is set by the workload once it has a
    simulator.
    """

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self.sim_clock: Callable[[], float] = lambda: 0.0
        self.spans: list = []
        self._open_session: dict = {}   # session id -> index of its span

    def wrap(self, name: str, session: str, gen):
        """Run the blocking call ``gen`` inside a span named ``name``."""
        if not self.enabled:
            return (yield from gen)
        parent = self._open_session.get(session)
        if parent is None:
            # The first call of a session opens the session's own span;
            # it is closed by whichever call turns out to be the last.
            parent = len(self.spans)
            self._open_session[session] = parent
            self.spans.append(self._new("session", session, None))
        span = self._new(name, session, parent)
        self.spans.append(span)
        try:
            return (yield from gen)
        finally:
            span["host_end"] = time.perf_counter()
            span["sim_end"] = self.sim_clock()
            root = self.spans[parent]
            root["host_end"], root["sim_end"] = span["host_end"], span["sim_end"]

    def _new(self, name: str, session: str, parent: Optional[int]) -> dict:
        now, sim_now = time.perf_counter(), self.sim_clock()
        return {"name": name, "session": session, "parent": parent,
                "host_start": now, "host_end": now,
                "sim_start": sim_now, "sim_end": sim_now}


def chrome_trace(spans: list) -> dict:
    """Spans as a Chrome ``trace_event`` document (``ts`` in µs).

    One row (``tid``) per session, so chrome://tracing or Perfetto shows
    each session's phases nested under its session span.
    """
    origin = min((span["host_start"] for span in spans), default=0.0)
    rows: dict = {}
    events = []
    for index, span in enumerate(spans):
        events.append({
            "name": span["name"], "cat": "phase", "ph": "X", "pid": 1,
            "tid": rows.setdefault(span["session"], len(rows) + 1),
            "ts": (span["host_start"] - origin) * 1e6,
            "dur": (span["host_end"] - span["host_start"]) * 1e6,
            "args": {"id": index, "parent": span["parent"],
                     "session": span["session"],
                     "sim_start_s": span["sim_start"],
                     "sim_s": span["sim_end"] - span["sim_start"]},
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}
