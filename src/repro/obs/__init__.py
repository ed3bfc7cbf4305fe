"""The observability plane: structured spans, labeled metrics, exporters.

Three pieces, used together or alone:

* :mod:`repro.obs.span` — :class:`Span`/:class:`EventLog` plus the
  process-wide :data:`TRACER` the instrumented layers (netsim, tor, core,
  functions) emit into.  Free when detached.
* :mod:`repro.obs.metrics` — the labeled :data:`REGISTRY` of counters,
  gauges, and histograms: the one store of every count, including the
  :mod:`repro.perf.counters` fields, which are a declared view over it.
* :mod:`repro.obs.export` — deterministic JSONL / Chrome-trace / text
  exporters (``repro trace-report`` on the CLI).

Everything runs on the simulated clock: no exporter output ever contains
wall time, so a seeded run's artifacts are byte-identical across runs.
"""

from repro.obs.export import (
    chrome_trace,
    events_to_jsonl,
    metrics_text,
    write_trace_report,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    REGISTRY,
)
from repro.obs.span import TRACER, EventLog, InstantEvent, Span, Tracer

__all__ = [
    "Span", "InstantEvent", "EventLog", "Tracer", "TRACER",
    "Counter", "Gauge", "Histogram", "MetricsRegistry", "REGISTRY",
    "DEFAULT_BUCKETS",
    "events_to_jsonl", "chrome_trace", "metrics_text", "write_trace_report",
]
