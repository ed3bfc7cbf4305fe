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
The package re-exports nothing: a process that exports no trace never
compiles the exporters.
"""
