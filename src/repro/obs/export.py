"""Exporters: JSONL event dumps, Chrome ``trace_event`` JSON, metrics text.

Every exporter is a pure function of its inputs and uses only simulated
time, so a seeded run exports byte-identically run after run:

* :func:`events_to_jsonl` — one JSON object per line, in emission order
  (ids are sequential), ``sort_keys`` and compact separators pinned;
* :func:`chrome_trace` — the Chrome ``trace_event`` format (open the file
  in Perfetto or chrome://tracing); spans become complete ``"X"`` events,
  open spans become ``"B"``, instants become ``"i"``.  Simulated seconds
  map to trace microseconds, and each distinct ``track`` attribute gets
  its own named thread row;
* :func:`metrics_text` — a plain-text snapshot of a
  :class:`~repro.obs.metrics.MetricsRegistry`, Prometheus-flavoured.

:func:`write_trace_report` bundles all three into a directory — the
``repro trace-report`` CLI scenario uses it.
"""

from __future__ import annotations

import json
import os
from typing import Optional

from repro.obs.metrics import (
    Counter,
    Histogram,
    MetricsRegistry,
    REGISTRY,
    render_labels,
)
from repro.obs.span import EventLog

__all__ = ["events_to_jsonl", "chrome_trace", "metrics_text",
           "write_trace_report"]

_JSON_KWARGS = {"sort_keys": True, "separators": (",", ":")}


def _clean_attrs(attrs: dict) -> dict:
    """Attrs restricted to JSON-stable scalars (others become strings)."""
    out = {}
    for key, value in attrs.items():
        if value is None or isinstance(value, (bool, int, float, str)):
            out[key] = value
        else:
            out[key] = str(value)
    return out


# -- JSONL -----------------------------------------------------------------


def events_to_jsonl(log: EventLog) -> str:
    """The log as JSON Lines, one record per span/event, emission order."""
    records: list[tuple[int, dict]] = []
    for span in log.spans:
        records.append((span.span_id, {
            "kind": "span",
            "id": span.span_id,
            "parent": span.parent_id,
            "name": span.name,
            "t_begin": span.t_begin,
            "t_end": span.t_end,
            "attrs": _clean_attrs(span.attrs),
        }))
    for event in log.events:
        records.append((event.event_id, {
            "kind": "event",
            "id": event.event_id,
            "name": event.name,
            "t": event.time,
            "attrs": _clean_attrs(event.attrs),
        }))
    records.sort(key=lambda pair: pair[0])
    return "\n".join(json.dumps(record, **_JSON_KWARGS)
                     for _id, record in records) + ("\n" if records else "")


# -- Chrome trace_event ----------------------------------------------------

#: Synthetic pid for the whole simulation (one "process" per export).
_PID = 1
_DEFAULT_TRACK = "sim"


def _microseconds(t: float) -> float:
    # Simulated seconds -> trace microseconds.  round() keeps the output
    # tidy; it is a pure function of the input float, so determinism holds.
    return round(t * 1e6, 3)


def chrome_trace(log: EventLog) -> str:
    """The log in Chrome ``trace_event`` JSON (Perfetto-loadable).

    Span/event ``track`` attributes become named thread rows; everything
    without a track lands on the default ``sim`` row.
    """
    tids: dict[str, int] = {}

    def tid_for(attrs: dict) -> int:
        track = attrs.get("track", _DEFAULT_TRACK)
        if not isinstance(track, str):
            track = str(track)
        if track not in tids:
            tids[track] = len(tids) + 1
        return tids[track]

    trace_events: list[dict] = []
    for span in log.spans:
        attrs = _clean_attrs(span.attrs)
        entry = {
            "name": span.name,
            "cat": span.name.split(".", 1)[0],
            "pid": _PID,
            "tid": tid_for(attrs),
            "ts": _microseconds(span.t_begin),
            "args": {"id": span.span_id, "parent": span.parent_id, **attrs},
        }
        if span.t_end is None:
            entry["ph"] = "B"
        else:
            entry["ph"] = "X"
            entry["dur"] = round(_microseconds(span.t_end) - entry["ts"], 3)
        trace_events.append(entry)
    for event in log.events:
        attrs = _clean_attrs(event.attrs)
        trace_events.append({
            "name": event.name,
            "cat": event.name.split(".", 1)[0],
            "ph": "i",
            "s": "t",
            "pid": _PID,
            "tid": tid_for(attrs),
            "ts": _microseconds(event.time),
            "args": {"id": event.event_id, **attrs},
        })
    trace_events.sort(key=lambda e: (e["ts"], e["args"]["id"]))
    metadata = [{
        "name": "process_name", "ph": "M", "pid": _PID, "tid": 0,
        "args": {"name": "repro simulation"},
    }]
    for track, tid in sorted(tids.items(), key=lambda kv: kv[1]):
        metadata.append({
            "name": "thread_name", "ph": "M", "pid": _PID, "tid": tid,
            "args": {"name": track},
        })
    return json.dumps(
        {"displayTimeUnit": "ms", "traceEvents": metadata + trace_events},
        **_JSON_KWARGS)


# -- metrics text ----------------------------------------------------------


def _format_value(value) -> str:
    if isinstance(value, float) and value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return str(value)


def metrics_text(registry: Optional[MetricsRegistry] = None) -> str:
    """A plain-text snapshot of the registry, one metric per line.

    Every perf field (:data:`repro.perf.counters.FIELDS`) also renders,
    as a ``perf_<field>`` line in sorted position among the rest: the
    counter itself for a field stored under that name, the sum over its
    labelled family otherwise.  Histograms render cumulative ``_bucket``
    lines plus ``_count`` and ``_sum``.
    """
    # Imported here: repro.perf.counters itself imports repro.obs.metrics.
    from repro.perf.counters import counters

    registry = registry if registry is not None else REGISTRY
    metrics = {(metric.name, metric.labels): metric
               for metric in registry.collect()}
    for field, value in counters.snapshot().items():
        line = Counter(f"perf_{field}", ())
        line.value = value
        metrics[line.name, line.labels] = line
    lines: list[str] = []
    for _key, metric in sorted(metrics.items()):
        if isinstance(metric, Histogram):
            running = 0
            for bound, n in zip(metric.bounds, metric.bucket_counts):
                running += n
                lines.append(
                    f"{metric.name}_bucket"
                    f"{render_labels(metric.labels, ('le', f'{bound:g}'))}"
                    f" {running}")
            lines.append(
                f"{metric.name}_bucket"
                f"{render_labels(metric.labels, ('le', '+Inf'))}"
                f" {metric.count}")
            lines.append(f"{metric.name}_count"
                         f"{render_labels(metric.labels)} {metric.count}")
            lines.append(f"{metric.name}_sum"
                         f"{render_labels(metric.labels)}"
                         f" {_format_value(metric.sum)}")
        else:
            lines.append(f"{metric.name}{render_labels(metric.labels)}"
                         f" {_format_value(metric.value)}")
    return "\n".join(lines) + ("\n" if lines else "")


# -- bundled report --------------------------------------------------------


def write_trace_report(out_dir: str, log: EventLog,
                       registry: Optional[MetricsRegistry] = None
                       ) -> dict[str, str]:
    """Write ``trace.json`` + ``events.jsonl`` + ``metrics.txt`` into
    ``out_dir`` (created if missing); returns ``{artifact: path}``."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "trace": os.path.join(out_dir, "trace.json"),
        "events": os.path.join(out_dir, "events.jsonl"),
        "metrics": os.path.join(out_dir, "metrics.txt"),
    }
    with open(paths["trace"], "w", encoding="utf-8") as fh:
        fh.write(chrome_trace(log))
    with open(paths["events"], "w", encoding="utf-8") as fh:
        fh.write(events_to_jsonl(log))
    with open(paths["metrics"], "w", encoding="utf-8") as fh:
        fh.write(metrics_text(registry))
    return paths
