"""Labeled metrics: counters, gauges, and fixed-bucket histograms.

A :class:`MetricsRegistry` keys every metric by ``(name, labels)`` —
``cells_crypted{direction=fwd}``, ``circuit_build_s`` — the way Prometheus
clients do, but deterministic and allocation-shy:

* label sets are **interned**: equal label dicts resolve to the *same*
  tuple object, so metric lookup is one dict probe and repeated lookups
  build no garbage;
* hot paths fetch their metric handle **once** (module or instance level)
  and then pay a plain attribute add per observation;
* :meth:`MetricsRegistry.reset` zeroes values **in place** instead of
  discarding the metric objects, so cached handles survive the per-test
  reset and cross-test bleed still dies.

This registry is the only place a count is stored.  The fields of
:mod:`repro.perf.counters` are a declared view over it: each names the
counter family (:meth:`MetricsRegistry.family`) that holds its value.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Mapping, Optional, Union

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry",
           "REGISTRY", "DEFAULT_BUCKETS"]

LabelsKey = tuple  # interned, sorted tuple of (key, value) pairs

#: Default histogram buckets: simulated-seconds latencies from 10 ms to
#: 10 min, roughly logarithmic (a final +inf bucket is implicit).
DEFAULT_BUCKETS = (0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
                   10.0, 30.0, 60.0, 120.0, 300.0, 600.0)


class Counter:
    """A monotonically increasing value.

    ``value`` is public: the hottest call sites may do ``c.value += n``
    directly instead of paying a method call.
    """

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelsKey) -> None:
        self.name = name
        self.labels = labels
        self.value: Union[int, float] = 0

    def inc(self, amount: Union[int, float] = 1) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    def _reset(self) -> None:
        self.value = 0


class Gauge:
    """A value that can go up and down (queue depths, live instances)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelsKey) -> None:
        self.name = name
        self.labels = labels
        self.value: Union[int, float] = 0

    def set(self, value: Union[int, float]) -> None:
        """Pin the gauge to ``value``."""
        self.value = value

    def inc(self, amount: Union[int, float] = 1) -> None:
        """Move the gauge up by ``amount``."""
        self.value += amount

    def dec(self, amount: Union[int, float] = 1) -> None:
        """Move the gauge down by ``amount``."""
        self.value -= amount

    def _reset(self) -> None:
        self.value = 0


class Histogram:
    """Fixed-bucket histogram (cumulative-on-export, exact per-bucket here).

    ``bounds`` are upper bucket edges; an observation lands in the first
    bucket whose bound is >= the value, or the implicit +inf overflow
    bucket.  ``bucket_counts`` has ``len(bounds) + 1`` entries and their
    sum always equals ``count`` — the invariant the property tests pin.
    """

    __slots__ = ("name", "labels", "bounds", "bucket_counts", "count", "sum")

    def __init__(self, name: str, labels: LabelsKey,
                 bounds: Iterable[float] = DEFAULT_BUCKETS) -> None:
        bounds = tuple(sorted(float(b) for b in bounds))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if len(set(bounds)) != len(bounds):
            raise ValueError("histogram bounds must be distinct")
        self.name = name
        self.labels = labels
        self.bounds = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value

    def cumulative(self) -> list[tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, +inf last."""
        out: list[tuple[float, int]] = []
        running = 0
        for bound, n in zip(self.bounds, self.bucket_counts):
            running += n
            out.append((bound, running))
        out.append((float("inf"), running + self.bucket_counts[-1]))
        return out

    def _reset(self) -> None:
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0


class MetricsRegistry:
    """All metrics, keyed by ``(name, interned_labels)``.

    Asking twice for the same name/labels/kind returns the same object;
    asking with a different kind for an existing key is an error.
    """

    def __init__(self) -> None:
        self._metrics: dict[tuple[str, LabelsKey], object] = {}
        self._interned: dict[LabelsKey, LabelsKey] = {}

    # -- label interning ---------------------------------------------------

    def labels_key(self, labels: Optional[Mapping[str, str]]) -> LabelsKey:
        """The canonical key for a label mapping.

        Equal mappings (any insertion order) return the *identical* tuple
        object, so keys compare by identity fast-path and repeated metric
        lookups allocate nothing after the first.
        """
        if not labels:
            return ()
        key = tuple(sorted((str(k), str(v)) for k, v in labels.items()))
        return self._interned.setdefault(key, key)

    # -- metric accessors --------------------------------------------------

    def counter(self, name: str,
                labels: Optional[Mapping[str, str]] = None) -> Counter:
        """Get-or-create the counter ``name{labels}``."""
        return self._get(name, labels, Counter)

    def gauge(self, name: str,
              labels: Optional[Mapping[str, str]] = None) -> Gauge:
        """Get-or-create the gauge ``name{labels}``."""
        return self._get(name, labels, Gauge)

    def histogram(self, name: str,
                  labels: Optional[Mapping[str, str]] = None,
                  buckets: Iterable[float] = DEFAULT_BUCKETS) -> Histogram:
        """Get-or-create the histogram ``name{labels}``.

        ``buckets`` only applies on first creation; a later caller asking
        for different buckets on the same key gets the existing histogram.
        """
        return self._get(name, labels, Histogram, buckets)

    def _get(self, name: str, labels: Optional[Mapping[str, str]],
             cls: type, *args) -> object:
        key = (name, self.labels_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(name, key[1], *args)
            self._metrics[key] = metric
        elif type(metric) is not cls:
            raise TypeError(
                f"{name}{dict(key[1])} already registered as "
                f"{type(metric).__name__}")
        return metric

    # -- views -------------------------------------------------------------

    def collect(self) -> list[object]:
        """Every registered metric, sorted by ``(name, labels)``."""
        return [self._metrics[key] for key in sorted(self._metrics)]

    def family(self, name: str,
               label: Optional[tuple[str, str]] = None) -> list[Counter]:
        """Every registered counter called ``name`` (carrying the
        ``(key, value)`` ``label``, when one is given); creates nothing,
        so reading a family never adds a line to an export."""
        return [metric for (metric_name, labels), metric
                in self._metrics.items()
                if metric_name == name and type(metric) is Counter
                and (label is None or label in labels)]

    def snapshot(self) -> dict:
        """Plain-data view: ``{name{labels}: value-or-histogram-dict}``.

        Keys render labels Prometheus-style; ordering is sorted, so two
        identical registries snapshot identically.
        """
        out: dict = {}
        for metric in self.collect():
            rendered = metric.name + render_labels(metric.labels)
            if isinstance(metric, Histogram):
                out[rendered] = {
                    "count": metric.count,
                    "sum": metric.sum,
                    "buckets": [[bound, n] for bound, n
                                in zip(metric.bounds, metric.bucket_counts)]
                    + [["+inf", metric.bucket_counts[-1]]],
                }
            else:
                out[rendered] = metric.value
        return out

    def reset(self) -> None:
        """Zero every metric **in place** (cached handles stay valid)."""
        for metric in self._metrics.values():
            metric._reset()

    # -- snapshot / merge (sharded-kernel support) ------------------------

    def state(self) -> list[dict]:
        """Serializable full state: one plain dict per metric, sorted.

        Unlike :meth:`snapshot` (a rendered view), this round-trips: a
        worker process sends ``state()`` over a pipe and the parent feeds
        it to :meth:`merge_state`.  Everything inside is JSON/pickle-safe
        plain data.
        """
        out: list[dict] = []
        for key in sorted(self._metrics):
            metric = self._metrics[key]
            entry: dict = {"name": metric.name,
                           "labels": [list(pair) for pair in metric.labels]}
            if isinstance(metric, Histogram):
                entry["kind"] = "histogram"
                entry["bounds"] = list(metric.bounds)
                entry["bucket_counts"] = list(metric.bucket_counts)
                entry["count"] = metric.count
                entry["sum"] = metric.sum
            else:
                entry["kind"] = ("counter" if isinstance(metric, Counter)
                                 else "gauge")
                entry["value"] = metric.value
            out.append(entry)
        return out

    def merge_state(self, state: list[dict]) -> None:
        """Fold one :meth:`state` snapshot into this registry **in place**.

        Counters and gauges add, histograms merge bucket-wise (bounds
        must agree for an existing histogram).  Existing metric objects
        are mutated rather than replaced, so handles cached before the
        merge keep reading the merged values.  Merging K disjoint worker
        snapshots counts each observation exactly once — each worker
        resets its registry before running, so a snapshot never contains
        another worker's (or the parent's) observations.
        """
        for entry in state:
            labels = dict(entry["labels"]) if entry["labels"] else None
            if entry["kind"] == "histogram":
                metric = self.histogram(entry["name"], labels,
                                        buckets=entry["bounds"])
                if list(metric.bounds) != list(entry["bounds"]):
                    raise ValueError(
                        f"histogram {entry['name']} bucket bounds differ; "
                        f"cannot merge")
                for i, n in enumerate(entry["bucket_counts"]):
                    metric.bucket_counts[i] += n
                metric.count += entry["count"]
                metric.sum += entry["sum"]
            elif entry["kind"] == "counter":
                self.counter(entry["name"], labels).value += entry["value"]
            else:
                self.gauge(entry["name"], labels).value += entry["value"]

    def __len__(self) -> int:
        return len(self._metrics)


def render_labels(labels: LabelsKey,
                  extra: Optional[tuple[str, str]] = None) -> str:
    """``{k="v",...}`` Prometheus-style (``extra`` pair last), or ``""``."""
    pairs = labels if extra is None else labels + (extra,)
    if not pairs:
        return ""
    return "{" + ",".join(f'{k}="{v}"' for k, v in pairs) + "}"


#: The process-wide default registry instrumented layers record into.
REGISTRY = MetricsRegistry()
