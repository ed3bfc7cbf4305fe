"""Metrics registry unit tests: interning, kinds, reset-in-place, and the
perf fields as a view of the one store."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.netsim.scenarios import MeshScenario
from repro.netsim.shard import ShardedSimulator, fork_available
from repro.obs.export import metrics_text
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.perf.counters import FIELDS, counters as _perf
from repro.workload.presets import preset
from repro.workload.runner import run_workload


@pytest.fixture()
def registry():
    return MetricsRegistry()


class TestCounter:
    def test_inc_and_direct_value(self, registry):
        counter = registry.counter("requests", {"type": "invoke"})
        counter.inc()
        counter.inc(4)
        counter.value += 2  # the hot-path idiom
        assert counter.value == 7

    def test_negative_inc_rejected(self, registry):
        with pytest.raises(ValueError):
            registry.counter("c").inc(-1)

    def test_same_key_same_object(self, registry):
        a = registry.counter("hits", {"route": "a", "code": "200"})
        b = registry.counter("hits", {"code": "200", "route": "a"})
        assert a is b


class TestGauge:
    def test_set_inc_dec(self, registry):
        gauge = registry.gauge("depth")
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(3)
        assert gauge.value == 12


class TestHistogram:
    def test_bucket_placement_upper_inclusive(self, registry):
        hist = registry.histogram("lat", buckets=(1.0, 2.0, 4.0))
        for value in (0.5, 1.0, 1.5, 4.0, 99.0):
            hist.observe(value)
        # value == bound lands in that bound's bucket; above all bounds
        # lands in the implicit +inf overflow bucket.
        assert hist.bucket_counts == [2, 1, 1, 1]
        assert hist.count == 5
        assert hist.sum == pytest.approx(106.0)

    def test_cumulative(self, registry):
        hist = registry.histogram("lat", buckets=(1.0, 2.0))
        for value in (0.5, 1.5, 3.0, 3.5):
            hist.observe(value)
        assert hist.cumulative() == [(1.0, 1), (2.0, 2), (float("inf"), 4)]

    def test_bounds_sorted_and_distinct(self, registry):
        hist = registry.histogram("h", buckets=(4.0, 1.0, 2.0))
        assert hist.bounds == (1.0, 2.0, 4.0)
        with pytest.raises(ValueError):
            Histogram("bad", (), bounds=(1.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("empty", (), bounds=())

    def test_buckets_only_apply_on_first_creation(self, registry):
        first = registry.histogram("h", buckets=(1.0,))
        again = registry.histogram("h", buckets=(9.0, 10.0))
        assert again is first
        assert again.bounds == (1.0,)

    def test_default_buckets(self, registry):
        assert registry.histogram("h").bounds == DEFAULT_BUCKETS


class TestRegistry:
    def test_label_interning_identity(self, registry):
        key1 = registry.labels_key({"a": "1", "b": "2"})
        key2 = registry.labels_key({"b": "2", "a": "1"})
        assert key1 is key2
        assert registry.labels_key(None) == ()
        assert registry.labels_key({}) == ()

    def test_kind_mismatch_raises(self, registry):
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")
        with pytest.raises(TypeError):
            registry.histogram("x")
        registry.histogram("h")
        with pytest.raises(TypeError):
            registry.counter("h")

    def test_collect_sorted(self, registry):
        registry.counter("zeta")
        registry.counter("alpha", {"l": "2"})
        registry.counter("alpha", {"l": "1"})
        names = [(m.name, m.labels) for m in registry.collect()]
        assert names == sorted(names)

    def test_snapshot_shapes(self, registry):
        registry.counter("c", {"k": "v"}).inc(3)
        registry.gauge("g").set(-2)
        registry.histogram("h", buckets=(1.0,)).observe(0.5)
        snap = registry.snapshot()
        assert snap['c{k="v"}'] == 3
        assert snap["g"] == -2
        assert snap["h"] == {"count": 1, "sum": 0.5,
                             "buckets": [[1.0, 1], ["+inf", 0]]}

    def test_reset_zeroes_in_place(self, registry):
        counter = registry.counter("c")
        gauge = registry.gauge("g")
        hist = registry.histogram("h", buckets=(1.0,))
        counter.inc(5)
        gauge.set(7)
        hist.observe(0.1)
        registry.reset()
        # The same objects — cached module-level handles stay usable.
        assert registry.counter("c") is counter
        assert counter.value == 0
        assert gauge.value == 0
        assert hist.count == 0
        assert hist.bucket_counts == [0, 0]
        assert hist.sum == 0.0
        assert len(registry) == 3

    def test_metric_objects_carry_interned_labels(self, registry):
        counter = registry.counter("c", {"x": "y"})
        assert isinstance(counter, Counter)
        assert counter.labels == (("x", "y"),)
        assert isinstance(registry.gauge("g"), Gauge)


def _perf_lines(text: str) -> dict:
    """``{field: value}`` from the ``perf_<field>`` lines of a metrics text."""
    out = {}
    for line in text.splitlines():
        name, _sep, value = line.partition(" ")
        if name.startswith("perf_"):
            out[name[len("perf_"):]] = int(value)
    return out


def _run_cross_plane():
    run_workload(preset("cross-plane"))


class TestOneStore:
    """The perf fields are a view of the registry, never a second store."""

    @pytest.mark.parametrize("scenario", [
        lambda: main(["quickstart", "--seed", "2021"]), _run_cross_plane],
        ids=["quickstart", "cross-plane"])
    def test_view_export_and_family_agree(self, scenario, capsys):
        scenario()
        capsys.readouterr()
        snapshot = _perf.snapshot()
        assert list(snapshot) == [field.name for field in FIELDS]
        assert snapshot["events_processed"] > 0
        assert _perf_lines(metrics_text()) == snapshot
        for field in FIELDS:
            assert snapshot[field.name] == \
                sum(c.value for c in REGISTRY.family(field.family,
                                                     field.label))
        # The per-kind fault fields partition the family they share.
        assert snapshot["faults_injected"] == snapshot["node_crashes"] \
            + snapshot["links_cut"] + snapshot["latency_spikes"]

    def test_no_source_module_stores_into_the_view(self):
        """Every count has one writer path: a registry counter.  An
        attribute store on ``counters`` or a declared field nobody backs
        with a ``.counter(<family>)`` call would be a second store."""
        stores, backed = [], set()
        for path in sorted(Path(repro.__file__).parent.rglob("*.py")):
            tree = ast.parse(path.read_text(), str(path))
            views = {alias.asname or alias.name
                     for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom)
                     and node.module in ("repro.perf", "repro.perf.counters")
                     for alias in node.names if alias.name == "counters"}
            for node in ast.walk(tree):
                if isinstance(node, ast.Attribute) \
                        and isinstance(node.ctx, ast.Store) \
                        and isinstance(node.value, ast.Name) \
                        and node.value.id in views:
                    stores.append(f"{path}:{node.lineno}")
                if isinstance(node, ast.Call) \
                        and isinstance(node.func, ast.Attribute) \
                        and node.func.attr == "counter" and node.args \
                        and isinstance(node.args[0], ast.Constant):
                    backed.add(node.args[0].value)
        assert stores == []
        assert {f.name for f in FIELDS if f.family not in backed} == set()
        with pytest.raises(AttributeError):
            _perf.hash_calls += 1

    def test_reset_zeroes_counters_only(self):
        gauge = REGISTRY.gauge("qos_slots_free", {"box": "b0"})
        gauge.set(8)
        hist = REGISTRY.histogram("circuit_build_s")
        hist.observe(1.5)
        admitted = REGISTRY.counter("qos_admitted", {"box": "b0"})
        admitted.inc(3)
        hash_calls = REGISTRY.counter("perf_hash_calls")
        hash_calls.inc(5)
        untracked = REGISTRY.counter("cache_hits", {"layer": "image"})
        untracked.inc(2)
        assert (_perf.qos_admitted, _perf.hash_calls) == (3, 5)
        _perf.reset()
        assert (_perf.qos_admitted, _perf.hash_calls) == (0, 0)
        assert (admitted.value, hash_calls.value) == (0, 0)
        assert gauge.value == 8
        assert (hist.count, hist.sum) == (1, 1.5)
        assert untracked.value == 2

    @pytest.mark.skipif(not fork_available(), reason="no fork on platform")
    def test_forked_shards_merge_to_the_single_process_snapshot(self):
        scenario = MeshScenario(seed=21, n_sessions=30, n_groups=3,
                                nodes_per_group=3, messages_per_session=2,
                                start_window_s=20.0)
        ShardedSimulator(scenario, workers=1, seed=21).run()
        single = _perf.snapshot()
        REGISTRY.reset()
        forked = ShardedSimulator(scenario, workers=2, seed=21,
                                  processes=True).run()
        merged = _perf.snapshot()
        assert merged["shard_cross_events"] == forked["cross_shard_events"]
        # A cross-shard event is one more kernel event on the receiving
        # shard; nothing else may differ outside the shard plane's own
        # bookkeeping.
        for field in FIELDS:
            if field.plane == "shard":
                continue
            extra = forked["cross_shard_events"] if field.name in (
                "events_processed", "events_scheduled") else 0
            assert merged[field.name] == single[field.name] + extra, \
                field.name
