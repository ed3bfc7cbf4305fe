"""The perf counter fields: one declaration each, no storage of their own.

Every count in the process lives in the :mod:`repro.obs.metrics`
registry.  :data:`FIELDS` declares, per field, which registry counter
family holds it (and, for the per-kind fault tallies, which label value),
which ``plane`` it belongs to, and what ``kind`` of number it is;
:data:`counters` is a read/reset view over that table.  A call site
counts an event by adding to its cached registry handle
(``_HASH_CALLS.value += n``) — a plain attribute add on a ``__slots__``
instance, the cheapest instrumentation Python offers, so the counters
stay enabled even in production runs.  A field whose family is labelled
(``cells_crypted{direction}``, ``qos_admitted{box}``) reads as the sum
over the labels; a field with no labelled family is stored under its own
export name, ``perf_<field>``.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.metrics import REGISTRY

#: What a field's value scales with.  ``volume`` fields are proportional
#: to bytes transferred (the hot-path guard compares them per byte);
#: ``fixed`` fields are per-actor or per-fault overheads that no ratio
#: between transfer sizes describes; ``plane-off-zero`` fields belong to
#: an opt-in plane and must read 0 in any run that left the plane off.
KINDS = ("volume", "fixed", "plane-off-zero")


class Field:
    """One perf field: where its count is stored and how it is judged.

    ``family`` is the registry counter name holding the count (default:
    the field's own export name, ``perf_<name>``); ``label`` limits the
    field to the one ``(key, value)`` of that family.
    """

    __slots__ = ("name", "plane", "kind", "family", "label")

    def __init__(self, name: str, plane: str, kind: str, family: str = "",
                 label: Optional[tuple] = None) -> None:
        if not plane or kind not in KINDS:
            raise ValueError(f"perf field {name!r} needs a plane and a kind "
                             f"from {KINDS}, got {plane!r}/{kind!r}")
        self.name, self.plane, self.kind = name, plane, kind
        self.family = family or f"perf_{name}"
        self.label = label

    def backing(self) -> list:
        """The registered counters this field sums (creates none)."""
        return REGISTRY.family(self.family, self.label)


FIELDS = (
    # events dispatched by Simulator.run
    Field("events_processed", "kernel", "volume"),
    # events pushed onto the heap
    Field("events_scheduled", "kernel", "volume"),
    # lazy-deletion garbage collections of the heap
    Field("heap_compactions", "kernel", "fixed"),
    # individual Interface.transmit calls
    Field("chunks_transmitted", "link", "volume"),
    # wait() timeouts disarmed because the future won
    Field("timers_cancelled", "kernel", "fixed", "timers_cancelled"),
    # coroutine actors started on the SimTask kernel
    Field("tasks_spawned", "kernel", "fixed", "actors_spawned"),
    # trampoline resumptions of coroutine actors
    Field("task_switches", "kernel", "fixed", "task_switches"),
    # payload bytes moved as views instead of copies
    Field("bytes_zero_copied", "link", "volume", "bytes_zero_copied"),
    # calls into the C primitive that makes StreamCipher keystream: one
    # per EVP_EncryptUpdate, so a process_many batch counts once, and so
    # does a train a hop reads ahead over (tor/layercrypto.py)
    Field("hash_calls", "crypto", "volume"),
    # bytes StreamCipher processed (exact: AES-CTR makes no more)
    Field("keystream_bytes", "crypto", "volume"),
    # relay-cell layer applications (any direction)
    Field("cells_crypted", "tor", "volume", "cells_crypted"),
    # -- chaos plane / recovery ------------------------------------------
    # crashes + link cuts + latency spikes: the whole {kind} family, of
    # which node_crashes, links_cut and latency_spikes are one label each
    Field("faults_injected", "chaos", "fixed", "faults_injected"),
    # nodes taken down by the fault plane
    Field("node_crashes", "chaos", "fixed", "faults_injected",
          ("kind", "crash")),
    # crashed nodes brought back up
    Field("node_restarts", "chaos", "fixed"),
    # links severed by the fault plane
    Field("links_cut", "chaos", "fixed", "faults_injected",
          ("kind", "cut")),
    # severed links restored
    Field("links_healed", "chaos", "fixed"),
    # latency spikes injected
    Field("latency_spikes", "chaos", "fixed", "faults_injected",
          ("kind", "spike")),
    # connections aborted by faults
    Field("conns_torn_down", "chaos", "fixed"),
    # Bento client operations retried after a failure
    Field("retries", "chaos", "fixed", "client_retries"),
    # circuits successfully rebuilt after a failure
    Field("circuits_rebuilt", "chaos", "fixed"),
    # BentoSession reconnect-and-reattach completions
    Field("session_reconnects", "chaos", "fixed", "session_reconnects"),
    # LoadBalancer replicas re-created after box death
    Field("replicas_respawned", "chaos", "fixed", "lb_respawns"),
    # FunctionInstances killed after their peer died
    Field("orphans_reaped", "chaos", "fixed"),
    # -- serving plane (qos) ---------------------------------------------
    # Every plane-off-zero field stays 0 with its plane disabled; the
    # hot-path regression guard pins that, so scheduling, migration and
    # chain routing can never re-enter the per-byte path.
    # manifests admitted by the admission controller
    Field("qos_admitted", "qos", "plane-off-zero", "qos_admitted"),
    # admissions refused with a RETRY_AFTER
    Field("qos_rejected", "qos", "plane-off-zero", "qos_rejected"),
    # work dropped by the load shedder
    Field("qos_shed", "qos", "plane-off-zero", "qos_shed"),
    # -- sharded kernel, deleted: always 0; benchmarks/suite/rep.py reads them
    Field("shard_epochs_completed", "shard", "plane-off-zero"),
    Field("shard_cross_events", "shard", "plane-off-zero"),
    Field("shard_barrier_wait_us", "shard", "plane-off-zero"),
    # -- migration plane ---------------------------------------------------
    # function state snapshots serialized
    Field("checkpoints_taken", "migrate", "plane-off-zero"),
    # drain-then-migrate attempts begun
    Field("migrations_started", "migrate", "plane-off-zero",
          "migrations_started"),
    # drains that restored on the destination box
    Field("migrations_completed", "migrate", "plane-off-zero",
          "migrations_completed"),
    # drains aborted (no destination, quiesce timeout)
    Field("migrations_failed", "migrate", "plane-off-zero",
          "migrations_failed"),
    # LoadBalancer warm standbys promoted instead of a cold respawn: a
    # chaos field like replicas_respawned (the balancer's own pool, no
    # server plane involved), declared here to keep the snapshot order
    # that fixed-seed digests hash
    Field("standby_promotions", "chaos", "fixed", "standby_promotions"),
    # -- chain plane --------------------------------------------------------
    # overlays computed (joint or greedy engine)
    Field("chain_embeds", "chain", "plane-off-zero", "chain_embeds"),
    # payload bytes routed across chain arcs
    Field("chain_arc_bytes", "chain", "plane-off-zero", "chain_arc_bytes"),
    # traffic units that reached every sink
    Field("chain_units_delivered", "chain", "plane-off-zero"),
)

_BY_NAME = {field.name: field for field in FIELDS}


class PerfCounters:
    """Read/reset view of :data:`FIELDS`; holds no counts itself."""

    __slots__ = ()

    def __getattr__(self, name: str) -> int:
        field = _BY_NAME.get(name)
        if field is None:
            raise AttributeError(name)
        return sum(counter.value for counter in field.backing())

    def reset(self) -> None:
        """Zero every field's backing counters (never a gauge or histogram)."""
        for field in FIELDS:
            for counter in field.backing():
                counter.value = 0

    def snapshot(self) -> dict[str, int]:
        """Current values as a plain dict (stable field order)."""
        return {field.name: getattr(self, field.name) for field in FIELDS}


#: The process-wide view; every reader of a perf count goes through it.
counters = PerfCounters()
