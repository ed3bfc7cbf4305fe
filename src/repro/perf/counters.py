"""Global performance counters.

A single module-level :data:`counters` object is incremented directly
(``counters.hash_calls += n``) from the hot paths; plain attribute adds on
a ``__slots__`` instance are the cheapest instrumentation Python offers,
so the counters stay enabled even in production runs.
"""

from __future__ import annotations

_FIELDS = (
    "events_processed",    # events dispatched by Simulator.run
    "events_scheduled",    # events pushed onto the heap
    "heap_compactions",    # lazy-deletion garbage collections of the heap
    "chunks_transmitted",  # individual Interface.transmit calls
    "chunks_coalesced",    # chunks folded into bulk transfers
    "bulk_grants",         # coalesced transfers started
    "bulk_preemptions",    # coalesced transfers demoted to chunked
    "timers_cancelled",    # wait() timeouts disarmed because the future won
    "tasks_spawned",       # coroutine actors started on the SimTask kernel
    "task_switches",       # trampoline resumptions of coroutine actors
    "bytes_zero_copied",   # payload bytes moved as views instead of copies
    "hash_calls",          # hash invocations in StreamCipher keystreams:
                           # one XOF call per 4 KiB batch
    "keystream_bytes",     # keystream bytes generated
    "cells_crypted",       # relay-cell layer applications (any direction)
    # -- chaos plane / recovery ------------------------------------------
    "faults_injected",     # crashes + link cuts + latency spikes
    "node_crashes",        # nodes taken down by the fault plane
    "node_restarts",       # crashed nodes brought back up
    "links_cut",           # links severed by the fault plane
    "links_healed",        # severed links restored
    "latency_spikes",      # latency spikes injected
    "conns_torn_down",     # connections aborted by faults
    "retries",             # Bento client operations retried after a failure
    "circuits_rebuilt",    # circuits successfully rebuilt after a failure
    "session_reconnects",  # BentoSession reconnect-and-reattach completions
    "replicas_respawned",  # LoadBalancer replicas re-created after box death
    "orphans_reaped",      # FunctionInstances killed after their peer died
    # -- serving plane (qos) ---------------------------------------------
    # All four stay 0 with the plane disabled; the hot-path regression
    # guard pins that, so scheduling can never re-enter the per-byte path.
    "qos_admitted",        # manifests admitted by the admission controller
    "qos_rejected",        # admissions refused with a RETRY_AFTER
    "qos_shed",            # work dropped by the load shedder
    "qos_throttles",       # fair-scheduler pacing sleeps inserted
    # -- sharded kernel ----------------------------------------------------
    # All three stay 0 in single-process runs; they are barrier/IPC
    # bookkeeping, not per-byte work, so the hot-path regression guard
    # excludes them from the per-byte volume ratios.
    "shard_epochs_completed",   # epoch barriers crossed by a sharded run
    "shard_cross_events",       # cross-shard dial/chunk/close events routed
    "shard_barrier_wait_us",    # wall-clock µs the parent spent at barriers
    # -- migration plane ---------------------------------------------------
    # All five stay 0 with the plane disabled; the hot-path regression
    # guard pins that, so migration can never touch the per-byte path.
    "checkpoints_taken",   # function state snapshots serialized
    "migrations_started",  # drain-then-migrate attempts begun
    "migrations_completed",  # drains that restored on the destination box
    "migrations_failed",   # drains aborted (no destination, quiesce timeout)
    "standby_promotions",  # warm standbys promoted instead of cold respawn
    # -- chain plane --------------------------------------------------------
    # All four stay 0 with the plane off; the hot-path regression guard
    # pins that, so chain routing can never touch the per-byte path.
    "chain_embeds",        # overlays computed (joint or greedy engine)
    "chain_reembeds",      # re-embeddings triggered by failures
    "chain_arc_bytes",     # payload bytes routed across chain arcs
    "chain_units_delivered",  # traffic units that reached every sink
)


class PerfCounters:
    """A bag of integer counters; see :data:`_FIELDS` for meanings."""

    __slots__ = _FIELDS

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Zero every counter."""
        for field in _FIELDS:
            setattr(self, field, 0)

    def snapshot(self) -> dict[str, int]:
        """Current values as a plain dict (stable field order)."""
        return {field: getattr(self, field) for field in _FIELDS}


#: The process-wide counter instance the hot paths increment.
counters = PerfCounters()
