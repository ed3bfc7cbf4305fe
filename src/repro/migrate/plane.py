"""Drain-then-migrate: moving a live function to another box.

The drain protocol (DESIGN.md §12):

1. **quiesce** — mark the instance draining.  Its ``recv()`` stays parked
   (new client messages queue in the inbox without waking it), so the
   function's state freezes at a message boundary.
2. **checkpoint** — snapshot state + files + queued inbox; inside a
   conclave, also seal the snapshot to local FS Protect (crash insurance
   with rollback detection).
3. **transfer** — pick a destination by serving-plane slack
   (:func:`repro.qos.placement.rank_boxes`), provision + load the same
   code there, and RESTORE over the (attested, end-to-end sealed when
   enclaved) session — adopting the source's token pair so every
   capability holder keeps working.
4. **cut over** — forward any messages that arrived mid-transfer, record
   a ``moved`` tombstone answering stale requests with the destination's
   fingerprint, and kill the local instance gracefully.  Clients chasing
   the tombstone see a bounded pause (retarget + reconnect), never an
   error.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from repro.core.loader import LoaderError
from repro.migrate.checkpoint import (
    MigrationError,
    checkpoint_instance,
    store_local_checkpoint,
)
from repro.netsim.connection import ConnectionClosed
from repro.netsim.simulator import Actor, Sleep
from repro.obs.metrics import REGISTRY as _metrics
from repro.obs.span import TRACER as _obs


#: How long a drain waits for the instance to park in recv(), and how
#: long each step of moving it to the destination may take.
QUIESCE_TIMEOUT_S = 60.0
TRANSFER_TIMEOUT_S = 240.0
#: Destinations tried, best slack first, before a drain is given up.
MAX_DEST_ATTEMPTS = 3
#: The least time between two shed-by-migration drains of one box.
MIN_SHED_INTERVAL_S = 60.0


@dataclass(frozen=True)
class MigrationConfig:
    """Knobs for the migration plane (all deterministic)."""

    quiesce_poll_s: float = 0.25   # how often to check for the recv() park


class MigrationPlane:
    """Per-server driver for drains and shed-by-migration."""

    def __init__(self, server, config: Optional[MigrationConfig] = None) -> None:
        self.server = server
        self.config = config or MigrationConfig()
        # A dedicated fork: plane-off runs never draw from it, so enabling
        # the plane cannot perturb the server's own randomness stream.
        self.rng = server.rng.fork("migrate")
        self._drain_ids = itertools.count(1)
        self._draining = 0
        self._last_shed_at: Optional[float] = None

    # -- draining ----------------------------------------------------------

    def request_drain(self, instance, dest_fp: Optional[str] = None) -> None:
        """Fire-and-forget drain in its own actor (event-handler safe).

        A drain that fails returns None, counted and spanned; an error it
        raises fails the actor, which the kernel counts."""
        self.server.sim.spawn(self.drain, instance, dest_fp,
                              name=f"drain:{self.server.relay.nickname}")

    def drain(self, thread: Actor, instance,
              dest_fp: Optional[str] = None) -> Optional[str]:
        """Drain ``instance`` to another box; returns the destination
        fingerprint, or None if the drain failed (instance keeps running)."""
        server = self.server
        sim = server.sim
        started_at = sim.now
        _metrics.counter("migrations_started",
                         {"box": server.relay.nickname}).value += 1
        with _obs.span("migrate.drain", sim, track=server.relay.nickname,
                       instance=instance.instance_id) as span:
            self._draining += 1
            moved = False
            try:
                def fail(why: str):
                    _metrics.counter("migrations_failed",
                                     {"box": server.relay.nickname}).value += 1
                    span.end(sim.now, ok=False, error=why)
                    return None

                if instance.terminated:
                    return fail("instance already terminated")
                if instance.draining:
                    return fail("already draining")
                if not instance.checkpointable:
                    return fail("not checkpointable")
                runtime = instance.runtime

                # 1. Quiesce: freeze state at a message boundary.
                instance.draining = True
                deadline = sim.now + QUIESCE_TIMEOUT_S
                while (runtime.running and instance.api._recv_waiter is None
                       and not instance.terminated):
                    if sim.now >= deadline:
                        return fail("quiesce timeout")
                    yield Sleep(self.config.quiesce_poll_s)
                if instance.terminated:
                    return fail("instance died while quiescing")

                # 2. Checkpoint (and persist it sealed inside a conclave).
                try:
                    cp = checkpoint_instance(instance)
                    if instance.conclave is not None:
                        store_local_checkpoint(instance, cp)
                except (MigrationError, LoaderError) as exc:  # tenant's too
                    return fail(f"checkpoint failed: {exc}")
                shipped_inbox = len(cp.inbox)

                # 3. Transfer to a slack-rich destination.
                from repro.core.client import RETRYABLE_ERRORS, BentoClient
                from repro.qos.placement import rank_boxes

                drain_id = next(self._drain_ids)
                client = BentoClient(server.tor_client, server.ias,
                                     rng=self.rng.fork(f"drain{drain_id}"))
                boxes = [b for b in client.discover_boxes()
                         if b.identity_fp != server.relay.fingerprint]
                if dest_fp is not None:
                    boxes = [b for b in boxes if b.identity_fp == dest_fp]
                if not boxes:
                    return fail("no destination box available")
                ranked = rank_boxes(boxes, server.directory.load_table())

                session = None
                dest = None
                for box in ranked[:MAX_DEST_ATTEMPTS]:
                    try:
                        session = yield from self._transfer(
                            thread, client, box, instance, cp)
                    except RETRYABLE_ERRORS:
                        session = None
                    if session is not None:
                        dest = box
                        break
                if session is None:
                    return fail("every destination attempt failed")

                # 4. Cut over: chase stragglers, tombstone, tear down locally.
                for payload, _peer in instance.api._inbox[shipped_inbox:]:
                    session.send_message(payload)
                old = instance.tokens
                server._moved[old.invocation] = dest.identity_fp
                server._moved[old.shutdown] = dest.identity_fp
                # Tell every still-connected client where the function went
                # *now*: a parked next_output() raises FunctionMoved at once
                # and the retry path retargets, not waiting out its timeout.
                from repro.core.messages import Error, Route
                for peer in instance._peer_order:
                    if not peer.closed:
                        try:
                            Route(peer, 0).send(Error, reason="moved",
                                                detail="function migrated",
                                                box_fp=dest.identity_fp)
                        except ConnectionClosed:
                            pass  # that client has gone; it retargets
                moved = True
                instance.kill("migrated", graceful=True)
                session.close()
                recovery_s = sim.now - started_at
                _metrics.counter("migrations_completed",
                                 {"box": server.relay.nickname}).value += 1
                _metrics.histogram("migration_recovery_s",
                                   {"mode": "drain"}).observe(recovery_s)
                span.annotate(dest=dest.nickname, recovery_s=recovery_s)
                return dest.identity_fp
            finally:
                # Any exit but a move, an error too, thaws the instance.
                self._draining -= 1
                if not moved:
                    instance.draining = False

    def _transfer(self, thread: Actor, client, box, instance, cp):
        """Provision + load + restore on one candidate box.

        Returns the (token-adopted) session, with the restored entry
        already running when the source was running.
        """
        timeout = TRANSFER_TIMEOUT_S
        # Destinations are the operator's own boxes: dial them directly.
        session = yield from client.connect_direct(thread, box,
                                                   timeout=timeout)
        yield from session.request_image(thread, instance.image.name,
                                         timeout=timeout)
        yield from session.load_function(thread, instance.runtime.code,
                                         instance.manifest, timeout=timeout)
        yield from session.restore_function(
            thread, cp.to_wire(), start=instance.runtime.running,
            adopt_invocation=instance.tokens.invocation,
            adopt_shutdown=instance.tokens.shutdown, timeout=timeout)
        return session

    # -- QoS hook: shed by migrating, not refusing -------------------------

    def maybe_shed(self) -> bool:
        """Called by the serving plane on a shedding rising edge: move one
        bulk tenant to a slack-rich box instead of refusing work here.
        Rate-limited; returns True when a drain was kicked off."""
        if self._draining:
            return False
        now = self.server.sim.now
        if (self._last_shed_at is not None
                and now - self._last_shed_at < MIN_SHED_INTERVAL_S):
            return False
        victim = self._pick_shed_victim()
        if victim is None:
            return False
        self._last_shed_at = now
        _obs.event("migrate.shed", now, track=self.server.relay.nickname,
                   instance=victim.instance_id)
        self.request_drain(victim)
        return True

    def _pick_shed_victim(self):
        """The migratable bulk instance with the smallest id (stable)."""
        candidates = []
        for instance in self.server._by_invocation.values():
            if instance.terminated or instance.draining:
                continue
            if not instance.checkpointable:
                continue
            manifest = instance.manifest
            if manifest is not None and getattr(manifest, "priority",
                                                "bulk") == "interactive":
                continue  # never shed interactive tenants by force
            candidates.append(instance)
        if not candidates:
            return None
        return min(candidates,
                   key=lambda i: (len(i.instance_id), i.instance_id))
