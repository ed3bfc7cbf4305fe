"""Realize an overlay through the real Bento stack, and keep it alive.

:class:`ChainDeployment` takes a :class:`~repro.chain.template.ChainSpec`
plus an :class:`~repro.chain.embed.Overlay` (computed on demand from the
QoS directory's advertised slack) and drives the actual machinery end to
end: every replica is a real attested Bento session (``connect_direct``
→ ``request_image`` → ``load_function`` → invoke), every traffic unit is
real bytes through those sessions, and every failure goes through the
planes that already exist rather than private recovery code:

* **fan-out arcs** route with the LoadBalancer's wiring discipline —
  ``split`` arcs weighted-round-robin units across downstream replicas
  and arcs, ``copy`` arcs scatter a copy down every edge (the Shard
  pattern);
* **failures re-embed**: a dead or refusing box is excluded, the joint
  engine recomputes the overlay with every healthy replica *pinned* in
  place, and replicas that must move are handed to the migrate plane's
  drain-then-migrate (state travels, tokens are adopted, the session
  just retargets) — cold respawn is the fallback only when the source
  box is already gone.

The deployed stage function exports ``checkpoint()``/``restore()``, so
every chain component is migratable by construction.
"""

from __future__ import annotations

import time as _time
from typing import Mapping, Optional, Sequence

from repro.chain.embed import Overlay, embed, greedy_embed
from repro.chain.template import ChainSpec, ChainSpecError, apply_transform
from repro.core.errors import ServerBusy
from repro.core.manifest import FunctionManifest
from repro.netsim.simulator import Actor, Sleep
from repro.obs.metrics import REGISTRY as _metrics
from repro.obs.span import TRACER as _obs

__all__ = ["CHAIN_STAGE_SOURCE", "ChainStageFunction", "ChainDeployment",
           "ChainDeployError", "UnitDeadline"]

_UNITS_DELIVERED = _metrics.counter("perf_chain_units_delivered")


class ChainDeployError(ChainSpecError):
    """Deploying or driving the chain failed terminally."""


class UnitDeadline(ChainDeployError):
    """A traffic unit missed its deadline (not a box failure)."""


class _StageFailure(Exception):
    """Internal: one stage op failed; carries the suspect box."""

    def __init__(self, component: str, index: int, box_fp: str,
                 cause: BaseException) -> None:
        super().__init__(f"{component}[{index}] on {box_fp}: {cause}")
        self.component = component
        self.index = index
        self.box_fp = box_fp
        self.cause = cause


#: The generic chain stage: apply this component's transform to each
#: unit and send it back.  Exports the checkpoint protocol (config and
#: progress counters survive a drain), mirrors
#: :func:`repro.chain.template.apply_transform` exactly, and treats a
#: leading ``C`` byte as the stop control.
CHAIN_STAGE_SOURCE = r'''
import json

_cfg = {}
_state = {"processed": 0, "bytes_out": 0}

def checkpoint():
    return {"cfg": dict(_cfg), "state": dict(_state)}

def restore(saved):
    _cfg.clear()
    _cfg.update(saved["cfg"])
    _state.clear()
    _state.update(saved["state"])

def _apply(transform, unit):
    kind, _sep, arg = transform.partition(":")
    if kind == "pad":
        return unit + bytes(int(arg))
    if kind == "strip":
        return unit[:-int(arg)]
    if kind == "xor":
        key = int(arg)
        return bytes(b ^ key for b in unit)
    return unit

def stage(transform, work_ms):
    if not _cfg:
        _cfg["transform"] = transform
        _cfg["work_ms"] = float(work_ms)
    while True:
        raw = yield from api.recv()
        if raw[:1] == b"C":
            break
        if _cfg["work_ms"] > 0:
            yield from api.sleep(_cfg["work_ms"] / 1000.0)
        out = _apply(_cfg["transform"], raw[1:])
        _state["processed"] += 1
        _state["bytes_out"] += len(out)
        yield from api.send(b"U" + out)
    return dict(_state)
'''


class ChainStageFunction:
    """Host-side face of the generic stage (manifest + wire framing)."""

    SOURCE = CHAIN_STAGE_SOURCE
    API_CALLS = frozenset({"send", "recv", "sleep"})

    @classmethod
    def manifest(cls, component, image: str = "python") -> FunctionManifest:
        return FunctionManifest.create(
            name=f"chain-{component.name}", entry="stage",
            api_calls=cls.API_CALLS, image=image,
            memory_bytes=component.memory_bytes)


class ChainDeployment:
    """One deployed chain: sessions per replica, routing, re-embedding.

    ``client`` is the operator's :class:`~repro.core.client.BentoClient`
    (it owns one direct session per replica, the way a LoadBalancer owns
    its replica fleet).  ``servers`` optionally maps box fingerprints to
    their in-process :class:`~repro.core.server.BentoServer` so a
    re-embed can delegate moves to each box's migrate plane; without it
    (or without the plane) moves fall back to cold respawn.
    """

    def __init__(self, client, spec: ChainSpec, *,
                 servers: Optional[Mapping[str, object]] = None,
                 image: str = "python",
                 reembed_on_failure: bool = True) -> None:
        self.client = client
        self.sim = client.sim
        self.spec = spec
        self.servers = dict(servers or {})
        self.image = image
        self.reembed_on_failure = reembed_on_failure
        self.overlay: Optional[Overlay] = None
        self.units_pushed = 0
        self.units_delivered = 0
        self.reembeds = 0
        self._sessions: dict[tuple[str, int], object] = {}
        self._busy: dict[tuple[str, int], bool] = {}
        self._replica_cursor: dict[str, int] = {}
        self._split_cursor: dict[str, int] = {}
        self._excluded: set[str] = set()

    # -- embedding ---------------------------------------------------------

    def compute_overlay(self, engine: str = "joint",
                        exclude_fps: Sequence[str] = (),
                        pinned: Optional[Mapping] = None) -> Overlay:
        """Embed the template against the directory's current view."""
        exclude = set(exclude_fps) | self._excluded
        boxes = [b for b in self.client.discover_boxes()
                 if b.identity_fp not in exclude]
        table = self.client.tor.directory.load_table()
        wall = _time.perf_counter()
        if engine == "joint":
            overlay = embed(self.spec, boxes, table, pinned=pinned)
        elif engine == "greedy":
            overlay = greedy_embed(self.spec, boxes, table)
        else:
            raise ChainDeployError(f"unknown embed engine {engine!r}")
        _metrics.counter("chain_embeds", {"engine": engine}).value += 1
        _metrics.histogram("chain_embed_s").observe(
            _time.perf_counter() - wall)
        self.overlay = overlay
        return overlay

    # -- deployment --------------------------------------------------------

    def deploy(self, task: Actor, engine: str = "joint"):
        """Provision every replica of the overlay (embedding on demand)."""
        if self.overlay is None:
            self.compute_overlay(engine=engine)
        log = _obs.log
        span = log.begin_span("chain.deploy", self.sim.now,
                              track=self.client.tor.node.name,
                              chain=self.spec.name,
                              engine=self.overlay.engine) if log else None
        for replica in self.overlay.replicas:
            yield from self._provision(task, replica.component,
                                       replica.index, replica.box_fp)
        if span is not None:
            span.end(self.sim.now, replicas=len(self.overlay.replicas),
                     boxes=len(self.overlay.boxes_used()))

    def _descriptor(self, box_fp: str):
        for box in self.client.discover_boxes():
            if box.identity_fp == box_fp:
                return box
        raise ChainDeployError(f"box {box_fp} not in the consensus")

    def _provision(self, task: Actor, component: str, index: int,
                   box_fp: str):
        comp = self.spec.component(component)
        box = self._descriptor(box_fp)
        session = yield from self.client.connect_direct(task, box)
        try:
            yield from session.request_image(task, self.image,
                                             verify="none")
            yield from session.load_function(
                task, ChainStageFunction.SOURCE,
                ChainStageFunction.manifest(comp, image=self.image))
            session.invoke_nowait([comp.transform, comp.cpu_ms_per_unit])
        except BaseException:
            session.close()
            raise
        old = self._sessions.get((component, index))
        if old is not None:
            old.close()
        self._sessions[(component, index)] = session
        self._busy[(component, index)] = False

    # -- traffic -----------------------------------------------------------

    def push(self, task: Actor, payload: bytes,
             deadline_s: float = 60.0, _retrying: bool = False) -> dict:
        """Route one traffic unit through the chain.

        Returns ``{sink_name: output_bytes}`` for every sink the unit
        reached.  A box failure mid-unit triggers one re-embed (healthy
        replicas pinned, movers drained or respawned) and one retry from
        the top; a second failure propagates.
        """
        if self.overlay is None:
            raise ChainDeployError("push before deploy")
        if len(self.spec.sources) != 1:
            raise ChainDeployError("push needs a single-source chain")
        self.units_pushed += 1 if not _retrying else 0
        deadline_at = self.sim.now + deadline_s
        try:
            outputs = yield from self._traverse(
                task, self.spec.sources[0], payload, deadline_at)
        except _StageFailure as failure:
            if _retrying or not self.reembed_on_failure:
                raise ChainDeployError(str(failure)) from failure.cause
            exclude = ()
            if not isinstance(failure.cause, ServerBusy):
                exclude = (failure.box_fp,)
            yield from self.reembed(task, exclude_fps=exclude)
            return (yield from self.push(task, payload,
                                         deadline_s=deadline_at - self.sim.now,
                                         _retrying=True))
        self.units_delivered += 1
        _UNITS_DELIVERED.value += 1
        return outputs

    def _pick_replica(self, component: str) -> int:
        """Round-robin over the component's replicas (LB wiring)."""
        n = len(self.overlay.replicas_of(component))
        cursor = self._replica_cursor.get(component, 0)
        self._replica_cursor[component] = cursor + 1
        return cursor % n

    def _pick_split_arc(self, component: str, arcs):
        """Weighted round-robin across a component's split arcs."""
        if len(arcs) == 1:
            return arcs[0]
        weights = [a.rate_units_per_s for a in arcs]
        total = sum(weights)
        tick = self._split_cursor.get(component, 0)
        self._split_cursor[component] = tick + 1
        # Deterministic low-discrepancy walk over the arc shares.
        point = (tick * total / len(arcs)) % total
        acc = 0.0
        for arc, weight in zip(arcs, weights):
            acc += weight
            if point < acc:
                return arc
        return arcs[-1]

    def _traverse(self, task: Actor, component: str, unit: bytes,
                  deadline_at: float):
        index = self._pick_replica(component)
        out = yield from self._stage_op(task, component, index, unit,
                                        deadline_at)
        arcs = sorted(self.spec.arcs_out(component), key=lambda a: a.key)
        if not arcs:
            return {component: out}
        split_arcs = [a for a in arcs if a.mode == "split"]
        copy_arcs = [a for a in arcs if a.mode == "copy"]
        chosen = []
        if split_arcs:
            chosen.append(self._pick_split_arc(component, split_arcs))
        chosen.extend(copy_arcs)
        outputs: dict = {}
        for arc in chosen:
            nbytes = len(out)
            _metrics.counter("chain_arc_bytes", {"arc": arc.key}).value \
                += nbytes
            sub = yield from self._traverse(task, arc.dst, out, deadline_at)
            outputs.update(sub)
        return outputs

    def _stage_op(self, task: Actor, component: str, index: int,
                  unit: bytes, deadline_at: float) -> bytes:
        key = (component, index)
        session = self._sessions.get(key)
        if session is None:
            raise ChainDeployError(f"no session for {component}[{index}]")
        # One in-flight unit per replica session: outputs are answered in
        # order, so interleaving two units would cross their replies.
        while self._busy[key]:
            if self.sim.now >= deadline_at:
                raise UnitDeadline(f"{component}[{index}] queue wait "
                                   f"passed the unit deadline")
            yield Sleep(0.05)
        self._busy[key] = True
        try:
            timeout = deadline_at - self.sim.now
            if timeout <= 0:
                raise UnitDeadline(f"unit hit {component}[{index}] after "
                                   f"its deadline")
            from repro.core.client import RETRYABLE_ERRORS

            def one_op():
                session.send_message(b"U" + unit)
                return session.next_output(task, timeout=timeout)

            try:
                reply = yield from self.client.retrying(
                    task, one_op, attempts=2, backoff_s=0.5,
                    session=session)
            except RETRYABLE_ERRORS as exc:
                # A timed-out read may still have a reply in flight;
                # drop the stream so the next unit on this session
                # cannot read this unit's late frame.
                session.drop_transport()
                raise _StageFailure(component, index,
                                    session.box.identity_fp, exc) from exc
            if reply[:1] != b"U":
                raise ChainDeployError(f"{component}[{index}] returned a "
                                       f"non-unit frame")
            return bytes(reply[1:])
        finally:
            self._busy[key] = False

    # -- failure handling --------------------------------------------------

    def reembed(self, task: Actor, exclude_fps: Sequence[str] = ()):
        """Recompute the overlay and move only what must move.

        Stateful replicas on live boxes are pinned where they are — their
        state anchors them, and only the migrate plane may relocate a
        stateful component.  Stateless replicas re-place freely against
        the post-failure ledger.  A replica whose box is excluded
        (crashed) respawns cold on its new box; a replica the new overlay
        relocates off a *live* box is drained through that box's migrate
        plane — state ships sealed, the destination adopts the tokens,
        and this side just retargets the session.
        """
        self._excluded.update(exclude_fps)
        self.reembeds += 1
        _metrics.counter("chain_reembeds").value += 1
        log = _obs.log
        if log is not None:
            log.instant("chain.reembed", self.sim.now,
                        track=self.client.tor.node.name,
                        chain=self.spec.name,
                        excluded=sorted(self._excluded))
        old = {(r.component, r.index): r.box_fp
               for r in self.overlay.replicas}
        pinned = {key: fp for key, fp in old.items()
                  if fp not in self._excluded
                  and self.spec.component(key[0]).stateful}
        self.compute_overlay(engine="joint", pinned=pinned)
        for replica in self.overlay.replicas:
            key = (replica.component, replica.index)
            old_fp = old.get(key)
            if old_fp == replica.box_fp:
                continue
            moved = False
            if old_fp is not None and old_fp not in self._excluded:
                moved = yield from self._migrate_replica(
                    task, key, old_fp, replica.box_fp)
            if not moved:
                yield from self.client.retrying(
                    task,
                    lambda key=key, fp=replica.box_fp: self._provision(
                        task, key[0], key[1], fp),
                    attempts=3, backoff_s=1.0)

    def _migrate_replica(self, task: Actor, key: tuple[str, int],
                         old_fp: str, new_fp: str) -> bool:
        """Drain one replica via its source box's migrate plane."""
        server = self.servers.get(old_fp)
        session = self._sessions.get(key)
        if server is None or session is None \
                or getattr(server, "migrate", None) is None:
            return False
        instance = server._by_invocation.get(session.invocation_token)
        if instance is None or instance.terminated \
                or not instance.checkpointable:
            return False
        dest = yield from server.migrate.drain(task, instance,
                                               dest_fp=new_fp)
        if dest is None:
            return False
        from repro.core.client import RETRYABLE_ERRORS
        try:
            session.retarget(dest)
            yield from session.reconnect(task)
        except RETRYABLE_ERRORS:
            return False
        return True

    # -- verification and teardown -----------------------------------------

    def expected_outputs(self, payload: bytes) -> dict:
        """The oracle: what each sink must emit for ``payload``."""
        return {sink: _fold(self.spec.path_transforms(sink), payload)
                for sink in self.spec.sinks}

    def shutdown(self, task: Actor) -> dict:
        """Stop every stage; returns per-replica processed counts."""
        stats: dict = {}
        from repro.core.client import RETRYABLE_ERRORS
        from repro.core import messages
        for key in sorted(self._sessions):
            session = self._sessions[key]
            label = f"{key[0]}[{key[1]}]"
            try:
                session.send_message(b"C")
                done = yield from session.await_message(
                    task, messages.DONE, timeout=60.0)
                stats[label] = done.get("result")
                yield from session.shutdown(task, timeout=60.0)
            except RETRYABLE_ERRORS:
                stats[label] = None
            finally:
                session.close()
        self._sessions.clear()
        return stats


def _fold(transforms, payload: bytes) -> bytes:
    for transform in transforms:
        payload = apply_transform(transform, payload)
    return payload
