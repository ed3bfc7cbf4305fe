"""Realize an overlay through the real Bento stack.

:class:`ChainDeployment` takes a :class:`~repro.chain.template.ChainSpec`
plus an :class:`~repro.chain.embed.Overlay` (computed on demand from the
QoS directory's advertised slack) and drives the actual machinery end to
end: every replica is a real attested Bento session (``connect_direct``
→ ``request_image`` → ``load_function`` → invoke), and every traffic
unit is real bytes through those sessions.  Units go down the line: each
component's replicas take units in round robin (the LoadBalancer's
wiring), and what one component emits is what the next one receives.
A stage that fails after the client's own retries fails the unit with a
:class:`ChainDeployError` naming the component and its box.

The deployed stage function exports ``checkpoint()``/``restore()``, so
a box's migrate plane can drain a chain component like any other.
"""

from __future__ import annotations

import time as _time
from typing import Optional

from repro.chain.embed import Overlay, embed, greedy_embed
from repro.chain.template import ChainSpec, ChainSpecError, apply_transform
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
    def manifest(cls, component) -> FunctionManifest:
        return FunctionManifest.create(
            name=f"chain-{component.name}", entry="stage",
            api_calls=cls.API_CALLS, image="python",
            memory_bytes=component.memory_bytes)


class ChainDeployment:
    """One deployed chain: sessions per replica, and the units' routing.

    ``client`` is the operator's :class:`~repro.core.client.BentoClient`
    (it owns one direct session per replica, the way a LoadBalancer owns
    its replica fleet).
    """

    def __init__(self, client, spec: ChainSpec) -> None:
        self.client = client
        self.sim = client.sim
        self.spec = spec
        self.overlay: Optional[Overlay] = None
        self.units_delivered = 0
        self._sessions: dict[tuple[str, int], object] = {}
        self._busy: dict[tuple[str, int], bool] = {}
        self._replica_cursor: dict[str, int] = {}

    # -- embedding ---------------------------------------------------------

    def compute_overlay(self, engine: str = "joint") -> Overlay:
        """Embed the template against the directory's current view."""
        boxes = self.client.discover_boxes()
        table = self.client.tor.directory.load_table()
        wall = _time.perf_counter()
        if engine == "joint":
            overlay = embed(self.spec, boxes, table)
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
        with _obs.span("chain.deploy", self.sim,
                       track=self.client.tor.node.name, chain=self.spec.name,
                       engine=self.overlay.engine) as span:
            for replica in self.overlay.replicas:
                yield from self._provision(task, replica.component,
                                           replica.index, replica.box_fp)
            span.annotate(replicas=len(self.overlay.replicas),
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
            yield from session.request_image(task, "python", verify="none")
            yield from session.load_function(
                task, ChainStageFunction.SOURCE,
                ChainStageFunction.manifest(comp))
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
             deadline_s: float = 60.0) -> dict:
        """Send one traffic unit down the chain.

        Returns ``{last_component: output_bytes}``.  A stage that still
        fails after the client's retries raises :class:`ChainDeployError`.
        """
        if self.overlay is None:
            raise ChainDeployError("push before deploy")
        deadline_at = self.sim.now + deadline_s
        outputs = yield from self._traverse(task, payload, deadline_at)
        self.units_delivered += 1
        _UNITS_DELIVERED.value += 1
        return outputs

    def _pick_replica(self, component: str) -> int:
        """Round-robin over the component's replicas (LB wiring)."""
        n = len(self.overlay.replicas_of(component))
        cursor = self._replica_cursor.get(component, 0)
        self._replica_cursor[component] = cursor + 1
        return cursor % n

    def _traverse(self, task: Actor, unit: bytes, deadline_at: float):
        """Each component in turn transforms what the one before emitted."""
        unit = yield from self._stage_op(task, self.spec.components[0].name,
                                         unit, deadline_at)
        for arc in self.spec.arcs:
            _metrics.counter("chain_arc_bytes", {"arc": arc.key}).value \
                += len(unit)
            unit = yield from self._stage_op(task, arc.dst, unit, deadline_at)
        return {self.spec.components[-1].name: unit}

    def _stage_op(self, task: Actor, component: str, unit: bytes,
                  deadline_at: float) -> bytes:
        index = self._pick_replica(component)
        key = (component, index)
        session = self._sessions.get(key)
        if session is None:
            raise ChainDeployError(f"no session for {component}[{index}]")
        # One in-flight unit per replica session: the stage works units one
        # at a time, so a second waits here rather than in its inbox.
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
                # Read by rid: a timed-out read gives its unit up, so a
                # late reply is dropped, never read as the next unit's.
                rid = session.send_message(b"U" + unit)
                return session.next_output(task, timeout=timeout, rid=rid)

            try:
                reply = yield from self.client.retrying(
                    task, one_op, attempts=2, backoff_s=0.5,
                    session=session)
            except RETRYABLE_ERRORS as exc:
                raise ChainDeployError(
                    f"{component}[{index}] on {session.box.identity_fp}: "
                    f"{exc}") from exc
            if reply[:1] != b"U":
                raise ChainDeployError(f"{component}[{index}] returned a "
                                       f"non-unit frame")
            return bytes(reply[1:])
        finally:
            self._busy[key] = False

    # -- verification and teardown -----------------------------------------

    def expected_outputs(self, payload: bytes) -> dict:
        """The oracle: what the last component must emit for ``payload``."""
        for comp in self.spec.components:
            payload = apply_transform(comp.transform, payload)
        return {self.spec.components[-1].name: payload}

    def shutdown(self, task: Actor) -> dict:
        """Stop every stage; returns per-replica processed counts."""
        stats: dict = {}
        from repro.core.client import RETRYABLE_ERRORS
        for key in sorted(self._sessions):
            session = self._sessions[key]
            label = f"{key[0]}[{key[1]}]"
            try:
                session.send_message(b"C")
                stats[label] = yield from session.await_result(task, 60.0)
                yield from session.shutdown(task, timeout=60.0)
            except RETRYABLE_ERRORS:
                stats[label] = None
            finally:
                session.close()
        self._sessions.clear()
        return stats
