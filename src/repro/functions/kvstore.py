"""KvStore: a stateful in-network key-value cache — the migration demo.

The simplest function whose value *is* its state: counters and small
values accumulated across many client messages.  Losing the instance to
a cold respawn loses the store; the migration plane's checkpoint
protocol preserves it across drains, which is exactly what the
``migrate-handoff`` workload preset checks.

The source exports the checkpoint protocol: plain ``checkpoint()`` /
``restore(state)`` callables over a module-level dict (no api access
needed, so they run synchronously host-side while the entry is parked in
``recv()``).

Protocol (one JSON message per op):

    {"op": "put", "key": K, "value": V}  -> {"ok": true}
    {"op": "get", "key": K}              -> {"value": V or null}
    {"op": "incr", "key": K}             -> {"value": new_count}
    {"op": "keys"}                       -> {"keys": [...]}
    {"op": "stop"}                       -> terminates
"""

from __future__ import annotations

import json

from repro.core.manifest import FunctionManifest
from repro.netsim.simulator import Actor

MB = 1024 * 1024

KVSTORE_SOURCE = r'''
import json

_store = {}

def checkpoint():
    return {"store": dict(_store)}

def restore(state):
    _store.clear()
    _store.update(state["store"])

def kvstore():
    while True:
        raw = yield from api.recv()
        try:
            request = json.loads(raw.decode("utf-8"))
            op = request.get("op")
        except (ValueError, AttributeError):
            continue
        if op == "put":
            _store[request["key"]] = request.get("value")
            yield from api.send(b'{"ok": true}')
        elif op == "get":
            value = _store.get(request["key"])
            yield from api.send(json.dumps({"value": value}).encode("utf-8"))
        elif op == "incr":
            value = int(_store.get(request["key"], 0)) + 1
            _store[request["key"]] = value
            yield from api.send(json.dumps({"value": value}).encode("utf-8"))
        elif op == "keys":
            yield from api.send(json.dumps(
                {"keys": sorted(_store)}).encode("utf-8"))
        elif op == "stop":
            break
    return {"keys_at_exit": len(_store)}
'''


class KvStoreFunction:
    """Host-side helper speaking the KvStore protocol."""

    SOURCE = KVSTORE_SOURCE
    API_CALLS = frozenset({"send", "recv"})

    @classmethod
    def manifest(cls, image: str = "python",
                 memory_bytes: int = 2 * MB) -> FunctionManifest:
        return FunctionManifest.create(
            name="kvstore", entry="kvstore", api_calls=cls.API_CALLS,
            image=image, memory_bytes=memory_bytes)

    # -- protocol ----------------------------------------------------------

    @staticmethod
    def start(session) -> None:
        """Kick the store loop off (does not wait)."""
        session.invoke_nowait([])

    @staticmethod
    def op(thread: Actor, session, request: dict,
           timeout: float = 600.0) -> dict:
        """One request/reply round against the running store."""
        rid = session.send_message(json.dumps(request).encode("utf-8"))
        reply = yield from session.next_output(thread, timeout, rid)
        return json.loads(reply.decode("utf-8"))

    @classmethod
    def incr(cls, thread: Actor, session, key: str,
             timeout: float = 600.0) -> int:
        """Increment-and-read a counter."""
        reply = yield from cls.op(thread, session, {"op": "incr", "key": key},
                                  timeout=timeout)
        return int(reply["value"])
