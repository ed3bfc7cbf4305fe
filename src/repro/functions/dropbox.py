"""Dropbox: ephemeral in-network file storage (§9.2).

    "The first phase accepts a put request, along with the invocation
    token, which serves as a capability permitting access to that dropbox.
    ... The second phase permits get requests with the same invocation
    token, up to either some maximum amount of bandwidth, number of
    requests, or expiry time, after which the function deletes the file
    and terminates."

Protocol (JSON header message, optionally followed by one raw-bytes
message):

    {"op": "put", "name": X}   then <bytes>   -> {"ok": true/false}
    {"op": "get", "name": X}                  -> <bytes> (empty if absent)
    {"op": "list"}                            -> JSON list of names
    {"op": "delete", "name": X}               -> {"ok": ...}
    {"op": "close"}                           -> terminates
"""

from __future__ import annotations

import json

from repro.core.manifest import FunctionManifest
from repro.netsim.simulator import Actor

MB = 1024 * 1024

# A file in flight is the enclave's memory (§7.3), so the loop holds none
# past its use: an upload is dropped once stored, a reply is sent straight
# from storage.
DROPBOX_SOURCE = r'''
import json

def dropbox(max_bytes, max_gets, expiry_s):
    yield from api.log("dropbox: up (max_bytes=%d max_gets=%d expiry=%s)"
                       % (max_bytes, max_gets, expiry_s))
    gets = 0
    deadline = (yield from api.time()) + expiry_s
    while gets < max_gets:
        remaining = deadline - (yield from api.time())
        if remaining <= 0:
            break
        try:
            raw = yield from api.recv(timeout=remaining)
        except api.Timeout:
            break
        try:
            request = json.loads(raw.decode("utf-8"))
            op = request.get("op")
        except (ValueError, AttributeError):
            continue
        if op == "put":
            data = yield from api.recv(timeout=60.0)
            if len(data) <= max_bytes:
                yield from api.storage.put("/drop/" + request["name"], data)
                data = None
                yield from api.send(b'{"ok": true}')
            else:
                yield from api.send(b'{"ok": false, "error": "too-big"}')
        elif op == "get":
            gets += 1
            path = "/drop/" + request["name"]
            if (yield from api.storage.exists(path)):
                yield from api.send((yield from api.storage.get(path)))
            else:
                yield from api.send(b"")
        elif op == "list":
            stored = yield from api.storage.list("/drop")
            names = [p[len("/drop/"):] for p in stored]
            yield from api.send(json.dumps(names).encode("utf-8"))
        elif op == "delete":
            path = "/drop/" + request["name"]
            if (yield from api.storage.exists(path)):
                yield from api.storage.delete(path)
            yield from api.send(b'{"ok": true}')
        elif op == "close":
            break
    # Expiry or exhaustion: delete everything and terminate.
    for path in (yield from api.storage.list("/drop")):
        yield from api.storage.delete(path)
    return {"gets_served": gets}
'''


class DropboxFunction:
    """Host-side helper speaking the Dropbox protocol."""

    SOURCE = DROPBOX_SOURCE
    API_CALLS = frozenset({"send", "recv", "log", "time",
                           "storage.put", "storage.get", "storage.list",
                           "storage.delete"})

    @classmethod
    def manifest(cls, image: str = "python-op-sgx",
                 memory_bytes: int = 2 * MB,
                 disk_bytes: int = 32 * MB) -> FunctionManifest:
        """The manifest this function ships with."""
        return FunctionManifest.create(
            name="dropbox", entry="dropbox", api_calls=cls.API_CALLS,
            image=image, memory_bytes=memory_bytes, disk_bytes=disk_bytes)

    # -- protocol ------------------------------------------------------------

    @staticmethod
    def start(session, max_bytes: int = 16 * MB, max_gets: int = 100,
              expiry_s: float = 3600.0) -> None:
        """Kick the dropbox loop off (does not wait)."""
        session.invoke_nowait([max_bytes, max_gets, expiry_s])

    @staticmethod
    def put(thread: Actor, session, name: str, data: bytes,
            timeout: float = 600.0) -> bool:
        """Store bytes under a name in the running dropbox."""
        session.send_message(json.dumps({"op": "put", "name": name}).encode())
        session.send_message(data)
        reply = yield from session.next_output(thread, timeout=timeout)
        return bool(json.loads(reply.decode("utf-8")).get("ok"))

    @staticmethod
    def get(thread: Actor, session, name: str,
            timeout: float = 600.0) -> bytes:
        """Fetch a named file from the running dropbox."""
        session.send_message(json.dumps({"op": "get", "name": name}).encode())
        return (yield from session.next_output(thread, timeout=timeout))

    @staticmethod
    def list_names(thread: Actor, session,
                   timeout: float = 600.0) -> list[str]:
        """Names currently stored in the running dropbox."""
        session.send_message(json.dumps({"op": "list"}).encode())
        reply = yield from session.next_output(thread, timeout=timeout)
        return json.loads(reply)

    @staticmethod
    def delete(thread: Actor, session, name: str,
               timeout: float = 600.0) -> bool:
        """Remove a file."""
        session.send_message(json.dumps({"op": "delete", "name": name}).encode())
        reply = yield from session.next_output(thread, timeout=timeout)
        return bool(json.loads(reply).get("ok"))

    @staticmethod
    def close(thread: Actor, session, timeout: float = 600.0) -> dict:
        """Ask the loop to finish; returns the function's final stats."""
        session.send_message(json.dumps({"op": "close"}).encode())
        return (yield from session.await_result(thread, timeout))
