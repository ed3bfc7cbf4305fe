"""Shard: spread a file across multiple Dropboxes, k-of-N (§9.3).

    "It takes as input a file, a number of shards N to create, and a
    minimum number necessary to reconstruct the file, 1 <= k <= N ...
    Shard then deploys these shards by invoking the Dropbox function on
    other machines."

The uploaded source embeds a GF(256) encoder *identical in layout* to
:mod:`repro.coding.erasure` (systematic stripes + Vandermonde parity), so
the host-side helper can reconstruct with the table-driven decoder.  The
Dropbox source and manifest arrive as invocation arguments — composition
without baking one function's code into another's.
"""

from __future__ import annotations

import json

from repro.coding.erasure import Shard, decode_shards
from repro.core.manifest import FunctionManifest
from repro.functions.dropbox import DropboxFunction
from repro.netsim.simulator import Actor
from repro.obs.span import TRACER as _obs

MB = 1024 * 1024

SHARD_SOURCE = r'''
import json

_EXP = [0] * 512
_LOG = [0] * 256
_v = 1
for _i in range(255):
    _EXP[_i] = _v
    _LOG[_v] = _i
    _d = _v << 1
    if _d & 0x100:
        _d ^= 0x11B
    _v = _d ^ _v
for _i in range(255, 512):
    _EXP[_i] = _EXP[_i - 255]

def _gf_pow(a, n):
    if n == 0:
        return 1
    if a == 0:
        return 0
    return _EXP[(_LOG[a] * n) % 255]

def _encode(data, n, k):
    if k == 1:
        return [bytes(data) for _ in range(n)]
    stripe_len = (len(data) + k - 1) // k if data else 1
    padded = data + b"\x00" * (k * stripe_len - len(data))
    stripes = [padded[i * stripe_len:(i + 1) * stripe_len] for i in range(k)]
    shards = list(stripes)
    for index in range(k, n):
        a = index - k + 2
        acc = bytearray(stripe_len)
        for j in range(k):
            c = _gf_pow(a, j)
            if c == 0:
                continue
            lc = _LOG[c]
            stripe = stripes[j]
            for pos in range(stripe_len):
                b = stripe[pos]
                if b:
                    acc[pos] ^= _EXP[lc + _LOG[b]]
        shards.append(bytes(acc))
    return shards

def shard(n, k, dropbox_source, dropbox_manifest, name, expiry_s):
    data = yield from api.recv(timeout=120.0)
    yield from api.log("shard: %d bytes -> %d-of-%d" % (len(data), k, n))
    pieces = _encode(data, n, k)
    placements = []
    used_boxes = []
    for index, piece in enumerate(pieces):
        handle = yield from api.deploy(dropbox_source, dropbox_manifest,
                                       exclude_fingerprints=used_boxes)
        info = yield from api.remote_info(handle)
        used_boxes.append(info["box_fp"])
        # Start the dropbox loop, then PUT this piece.
        yield from api.remote_invoke_nowait(
            handle, [len(piece) + 1024, 1000, expiry_s])
        yield from api.remote_send(handle, json.dumps(
            {"op": "put", "name": name + "." + str(index)}).encode("utf-8"))
        yield from api.remote_send(handle, piece)
        ack = yield from api.remote_recv(handle, timeout=120.0)
        if b"true" not in ack:
            yield from api.log("shard: put failed on " + info["box_nickname"])
        placements.append({"index": index,
                           "box_fp": info["box_fp"],
                           "box_nickname": info["box_nickname"],
                           "invocation": info["invocation"],
                           "name": name + "." + str(index)})
    return {"n": n, "k": k, "length": len(data), "placements": placements}
'''


class ShardFunction:
    """Host-side helper: deploy Shard, feed it a file, fetch + decode."""

    SOURCE = SHARD_SOURCE
    API_CALLS = frozenset({"send", "recv", "log", "deploy",
                           "remote_invoke", "remote_send", "remote_recv",
                           "remote_shutdown"})

    @classmethod
    def manifest(cls, image: str = "python",
                 memory_bytes: int = 8 * MB) -> FunctionManifest:
        """The manifest this function ships with."""
        return FunctionManifest.create(
            name="shard", entry="shard", api_calls=cls.API_CALLS,
            image=image, memory_bytes=memory_bytes)

    @staticmethod
    def scatter(thread: Actor, session, data: bytes, n: int, k: int,
                name: str = "file", expiry_s: float = 3600.0,
                timeout: float = 1200.0) -> dict:
        """Run the full scatter: returns the placement metadata."""
        from repro.core import messages

        sim = session.client.sim
        log = _obs.log
        span = log.begin_span(
            "functions.shard_scatter", sim.now, track=session.box.nickname,
            n=n, k=k, bytes=len(data)) if log is not None else None
        dropbox_manifest = DropboxFunction.manifest(image="python").to_wire()
        session.framed.send_frame(messages.encode_message(
            messages.INVOKE, token=session.invocation_token,
            args=[n, k, DropboxFunction.SOURCE, dropbox_manifest, name,
                  expiry_s]))
        session.send_message(data)
        done = yield from session.await_message(thread, messages.DONE, timeout)
        result = done["result"]
        if span is not None:
            span.end(sim.now, placements=len(result["placements"]))
        return result

    @staticmethod
    def gather(thread: Actor, bento_client, metadata: dict,
               use_indices: list[int] | None = None,
               timeout: float = 600.0) -> bytes:
        """Fetch any k shards straight from their Dropboxes and decode.

        ``use_indices`` selects which placements to try first (defaults to
        placement order) — the "flexibility over where she accesses the
        data" property.  Unreachable or dead Dropboxes are skipped: the
        walk continues through the remaining placements until ``k`` shards
        are in hand, so the file survives up to ``n - k`` box failures.
        Raises :class:`~repro.core.errors.BentoError` when fewer than ``k``
        placements are still retrievable.
        """
        from repro.core.client import RETRYABLE_ERRORS
        from repro.core.errors import BentoError

        k = int(metadata["k"])
        sim = bento_client.sim
        log = _obs.log
        span = log.begin_span(
            "functions.shard_gather", sim.now,
            track=bento_client.tor.node.name,
            k=k, n=int(metadata["n"])) if log is not None else None
        placements = metadata["placements"]
        by_index = {p["index"]: p for p in placements}
        if use_indices is None:
            candidates = [p["index"] for p in placements]
        else:
            # Preferred indices first, then any survivors as fallback.
            candidates = list(use_indices)
            candidates += [p["index"] for p in placements
                           if p["index"] not in set(use_indices)]
        consensus = bento_client.tor.consensus()
        shards: list[Shard] = []
        failures: list[str] = []
        for index in candidates:
            if len(shards) >= k:
                break
            placement = by_index[index]

            def fetch_piece(placement=placement):
                box = consensus.find(placement["box_fp"])
                dropbox_session = yield from bento_client.connect(
                    thread, box, timeout=timeout)
                try:
                    yield from dropbox_session.attach(
                        thread, placement["invocation"])
                    return (yield from DropboxFunction.get(
                        thread, dropbox_session, placement["name"],
                        timeout=timeout))
                finally:
                    dropbox_session.close()

            try:
                # A couple of attempts per placement so one unlucky relay
                # pick doesn't burn a surviving Dropbox; a genuinely dead
                # box fails fast (its dials are refused) and is skipped.
                piece = yield from bento_client.retrying(
                    thread, fetch_piece, attempts=3, backoff_s=1.0)
            except RETRYABLE_ERRORS as exc:
                failures.append("%s: %s" % (placement["box_nickname"], exc))
                continue
            if not piece:
                # Dropbox answered but no longer holds the piece.
                failures.append("%s: empty piece" % placement["box_nickname"])
                continue
            shards.append(Shard(index=index, data=piece))
        if len(shards) < k:
            if span is not None:
                span.end(sim.now, ok=False, retrieved=len(shards),
                         failures=len(failures))
            raise BentoError(
                "gather: only %d of %d required shards retrievable (%s)"
                % (len(shards), k, "; ".join(failures) or "no failures"))
        if span is not None:
            span.end(sim.now, ok=True, retrieved=len(shards),
                     failures=len(failures))
        return decode_shards(shards, k, int(metadata["length"]))
