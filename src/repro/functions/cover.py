"""Cover: constant-rate cover traffic (§9.1).

    "Cover instructs a Bento box to ensure that a given circuit always
    transmits at a fixed rate, sending junk traffic if it has no
    legitimate traffic to send."

The function streams fixed-size junk chunks to the client at a fixed rate
for a fixed duration; the host-side helper symmetrically pushes junk
upstream, making the client's guard link bidirectionally constant-rate.
The underlying Tor primitive — injecting RELAY_DROP padding cells at a
chosen hop — is also exposed (``api.stem.send_padding``).
"""

from __future__ import annotations

from repro.core.manifest import FunctionManifest
from repro.netsim.simulator import Actor, Sleep

MB = 1024 * 1024

COVER_SOURCE = r'''
def cover(rate_bytes_per_s, duration_s, chunk_size):
    yield from api.log("cover: %d B/s for %ss" % (rate_bytes_per_s, duration_s))
    sent = 0
    interval = chunk_size * 1.0 / rate_bytes_per_s
    end = (yield from api.time()) + duration_s
    while (yield from api.time()) < end:
        junk = yield from api.random_bytes(chunk_size)
        yield from api.send(junk)
        sent += chunk_size
        yield from api.sleep(interval)
    return {"sent_bytes": sent}
'''

# A variant that pads a circuit directly with RELAY_DROP cells, the
# native Tor padding mechanism, addressed to a middle hop so even the
# exit never sees them.
COVER_DROP_SOURCE = r'''
def cover_drop(rate_cells_per_s, duration_s):
    circuit_id = yield from api.stem.new_circuit()
    sent = 0
    interval = 1.0 / rate_cells_per_s
    end = (yield from api.time()) + duration_s
    while (yield from api.time()) < end:
        yield from api.stem.send_padding(circuit_id, hop_index=1)
        sent += 1
        yield from api.sleep(interval)
    yield from api.stem.close_circuit(circuit_id)
    return {"sent_cells": sent}
'''


class CoverFunction:
    """Host-side helper for the Cover function."""

    SOURCE = COVER_SOURCE
    DROP_SOURCE = COVER_DROP_SOURCE
    API_CALLS = frozenset({"send", "log", "time", "sleep", "random"})
    DROP_API_CALLS = frozenset({"stem.new_circuit", "stem.close_circuit",
                                "stem.send_padding", "time", "sleep"})

    @classmethod
    def manifest(cls, image: str = "python",
                 memory_bytes: int = 2 * MB) -> FunctionManifest:
        """The manifest this function ships with."""
        return FunctionManifest.create(
            name="cover", entry="cover", api_calls=cls.API_CALLS,
            image=image, memory_bytes=memory_bytes)

    @classmethod
    def drop_manifest(cls, image: str = "python",
                      memory_bytes: int = 2 * MB) -> FunctionManifest:
        """Manifest for the RELAY_DROP padding variant."""
        return FunctionManifest.create(
            name="cover-drop", entry="cover_drop",
            api_calls=cls.DROP_API_CALLS, image=image,
            memory_bytes=memory_bytes)

    @staticmethod
    def run_bidirectional(thread: Actor, session, rate_bytes_per_s: float,
                          duration_s: float, chunk_size: int = 4096) -> dict:
        """Start downstream cover and mirror it upstream; returns stats.

        Blocks for the whole duration.  Every ``chunk_size / rate`` the
        client pushes a junk message up while the function pushes one
        down — the observable link rate is constant in both directions.
        """
        rid = session.invoke_nowait([rate_bytes_per_s, duration_s, chunk_size])
        interval = chunk_size / rate_bytes_per_s
        sent_up = 0
        deadline = thread.sim.now + duration_s
        junk = bytes(chunk_size)
        while thread.sim.now < deadline:
            session.send_message(junk)
            sent_up += chunk_size
            yield Sleep(interval)
        stats = dict((yield from session.await_result(
            thread, duration_s + 120.0, rid)))
        stats["sent_up_bytes"] = sent_up
        return stats
