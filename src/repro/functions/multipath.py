"""Multipath: split one transfer across several circuits (§9.4).

    "Several works propose adding a multipath routing scheme that splits
    a stream across multiple circuits sharing a common exit relay, and
    that dynamically schedules traffic over the stream's circuits based
    on their throughput.  Rather than modify the Tor code base, we are
    exploring whether multipath routing designs can be implemented as
    Bento functions."

This function builds N circuits sharing one exit, probes the resource
size, then issues ranged fetches on all circuits *concurrently*
(``fetch_begin``/``fetch_join``).  Slower circuits carry smaller ranges
on the next round — the dynamic scheduling the proposals describe —
though for a single file one proportional split suffices.
"""

from __future__ import annotations

from repro.core.manifest import FunctionManifest
from repro.netsim.simulator import Actor

MB = 1024 * 1024

MULTIPATH_SOURCE = r'''
def multipath(url, n_paths):
    statuses = yield from api.stem.get_network_statuses()
    exits = [r for r in statuses if "Exit" in r.flags]
    exit_relay = exits[0]
    circuits = []
    for _ in range(n_paths):
        circuit_id = yield from api.stem.new_circuit(final_hop=exit_relay)
        circuits.append(circuit_id)

    # Probe: a 1-byte ranged fetch tells us the total size and gives a
    # first throughput sample per circuit.
    probe = yield from api.stem.fetch(circuits[0], url, offset=0, length=1)
    total = probe["total"]

    # Split proportionally to measured per-circuit RTT (probe each).
    weights = []
    for circuit_id in circuits:
        sample = yield from api.stem.fetch(circuit_id, url, offset=0, length=1)
        weights.append(1.0 / max(sample["elapsed"], 1e-6))
    weight_sum = sum(weights)

    handles = []
    spans = []
    offset = 0
    for index, circuit_id in enumerate(circuits):
        if index == n_paths - 1:
            length = total - offset
        else:
            length = int(total * weights[index] / weight_sum)
        spans.append((offset, length))
        handle = yield from api.stem.fetch_begin(circuit_id, url,
                                                 offset=offset, length=length)
        handles.append(handle)
        offset += length

    parts = []
    for handle in handles:
        part = yield from api.stem.fetch_join(handle)
        parts.append(part)
    body = b"".join(part["body"] for part in parts)
    yield from api.send(body)
    for circuit_id in circuits:
        yield from api.stem.close_circuit(circuit_id)
    return {"total": total, "paths": n_paths,
            "per_path": [{"offset": span[0], "length": span[1],
                          "elapsed": part["elapsed"]}
                         for span, part in zip(spans, parts)]}
'''


class MultipathFunction:
    """Host-side helper for the multipath downloader."""

    SOURCE = MULTIPATH_SOURCE
    API_CALLS = frozenset({"send", "stem.new_circuit", "stem.close_circuit",
                           "stem.attach_stream", "stem.fetch",
                           "stem.get_network_statuses"})

    @classmethod
    def manifest(cls, image: str = "python",
                 memory_bytes: int = 16 * MB) -> FunctionManifest:
        """The manifest this function ships with."""
        return FunctionManifest.create(
            name="multipath", entry="multipath", api_calls=cls.API_CALLS,
            image=image, memory_bytes=memory_bytes)

    @staticmethod
    def download(thread: Actor, session, url: str, n_paths: int,
                 timeout: float = 1200.0) -> tuple[bytes, dict]:
        """Invoke a loaded multipath function; returns (body, stats)."""
        rid = session.invoke_nowait([url, n_paths])
        body = yield from session.next_output(thread, timeout)
        return body, (yield from session.await_result(thread, timeout, rid))
