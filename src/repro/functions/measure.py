"""Measure: non-sensitive network measurements from a Bento box (§5.4).

    "This container also allows non-sensitive network measurements, such
    as of the latency or bandwidth to a Tor relay or destination server."

The function probes a list of targets: RTT via connection handshakes and
bandwidth via a short ranged download.  A natural fit for the restrictive
`network_measurement_policy` preset — it needs no storage, no hidden
services, and no message loop.
"""

from __future__ import annotations

from repro.core.manifest import FunctionManifest
from repro.netsim.simulator import Actor

MB = 1024 * 1024

MEASURE_SOURCE = r'''
import json

def measure(targets, rtt_samples, bw_probe_url, bw_probe_bytes):
    results = []
    for host, port in targets:
        total = 0.0
        failures = 0
        for _ in range(rtt_samples):
            start = yield from api.time()
            try:
                stream = yield from api.connect(host, port)
                now = yield from api.time()
                total += now - start
                stream.close()
            except Exception:
                failures += 1
        ok = rtt_samples - failures
        results.append({"host": host, "port": port,
                        "rtt": (total / ok) if ok else None,
                        "failures": failures})
    bandwidth = None
    if bw_probe_url:
        start = yield from api.time()
        response = yield from api.http_get(bw_probe_url)
        elapsed = (yield from api.time()) - start
        if elapsed > 0:
            bandwidth = len(response.body) / elapsed
    report = {"targets": results, "bandwidth_bytes_per_s": bandwidth}
    yield from api.send(json.dumps(report).encode("utf-8"))
    return report
'''


class MeasureFunction:
    """Host-side helper for the measurement function."""

    SOURCE = MEASURE_SOURCE
    API_CALLS = frozenset({"send", "connect", "http_get", "time"})

    @classmethod
    def manifest(cls, image: str = "python") -> FunctionManifest:
        """The manifest this function ships with (no disk, no stem)."""
        return FunctionManifest.create(
            name="measure", entry="measure", api_calls=cls.API_CALLS,
            image=image, memory_bytes=2 * MB)

    @staticmethod
    def run(thread: Actor, session, targets: list[tuple[str, int]],
            rtt_samples: int = 3, bw_probe_url: str = "",
            timeout: float = 600.0) -> dict:
        """Invoke the probe and return its report."""
        wire_targets = [[host, port] for host, port in targets]
        result = yield from session.invoke(
            thread, [wire_targets, rtt_samples, bw_probe_url, 0],
            timeout=timeout)
        return result
