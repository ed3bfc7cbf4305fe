"""Geographical avoidance proofs (§9.4).

    "Prior work has introduced provable avoidance routing: allowing users
    to specify geographic regions where packets should not traverse, and
    then providing proof that the packets did not go through such regions.
    ... we are exploring whether functions, running inside an enclave at
    the rendezvous point, enable computing the proofs of avoidance while
    maintaining privacy."

The Alibi-Routing-style argument: if the measured end-to-end RTT through
a waypoint is smaller than the speed-of-light lower bound of any path
that *detours through the forbidden region*, the packets provably avoided
it.  The function measures its RTT to both endpoints (connection
handshakes) and emits a proof; the host-side verifier re-checks the
geometry.  Running the function in the SGX image means neither endpoint's
identity leaks to the operator — the privacy point of the paper's sketch.

Geometry uses the simulator's geo mode (node positions on a plane;
latency proportional to distance).
"""

from __future__ import annotations

import json
import math

from repro.core.manifest import FunctionManifest
from repro.netsim.simulator import Actor

MB = 1024 * 1024

AVOIDANCE_SOURCE = r'''
import json

def _measure_rtt(host, port, samples):
    total = 0.0
    for _ in range(samples):
        start = yield from api.time()
        stream = yield from api.connect(host, port)
        total += (yield from api.time()) - start
        stream.close()
    return total / samples

def avoidance(src_host, src_port, dst_host, dst_port,
              min_detour_rtt, samples):
    rtt_src = yield from _measure_rtt(src_host, src_port, samples)
    rtt_dst = yield from _measure_rtt(dst_host, dst_port, samples)
    observed = rtt_src + rtt_dst
    avoided = observed < min_detour_rtt
    proof = {"rtt_src": rtt_src, "rtt_dst": rtt_dst,
             "observed_rtt": observed,
             "min_detour_rtt": min_detour_rtt,
             "avoided": avoided,
             "measured_at": (yield from api.time())}
    yield from api.send(json.dumps(proof).encode("utf-8"))
    return proof
'''


def min_detour_rtt(src_pos: tuple[float, float], dst_pos: tuple[float, float],
                   waypoint_pos: tuple[float, float],
                   region_center: tuple[float, float], region_radius: float,
                   s_per_unit: float, base_latency: float) -> float:
    """Lower bound on the RTT of any src->waypoint->dst path that also
    enters the forbidden region (the Alibi Routing bound, on our plane).

    Distances shrink by the region radius because the packet only has to
    *touch* the region.
    """
    def dist(a, b):
        """Euclidean distance on the plane."""
        return math.hypot(a[0] - b[0], a[1] - b[1])

    def leg_via_region(a, b):
        """Shortest leg length that also touches the region."""
        through = (max(dist(a, region_center) - region_radius, 0.0)
                   + max(dist(b, region_center) - region_radius, 0.0))
        return max(through, dist(a, b))

    one_way = (leg_via_region(src_pos, waypoint_pos)
               + leg_via_region(waypoint_pos, dst_pos))
    # Four handshake legs (two RTTs) plus base processing per connection.
    return 2.0 * (one_way * s_per_unit + 2.0 * base_latency)


class AvoidanceFunction:
    """Host-side helper: manifest, invocation, and proof verification."""

    SOURCE = AVOIDANCE_SOURCE
    API_CALLS = frozenset({"send", "connect", "time"})

    @classmethod
    def manifest(cls, image: str = "python-op-sgx") -> FunctionManifest:
        """The manifest this function ships with."""
        return FunctionManifest.create(
            name="avoidance", entry="avoidance", api_calls=cls.API_CALLS,
            image=image, memory_bytes=2 * MB)

    @staticmethod
    def prove(thread: Actor, session, src: tuple[str, int],
              dst: tuple[str, int], detour_bound: float,
              samples: int = 3, timeout: float = 600.0) -> dict:
        """Run the measurement on the box and return the proof."""
        rid = session.invoke_nowait(
            [src[0], src[1], dst[0], dst[1], detour_bound, samples])
        raw = yield from session.next_output(thread, timeout)
        proof = json.loads(raw.decode("utf-8"))
        yield from session.await_result(thread, timeout, rid)
        return proof

    @staticmethod
    def verify(proof: dict) -> bool:
        """The client-side check: internally consistent and under the bound."""
        observed = proof["rtt_src"] + proof["rtt_dst"]
        if abs(observed - proof["observed_rtt"]) > 1e-9:
            return False
        return bool(proof["avoided"]) == (observed < proof["min_detour_rtt"])
