"""Trace features: the CUMUL representation plus summary statistics.

CUMUL (Panchenko et al.) interpolates the cumulative sum of signed packet
sizes at fixed positions — a compact curve that captures both volume and
the request/response interleaving pattern that fingerprinting attacks
exploit.  We append totals, counts, and duration, which are the features
padding defenses most directly target.
"""

from __future__ import annotations

from itertools import accumulate

from repro.netsim.trace import INCOMING, PacketRecord

N_CUMUL_POINTS = 100


def extract_features(records: list[PacketRecord],
                     n_points: int = N_CUMUL_POINTS) -> list[float]:
    """One trace -> one feature vector of ``n_points + 5`` floats."""
    if not records:
        return [0.0] * (n_points + 5)
    cumulative = list(accumulate(r.direction * r.size for r in records))
    last = len(cumulative) - 1
    cumulative.append(cumulative[last])     # flat past the last packet
    # Linear interpolation at n_points evenly spaced packet positions,
    # the first at packet 0 and the last exactly at packet ``last``.
    step = last / (n_points - 1)
    curve = []
    for i in range(n_points - 1):
        position = i * step
        j = int(position)
        curve.append(cumulative[j]
                     + (cumulative[j + 1] - cumulative[j]) * (position - j))
    curve.append(float(cumulative[last]))

    incoming = [r.size for r in records if r.direction == INCOMING]
    outgoing = [r.size for r in records if r.direction != INCOMING]
    times = [r.time for r in records]
    return curve + [float(sum(incoming)), float(sum(outgoing)),
                    float(len(incoming)), float(len(outgoing)),
                    max(times) - min(times)]
