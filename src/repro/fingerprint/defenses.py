"""Client-side padding defenses to compare against Browser (§7.1).

The paper positions Browser against the classical defense family:
"Typical defenses involve reordering or batching requests and sending
junk control packets to make websites appear indistinguishable from
traffic patterns alone", and notes Tor's own "preliminary mechanisms ...
to introduce dummy traffic".  This module implements that comparator —
a WTF-PAD-flavored client that injects RELAY_DROP padding cells into the
idle gaps of an otherwise ordinary visit — so the ablation bench can put
Browser's offload approach side by side with in-band padding.
"""

from __future__ import annotations

from repro.fingerprint.lab import standard_tor_visit
from repro.netsim.simulator import Actor, Join, Sleep


def padded_tor_visit(thread: Actor, client, hostname: str,
                     pad_rate_cells_per_s: float = 50.0,
                     trailer_s: float = 3.0) -> None:
    """A page load with adaptive-style cover cells on the same circuit.

    A padding pump injects RELAY_DROP cells addressed to the *middle* hop
    at a constant rate for the duration of the visit plus a trailer, so
    the client<->guard link shows near-constant cell traffic instead of
    the page's request/response bursts.  (Gap-filling at a fixed rate is
    the spirit of WTF-PAD's adaptive padding without its histogram
    machinery.)
    """
    circuit = yield from client.build_circuit(thread, exit_to=(hostname, 443))
    state = {"running": True}
    interval = 1.0 / pad_rate_cells_per_s

    def pump(pump_thread):
        while state["running"] and not circuit.destroyed:
            # 'echo' asks the middle relay to send a padding cell back,
            # covering the download direction too (like Tor's negotiated
            # padding machines).
            client.send_drop(circuit, hop_index=1, payload=b"echo")
            yield Sleep(interval)

    pump_thread = client.sim.spawn(pump, name="pad-pump")
    try:
        yield from standard_tor_visit(thread, client, hostname,
                                      circuit=circuit)
        yield Sleep(trailer_s)      # keep padding past the page tail
    finally:
        state["running"] = False
        yield Join(pump_thread)
        if not circuit.destroyed:
            circuit.close()


def make_padded_visit(pad_rate_cells_per_s: float = 50.0,
                      trailer_s: float = 3.0):
    """A ``visit_fn`` for :meth:`FingerprintLab.collect` with fixed knobs."""
    def visit(thread, client, site):
        """One padded visit (lab visit_fn signature)."""
        yield from padded_tor_visit(thread, client, site.hostname,
                                    pad_rate_cells_per_s=pad_rate_cells_per_s,
                                    trailer_s=trailer_s)
    return visit
