"""One cell cipher, and nothing that selects another.

``TorTestNetwork(fast_crypto=...)`` and ``HopCrypto(keys, fast=...)`` are
accepted and ignored because ``benchmarks/suite/`` still passes them.  No
other code may pass either, and passing one must change nothing: not a
byte on the wire, not a timestamp.
"""

from __future__ import annotations

import ast
import hashlib
from pathlib import Path

from repro.netsim.connection import Connection
from repro.netsim.trace import TraceRecorder
from repro.tor.cell import RELAY_PAYLOAD_SIZE, Cell
from repro.tor.layercrypto import HopCrypto
from repro.tor.ntor import CircuitKeys
from repro.tor.testnet import TorTestNetwork

from conftest import bulk_origin, run_thread

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "tests", "examples", "benchmarks")
SUITE = ROOT / "benchmarks" / "suite"
INERT = {"fast_crypto", "fast"}


def _inert_keyword_calls(source: str, where: str) -> list[str]:
    return [f"{where}:{node.lineno}"
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and any(keyword.arg in INERT for keyword in node.keywords)]


def test_the_scan_sees_a_keyword_argument():
    assert _inert_keyword_calls(
        "TorTestNetwork(9, fast_crypto=True)\nHopCrypto(k, fast=False)",
        "snippet") == ["snippet:1", "snippet:2"]


def test_nothing_outside_the_suite_passes_an_inert_crypto_keyword():
    found = []
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            if SUITE not in path.parents:
                found += _inert_keyword_calls(path.read_text(),
                                              str(path.relative_to(ROOT)))
    assert found == []


def _short_fetch(monkeypatch, flag: bool) -> tuple:
    """A 60 kB download over three hops: the client's wire trace, the
    digest of every cell payload any node sent, and the body."""
    cells = hashlib.sha256()
    send = Connection.send

    def recording_send(conn, sender, payload, *args, **kwargs):
        if isinstance(payload, Cell):
            cells.update(sender.name.encode() + bytes(payload.payload))
        return send(conn, sender, payload, *args, **kwargs)

    monkeypatch.setattr(Connection, "send", recording_send)
    # Spelled as a mapping so the scan above, which forbids the keyword
    # everywhere but the suite, does not count this one deliberate use.
    net = TorTestNetwork(n_relays=6, seed="inert-keyword",
                         **{"fast_crypto": flag})
    bulk_origin(net, bytes(range(256)) * 240)
    client = net.create_client()
    trace = TraceRecorder(client.node)

    def main(thread):
        circuit = yield from client.build_circuit(
            thread, exit_to=("origin.example", 80))
        stream = yield from circuit.open_stream(thread, "origin.example", 80)
        stream.send(b"GET")
        body = yield from stream.recv(thread, timeout=60.0, min_bytes=61_440)
        circuit.close()
        return body

    body = run_thread(net, main)
    monkeypatch.undo()
    return trace.records, cells.hexdigest(), body, net.sim.now


def test_the_inert_keyword_selects_nothing(monkeypatch):
    fast = _short_fetch(monkeypatch, True)
    real = _short_fetch(monkeypatch, False)
    assert fast[2] == bytes(range(256)) * 240
    assert len(fast[0]) > 100
    assert fast == real


def test_a_hop_ignores_fast():
    keys = CircuitKeys(kf=b"f" * 32, kb=b"b" * 32, df=b"F" * 32, db=b"B" * 32)
    payloads = [bytes([i]) * RELAY_PAYLOAD_SIZE for i in range(4)]
    wire = [hop.crypt_forward_many(payloads) + hop.crypt_backward_many(payloads)
            for hop in (HopCrypto(keys), HopCrypto(keys, **{"fast": True}))]
    assert wire[0] == wire[1]
