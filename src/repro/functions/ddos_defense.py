"""Hidden-service DDoS defense via client puzzles (§9.4).

    "A number of proposals recommend additional defenses that change the
    topology of the introduction points, add new cell types to assist in
    rate limiting, or require client-side proofs of work prior to
    establishing a connection.  We are exploring whether these approaches
    can be implemented as function-specific protocols, rather than
    modifying Tor's existing protocols."

This function fronts a hidden service in manual-introduction mode and only
completes rendezvous for introductions carrying a valid hashcash proof
over the client's own rendezvous cookie — a function-specific protocol,
with zero changes to the Tor substrate.
"""

from __future__ import annotations

import hashlib

from repro.core.manifest import FunctionManifest
from repro.netsim.simulator import Actor

MB = 1024 * 1024

DDOS_DEFENSE_SOURCE = r'''
import hashlib
import json

def _pow_ok(cookie, nonce, difficulty_bits):
    digest = hashlib.sha256(cookie + nonce.to_bytes(8, "big")).digest()
    value = int.from_bytes(digest[:8], "big")
    return value >> (64 - difficulty_bits) == 0

def guarded_service(difficulty_bits, duration_s, poll_interval):
    content = yield from api.recv(timeout=300.0)
    state = {"active": 0, "served": 0}

    def handler(stream, host, port):
        state["active"] += 1
        try:
            request = yield from stream.recv(timeout=300.0)
            if request[:3] == b"GET":
                yield from stream.send(
                    len(content).to_bytes(8, "big") + content)
                state["served"] += 1
        except api.Error:
            pass
        state["active"] -= 1
        stream.close()

    service = yield from api.stem.create_hidden_service(
        handler, n_intro=3, manual_introductions=True)
    yield from api.send(json.dumps({"onion": str(service.onion_address),
                                    "difficulty": difficulty_bits})
                        .encode("utf-8"))
    accepted = 0
    rejected = 0
    end = (yield from api.time()) + duration_s
    while (yield from api.time()) < end:
        remaining = end - (yield from api.time())
        try:
            request = yield from api.stem.wait_introduction(
                service, timeout=min(poll_interval, remaining))
        except api.Timeout:
            continue
        extra = request.get("extra", {})
        nonce = extra.get("pow_nonce")
        if isinstance(nonce, int) and _pow_ok(request["cookie"], nonce,
                                              difficulty_bits):
            try:
                yield from api.stem.complete_rendezvous(service, request)
            except api.PeerGone:
                continue      # a refused rendezvous: one lost introduction
            accepted += 1
        else:
            rejected += 1     # no rendezvous: the attacker burned an intro
    return {"accepted": accepted, "rejected": rejected,
            "served": state["served"]}
'''


def solve_pow(cookie: bytes, difficulty_bits: int,
              max_attempts: int = 1 << 26) -> int:
    """Client-side hashcash: find a nonce for one's own rendezvous cookie."""
    for nonce in range(max_attempts):
        digest = hashlib.sha256(cookie + nonce.to_bytes(8, "big")).digest()
        if int.from_bytes(digest[:8], "big") >> (64 - difficulty_bits) == 0:
            return nonce
    raise ValueError("no nonce found within attempt budget")


def verify_pow(cookie: bytes, nonce: int, difficulty_bits: int) -> bool:
    """The check the function applies (host-side mirror for tests)."""
    digest = hashlib.sha256(cookie + nonce.to_bytes(8, "big")).digest()
    return int.from_bytes(digest[:8], "big") >> (64 - difficulty_bits) == 0


class AdmissionPuzzle:
    """Per-connection hashcash challenge for serving-plane admission.

    The same proof-of-work scheme the hidden-service defense uses for
    introductions, repurposed at the box's front door: under shed
    pressure the admission controller issues one of these instead of
    admitting, and only a request carrying a valid nonce for *this*
    challenge gets back in line.  Challenges are single-use and bound to
    the connection that received them, so a solved nonce cannot be
    replayed across connections.
    """

    __slots__ = ("challenge", "difficulty_bits", "spent")

    def __init__(self, challenge: bytes, difficulty_bits: int) -> None:
        self.challenge = bytes(challenge)
        self.difficulty_bits = int(difficulty_bits)
        self.spent = False

    @classmethod
    def issue(cls, rng, difficulty_bits: int) -> "AdmissionPuzzle":
        """Mint a fresh 16-byte challenge from the serving plane's RNG."""
        return cls(rng.randbytes(16), difficulty_bits)

    def check(self, challenge: bytes, nonce: int) -> bool:
        """Verify a solution; a valid one spends the puzzle."""
        if self.spent or bytes(challenge) != self.challenge:
            return False
        if not verify_pow(self.challenge, nonce, self.difficulty_bits):
            return False
        self.spent = True
        return True


class DdosDefenseFunction:
    """Host-side helper for the puzzle-guarded hidden service."""

    SOURCE = DDOS_DEFENSE_SOURCE
    API_CALLS = frozenset({
        "send", "recv", "log", "time",
        "stem.create_hidden_service", "stem.hs_wait_introduction",
        "stem.hs_complete_rendezvous",
    })

    @classmethod
    def manifest(cls, image: str = "python-op-sgx",
                 memory_bytes: int = 8 * MB) -> FunctionManifest:
        """The manifest this function ships with."""
        return FunctionManifest.create(
            name="ddos-defense", entry="guarded_service",
            api_calls=cls.API_CALLS, image=image, memory_bytes=memory_bytes)

    @staticmethod
    def start(thread: Actor, session, content: bytes,
              difficulty_bits: int = 8, duration_s: float = 120.0,
              poll_interval: float = 2.0, timeout: float = 600.0) -> dict:
        """Launch the guarded service; returns {"onion", "difficulty"}."""
        import json

        session.invoke_nowait([difficulty_bits, duration_s, poll_interval])
        session.send_message(content)
        ready = yield from session.next_output(thread, timeout=timeout)
        return json.loads(ready.decode("utf-8"))
