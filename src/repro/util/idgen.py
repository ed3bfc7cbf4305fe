"""Deterministic identifier generation.

Real systems use ``os.urandom`` for identifiers; a deterministic simulator
cannot, or runs stop being reproducible.  :class:`IdGenerator` produces
unique, unpredictable-looking identifiers from a seeded PRNG so every
simulation replay produces the same ids.
"""

from __future__ import annotations

import hashlib
import itertools


class IdGenerator:
    """Produce unique hex identifiers deterministically from a seed."""

    def __init__(self, seed: str = "repro") -> None:
        self._seed = seed
        self._counter = itertools.count()

    def next_hex(self, nbytes: int = 16) -> str:
        """Return the next identifier as a hex string of ``2 * nbytes`` chars."""
        return self.next_bytes(nbytes).hex()

    def next_bytes(self, nbytes: int = 16) -> bytes:
        """Return the next identifier as raw bytes."""
        counter = next(self._counter)
        material = f"{self._seed}:{counter}".encode()
        out = b""
        block = 0
        while len(out) < nbytes:
            out += hashlib.sha256(material + block.to_bytes(4, "big")).digest()
            block += 1
        return out[:nbytes]
