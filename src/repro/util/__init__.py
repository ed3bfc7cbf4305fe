"""Small shared utilities: errors, byte helpers, RNG, serialization."""

from repro.util.errors import ReproError
from repro.util.bytesutil import int_from_bytes, int_to_bytes, xor_bytes
from repro.util.rng import DeterministicRandom
from repro.util.serialization import canonical_encode, canonical_decode

__all__ = [
    "ReproError",
    "int_from_bytes",
    "int_to_bytes",
    "xor_bytes",
    "DeterministicRandom",
    "canonical_encode",
    "canonical_decode",
]
