"""Erasure coding for the Shard function (§9.3).

"Shard uses standard linear encoding techniques to ensure that retrieving
any k of the N shards suffices to reconstruct the file" — implemented here
as a systematic Reed-Solomon-style code over GF(256), table-driven on
``bytes`` (``bytes.translate`` per coefficient, one integer XOR per stripe).
"""

from repro.coding.gf256 import gf_add, gf_div, gf_inv, gf_mul, gf_pow
from repro.coding.erasure import (
    CodingError,
    Shard,
    decode_shards,
    encode_shards,
)

__all__ = [
    "gf_add",
    "gf_mul",
    "gf_div",
    "gf_inv",
    "gf_pow",
    "Shard",
    "encode_shards",
    "decode_shards",
    "CodingError",
]
