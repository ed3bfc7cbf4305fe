"""Systematic k-of-N erasure coding.

The first ``k`` shards are the data stripes themselves; the remaining
``N - k`` are parity rows of a Vandermonde-style matrix, so *any* ``k``
shards reconstruct the file.  The degenerate ``k == 1`` case is plain
replication, matching the paper's "in the trivial case where k = 1 and
N > 1, Shard simply replicates".
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.coding.gf256 import gf_inv, gf_mul, gf_mul_vector, gf_pow
from repro.util.errors import ReproError

_MAX_PARITY = 253   # parity rows take the Vandermonde bases 2..254


class CodingError(ReproError):
    """Bad parameters or not enough shards to reconstruct."""


@dataclass(frozen=True)
class Shard:
    """One encoded piece: its row index and payload."""

    index: int
    data: bytes


def _stripes(data: bytes, k: int) -> list[bytes]:
    """Split (and zero-pad) data into ``k`` stripes of equal length."""
    size = max(1, -(-len(data) // k))       # an empty file pads to one byte
    return [data[start:start + size].ljust(size, b"\x00")
            for start in range(0, k * size, size)]


def _row_coefficients(index: int, k: int) -> list[int]:
    """Row ``index`` of the encoding matrix.

    Rows 0..k-1 form the identity (systematic); parity row ``i`` is the
    Vandermonde row ``[a**0, a**1, ..., a**(k-1)]`` with ``a = i - k + 2``
    (distinct nonzero elements per row).
    """
    if index < k:
        return [1 if j == index else 0 for j in range(k)]
    a = index - k + 2      # 2, 3, 4, ... — distinct and nonzero
    return [gf_pow(a, j) for j in range(k)]


def _combine(coefficients: list[int], stripes: list[bytes]) -> bytes:
    """The GF(256) sum of ``coefficient * stripe`` over equal-length rows."""
    terms = [(c, stripe) for c, stripe in zip(coefficients, stripes) if c]
    if len(terms) == 1:
        return gf_mul_vector(*terms[0])
    acc = 0
    for coefficient, stripe in terms:
        acc ^= int.from_bytes(gf_mul_vector(coefficient, stripe), "big")
    return acc.to_bytes(len(stripes[0]), "big")


def encode_shards(data: bytes, n: int, k: int) -> list[Shard]:
    """Encode ``data`` into ``n`` shards, any ``k`` of which reconstruct it."""
    if not (1 <= k <= n and n - k <= _MAX_PARITY):
        raise CodingError(f"not 1 <= k <= n <= k + {_MAX_PARITY}: k={k} n={n}")
    data = bytes(data)      # any bytes-like; bytes itself is not copied
    if k == 1:
        return [Shard(index=i, data=data) for i in range(n)]
    stripes = _stripes(data, k)
    parity = [_combine(_row_coefficients(index, k), stripes)
              for index in range(k, n)]
    return [Shard(i, piece) for i, piece in enumerate(stripes + parity)]


def _invert(matrix: list[list[int]]) -> list[list[int]]:
    """Gauss-Jordan inverse of a k x k matrix over GF(256)."""
    k = len(matrix)
    work = [row + [1 if j == i else 0 for j in range(k)]
            for i, row in enumerate(matrix)]
    for col in range(k):
        pivot = next((r for r in range(col, k) if work[r][col] != 0), None)
        if pivot is None:
            raise CodingError("singular decode matrix (duplicate shards?)")
        work[col], work[pivot] = work[pivot], work[col]
        inv = gf_inv(work[col][col])
        work[col] = [gf_mul(inv, v) for v in work[col]]
        for r in range(k):
            factor = work[r][col]
            if r != col and factor != 0:
                work[r] = [v ^ gf_mul(factor, m)
                           for v, m in zip(work[r], work[col])]
    return [row[k:] for row in work]


def decode_shards(shards: list[Shard], k: int, original_len: int) -> bytes:
    """Reconstruct the original bytes from any ``k`` distinct shards; an
    index or a length :func:`encode_shards` cannot have produced is refused
    (both may be a stranger's choice)."""
    if k < 1 or original_len < 0:
        raise CodingError(f"no {original_len}-byte file in {k} stripes")
    if k == 1:
        if not shards or len(shards[0].data) < original_len:
            raise CodingError(f"no replica of {original_len} bytes supplied")
        return shards[0].data[:original_len]
    chosen: dict[int, bytes] = {}
    for shard in shards:
        if not (isinstance(shard.index, int)
                and 0 <= shard.index < k + _MAX_PARITY):
            raise CodingError(f"no shard index {shard.index!r} for k={k}")
        chosen.setdefault(shard.index, shard.data)
    if len(chosen) < k:
        raise CodingError(f"need {k} distinct shards, have {len(chosen)}")
    indices = sorted(chosen)[:k]
    pieces = [chosen[index] for index in indices]
    size = max(1, -(-original_len // k))
    if any(len(piece) != size for piece in pieces):
        raise CodingError(f"{original_len} bytes are {k} stripes of {size}")
    inverse = _invert([_row_coefficients(index, k) for index in indices])
    return b"".join(_combine(row, pieces) for row in inverse)[:original_len]
