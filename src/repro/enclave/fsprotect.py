"""FS Protect: the conclave's encrypted, integrity-protected filesystem.

§5.4: "FS Protect generates an ephemeral encryption key when the
filesystem is launched in an enclave; the container ensures that the
enclaved filesystem is the only writable filesystem available to the
function, and therefore that all filesystem writes are encrypted."

Every file is stored as AEAD ciphertext (nonce: SHA-256 of path + version,
so a path of any length fits and replaying an old version of one file into
another path fails authentication).  :meth:`operator_view` is what the Bento
operator can see on disk — ciphertext only — which is the paper's
plausible-deniability argument made concrete (§6.2).
"""

from __future__ import annotations

import hashlib
from contextlib import suppress

from repro.crypto.aead import MAC_LEN, AeadError, AeadKey
from repro.sandbox.memfs import ChrootView
from repro.util.errors import ReproError
from repro.util.serialization import (SerializationError, canonical_decode,
                                      canonical_encode)


class FSProtectError(ReproError):
    """Integrity failures: the operator (or anyone) tampered with a file."""


# Keys encode sorted: the sealed leaf is first, the version pair last.
_LEAF = len(canonical_encode({"sealed": b""}))
_HEAD = canonical_encode({"sealed": b"", "version": 0})[:_LEAF - 4]


def _nonce(path: str, version: int) -> bytes:
    """Fixed width whatever the path's length (the AEAD takes <= 255 bytes)."""
    return hashlib.sha256(
        canonical_encode({"path": path, "version": version})).digest()


class FSProtect:
    """An encrypted view over a container's chroot filesystem."""

    def __init__(self, backing: ChrootView, ephemeral_key: bytes) -> None:
        self._backing = backing
        self._aead = AeadKey(ephemeral_key)
        self._versions: dict[str, int] = {}

    # -- enclave-side interface (what the function sees) ----------------------

    def write_file(self, path: str, data: bytes) -> None:
        """Encrypt and store ``data`` at ``path``."""
        version = self._versions.get(path, 0) + 1
        # canonical_encode({"version": version, "sealed": sealed}), sealed
        # in place into the envelope
        envelope = self._aead.seal(
            _nonce(path, version), data, aad=path.encode(),
            head=_HEAD + (len(data) + MAC_LEN).to_bytes(4, "big"),
            tail=canonical_encode({"version": version})[5:])
        self._backing.write_file(path, envelope)
        self._versions[path] = version

    def read_file(self, path: str) -> bytes:
        """Decrypt and verify ``path``; raises on tampering or rollback."""
        envelope = self._backing.read_file(path)
        stop = _LEAF + int.from_bytes(envelope[_LEAF - 4:_LEAF], "big")
        rest = {}
        with suppress(SerializationError):  # a one-pair dict's header first
            rest = canonical_decode(b"M\0\0\0\1" + envelope[stop:])
        version = rest.get("version")
        if type(version) is not int:
            raise FSProtectError(f"malformed envelope at {path}")
        expected = self._versions.get(path)
        if expected is not None and version != expected:
            raise FSProtectError(f"rollback detected on {path}")
        try:
            return self._aead.open(_nonce(path, version), envelope,
                                   path.encode(), _LEAF, stop)
        except AeadError as exc:
            raise FSProtectError(f"integrity check failed on {path}") from exc

    def delete(self, path: str) -> None:
        """Remove a file."""
        self._backing.delete(path)
        self._versions.pop(path, None)

    def exists(self, path: str) -> bool:
        """Does the path exist?"""
        return self._backing.exists(path)

    def listdir(self, path: str = "/") -> list[str]:
        """Immediate children of a directory."""
        return self._backing.listdir(path)

    def walk_files(self, path: str = "/") -> list[str]:
        """All file paths under a directory."""
        return self._backing.walk_files(path)

    # -- operator-side interface (what the host can see) ------------------------

    def operator_view(self, path: str) -> bytes:
        """The raw on-disk bytes: ciphertext envelopes only."""
        return self._backing.read_file(path)
