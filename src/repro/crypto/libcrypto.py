"""The libcrypto the interpreter already loaded: ``_hashlib`` links it for
every hash in this repo, so its symbols are resolved through that
extension's own dependency tree: no ``find_library``, no version guess,
nothing installed.
"""

from __future__ import annotations

import _hashlib
import ctypes


def bind(signatures: dict[str, tuple]):
    """The library with each ``name: (restype, *argtypes)`` declared, or
    ``None`` where it does not export them all (static OpenSSL builds)."""
    try:
        lib = ctypes.CDLL(_hashlib.__file__)
        for name, (restype, *argtypes) in signatures.items():
            fn = getattr(lib, name)
            fn.restype, fn.argtypes = restype, argtypes
    except (OSError, AttributeError):
        return None
    return lib
