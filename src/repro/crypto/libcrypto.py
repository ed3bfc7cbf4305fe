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
    ``None`` where it does not export them all (static OpenSSL builds).

    A name given its return type alone is a *prepared* call: ctypes
    converts nothing on the way in, which is most of a short call's cost,
    so its caller passes every pointer as a ``c_void_p`` (or a buffer) it
    made once, and every other argument as the C ``int`` ctypes assumes.
    """
    try:
        lib = ctypes.CDLL(_hashlib.__file__)
        for name, (restype, *argtypes) in signatures.items():
            fn = getattr(lib, name)
            fn.restype = restype
            if argtypes:
                fn.argtypes = argtypes
    except (OSError, AttributeError):
        return None
    return lib
