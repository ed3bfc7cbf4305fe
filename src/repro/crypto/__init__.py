"""Cryptographic primitives for the Tor and enclave substrates.

Real Tor uses AES-CTR, Curve25519 and RSA via OpenSSL.  This reproduction
runs offline with the standard library only.  Its cell cipher is the real
one, AES-128-CTR on the interpreter's own libcrypto (:mod:`.stream`); for
the rest it substitutes:

* Curve25519 (ntor)  -> classic finite-field Diffie-Hellman (:mod:`.dh`)
* OpenSSL RSA        -> pure-Python RSA with Miller-Rabin keygen (:mod:`.rsa`)

Each substitute provides the same *interface properties* the protocols rely
on (keyed indistinguishability, shared-secret agreement, unforgeable-without
-key signatures) while remaining deterministic and dependency-free.  None of
this is production cryptography; it exists to make the protocol logic real.
"""

from repro.crypto.kdf import hkdf_expand, hkdf_extract, hkdf
from repro.crypto.stream import StreamCipher, stream_xor
from repro.crypto.aead import AeadKey, AeadError
from repro.crypto.dh import DiffieHellman, DH_GROUP_MODP_1024, DH_GROUP_MODP_2048
from repro.crypto.rsa import RsaKeyPair, RsaPublicKey, RsaError

__all__ = [
    "hkdf",
    "hkdf_extract",
    "hkdf_expand",
    "StreamCipher",
    "stream_xor",
    "AeadKey",
    "AeadError",
    "DiffieHellman",
    "DH_GROUP_MODP_1024",
    "DH_GROUP_MODP_2048",
    "RsaKeyPair",
    "RsaPublicKey",
    "RsaError",
]
