"""Pure-Python RSA: keygen (Miller-Rabin), PKCS#1-style hash signatures,
raw encryption, and Chaum blind signatures.

Used for relay identity keys, directory consensus signatures, the simulated
Intel Attestation Service's report signatures, and the blinded
invocation/shutdown tokens that the paper sketches in §5.3 footnote 3.

Key sizes default to 512 bits so a simulation can mint hundreds of relay
identities quickly; this is a simulation knob, not a security
recommendation (see DESIGN.md §2).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

from repro.crypto.modexp import Modulus, modexp
from repro.util.bytesutil import int_from_bytes, int_to_bytes
from repro.util.rng import DeterministicRandom

_E = 65537
_SMALL_PRIMES = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139,
]


class RsaError(ValueError):
    """Raised on malformed keys, bad signatures, or out-of-range messages."""


def _is_probable_prime(n: int, rng: DeterministicRandom, rounds: int = 24) -> bool:
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(rounds):
        a = rng.randint(2, n - 2)
        x = modexp(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True


def _generate_prime(bits: int, rng: DeterministicRandom) -> int:
    while True:
        candidate = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if math.gcd(candidate - 1, _E) != 1:
            continue
        if _is_probable_prime(candidate, rng):
            return candidate


def _digest_to_int(message: bytes, modulus: int) -> int:
    """Full-domain-style hash of ``message`` reduced into the modulus range."""
    nbytes = (modulus.bit_length() + 7) // 8
    out = b""
    counter = 0
    while len(out) < nbytes:
        out += hashlib.sha256(
            b"rsa-fdh:" + counter.to_bytes(4, "big") + message
        ).digest()
        counter += 1
    return int_from_bytes(out[:nbytes]) % modulus


@dataclass(frozen=True)
class RsaPublicKey:
    """An RSA public key ``(n, e)``."""

    n: int
    e: int = _E

    def verify(self, message: bytes, signature: bytes) -> bool:
        """Check a hash-and-sign signature over ``message``."""
        try:
            sig_int = int_from_bytes(signature)
        except (TypeError, ValueError):  # not a byte string: no signature
            return False
        if not 0 <= sig_int < self.n:
            return False
        return pow(sig_int, self.e, self.n) == _digest_to_int(message, self.n)

    def encrypt_int(self, m: int) -> int:
        """Raw RSA encryption of an integer already in range."""
        if not 0 <= m < self.n:
            raise RsaError("message out of range")
        return pow(m, self.e, self.n)

    def blind(self, message: bytes, rng: DeterministicRandom) -> tuple[int, int]:
        """Blind ``message`` for a Chaum blind signature.

        Returns ``(blinded, unblinder)``; send ``blinded`` to the signer and
        keep ``unblinder`` secret for :meth:`unblind`.
        """
        m = _digest_to_int(message, self.n)
        while True:
            r = rng.randint(2, self.n - 2)
            if math.gcd(r, self.n) == 1:
                break
        blinded = (m * pow(r, self.e, self.n)) % self.n
        return blinded, r

    def unblind(self, blind_signature: int, unblinder: int) -> bytes:
        """Strip the blinding factor from the signer's response."""
        r_inv = pow(unblinder, -1, self.n)
        sig = (blind_signature * r_inv) % self.n
        return int_to_bytes(sig, (self.n.bit_length() + 7) // 8)

    def fingerprint(self) -> str:
        """A short stable identifier for this key."""
        material = int_to_bytes(self.n) + int_to_bytes(self.e)
        return hashlib.sha256(material).hexdigest()[:40]


def _recover_factors(n: int, e: int, d: int) -> tuple[int, int]:
    """The primes of ``n`` from a matching ``(e, d)`` (HAC fact 8.8).

    ``k = e * d - 1`` is a multiple of every element's order, so squaring
    ``g ** odd_part(k)`` reaches 1, and for at least half of all ``g`` it
    gets there through a square root of 1 other than ``+-1``; that root
    minus one shares exactly one prime with ``n``.  Bases are tried in a
    fixed order: no randomness is drawn.
    """
    k = e * d - 1
    if n <= 3 or k <= 0:
        raise RsaError("inconsistent RSA key parts")
    twos = (k & -k).bit_length() - 1
    odd = k >> twos
    for g in _SMALL_PRIMES:
        x = modexp(g, odd, n)
        for _ in range(twos):
            y = pow(x, 2, n)
            if y == 1:
                if x in (1, n - 1):
                    break  # a trivial root: next base
                p = math.gcd(x - 1, n)
                return p, n // p
            x = y
        else:  # g ** k != 1, so k is no multiple of the order
            break
    raise RsaError("inconsistent RSA key parts")


class RsaKeyPair:
    """An RSA key pair with signing, decryption, and blind signing.

    Private-key operations go through the Chinese remainder theorem: two
    half-width exponentiations with exponents reduced once per key, which
    yields the same integer as ``pow(c, d, n)`` at about half the cost.
    Each prime is a :class:`~repro.crypto.modexp.Modulus`, loaded with the
    key and freed with it.
    """

    def __init__(self, n: int, e: int, d: int, p: int, q: int) -> None:
        if (p * q != n or p == q or min(p, q) < 3
                or e * d % math.lcm(p - 1, q - 1) != 1):
            raise RsaError("inconsistent RSA key parts")
        self.public = RsaPublicKey(n=n, e=e)
        self._d = d
        self._p = p
        self._q = q
        self._dp = d % (p - 1)
        self._dq = d % (q - 1)
        self._qinv = pow(q, -1, p)
        self._mod_p = Modulus(p)
        self._mod_q = Modulus(q)

    @classmethod
    def generate(cls, rng: DeterministicRandom, bits: int = 512) -> "RsaKeyPair":
        """Generate a key pair deterministically from ``rng``."""
        if bits < 128:
            raise RsaError("key size too small even for simulation")
        half = bits // 2
        while True:
            p = _generate_prime(half, rng)
            q = _generate_prime(bits - half, rng)
            if p == q:
                continue
            n = p * q
            phi = (p - 1) * (q - 1)
            if math.gcd(_E, phi) != 1:
                continue
            d = pow(_E, -1, phi)
            return cls(n=n, e=_E, d=d, p=p, q=q)

    def export_parts(self) -> dict:
        """The full key material as plain ints (for replica cloning —
        §8.2: "copies all files (including the hostname and private key)
        to the new instance")."""
        return {"n": self.public.n, "e": self.public.e, "d": self._d}

    @classmethod
    def from_parts(cls, parts: dict) -> "RsaKeyPair":
        """Reconstruct a key pair exported with :meth:`export_parts`.

        The factors are not on the wire; they are recovered from ``d``,
        which fails (:class:`RsaError`) when ``d`` does not belong to
        ``(n, e)``.
        """
        n, e, d = int(parts["n"]), int(parts["e"]), int(parts["d"])
        p, q = _recover_factors(n, e, d)
        return cls(n=n, e=e, d=d, p=p, q=q)

    def _private_op(self, c: int) -> int:
        """``pow(c, d, n)`` by CRT (Garner's recombination)."""
        m2 = self._mod_q.power(c, self._dq)
        h = (self._mod_p.power(c, self._dp) - m2) * self._qinv % self._p
        return m2 + h * self._q

    def sign(self, message: bytes) -> bytes:
        """Hash-and-sign ``message``."""
        sig = self._private_op(_digest_to_int(message, self.public.n))
        return int_to_bytes(sig, (self.public.n.bit_length() + 7) // 8)

    def decrypt_int(self, c: int) -> int:
        """Raw RSA decryption of an integer in range."""
        if not 0 <= c < self.public.n:
            raise RsaError("ciphertext out of range")
        return self._private_op(c)

    def blind_sign(self, blinded: int) -> int:
        """Sign a blinded value without learning the underlying message."""
        if not 0 <= blinded < self.public.n:
            raise RsaError("blinded message out of range")
        return self._private_op(blinded)
