"""Textbook RSA, implemented from scratch.

Farsite gives every user and every machine its own public/private key pair
(paper section 2).  Convergent encryption (section 3) uses the *user* keys
only to encrypt the per-file hash key in the ciphertext metadata
``mu_u = F_{K_u}(H(P_f))`` (Eq. 3), and machine keys only to derive verifiable
machine identifiers and authenticate channels.  Both payloads are short,
fresh, high-entropy values, so unpadded ("textbook") RSA on a
randomized-padded block is sufficient for the simulation; we nevertheless
apply a simple random-nonce padding so that equal payloads encrypt to
different ciphertexts under the same key, matching the semantics of a real
IND-CPA public-key scheme (the determinism of *convergent* encryption must
come only from the convergent construction itself, never from F).

Private-key operations -- the per-read unlock of ``mu_u`` (Eq. 4) and
machine certificate signing -- use the Chinese remainder theorem: two
exponentiations with half-size moduli and exponents, joined by Garner's
formula, about 2.6x faster than ``pow(c, d, n)`` at 512 bits.  The CRT
parameters are derived in :func:`generate_keypair` from the primes it
already drew, with no further random draws: a seed's key, and every
machine identifier derived from it, depends only on the prime search.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from repro.crypto.primes import generate_prime

#: Default modulus size.  512-bit RSA is of course obsolete for real
#: deployments; it keeps simulated key generation fast while exercising the
#: identical code path.
DEFAULT_MODULUS_BITS = 512

_PUBLIC_EXPONENT = 65537
_PAD_NONCE_BYTES = 8


class RSAError(Exception):
    """Raised on malformed RSA operations (oversized payloads, bad keys)."""


@dataclass(frozen=True)
class RSAPublicKey:
    """An RSA public key ``(n, e)``."""

    n: int
    e: int

    @property
    def modulus_bits(self) -> int:
        return self.n.bit_length()

    @property
    def max_payload_bytes(self) -> int:
        """Largest plaintext (in bytes) the padded encryption accepts."""
        # Sentinel byte + length byte + nonce + payload, strictly below n.
        return (self.modulus_bits - 1) // 8 - _PAD_NONCE_BYTES - 2

    def to_bytes(self) -> bytes:
        """Serialize deterministically; used to derive machine identifiers."""
        n_bytes = self.n.to_bytes((self.modulus_bits + 7) // 8, "big")
        e_bytes = self.e.to_bytes(4, "big")
        return len(n_bytes).to_bytes(2, "big") + n_bytes + e_bytes

    def encrypt(self, payload: bytes, rng: Optional[random.Random] = None) -> bytes:
        """Encrypt *payload* with random-nonce padding.

        Layout of the padded block (big-endian integer below n):
        ``0x01 || len(payload) || nonce (8 bytes) || payload``.  The sentinel
        keeps the block parseable even when the length byte is zero.
        """
        if len(payload) > self.max_payload_bytes:
            raise RSAError(
                f"payload of {len(payload)} bytes exceeds maximum of "
                f"{self.max_payload_bytes} for a {self.modulus_bits}-bit key"
            )
        rng = rng or random.Random()
        nonce = bytes(rng.getrandbits(8) for _ in range(_PAD_NONCE_BYTES))
        block = bytes([1, len(payload)]) + nonce + payload
        m = int.from_bytes(block, "big")
        c = pow(m, self.e, self.n)
        return c.to_bytes((self.modulus_bits + 7) // 8, "big")


@dataclass(frozen=True)
class RSAKeyPair:
    """An RSA key pair; the private exponent never leaves this object.

    Alongside ``d`` it carries the CRT parameters (the primes, ``d`` reduced
    mod each prime less one, and ``q^-1 mod p``), so every private-key
    operation is two half-size exponentiations joined by Garner's formula.
    """

    public: RSAPublicKey
    _d: int
    _p: int
    _q: int
    _dp: int
    _dq: int
    _qinv: int

    def __post_init__(self) -> None:
        if self._p * self._q != self.public.n:
            raise RSAError("CRT primes do not multiply to the modulus")

    def private_op(self, x: int) -> int:
        """``x^d mod n`` for ``0 <= x < n``, by CRT recombination."""
        m_p = pow(x, self._dp, self._p)
        m_q = pow(x, self._dq, self._q)
        return m_q + (self._qinv * (m_p - m_q) % self._p) * self._q

    def decrypt(self, ciphertext: bytes) -> bytes:
        """Invert :meth:`RSAPublicKey.encrypt`, returning the payload."""
        c = int.from_bytes(ciphertext, "big")
        if c >= self.public.n:
            raise RSAError("ciphertext is not below the modulus")
        m = self.private_op(c)
        block = m.to_bytes((self.public.modulus_bits + 7) // 8, "big")
        # Strip leading zeros introduced by fixed-width serialization; the
        # first nonzero byte must be the 0x01 sentinel.
        idx = 0
        while idx < len(block) and block[idx] == 0:
            idx += 1
        if idx + 1 >= len(block) or block[idx] != 1:
            raise RSAError("padding check failed: corrupt ciphertext or wrong key")
        length = block[idx + 1]
        payload = block[idx + 2 + _PAD_NONCE_BYTES :]
        if len(payload) != length:
            raise RSAError("padding check failed: corrupt ciphertext or wrong key")
        return payload


def generate_keypair(
    bits: int = DEFAULT_MODULUS_BITS,
    rng: Optional[random.Random] = None,
) -> RSAKeyPair:
    """Generate an RSA key pair with a modulus of roughly *bits* bits."""
    rng = rng or random.Random()
    half = bits // 2
    while True:
        p = generate_prime(half, rng=rng)
        q = generate_prime(bits - half, rng=rng)
        if p == q:
            continue
        n = p * q
        phi = (p - 1) * (q - 1)
        if phi % _PUBLIC_EXPONENT == 0:
            continue
        d = pow(_PUBLIC_EXPONENT, -1, phi)
        return RSAKeyPair(
            public=RSAPublicKey(n=n, e=_PUBLIC_EXPONENT),
            _d=d,
            _p=p,
            _q=q,
            _dp=d % (p - 1),
            _dq=d % (q - 1),
            _qinv=pow(q, -1, p),
        )
