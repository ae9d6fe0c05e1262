"""Machine identity (paper section 2).

"Each machine has its own public/private key pair (separate from the key
pairs held by users), and each machine computes a large (20-byte) unique
identifier for itself from a cryptographically strong hash of its public
key.  Since the corresponding private key is known only by that machine, it
is the only machine that can sign a certificate that validates its own
identifier, making machine identifiers verifiable and unforgeable."

Certificates here are RSA signatures over the claimed identifier: signing is
RSA decryption of a hashed statement, verification is RSA encryption-side
recovery.  (Textbook RSA signatures suffice for the simulation; the payload
is a fixed-width hash.)
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from repro.crypto.hashing import strong_hash
from repro.crypto.rsa import RSAKeyPair, RSAPublicKey, generate_keypair

IDENTIFIER_BYTES = 20


@dataclass(frozen=True)
class IdentityCertificate:
    """A self-signed claim that *public_key* owns *identifier*."""

    identifier: int
    public_key: RSAPublicKey
    signature: int

    def verify(self) -> bool:
        """Check the signature and that the identifier hashes correctly."""
        if identifier_of(self.public_key) != self.identifier:
            return False
        statement = _statement_digest(self.identifier, self.public_key)
        recovered = pow(self.signature, self.public_key.e, self.public_key.n)
        return recovered == statement


def identifier_of(public_key: RSAPublicKey) -> int:
    """The 20-byte machine identifier: hash of the public key."""
    return int.from_bytes(strong_hash(public_key.to_bytes()), "big")


def _statement_digest(identifier: int, public_key: RSAPublicKey) -> int:
    statement = identifier.to_bytes(IDENTIFIER_BYTES, "big") + public_key.to_bytes()
    return int.from_bytes(strong_hash(b"identity-cert:" + statement), "big")


class MachineIdentity:
    """A machine's key pair, identifier, and self-certification."""

    def __init__(self, keypair: Optional[RSAKeyPair] = None, rng: Optional[random.Random] = None):
        self.keypair = keypair or generate_keypair(rng=rng)
        self.identifier = identifier_of(self.keypair.public)

    @property
    def public_key(self) -> RSAPublicKey:
        return self.keypair.public

    def certificate(self) -> IdentityCertificate:
        """Sign a certificate validating this machine's own identifier."""
        digest = _statement_digest(self.identifier, self.public_key)
        # RSA signing: apply the private exponent to the digest.
        signature = self.keypair.private_op(digest % self.public_key.n)
        return IdentityCertificate(
            identifier=self.identifier,
            public_key=self.public_key,
            signature=signature,
        )

    def __repr__(self) -> str:
        return f"<MachineIdentity {self.identifier:#042x}>"
