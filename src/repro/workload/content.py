"""Deterministic synthetic file contents.

The corpus describes files abstractly as ``(content_id, size)``; when an
experiment needs actual bytes (to exercise the Single-Instance Store or the
encryption path end to end), this module materializes them: equal content
identities yield byte-identical data, different identities yield different
data, and generation is cheap (one hash seed expanded by repetition).

The materialized bytes stand in for the *convergently encrypted* blob of the
file: under convergent encryption, identical plaintexts produce identical
ciphertexts, so identity of these blobs is exactly the property every
downstream component (fingerprinting, SIS coalescing) relies on.
"""

from __future__ import annotations

from hashlib import sha512

_SEED_BYTES = 64

#: The first big-endian 8-byte counters, enough for 64 KiB of output
#: (1,024 SHA-512 blocks); larger sizes build the rest inline.
_COUNTERS = tuple(c.to_bytes(8, "big") for c in range(1024))


def synthetic_content(content_id: int, size: int) -> bytes:
    """Deterministic bytes for a synthetic content identity.

    The construction mirrors :func:`repro.core.fingerprint.synthetic_fingerprint`:
    a hash of the ``(size, content_id)`` token, expanded by counter-mode
    hashing to the requested length.
    """
    if size < 0:
        raise ValueError(f"size cannot be negative: {size}")
    token = b"synthetic-content:%d:%d" % (size, content_id)
    blocks = -(-size // _SEED_BYTES)
    counters = _COUNTERS[:blocks]
    if blocks > len(_COUNTERS):
        counters += tuple(c.to_bytes(8, "big") for c in range(len(_COUNTERS), blocks))
    return b"".join([sha512(token + c).digest() for c in counters])[:size]
