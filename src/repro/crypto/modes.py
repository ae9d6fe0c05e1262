"""Modes of operation for the AES block cipher.

Convergent encryption requires that the ciphertext of a file be *fully
determined* by the file plaintext (paper section 3): ``c_f = E_{H(P_f)}(P_f)``
(Eq. 2).  We therefore use CTR mode with a fixed zero nonce: the key is
already a collision-resistant hash of the plaintext, so keystream reuse
across *different* plaintexts is impossible, and reuse across *identical*
plaintexts is precisely the feature.

CTR mode is embarrassingly parallel across blocks -- every keystream block is
``E_k(counter)`` for an independent counter -- so the hot path here is
*vectorized*: :func:`bulk_encrypt_ctr` runs all AES rounds for every block of
a file simultaneously as numpy array operations.  A middle round is
ShiftRows as one byte gather followed by two lookups per state column into
*paired* T-tables: 65,536-entry little-endian ``uint32`` tables holding
``T0[a] ^ T1[b]`` and ``T2[a] ^ T3[b]`` (512 KiB together, built once from
the T-tables of :mod:`repro.crypto.aes`), indexed by the column's row-0/1
and row-2/3 byte pairs read as ``<u2``.  Two XORs join the halves and add
the round key; the last round is SubBytes + ShiftRows + AddRoundKey.  Runs
shorter than ``_VECTOR_MIN_BLOCKS`` use the scalar T-table loop.  A small
LRU cache keyed by ``(key, nonce)`` re-serves keystream for repeated
encryptions of the same content, which the DFC pipeline hits whenever
duplicate files are encrypted on multiple machines.

Counters wrap modulo 2^128 on every path.  The scalar per-block path
(:func:`ctr_keystream` driving ``AES.encrypt_block``) is the reference the
property suite checks the vectorized path against, bit for bit, together
with :func:`encrypt_ctr_scalar` and ``AES.encrypt_block_scalar``.

CBC mode with a deterministic IV is provided as an alternative realization
(and to exercise the padding path); both satisfy Eq. 2.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Tuple

import numpy as _np

from repro.crypto.aes import AES, BLOCK_SIZE, _SBOX, _T0, _T1, _T2, _T3

#: Below this many blocks the scalar T-table loop beats the numpy kernel's
#: fixed cost (about five array calls per round).  Measured on a 2-core
#: x86-64 host, best of 200, scalar vs vector: AES-128 at 3 blocks 37 vs
#: 49 us, at 4 blocks 49 vs 48 us, at 8 blocks 97 vs 51 us; AES-256 crosses
#: at the same count (69 vs 69 us at 4 blocks).
_VECTOR_MIN_BLOCKS = 4

#: Explicit little-endian views, so the kernel's bytes do not depend on the
#: host's byte order: a state column is one ``<u4`` whose low byte is row 0,
#: and a (row r, row r+1) byte pair is one ``<u2`` table index.
_PAIR_DTYPE = _np.dtype("<u2")
_COLUMN_DTYPE = _np.dtype("<u4")


def ctr_keystream(cipher: AES, nonce: int, blocks: int) -> bytes:
    """Return *blocks* blocks of CTR keystream starting at counter *nonce*.

    Scalar reference path: one ``encrypt_block`` call per counter.  The
    counter wraps modulo 2^128, as in standard CTR.
    """
    out = bytearray()
    for counter in range(nonce, nonce + blocks):
        out.extend(
            cipher.encrypt_block((counter % (1 << 128)).to_bytes(BLOCK_SIZE, "big"))
        )
    return bytes(out)


# --- vectorized keystream ---------------------------------------------------
#
# State layout matches the scalar cipher: each row of the (N, 16) uint8 matrix
# is one block in column-major byte order.  All N blocks advance through each
# round together.

_NP_TABLES: Dict[str, "_np.ndarray"] = {}


def _np_tables() -> Dict[str, "_np.ndarray"]:
    """Lazily built numpy lookup tables for the vectorized kernel."""
    if not _NP_TABLES:
        # The T-tables pack each column big-endian (row 0 in the top byte);
        # stored as ">u4" and read back as "<u4" they hold the column in
        # state byte order.
        t0, t1, t2, t3 = (
            _np.array(t, dtype=">u4").view(_COLUMN_DTYPE) for t in (_T0, _T1, _T2, _T3)
        )
        # new_state[i] = old_state[perm[i]]: apply the scalar ShiftRows to the
        # identity permutation to read the gather indices off directly.
        perm = list(range(16))
        AES._shift_rows(perm)
        _NP_TABLES.update(
            sbox=_np.array(_SBOX, dtype=_np.uint8),
            # Paired tables, 65,536 words (256 KiB) each: t01[a | b << 8] is
            # T0[a] ^ T1[b], the contribution of rows 0 and 1 of a column.
            t01=(t0[None, :] ^ t1[:, None]).reshape(-1).astype(_COLUMN_DTYPE),
            t23=(t2[None, :] ^ t3[:, None]).reshape(-1).astype(_COLUMN_DTYPE),
            shift_perm=_np.array(perm, dtype=_np.intp),
        )
    return _NP_TABLES


def _counter_blocks(nonce: int, blocks: int) -> "_np.ndarray":
    """Counter blocks ``nonce .. nonce+blocks-1`` (mod 2^128), ``0 <= nonce < 2^128``."""
    low_start = nonce & 0xFFFFFFFFFFFFFFFF
    if low_start + blocks <= 1 << 64:
        high = (nonce >> 64).to_bytes(8, "big")
        out = _np.empty((blocks, 16), dtype=_np.uint8)
        out[:, :8] = _np.frombuffer(high, dtype=_np.uint8)
        low = _np.arange(low_start, low_start + blocks, dtype=_np.uint64)
        out[:, 8:] = low.astype(">u8").view(_np.uint8).reshape(blocks, 8)
        return out
    # Counter range straddles a 64-bit carry (or the 2^128 wrap): build the
    # blocks with exact integer arithmetic.
    raw = b"".join(
        ((nonce + i) % (1 << 128)).to_bytes(BLOCK_SIZE, "big") for i in range(blocks)
    )
    return _np.frombuffer(raw, dtype=_np.uint8).reshape(blocks, 16).copy()


def _vector_keystream(cipher: AES, nonce: int, blocks: int) -> bytes:
    """All *blocks* keystream blocks at once via paired T-table rounds.

    A middle round is ShiftRows as one byte gather, then two lookups per
    column into the paired tables (indexed by the column's row-0/1 and
    row-2/3 byte pairs), one XOR to join them and one to add the round key.
    The last round is SubBytes + ShiftRows + AddRoundKey.
    """
    tables = _np_tables()
    t01, t23, shift_perm = tables["t01"], tables["t23"], tables["shift_perm"]
    key_rows, key_columns = cipher.round_key_rows, cipher.round_key_columns

    state = _counter_blocks(nonce, blocks)
    state ^= key_rows[0]
    shifted = _np.empty_like(state)
    pairs = shifted.view(_PAIR_DTYPE).reshape(blocks, 4, 2)
    for r in range(1, cipher.rounds):
        _np.take(state, shift_perm, axis=1, out=shifted)
        columns = t01.take(pairs[:, :, 0])
        columns ^= t23.take(pairs[:, :, 1])
        columns ^= key_columns[r]
        state = columns.view(_np.uint8)
    _np.take(state, shift_perm, axis=1, out=shifted)
    out = tables["sbox"].take(shifted)
    out ^= key_rows[cipher.rounds]
    return out.tobytes()


def keystream_blocks(cipher: AES, nonce: int, blocks: int) -> bytes:
    """CTR keystream from counter *nonce* (mod 2^128), vectorized when long."""
    if blocks <= 0:
        return b""
    nonce %= 1 << 128
    if blocks < _VECTOR_MIN_BLOCKS:
        return ctr_keystream(cipher, nonce, blocks)
    return _vector_keystream(cipher, nonce, blocks)


# --- keystream cache --------------------------------------------------------


class KeystreamCache:
    """LRU cache of generated keystream, keyed by ``(key, nonce)``.

    Repeated encryptions of the same content (duplicate files on different
    machines, or a verify pass right after an encrypt) reuse the already
    computed stream; a request longer than the cached prefix extends it from
    the next counter rather than regenerating from scratch.
    """

    def __init__(self, max_entries: int = 16, max_entry_bytes: int = 1 << 20):
        if max_entries < 1:
            raise ValueError(f"cache needs at least one entry: {max_entries}")
        self.max_entries = max_entries
        self.max_entry_bytes = max_entry_bytes
        self._entries: "OrderedDict[Tuple[bytes, int], bytes]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def keystream(self, key: bytes, nonce: int, nbytes: int) -> bytes:
        """At least *nbytes* of keystream for ``(key, nonce)``."""
        cache_key = (bytes(key), nonce)
        cached = self._entries.get(cache_key)
        if cached is not None and len(cached) >= nbytes:
            self._entries.move_to_end(cache_key)
            self.hits += 1
            return cached[:nbytes]
        self.misses += 1
        blocks_needed = (nbytes + BLOCK_SIZE - 1) // BLOCK_SIZE
        if cached is None:
            stream = keystream_blocks(AES(key), nonce, blocks_needed)
        else:
            have_blocks = len(cached) // BLOCK_SIZE
            stream = cached + keystream_blocks(
                AES(key), nonce + have_blocks, blocks_needed - have_blocks
            )
        if len(stream) <= self.max_entry_bytes:
            self._entries[cache_key] = stream
            self._entries.move_to_end(cache_key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
        else:
            self._entries.pop(cache_key, None)
        return stream[:nbytes]

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


#: Process-wide cache used by the bulk API.
_KEYSTREAM_CACHE = KeystreamCache()

#: Bulk-kernel lifetime totals (plain module ints on the hot path; harvested
#: into a MetricsRegistry by :func:`collect_metrics` at report time).
_BULK_CALLS = 0
_BULK_BYTES = 0


def keystream_cache() -> KeystreamCache:
    """The process-wide keystream cache (exposed for stats and tests)."""
    return _KEYSTREAM_CACHE


def collect_metrics(registry) -> None:
    """Harvest the bulk-CTR kernel's lifetime totals into *registry*.

    Builds fresh entries from the module counters and the process-wide
    keystream cache; calling it twice on two registries double-counts
    nothing (a harvest is a snapshot).
    """
    registry.counter("crypto.ctr.bulk_calls").inc(_BULK_CALLS)
    registry.counter("crypto.ctr.bulk_bytes").inc(_BULK_BYTES)
    cache = _KEYSTREAM_CACHE
    registry.counter("crypto.ctr.keystream_cache_hits").inc(cache.hits)
    registry.counter("crypto.ctr.keystream_cache_misses").inc(cache.misses)
    probes = cache.hits + cache.misses
    if probes:
        registry.gauge("crypto.ctr.keystream_cache_hit_rate").set(cache.hits / probes)


def _xor_bytes(data: bytes, stream: bytes) -> bytes:
    if len(data) >= _VECTOR_MIN_BLOCKS * BLOCK_SIZE:
        a = _np.frombuffer(data, dtype=_np.uint8)
        b = _np.frombuffer(stream, dtype=_np.uint8, count=len(data))
        return (a ^ b).tobytes()
    return bytes(p ^ s for p, s in zip(data, stream))


def bulk_encrypt_ctr(key: bytes, plaintext: bytes, nonce: int = 0) -> bytes:
    """Encrypt *plaintext* in CTR mode with the vectorized keystream kernel.

    Byte-identical to :func:`encrypt_ctr`; the whole keystream for the file
    is generated in one shot and cached under ``(key, nonce)``.
    """
    global _BULK_CALLS, _BULK_BYTES
    if not plaintext:
        return b""
    _BULK_CALLS += 1
    _BULK_BYTES += len(plaintext)
    stream = _KEYSTREAM_CACHE.keystream(key, nonce, len(plaintext))
    return _xor_bytes(plaintext, stream)


def bulk_decrypt_ctr(key: bytes, ciphertext: bytes, nonce: int = 0) -> bytes:
    """CTR decryption is CTR encryption."""
    return bulk_encrypt_ctr(key, ciphertext, nonce)


def encrypt_ctr(key: bytes, plaintext: bytes, nonce: int = 0) -> bytes:
    """Encrypt *plaintext* under *key* in CTR mode.

    The output has exactly the length of the input, so coalesced storage of a
    convergently encrypted file costs no more space than the plaintext.
    Delegates to the bulk kernel; the scalar path is :func:`encrypt_ctr_scalar`.
    """
    return bulk_encrypt_ctr(key, plaintext, nonce)


def decrypt_ctr(key: bytes, ciphertext: bytes, nonce: int = 0) -> bytes:
    """CTR decryption is CTR encryption."""
    return encrypt_ctr(key, ciphertext, nonce)


def encrypt_ctr_scalar(key: bytes, plaintext: bytes, nonce: int = 0) -> bytes:
    """The seed repository's scalar CTR path, kept as the reference."""
    cipher = AES(key)
    blocks = (len(plaintext) + BLOCK_SIZE - 1) // BLOCK_SIZE
    stream = ctr_keystream(cipher, nonce, blocks)
    return bytes(p ^ s for p, s in zip(plaintext, stream))


def _pad(data: bytes) -> bytes:
    """PKCS#7 padding to a whole number of blocks."""
    pad_len = BLOCK_SIZE - len(data) % BLOCK_SIZE
    return data + bytes([pad_len]) * pad_len


def _unpad(data: bytes) -> bytes:
    if not data or len(data) % BLOCK_SIZE:
        raise ValueError("ciphertext is not a whole number of blocks")
    pad_len = data[-1]
    if not 1 <= pad_len <= BLOCK_SIZE or data[-pad_len:] != bytes([pad_len]) * pad_len:
        raise ValueError("invalid PKCS#7 padding")
    return data[:-pad_len]


def encrypt_cbc(key: bytes, plaintext: bytes, iv: bytes = bytes(BLOCK_SIZE)) -> bytes:
    """Encrypt in CBC mode with PKCS#7 padding and a deterministic IV."""
    if len(iv) != BLOCK_SIZE:
        raise ValueError(f"IV must be {BLOCK_SIZE} bytes, got {len(iv)}")
    cipher = AES(key)
    padded = _pad(plaintext)
    out = bytearray()
    prev = iv
    for i in range(0, len(padded), BLOCK_SIZE):
        block = bytes(a ^ b for a, b in zip(padded[i : i + BLOCK_SIZE], prev))
        prev = cipher.encrypt_block(block)
        out.extend(prev)
    return bytes(out)


def decrypt_cbc(key: bytes, ciphertext: bytes, iv: bytes = bytes(BLOCK_SIZE)) -> bytes:
    """Invert :func:`encrypt_cbc`."""
    if len(iv) != BLOCK_SIZE:
        raise ValueError(f"IV must be {BLOCK_SIZE} bytes, got {len(iv)}")
    cipher = AES(key)
    out = bytearray()
    prev = iv
    for i in range(0, len(ciphertext), BLOCK_SIZE):
        block = ciphertext[i : i + BLOCK_SIZE]
        plain = cipher.decrypt_block(block)
        out.extend(a ^ b for a, b in zip(plain, prev))
        prev = block
    return _unpad(bytes(out))
