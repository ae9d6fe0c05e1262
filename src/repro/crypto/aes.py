"""FIPS-197 AES block cipher, implemented from scratch in pure Python.

Convergent encryption (paper section 3) needs a symmetric cipher ``E`` keyed
by the hash of the plaintext.  The security proof models ``E`` as a random
permutation family; any standard block cipher realizes it.  We implement AES
(128/192/256-bit keys) directly from the FIPS-197 specification -- key
expansion, SubBytes/ShiftRows/MixColumns rounds, and their inverses -- so the
repository has no external crypto dependency.

The key schedule is expanded once per :class:`AES` instance on big-endian
32-bit words (RotWord/SubWord as shifts and four S-box lookups), and every
form the encryption paths need is derived from it in the constructor: byte
round keys, column words, and numpy rows for the vectorized CTR kernel in
:mod:`repro.crypto.modes`.  Convergent encryption builds a fresh instance
for every file it encrypts, so the constructor sits on the data path.

Two single-block encryption paths share the key schedule:

- a *scalar reference* path (:meth:`AES.encrypt_block_scalar`) that applies
  SubBytes/ShiftRows/MixColumns byte by byte, straight from the spec; and
- a *T-table* fast path (:meth:`AES.encrypt_block`, the default) that fuses
  the three key-agnostic round functions into four precomputed 256-entry
  tables of 32-bit words, so each round costs 16 table lookups and 20 XORs
  instead of ~60 byte operations.  The tables are derived from the same
  S-box and GF(2^8) arithmetic as the scalar path, and the property suite
  (``tests/property/test_prop_bulk_crypto.py``) asserts byte-identical
  output.  The CTR kernel pairs these tables up for whole-file keystream.

Verified against the FIPS-197 appendix test vectors in
``tests/crypto/test_aes.py``.
"""

from __future__ import annotations

import struct
from typing import List

import numpy as _np

BLOCK_SIZE = 16

# --- S-box generation -------------------------------------------------------
#
# Rather than hard-coding 256 magic numbers, derive the S-box from its
# definition: multiplicative inverse in GF(2^8) followed by the affine
# transform (FIPS-197 section 5.1.1).


def _gf_mul(a: int, b: int) -> int:
    """Multiply two elements of GF(2^8) modulo the AES polynomial x^8+x^4+x^3+x+1."""
    result = 0
    for _ in range(8):
        if b & 1:
            result ^= a
        high = a & 0x80
        a = (a << 1) & 0xFF
        if high:
            a ^= 0x1B
        b >>= 1
    return result


def _build_sbox() -> List[int]:
    # Compute inverses via exhaustive search once; 256*256 is trivial.
    inverse = [0] * 256
    for x in range(1, 256):
        for y in range(1, 256):
            if _gf_mul(x, y) == 1:
                inverse[x] = y
                break
    sbox = [0] * 256
    for x in range(256):
        b = inverse[x]
        # Affine transform: b ^ rotl(b,1) ^ rotl(b,2) ^ rotl(b,3) ^ rotl(b,4) ^ 0x63
        value = 0x63
        for shift in range(5):
            value ^= ((b << shift) | (b >> (8 - shift))) & 0xFF
        sbox[x] = value
    return sbox


_SBOX = _build_sbox()
_INV_SBOX = [0] * 256
for _i, _v in enumerate(_SBOX):
    _INV_SBOX[_v] = _i

_RCON = [0x01]
while len(_RCON) < 14:
    _RCON.append(_gf_mul(_RCON[-1], 0x02))

# Precomputed GF multiplication tables for MixColumns and its inverse.
_MUL2 = [_gf_mul(x, 2) for x in range(256)]
_MUL3 = [_gf_mul(x, 3) for x in range(256)]
_MUL9 = [_gf_mul(x, 9) for x in range(256)]
_MUL11 = [_gf_mul(x, 11) for x in range(256)]
_MUL13 = [_gf_mul(x, 13) for x in range(256)]
_MUL14 = [_gf_mul(x, 14) for x in range(256)]

_ROUNDS_BY_KEY_BYTES = {16: 10, 24: 12, 32: 14}

# --- T-tables ---------------------------------------------------------------
#
# SubBytes, ShiftRows, and MixColumns are all key-agnostic, so their
# composition over one input byte is a pure function of that byte: a 256-entry
# table of 32-bit column contributions.  Four tables (one per row position)
# reduce a full round to 16 lookups and 20 XORs.  Each entry packs the
# MixColumns column (b0, b1, b2, b3) produced by S[x] big-endian, matching the
# big-endian word packing of the state columns.


def _build_t_tables() -> List[List[int]]:
    t0 = []
    for x in range(256):
        s = _SBOX[x]
        t0.append((_MUL2[s] << 24) | (s << 16) | (s << 8) | _MUL3[s])
    # T1..T3 are byte rotations of T0 (the contribution pattern shifts with
    # the row position).
    t1 = [((w >> 8) | ((w & 0xFF) << 24)) & 0xFFFFFFFF for w in t0]
    t2 = [((w >> 8) | ((w & 0xFF) << 24)) & 0xFFFFFFFF for w in t1]
    t3 = [((w >> 8) | ((w & 0xFF) << 24)) & 0xFFFFFFFF for w in t2]
    return [t0, t1, t2, t3]


_T0, _T1, _T2, _T3 = _build_t_tables()


def _sub_word(w: int) -> int:
    """SubBytes on each byte of a 32-bit word."""
    sbox = _SBOX
    return (
        (sbox[w >> 24] << 24)
        | (sbox[(w >> 16) & 0xFF] << 16)
        | (sbox[(w >> 8) & 0xFF] << 8)
        | sbox[w & 0xFF]
    )


def _expand_key(key: bytes, rounds: int) -> List[int]:
    """FIPS-197 key expansion on big-endian 32-bit words (section 5.2)."""
    nk = len(key) // 4
    words = list(struct.unpack(f">{nk}I", key))
    for i in range(nk, 4 * (rounds + 1)):
        temp = words[-1]
        if i % nk == 0:
            # RotWord then SubWord, then the round constant in the top byte.
            temp = _sub_word(((temp << 8) | (temp >> 24)) & 0xFFFFFFFF)
            temp ^= _RCON[i // nk - 1] << 24
        elif nk > 6 and i % nk == 4:
            temp = _sub_word(temp)
        words.append(words[i - nk] ^ temp)
    return words


class AES:
    """The AES block cipher over 16-byte blocks.

    >>> key = bytes(range(16))
    >>> cipher = AES(key)
    >>> block = b"sixteen byte msg"
    >>> cipher.decrypt_block(cipher.encrypt_block(block)) == block
    True
    """

    def __init__(self, key: bytes):
        if len(key) not in _ROUNDS_BY_KEY_BYTES:
            raise ValueError(
                f"AES key must be 16, 24, or 32 bytes, got {len(key)}"
            )
        self.key = bytes(key)
        self.rounds = _ROUNDS_BY_KEY_BYTES[len(key)]
        words = _expand_key(self.key, self.rounds)
        schedule = struct.pack(f">{len(words)}I", *words)
        # Every view of the schedule is derived here, once: byte round keys
        # for the reference rounds, big-endian column words for the T-table
        # path, and numpy rows for the vectorized CTR kernel in modes.py.
        self._round_keys = [schedule[16 * r : 16 * r + 16] for r in range(self.rounds + 1)]
        self._round_key_words = [words[4 * r : 4 * r + 4] for r in range(self.rounds + 1)]
        #: ``(rounds + 1, 16)`` uint8: round key bytes in state order.
        self.round_key_rows = _np.frombuffer(schedule, dtype=_np.uint8).reshape(
            self.rounds + 1, 16
        )
        #: The same rows as ``(rounds + 1, 4)`` little-endian column words.
        self.round_key_columns = self.round_key_rows.view("<u4")

    # State layout: a flat list of 16 bytes in column-major order, matching
    # the byte order of the input block (FIPS-197 section 3.4).

    @staticmethod
    def _add_round_key(state: List[int], rk: bytes) -> None:
        for i in range(16):
            state[i] ^= rk[i]

    @staticmethod
    def _sub_bytes(state: List[int], box: List[int]) -> None:
        for i in range(16):
            state[i] = box[state[i]]

    @staticmethod
    def _shift_rows(state: List[int]) -> None:
        # Row r (bytes r, r+4, r+8, r+12) rotates left by r.
        state[1], state[5], state[9], state[13] = state[5], state[9], state[13], state[1]
        state[2], state[6], state[10], state[14] = state[10], state[14], state[2], state[6]
        state[3], state[7], state[11], state[15] = state[15], state[3], state[7], state[11]

    @staticmethod
    def _inv_shift_rows(state: List[int]) -> None:
        state[5], state[9], state[13], state[1] = state[1], state[5], state[9], state[13]
        state[10], state[14], state[2], state[6] = state[2], state[6], state[10], state[14]
        state[15], state[3], state[7], state[11] = state[3], state[7], state[11], state[15]

    @staticmethod
    def _mix_columns(state: List[int]) -> None:
        for c in range(0, 16, 4):
            a0, a1, a2, a3 = state[c : c + 4]
            state[c] = _MUL2[a0] ^ _MUL3[a1] ^ a2 ^ a3
            state[c + 1] = a0 ^ _MUL2[a1] ^ _MUL3[a2] ^ a3
            state[c + 2] = a0 ^ a1 ^ _MUL2[a2] ^ _MUL3[a3]
            state[c + 3] = _MUL3[a0] ^ a1 ^ a2 ^ _MUL2[a3]

    @staticmethod
    def _inv_mix_columns(state: List[int]) -> None:
        for c in range(0, 16, 4):
            a0, a1, a2, a3 = state[c : c + 4]
            state[c] = _MUL14[a0] ^ _MUL11[a1] ^ _MUL13[a2] ^ _MUL9[a3]
            state[c + 1] = _MUL9[a0] ^ _MUL14[a1] ^ _MUL11[a2] ^ _MUL13[a3]
            state[c + 2] = _MUL13[a0] ^ _MUL9[a1] ^ _MUL14[a2] ^ _MUL11[a3]
            state[c + 3] = _MUL11[a0] ^ _MUL13[a1] ^ _MUL9[a2] ^ _MUL14[a3]

    def encrypt_block_scalar(self, block: bytes) -> bytes:
        """Encrypt one 16-byte block via the per-byte reference rounds.

        This is the FIPS-197 spec transcribed literally; it exists as the
        ground truth the T-table path is property-tested against.
        """
        if len(block) != BLOCK_SIZE:
            raise ValueError(f"block must be {BLOCK_SIZE} bytes, got {len(block)}")
        state = list(block)
        self._add_round_key(state, self._round_keys[0])
        for r in range(1, self.rounds):
            self._sub_bytes(state, _SBOX)
            self._shift_rows(state)
            self._mix_columns(state)
            self._add_round_key(state, self._round_keys[r])
        self._sub_bytes(state, _SBOX)
        self._shift_rows(state)
        self._add_round_key(state, self._round_keys[self.rounds])
        return bytes(state)

    def encrypt_block(self, block: bytes) -> bytes:
        """Encrypt one 16-byte block (T-table fast path)."""
        if len(block) != BLOCK_SIZE:
            raise ValueError(f"block must be {BLOCK_SIZE} bytes, got {len(block)}")
        t0, t1, t2, t3 = _T0, _T1, _T2, _T3
        words = self._round_key_words
        rk = words[0]
        s0 = int.from_bytes(block[0:4], "big") ^ rk[0]
        s1 = int.from_bytes(block[4:8], "big") ^ rk[1]
        s2 = int.from_bytes(block[8:12], "big") ^ rk[2]
        s3 = int.from_bytes(block[12:16], "big") ^ rk[3]
        for r in range(1, self.rounds):
            rk = words[r]
            u0 = t0[s0 >> 24] ^ t1[(s1 >> 16) & 0xFF] ^ t2[(s2 >> 8) & 0xFF] ^ t3[s3 & 0xFF] ^ rk[0]
            u1 = t0[s1 >> 24] ^ t1[(s2 >> 16) & 0xFF] ^ t2[(s3 >> 8) & 0xFF] ^ t3[s0 & 0xFF] ^ rk[1]
            u2 = t0[s2 >> 24] ^ t1[(s3 >> 16) & 0xFF] ^ t2[(s0 >> 8) & 0xFF] ^ t3[s1 & 0xFF] ^ rk[2]
            u3 = t0[s3 >> 24] ^ t1[(s0 >> 16) & 0xFF] ^ t2[(s1 >> 8) & 0xFF] ^ t3[s2 & 0xFF] ^ rk[3]
            s0, s1, s2, s3 = u0, u1, u2, u3
        # Final round: SubBytes + ShiftRows + AddRoundKey, no MixColumns.
        rk = words[self.rounds]
        sbox = _SBOX
        u0 = (
            (sbox[s0 >> 24] << 24)
            | (sbox[(s1 >> 16) & 0xFF] << 16)
            | (sbox[(s2 >> 8) & 0xFF] << 8)
            | sbox[s3 & 0xFF]
        ) ^ rk[0]
        u1 = (
            (sbox[s1 >> 24] << 24)
            | (sbox[(s2 >> 16) & 0xFF] << 16)
            | (sbox[(s3 >> 8) & 0xFF] << 8)
            | sbox[s0 & 0xFF]
        ) ^ rk[1]
        u2 = (
            (sbox[s2 >> 24] << 24)
            | (sbox[(s3 >> 16) & 0xFF] << 16)
            | (sbox[(s0 >> 8) & 0xFF] << 8)
            | sbox[s1 & 0xFF]
        ) ^ rk[2]
        u3 = (
            (sbox[s3 >> 24] << 24)
            | (sbox[(s0 >> 16) & 0xFF] << 16)
            | (sbox[(s1 >> 8) & 0xFF] << 8)
            | sbox[s2 & 0xFF]
        ) ^ rk[3]
        return (
            u0.to_bytes(4, "big")
            + u1.to_bytes(4, "big")
            + u2.to_bytes(4, "big")
            + u3.to_bytes(4, "big")
        )

    def decrypt_block(self, block: bytes) -> bytes:
        """Decrypt one 16-byte block."""
        if len(block) != BLOCK_SIZE:
            raise ValueError(f"block must be {BLOCK_SIZE} bytes, got {len(block)}")
        state = list(block)
        self._add_round_key(state, self._round_keys[self.rounds])
        for r in range(self.rounds - 1, 0, -1):
            self._inv_shift_rows(state)
            self._sub_bytes(state, _INV_SBOX)
            self._add_round_key(state, self._round_keys[r])
            self._inv_mix_columns(state)
        self._inv_shift_rows(state)
        self._sub_bytes(state, _INV_SBOX)
        self._add_round_key(state, self._round_keys[0])
        return bytes(state)
