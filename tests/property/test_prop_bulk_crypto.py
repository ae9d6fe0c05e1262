"""Property tests: the vectorized/batched fast paths are bit-identical.

Every performance path in the crypto and fingerprint layers keeps its slow
reference implementation alive precisely so these tests can pin them
together: T-table AES against the textbook per-byte rounds, the numpy CTR
keystream against the one-block-at-a-time loop, and the batched fingerprint
helpers against their per-item originals.  A fast path that diverges by a
single bit anywhere breaks convergent encryption's core property (identical
plaintext -> identical ciphertext across machines), so these run under
hypothesis rather than a handful of fixed vectors.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fingerprint import (
    fingerprint_many,
    fingerprint_of,
    synthetic_fingerprint,
    synthetic_fingerprint_many,
)
from repro.crypto.aes import AES, _T0, _T1, _T2, _T3
from repro.crypto.modes import (
    _COLUMN_DTYPE,
    _PAIR_DTYPE,
    _VECTOR_MIN_BLOCKS,
    BLOCK_SIZE,
    KeystreamCache,
    _np_tables,
    bulk_decrypt_ctr,
    bulk_encrypt_ctr,
    ctr_keystream,
    encrypt_ctr,
    encrypt_ctr_scalar,
    keystream_blocks,
    keystream_cache,
)

keys = (
    st.binary(min_size=16, max_size=16)
    | st.binary(min_size=24, max_size=24)
    | st.binary(min_size=32, max_size=32)
)
blocks = st.binary(min_size=16, max_size=16)
payloads = st.binary(min_size=0, max_size=4096)
nonces = st.integers(min_value=0, max_value=(1 << 128) - 1)
#: Nonces near the low-64-bit rollover, where the vectorized counter path
#: must fall back to exact integer arithmetic.
straddle_nonces = st.integers(
    min_value=(1 << 64) - 64, max_value=(1 << 64) + 64
) | st.integers(min_value=(1 << 128) - 64, max_value=(1 << 128) - 1)


class TestTTableAes:
    """The T-table round function equals the per-byte reference rounds."""

    @settings(max_examples=60, deadline=None)
    @given(keys, blocks)
    def test_fast_equals_scalar(self, key, block):
        cipher = AES(key)
        assert cipher.encrypt_block(block) == cipher.encrypt_block_scalar(block)

    @settings(max_examples=40, deadline=None)
    @given(keys, blocks)
    def test_decrypt_inverts_fast_path(self, key, block):
        cipher = AES(key)
        assert cipher.decrypt_block(cipher.encrypt_block(block)) == block

    @pytest.mark.parametrize(
        "key_hex,expected_hex",
        [
            # FIPS-197 appendix C known-answer vectors, all three key sizes,
            # exercised through the T-table fast path.
            ("000102030405060708090a0b0c0d0e0f", "69c4e0d86a7b0430d8cdb78070b4c55a"),
            (
                "000102030405060708090a0b0c0d0e0f1011121314151617",
                "dda97ca4864cdfe06eaf70a0ec0d7191",
            ),
            (
                "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
                "8ea2b7ca516745bfeafc49904b496089",
            ),
        ],
    )
    def test_fips197_vectors(self, key_hex, expected_hex):
        plaintext = bytes.fromhex("00112233445566778899aabbccddeeff")
        cipher = AES(bytes.fromhex(key_hex))
        assert cipher.encrypt_block(plaintext) == bytes.fromhex(expected_hex)
        assert cipher.encrypt_block_scalar(plaintext) == bytes.fromhex(expected_hex)


class TestVectorKeystream:
    """The numpy keystream equals the scalar block-loop keystream."""

    @settings(max_examples=40, deadline=None)
    @given(keys, nonces, st.integers(min_value=0, max_value=64))
    def test_keystream_blocks_equals_reference(self, key, nonce, blocks_):
        cipher = AES(key)
        assert keystream_blocks(cipher, nonce, blocks_) == ctr_keystream(
            cipher, nonce, blocks_
        )

    @settings(max_examples=30, deadline=None)
    @given(keys, straddle_nonces, st.integers(min_value=8, max_value=96))
    def test_counter_rollover(self, key, nonce, blocks_):
        """Counters straddling 2^64 (and 2^128 wraparound) stay exact."""
        cipher = AES(key)
        assert keystream_blocks(cipher, nonce, blocks_) == ctr_keystream(
            cipher, nonce, blocks_
        )


class TestKeystreamAtWorkloadSizes:
    """The kernel at the block counts the Farsite workload actually runs.

    Both sides of the scalar/vector crossover, a count one past a power of
    two, and 16,384 blocks (256 KiB, the benchmark's file-size cap), for
    every key size, from a plain nonce and from both straddle points.
    """

    @pytest.mark.parametrize("key_bytes", [16, 24, 32])
    @pytest.mark.parametrize(
        "blocks_", [1, _VECTOR_MIN_BLOCKS - 1, _VECTOR_MIN_BLOCKS, 4097, 16384]
    )
    @pytest.mark.parametrize(
        "nonce", [0x0123456789ABCDEF0011223344556677, (1 << 64) - 5, (1 << 128) - 5]
    )
    def test_equals_reference(self, key_bytes, blocks_, nonce):
        cipher = AES(bytes(range(101, 101 + key_bytes)))
        assert keystream_blocks(cipher, nonce, blocks_) == ctr_keystream(
            cipher, nonce, blocks_
        )


class TestKernelLayout:
    """Tables and views carry explicit byte orders, so no host changes bytes."""

    def test_dtypes_are_explicitly_little_endian(self):
        tables = _np_tables()
        assert _PAIR_DTYPE == np.dtype("<u2")
        assert _COLUMN_DTYPE == np.dtype("<u4")
        assert tables["t01"].dtype == _COLUMN_DTYPE
        assert tables["t23"].dtype == _COLUMN_DTYPE
        assert tables["t01"].shape == tables["t23"].shape == (1 << 16,)
        cipher = AES(bytes(32))
        assert cipher.round_key_columns.dtype == _COLUMN_DTYPE
        assert cipher.round_key_rows.dtype == np.uint8
        assert cipher.round_key_rows.shape == (cipher.rounds + 1, 16)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=255), st.integers(min_value=0, max_value=255))
    def test_paired_entry_is_the_column_in_state_order(self, a, b):
        """Entry ``a | b << 8`` holds ``T[a] ^ T'[b]`` with row 0 first in memory."""
        tables = _np_tables()
        index = a | b << 8
        assert tables["t01"][index : index + 1].tobytes() == (_T0[a] ^ _T1[b]).to_bytes(4, "big")
        assert tables["t23"][index : index + 1].tobytes() == (_T2[a] ^ _T3[b]).to_bytes(4, "big")


class TestCounterWrap:
    """The counter wraps modulo 2^128 on every path, as ``ctr_keystream`` does."""

    def test_counter_past_2_128_wraps(self):
        cipher = AES(bytes(16))
        nonce = (1 << 128) + 3
        assert keystream_blocks(cipher, nonce, 16) == ctr_keystream(cipher, nonce, 16)
        assert keystream_blocks(cipher, nonce, 16) == keystream_blocks(cipher, 3, 16)

    def test_cache_extension_across_the_wrap(self):
        """Extending a cached stream past 2^128 continues from counter 0."""
        keystream_cache().clear()
        key, nonce = bytes(16), (1 << 128) - 2
        short = bulk_encrypt_ctr(key, bytes(160), nonce)
        extended = bulk_encrypt_ctr(key, bytes(480), nonce)
        assert extended[:160] == short
        assert extended == encrypt_ctr_scalar(key, bytes(480), nonce)


class TestBulkCtr:
    """bulk_encrypt_ctr == the seed's scalar encrypt_ctr, byte for byte."""

    @settings(max_examples=50, deadline=None)
    @given(keys, payloads, st.integers(min_value=0, max_value=(1 << 64) + 8))
    def test_bulk_equals_scalar(self, key, payload, nonce):
        assert bulk_encrypt_ctr(key, payload, nonce) == encrypt_ctr_scalar(
            key, payload, nonce
        )

    @settings(max_examples=40, deadline=None)
    @given(keys, payloads, nonces)
    def test_bulk_roundtrip(self, key, payload, nonce):
        assert bulk_decrypt_ctr(key, bulk_encrypt_ctr(key, payload, nonce), nonce) == payload

    @settings(max_examples=40, deadline=None)
    @given(keys, payloads)
    def test_public_ctr_is_bulk(self, key, payload):
        assert encrypt_ctr(key, payload) == bulk_encrypt_ctr(key, payload)

    @settings(max_examples=25, deadline=None)
    @given(keys, payloads, st.integers(min_value=0, max_value=1 << 40))
    def test_cache_never_changes_bytes(self, key, payload, nonce):
        """A warm cache entry yields the same ciphertext as a cold one."""
        cold = KeystreamCache()
        warm = KeystreamCache()
        nbytes = len(payload)
        if nbytes:
            warm.keystream(key, nonce, max(1, nbytes // 2))  # partial prefix
        assert cold.keystream(key, nonce, nbytes) == warm.keystream(key, nonce, nbytes)
        assert warm.keystream(key, nonce, nbytes) == ctr_keystream(
            AES(key), nonce, -(-nbytes // BLOCK_SIZE)
        )[:nbytes]


class TestBatchedFingerprints:
    """Batched helpers equal their per-item originals, in order."""

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.binary(min_size=0, max_size=256), max_size=20))
    def test_fingerprint_many(self, contents):
        assert fingerprint_many(contents) == [fingerprint_of(c) for c in contents]

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=1 << 40),
                st.integers(min_value=0, max_value=1 << 40),
            ),
            max_size=20,
        )
    )
    def test_synthetic_fingerprint_many(self, descriptors):
        assert synthetic_fingerprint_many(descriptors) == [
            synthetic_fingerprint(size, content_id) for size, content_id in descriptors
        ]
