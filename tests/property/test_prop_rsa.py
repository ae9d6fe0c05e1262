"""Property tests: RSA encryption over arbitrary payloads."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.crypto.rsa import RSAError, generate_keypair

_KEYPAIR = generate_keypair(512, rng=random.Random(0xBEEF))
_OTHER_KEYPAIR = generate_keypair(512, rng=random.Random(0xCAFE))

payloads = st.binary(min_size=0, max_size=_KEYPAIR.public.max_payload_bytes)
seeds = st.integers(min_value=0, max_value=2**32)
key_seeds = st.integers(min_value=0, max_value=2**16)


def _unpad(m: int, n: int) -> bytes:
    """The padding layout of ``RSAPublicKey.encrypt``, parsed from ``m``."""
    block = m.to_bytes((n.bit_length() + 7) // 8, "big").lstrip(b"\0")
    assert block[0] == 1
    payload = block[2 + 8 :]  # sentinel, length byte, 8-byte nonce
    assert len(payload) == block[1]
    return payload


class TestRsaProperties:
    @settings(max_examples=60, deadline=None)
    @given(payloads, seeds)
    def test_roundtrip(self, payload, seed):
        ciphertext = _KEYPAIR.public.encrypt(payload, rng=random.Random(seed))
        assert _KEYPAIR.decrypt(ciphertext) == payload

    @settings(max_examples=40, deadline=None)
    @given(payloads, seeds, seeds)
    def test_randomized_padding(self, payload, seed_a, seed_b):
        a = _KEYPAIR.public.encrypt(payload, rng=random.Random(seed_a))
        b = _KEYPAIR.public.encrypt(payload, rng=random.Random(seed_b))
        if seed_a != seed_b:
            # Different nonces virtually always give different ciphertexts.
            assert a != b or seed_a == seed_b
        assert _KEYPAIR.decrypt(a) == _KEYPAIR.decrypt(b) == payload

    @settings(max_examples=40, deadline=None)
    @given(payloads, seeds)
    def test_ciphertext_width_is_fixed(self, payload, seed):
        ciphertext = _KEYPAIR.public.encrypt(payload, rng=random.Random(seed))
        assert len(ciphertext) == (_KEYPAIR.public.modulus_bits + 7) // 8


class TestCrtDecrypt:
    """The CRT private operation is plain ``pow(c, d, n)``, and fails the same."""

    @settings(max_examples=15, deadline=None)
    @given(key_seeds, st.binary(max_size=40), seeds)
    def test_crt_equals_plain_pow(self, key_seed, payload, seed):
        keypair = generate_keypair(512, rng=random.Random(key_seed))
        n = keypair.public.n
        ciphertext = keypair.public.encrypt(payload, rng=random.Random(seed))
        c = int.from_bytes(ciphertext, "big")
        assert keypair.private_op(c) == pow(c, keypair._d, n)
        assert keypair.decrypt(ciphertext) == _unpad(pow(c, keypair._d, n), n) == payload

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=_KEYPAIR.public.n - 1))
    def test_private_op_on_any_residue(self, x):
        """Including residues sharing a factor with n (CRT is exact there too)."""
        assert _KEYPAIR.private_op(x) == pow(x, _KEYPAIR._d, _KEYPAIR.public.n)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(payloads, seeds)
    def test_wrong_key_raises(self, payload, seed):
        ciphertext = _KEYPAIR.public.encrypt(payload, rng=random.Random(seed))
        with pytest.raises(RSAError):
            _OTHER_KEYPAIR.decrypt(ciphertext)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(payloads, seeds, st.data())
    def test_corrupt_ciphertext_raises(self, payload, seed, data):
        ciphertext = bytearray(_KEYPAIR.public.encrypt(payload, rng=random.Random(seed)))
        index = data.draw(st.integers(min_value=0, max_value=len(ciphertext) - 1))
        ciphertext[index] ^= data.draw(st.integers(min_value=1, max_value=255))
        with pytest.raises(RSAError):
            _KEYPAIR.decrypt(bytes(ciphertext))
