"""RSA key pairs: roundtrip, padding randomization, limits, serialization."""

import random

import pytest

from repro.crypto.rsa import RSAError, RSAKeyPair, generate_keypair


class TestRoundTrip:
    def test_encrypt_decrypt(self, keypair):
        payload = b"a 16-byte secret"
        ciphertext = keypair.public.encrypt(payload, rng=random.Random(1))
        assert keypair.decrypt(ciphertext) == payload

    def test_empty_payload(self, keypair):
        ciphertext = keypair.public.encrypt(b"", rng=random.Random(2))
        assert keypair.decrypt(ciphertext) == b""

    def test_max_size_payload(self, keypair):
        payload = bytes(keypair.public.max_payload_bytes)
        assert keypair.decrypt(keypair.public.encrypt(payload)) == payload

    def test_wrong_key_fails_cleanly(self, keypair, second_keypair):
        ciphertext = keypair.public.encrypt(b"secret", rng=random.Random(3))
        with pytest.raises(RSAError):
            second_keypair.decrypt(ciphertext)


class TestPadding:
    def test_equal_payloads_encrypt_differently(self, keypair):
        """The nonce padding makes F IND-CPA-style randomized.

        This matters: the *only* determinism in convergent encryption must
        come from the convergent construction, never from F.
        """
        payload = b"same payload"
        a = keypair.public.encrypt(payload, rng=random.Random(1))
        b = keypair.public.encrypt(payload, rng=random.Random(2))
        assert a != b
        assert keypair.decrypt(a) == keypair.decrypt(b) == payload

    def test_oversized_payload_rejected(self, keypair):
        too_big = bytes(keypair.public.max_payload_bytes + 1)
        with pytest.raises(RSAError):
            keypair.public.encrypt(too_big)

    def test_ciphertext_above_modulus_rejected(self, keypair):
        n_bytes = (keypair.public.modulus_bits + 7) // 8
        bogus = (keypair.public.n + 1).to_bytes(n_bytes + 1, "big")
        with pytest.raises(RSAError):
            keypair.decrypt(bogus)


class TestKeyGeneration:
    def test_deterministic_for_seed(self):
        a = generate_keypair(512, rng=random.Random(42))
        b = generate_keypair(512, rng=random.Random(42))
        assert a.public == b.public

    def test_distinct_seeds_distinct_keys(self):
        a = generate_keypair(512, rng=random.Random(1))
        b = generate_keypair(512, rng=random.Random(2))
        assert a.public.n != b.public.n

    def test_modulus_width(self, keypair):
        assert keypair.public.modulus_bits == 512

    def test_seed_42_key_is_pinned(self):
        """Values recorded before the CRT parameters existed.

        Computing the CRT parameters draws no randomness, so the key for a
        seed -- and with it every machine identifier and SALAD trace built
        from seeded keys -- is unchanged.
        """
        key = generate_keypair(512, rng=random.Random(42))
        assert key.public.n == int(
            "e0ef37513a6851fcb8a20d6f764786255cce3539c4b4b2fe88ad64b2aa89872f"
            "133d3d3b1c0ef7dbcc4613eb168dfb9899459267e3d4e423b2c3b51c225fbd25",
            16,
        )
        assert key.public.e == 65537
        assert key._d == int(
            "45bde608e9732ef88cc6b223bd28b00f25974a297f3407cba3d51f43c65c9ded"
            "059ca1ed3842d05060adbc6bdc310c81ae8325c6979c78d31aa746dba8bab001",
            16,
        )

    def test_crt_parameters_are_consistent(self, keypair):
        p, q = keypair._p, keypair._q
        assert p * q == keypair.public.n
        assert keypair._dp == keypair._d % (p - 1)
        assert keypair._dq == keypair._d % (q - 1)
        assert keypair._qinv * q % p == 1

    def test_primes_must_multiply_to_modulus(self, keypair):
        with pytest.raises(RSAError):
            RSAKeyPair(
                public=keypair.public,
                _d=keypair._d,
                _p=keypair._p,
                _q=keypair._q + 2,
                _dp=keypair._dp,
                _dq=keypair._dq,
                _qinv=keypair._qinv,
            )


class TestSerialization:
    def test_to_bytes_is_deterministic(self, keypair):
        assert keypair.public.to_bytes() == keypair.public.to_bytes()

    def test_to_bytes_distinguishes_keys(self, keypair, second_keypair):
        assert keypair.public.to_bytes() != second_keypair.public.to_bytes()
