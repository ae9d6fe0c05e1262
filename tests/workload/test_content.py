"""Deterministic synthetic content materialization."""

import hashlib

import pytest

from repro.core.fingerprint import synthetic_fingerprint
from repro.workload.content import synthetic_content


class TestSyntheticContent:
    def test_exact_length(self):
        for size in (0, 1, 63, 64, 65, 10_000):
            assert len(synthetic_content(7, size)) == size

    def test_deterministic(self):
        assert synthetic_content(3, 500) == synthetic_content(3, 500)

    def test_different_identities_different_bytes(self):
        assert synthetic_content(1, 500) != synthetic_content(2, 500)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            synthetic_content(1, -1)

    def test_bytes_look_random(self):
        data = synthetic_content(9, 4096)
        assert len(set(data)) > 200  # all byte values appear


#: SHA-256 prefixes of ``synthetic_content(cid, size)`` recorded from the
#: original byte-at-a-time construction.  The sizes cross the 64-byte block
#: edge and the 64 KiB edge of the precomputed counter table.
PINNED_SIZES = (0, 1, 63, 64, 65, 4096, 65535, 65536, 65537, 300_000)
PINNED_DIGESTS = {
    0: ("e3b0c44298fc1c14", "559aead08264d579", "fda3354e1956492b",
        "e94454c5435df2fb", "2ae04a4c485f3c7d", "1fcb5662cec1adad",
        "d12241b9e49683d4", "7d1028c74f055b77", "2e8a47a9034bdb30",
        "90f3feed0798b67a"),
    7: ("e3b0c44298fc1c14", "087d80f7f182dd44", "de1ba48b6806c682",
        "f42303690a97e2fd", "c35977d4375faad2", "70bf493d9583e4c7",
        "5d9a83982675ed48", "e0f23fed220308d9", "7b3fe4577864112a",
        "7091216288af8dd3"),
    123456789: ("e3b0c44298fc1c14", "28969cdfa74a12c8", "6fc20eed43adbc10",
                "1b507f20fff352c1", "a0053f06a697629b", "783e1124c79f9bad",
                "24a126fab9904834", "c6ea1dda8baa9b7e", "1ee0c12982dfdf76",
                "02c633c44192593d"),
    2**48 - 1: ("e3b0c44298fc1c14", "08f271887ce94707", "1178ed6ef0095b62",
                "34e35f4785a907da", "c2981a17894db06e", "105623e9891e9b64",
                "320f67788a7153dd", "adde95b457a7b126", "99b01f65cbda7431",
                "44c067368f7cecf9"),
}


class TestPinnedBytes:
    @pytest.mark.parametrize("content_id", sorted(PINNED_DIGESTS))
    def test_bytes_match_pinned_digests(self, content_id):
        digests = tuple(
            hashlib.sha256(synthetic_content(content_id, size)).hexdigest()[:16]
            for size in PINNED_SIZES
        )
        assert digests == PINNED_DIGESTS[content_id]


class TestConsistencyWithFingerprints:
    def test_same_identity_same_fingerprint_same_bytes(self):
        """The abstract corpus and the materialized bytes must agree:
        identical (size, content_id) means identical fingerprints AND
        identical blobs."""
        a_fp = synthetic_fingerprint(1000, 5)
        b_fp = synthetic_fingerprint(1000, 5)
        assert a_fp == b_fp
        assert synthetic_content(5, 1000) == synthetic_content(5, 1000)
