"""Shared contract suite for the record-store backends.

Both backends -- the in-memory :class:`RecordDatabase` and the paged
append-log (WAL) store -- must be observably identical for in-memory
behavior: same associative-insert semantics, same duplicate-match return
order, same capacity-eviction policy, same iteration order.  The durable
backend additionally pins reopen-after-close, crash (unflushed tail lost,
flushed records kept), WAL torn-tail recovery, and the on-disk format.
"""

import hashlib
import random
import struct
import zlib

import pytest

from repro.core.fingerprint import Fingerprint, synthetic_fingerprint
from repro.salad.records import SaladRecord
from repro.salad.storage import (
    BACKENDS,
    WAL_MAGIC,
    PagedWalRecordStore,
    make_record_store,
)

#: Store configurations the contract runs on: each backend, plus "wal", the
#: paged log with a one-record cache, so nearly every read pages its record
#: back out of the log (append buffer or file) instead of out of memory.
STORES = BACKENDS + ("wal",)
DURABLE = tuple(s for s in STORES if s != "memory")


def rec(size: int, content: int = 0, location: int = 1) -> SaladRecord:
    return SaladRecord(
        fingerprint=synthetic_fingerprint(size, content), location=location
    )


def make(backend, tmp_path, capacity=None, name="store"):
    if backend == "wal":
        return PagedWalRecordStore(
            tmp_path / f"{name}.wal", capacity=capacity, cache_records=1
        )
    return make_record_store(backend, capacity=capacity, db_dir=tmp_path, name=name)


@pytest.fixture(params=STORES)
def backend(request):
    return request.param


class TestContract:
    def test_insert_lookup_roundtrip(self, backend, tmp_path):
        store = make(backend, tmp_path)
        r = rec(100, content=5, location=42)
        stored, matches = store.insert(r)
        assert stored and matches == []
        assert len(store) == 1
        assert r.fingerprint in store
        assert store.locations(r.fingerprint) == {42}
        assert store.has_location(r.fingerprint, 42)
        assert not store.has_location(r.fingerprint, 43)
        store.close()

    def test_duplicate_insert_is_a_noop(self, backend, tmp_path):
        store = make(backend, tmp_path)
        r = rec(100, location=42)
        store.insert(r)
        stored, matches = store.insert(r)
        assert not stored
        assert matches == [r]
        assert len(store) == 1
        store.close()

    def test_matches_are_pre_insert_and_sorted_by_location(self, backend, tmp_path):
        store = make(backend, tmp_path)
        for location in (9, 3, 7):
            store.insert(rec(100, location=location))
        stored, matches = store.insert(rec(100, location=5))
        assert stored
        assert [m.location for m in matches] == [3, 7, 9]  # 5 not among them
        assert all(m.fingerprint == rec(100).fingerprint for m in matches)
        store.close()

    def test_records_iterate_in_sort_key_then_location_order(self, backend, tmp_path):
        store = make(backend, tmp_path)
        inserted = [rec(300, location=2), rec(100, location=9), rec(100, location=4)]
        for r in inserted:
            store.insert(r)
        out = list(store.records())
        assert out == sorted(inserted, key=lambda r: (r.sort_key(), r.location))
        store.close()

    def test_capacity_evicts_lowest_fingerprint(self, backend, tmp_path):
        store = make(backend, tmp_path, capacity=3)
        for size in (10, 20, 30):
            store.insert(rec(size))
        stored, _ = store.insert(rec(40))
        assert stored
        assert len(store) == 3
        assert store.evictions == 1
        assert [r.fingerprint.size for r in store.records()] == [20, 30, 40]
        store.close()

    def test_capacity_rejects_record_below_all_stored(self, backend, tmp_path):
        store = make(backend, tmp_path, capacity=3)
        for size in (10, 20, 30):
            store.insert(rec(size))
        stored, _ = store.insert(rec(5))
        assert not stored
        assert store.rejections == 1
        assert [r.fingerprint.size for r in store.records()] == [10, 20, 30]
        store.close()

    def test_eviction_ties_break_by_location(self, backend, tmp_path):
        store = make(backend, tmp_path, capacity=2)
        store.insert(rec(10, location=8))
        store.insert(rec(10, location=3))
        store.insert(rec(20, location=1))
        assert [(r.fingerprint.size, r.location) for r in store.records()] == [
            (10, 8),
            (20, 1),
        ]
        store.close()

    def test_remove_location_drops_all_of_a_machine(self, backend, tmp_path):
        store = make(backend, tmp_path)
        store.insert(rec(10, location=1))
        store.insert(rec(20, location=1))
        store.insert(rec(20, location=2))
        assert store.remove_location(1) == 2
        assert store.remove_location(1) == 0
        assert [(r.fingerprint.size, r.location) for r in store.records()] == [(20, 2)]
        store.close()

    def test_insert_many_matches_singles(self, backend, tmp_path):
        records = [rec(10 + i % 4, content=i % 3, location=i % 5) for i in range(40)]
        singles = make(backend, tmp_path, capacity=6, name="singles")
        batched = make(backend, tmp_path, capacity=6, name="batched")
        one_by_one = [(r, *singles.insert(r)) for r in records]
        assert batched.insert_many(records) == one_by_one
        assert list(singles.records()) == list(batched.records())
        singles.close()
        batched.close()


class TestBackendEquivalence:
    def test_random_op_stream_is_bit_identical(self, tmp_path):
        rng = random.Random(7)
        ops = []
        for _ in range(400):
            if rng.random() < 0.85:
                ops.append(
                    ("insert", rec(rng.randrange(1, 30), rng.randrange(3), rng.randrange(6)))
                )
            else:
                ops.append(("remove", rng.randrange(6)))
        outcomes = {}
        for backend in STORES:
            store = make(backend, tmp_path, capacity=10, name=backend)
            trace = []
            for op, arg in ops:
                if op == "insert":
                    trace.append(store.insert(arg))
                else:
                    trace.append(store.remove_location(arg))
            outcomes[backend] = (
                trace,
                list(store.records()),
                store.evictions,
                store.rejections,
            )
            store.close()
        assert outcomes["memory"] == outcomes["wal-paged"] == outcomes["wal"]


class TestBackendNames:
    def test_only_memory_and_wal_paged_remain(self):
        assert BACKENDS == ("memory", "wal-paged")

    @pytest.mark.parametrize("backend", ["sqlite", "wal"])
    def test_removed_backends_are_rejected(self, backend, tmp_path, capsys):
        import importlib

        with pytest.raises(ValueError):
            make_record_store(backend, db_dir=tmp_path)
        for cli in ("repro.experiments.runner", "repro.experiments.flagship"):
            with pytest.raises(SystemExit) as exit_info:
                importlib.import_module(cli).main(["--db-backend", backend])
            assert exit_info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


class TestDurability:
    @pytest.mark.parametrize("backend", DURABLE)
    def test_reopen_after_close_recovers_everything(self, backend, tmp_path):
        store = make(backend, tmp_path, capacity=8)
        records = [rec(10 + i, location=i) for i in range(12)]  # 4 evictions
        for r in records:
            store.insert(r)
        expected = list(store.records())
        store.close()
        reopened = make(backend, tmp_path, capacity=8)
        assert list(reopened.records()) == expected
        # Eviction/rejection counters are session statistics, not state.
        assert reopened.evictions == 0 and reopened.rejections == 0
        reopened.close()

    @pytest.mark.parametrize("backend", DURABLE)
    def test_crash_loses_only_the_unflushed_tail(self, backend, tmp_path):
        store = make(backend, tmp_path)
        for i in range(10):
            store.insert(rec(10 + i, location=1))
        store.flush()
        for i in range(5):
            store.insert(rec(100 + i, location=1))
        assert store.pending_records == 5
        store.crash()
        reopened = make(backend, tmp_path)
        assert [r.fingerprint.size for r in reopened.records()] == list(range(10, 20))
        reopened.close()

    def test_memory_crash_loses_everything(self, tmp_path):
        store = make("memory", tmp_path)
        for i in range(10):
            store.insert(rec(10 + i, location=1))
        assert store.pending_records == 10  # nothing is ever durable
        store.crash()
        assert len(make("memory", tmp_path)) == 0


#: A log written by the retired in-memory-mirror WAL store (same format
#: version 1) into a capacity-6 store: nine inserts (three evicted), a
#: compaction snapshot of the six survivors, two more inserts (each
#: evicting one) and a remove_location(2).
PINNED_LOG = bytes.fromhex(
    "53414c414457414c310a"
    "010000001f000000000000000da6b4734a46b518472821375a48cb3834779ba246000101e8c6c98f"
    "010000001f000000000000000eaeece1885a2c9ada68665b6d8299e0e4465de06b000102583a6467"
    "010000001f000000000000000f16fc9887084702d78011db16d271c65a9cbaeff80001036d2154b6"
    "010000001f0000000000000010c774dce59dbd5a88ad08fd5d069b633b6a87f6cc000101381b83a7"
    "010000001f000000000000001114dfbbff29bc70fbe719175b85cf76d637798939000102ca0a9e71"
    "010000001f00000000000000127650829ec7f190e92d33238b2bbdd8fdf82c5412000103ea43624e"
    "010000001f00000000000000286312be13982635fb5d6a09461c3d8b6e558dc087000102073894c8"
    "010000001f0000000000000029e87e60ab62c2e3238ae74a5374b04c0ad1d09b3f000103c59f1403"
    "0200000003000102c2a72797"
)


def frame(op, payload):
    head = struct.pack(">BI", op, len(payload))
    return head + payload + struct.pack(">I", zlib.crc32(head + payload))


def insert_frame(r):
    return frame(0x01, r.sort_key() + struct.pack(">HB", 1, r.location))


class TestWalRecovery:
    """Recovery of a version-1 log, starting from :data:`PINNED_LOG`.

    The log's bytes come from a fixed file rather than from the store under
    test, so these cases pin how the format itself is recovered: a torn or
    corrupt tail, a foreign magic, replay under another capacity,
    compaction into a snapshot, and a crash on top of an existing log.
    """

    #: The records PINNED_LOG replays to at its own capacity of 6.
    LIVE = [
        rec(15, content=1, location=3),
        rec(16, content=0, location=1),
        rec(18, content=0, location=3),
        rec(41, content=0, location=3),
    ]

    def _open(self, tmp_path, data=PINNED_LOG, **kwargs):
        path = tmp_path / "t.wal"
        path.write_bytes(data)
        return path, PagedWalRecordStore(path, **{"capacity": 6, **kwargs})

    def test_torn_final_record_is_dropped_not_fatal(self, tmp_path):
        # A truncated frame: valid header promising more payload than
        # exists -- what a crash mid-append leaves behind.
        torn = struct.pack(">BI", 0x01, 500) + b"\x00" * 12
        path, store = self._open(tmp_path, PINNED_LOG + torn)
        assert list(store.records()) == self.LIVE
        assert store.recovered_records == 4
        assert store.torn_bytes_dropped == 17
        assert path.read_bytes() == PINNED_LOG  # tail trimmed off the file
        store.close()

    def test_corrupt_crc_drops_entry_and_everything_after(self, tmp_path):
        data = bytearray(PINNED_LOG)
        snapshot_end = len(WAL_MAGIC) + 6 * 40
        data[snapshot_end + 40 - 1] ^= 0xFF  # CRC byte of the INSERT after it
        path, store = self._open(tmp_path, bytes(data))
        # The two valid frames behind the corrupt one go too, so the
        # compaction snapshot is all that survives.
        assert [(r.fingerprint.size, r.location) for r in store.records()] == [
            (13, 1),
            (14, 2),
            (15, 3),
            (16, 1),
            (17, 2),
            (18, 3),
        ]
        assert store.torn_bytes_dropped == 2 * 40 + 12
        assert path.read_bytes() == PINNED_LOG[:snapshot_end]
        store.close()

    def test_garbage_file_is_reset_not_fatal(self, tmp_path):
        # Well-formed entries behind another format version's magic are
        # not replayed: the whole file counts as garbage.
        foreign = b"SALADWAL2\n" + PINNED_LOG[len(WAL_MAGIC) :]
        path, store = self._open(tmp_path, foreign)
        assert len(store) == 0
        assert store.torn_bytes_dropped == len(foreign)
        store.insert(rec(10, location=1))
        store.close()
        assert path.read_bytes() == WAL_MAGIC + insert_frame(rec(10, location=1))

    def test_replay_reruns_the_capacity_policy(self, tmp_path):
        sizes = {}
        for capacity in (None, 6, 3):
            _, store = self._open(tmp_path, capacity=capacity)
            sizes[capacity] = [r.fingerprint.size for r in store.records()]
            assert store.log_ops == 9  # same log, whatever survives it
            store.close()
        assert sizes == {
            None: [13, 15, 16, 18, 41],
            6: [15, 16, 18, 41],
            3: [18, 41],
        }

    def test_compaction_rewrites_log_as_live_snapshot(self, tmp_path):
        path, store = self._open(tmp_path)
        store.compact()
        assert store.log_ops == 4
        assert path.read_bytes() == WAL_MAGIC + b"".join(
            insert_frame(r) for r in self.LIVE
        )
        store.close()
        _, reopened = self._open(tmp_path, path.read_bytes())
        assert list(reopened.records()) == self.LIVE
        reopened.close()

    def test_crash_discards_buffered_appends(self, tmp_path):
        path, store = self._open(tmp_path, capacity=None, sync_every=1000)
        for i in range(10):
            store.insert(rec(50 + i, location=1))
        assert store.pending_records == 10
        store.crash()
        assert path.read_bytes() == PINNED_LOG
        _, reopened = self._open(tmp_path)
        assert list(reopened.records()) == self.LIVE
        reopened.close()


class TestPagedWalRecovery:
    """Log recovery (torn tail, corrupt CRC, garbage file, capacity replay,
    compaction, crash) plus the paging contracts: cache misses read the
    record back from the log byte-identically, the LRU stays bounded, and
    compaction remaps every index entry to its post-rewrite offset.
    """

    def _populate(self, tmp_path, n=10, **kwargs):
        store = PagedWalRecordStore(tmp_path / "t.wal", **kwargs)
        for i in range(n):
            store.insert(rec(10 + i, location=1))
        store.close()
        return tmp_path / "t.wal"

    def test_torn_final_record_is_dropped_not_fatal(self, tmp_path):
        path = self._populate(tmp_path)
        intact = path.stat().st_size
        with open(path, "ab") as fh:
            fh.write(struct.pack(">BI", 0x01, 500) + b"\x00" * 12)
        store = PagedWalRecordStore(path)
        assert len(store) == 10
        assert store.recovered_records == 10
        assert store.torn_bytes_dropped == 17
        assert path.stat().st_size == intact  # tail trimmed off the file
        # The trimmed file must still page records back correctly.
        assert [r.fingerprint.size for r in store.records()] == list(range(10, 20))
        store.close()

    def test_corrupt_crc_drops_entry_and_everything_after(self, tmp_path):
        path = self._populate(tmp_path)
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF  # flip a CRC byte of the final entry
        path.write_bytes(data)
        store = PagedWalRecordStore(path)
        assert len(store) == 9
        assert store.torn_bytes_dropped > 0
        store.close()

    def test_garbage_file_is_reset_not_fatal(self, tmp_path):
        path = tmp_path / "t.wal"
        path.write_bytes(b"not a wal at all")
        store = PagedWalRecordStore(path)
        assert len(store) == 0
        assert store.torn_bytes_dropped == 16
        store.insert(rec(10, location=1))
        store.close()
        assert path.read_bytes().startswith(WAL_MAGIC)

    def test_replay_reruns_the_capacity_policy(self, tmp_path):
        path = tmp_path / "t.wal"
        store = PagedWalRecordStore(path, capacity=4)
        for i in range(10):
            store.insert(rec(10 + i, location=1))
        expected = list(store.records())
        store.close()
        reopened = PagedWalRecordStore(path, capacity=4)
        assert list(reopened.records()) == expected
        reopened.close()

    @staticmethod
    def _pinned_ops(store):
        for i in range(9):
            store.insert(rec(10 + i, content=i % 2, location=1 + i % 3))
        store.compact()
        store.insert(rec(40, content=1, location=2))
        store.insert(rec(41, location=3))
        store.remove_location(2)

    def test_pinned_log_reopens_to_the_same_records(self, tmp_path):
        path = tmp_path / "t.wal"
        path.write_bytes(PINNED_LOG)
        store = PagedWalRecordStore(path, capacity=6)
        assert store.torn_bytes_dropped == 0
        assert store.log_ops == 9
        assert list(store.records()) == [
            rec(15, content=1, location=3),
            rec(16, content=0, location=1),
            rec(18, content=0, location=3),
            rec(41, content=0, location=3),
        ]
        store.close()
        assert path.read_bytes() == PINNED_LOG  # reopening rewrites nothing

    def test_same_operations_write_the_pinned_log(self, tmp_path):
        store = PagedWalRecordStore(tmp_path / "t.wal", capacity=6)
        self._pinned_ops(store)
        assert store.evictions == 5
        store.close()
        assert (tmp_path / "t.wal").read_bytes() == PINNED_LOG

    def test_no_file_until_the_first_write_out(self, tmp_path):
        path = tmp_path / "t.wal"
        store = PagedWalRecordStore(path, sync_every=1000)
        inserted = [rec(10 + i, location=i) for i in range(5)]
        for r in inserted:
            store.insert(r)
        assert not path.exists()
        store.flush()
        # The first write-out creates the file: magic, then one CRC-framed
        # INSERT per record (format version 1, module docstring).
        expected = bytearray(WAL_MAGIC)
        for r in inserted:
            head = struct.pack(">BI", 0x01, 28 + 2 + 1)
            body = r.sort_key() + struct.pack(">HB", 1, r.location)
            expected += head + body + struct.pack(">I", zlib.crc32(head + body))
        assert path.read_bytes() == expected
        store.close()

    def test_crash_before_the_first_flush_reopens_empty(self, tmp_path):
        path = tmp_path / "t.wal"
        store = PagedWalRecordStore(path, sync_every=1000)
        store.insert(rec(10, location=1))
        store.crash()
        assert not path.exists()
        reopened = PagedWalRecordStore(path)
        assert len(reopened) == 0 and reopened.torn_bytes_dropped == 0
        reopened.close()
        assert not path.exists()  # nothing to write, still no file

    def test_cache_miss_reads_record_back_from_log(self, tmp_path):
        store = PagedWalRecordStore(tmp_path / "t.wal", cache_records=2)
        inserted = [rec(10 + i, content=i, location=i) for i in range(8)]
        for r in inserted:
            store.insert(r)
        store.flush()
        before = store.page_misses
        # Only 2 of 8 records can be cached; looking every record up again
        # must page the rest in from the file, byte-identically.
        for r in inserted:
            assert store.locations(r.fingerprint) == {r.location}
        assert store.page_misses > before
        assert list(store.records()) == sorted(
            inserted, key=lambda r: (r.sort_key(), r.location)
        )
        store.close()

    def test_cache_stays_bounded(self, tmp_path):
        store = PagedWalRecordStore(tmp_path / "t.wal", cache_records=4)
        for i in range(100):
            store.insert(rec(10 + i, location=i))
        assert len(store._cache) <= 4
        assert len(store) == 100
        store.close()

    def test_unflushed_records_are_served_from_the_buffer(self, tmp_path):
        store = PagedWalRecordStore(
            tmp_path / "t.wal", sync_every=1000, cache_records=1
        )
        inserted = [rec(10 + i, location=i) for i in range(6)]
        for r in inserted:
            store.insert(r)
        # Nothing written out yet; a cache miss must parse the append buffer.
        assert store.sync_writes == 0
        for r in inserted:
            assert store.has_location(r.fingerprint, r.location)
        store.close()

    def test_compaction_remaps_offsets_and_preserves_reads(self, tmp_path):
        path = tmp_path / "t.wal"
        store = PagedWalRecordStore(path, cache_records=2)
        store._COMPACT_FLOOR = 16  # shrink the floor so a small test triggers it
        for round_ in range(20):
            for i in range(8):
                store.insert(rec(10 + i, content=round_, location=1))
            store.remove_location(1)
        assert store.compactions > 0
        assert store.log_ops <= store._compact_ratio * max(1, len(store)) + 8
        expected = list(store.records())
        # Every index entry must point at a valid post-compaction offset:
        # page everything back in through the remapped index.
        for r in expected:
            assert store.has_location(r.fingerprint, r.location)
        store.close()
        reopened = PagedWalRecordStore(path)
        assert list(reopened.records()) == expected
        reopened.close()

    def test_crash_discards_buffered_appends(self, tmp_path):
        path = tmp_path / "t.wal"
        store = PagedWalRecordStore(path, sync_every=1000)
        for i in range(10):
            store.insert(rec(10 + i, location=1))
        assert store.pending_records == 10
        store.crash()
        reopened = PagedWalRecordStore(path)
        assert len(reopened) == 0
        reopened.close()

    def test_index_survives_heavy_churn(self, tmp_path):
        # Exercises tombstone reuse and same-size index rebuilds: many
        # insert/remove rounds over a small live set.
        store = PagedWalRecordStore(tmp_path / "t.wal")
        store._COMPACT_FLOOR = 10**9  # keep compaction out of this test
        rng = random.Random(3)
        live = {}
        for step in range(600):
            if live and rng.random() < 0.45:
                location = rng.choice(sorted({r.location for r in live.values()}))
                removed = store.remove_location(location)
                expected_removed = [k for k, r in live.items() if r.location == location]
                assert removed == len(expected_removed)
                for k in expected_removed:
                    del live[k]
            else:
                r = rec(10 + step % 40, content=step % 7, location=step % 9)
                stored, _ = store.insert(r)
                key = (r.sort_key(), r.location)
                assert stored == (key not in live)
                live[key] = r
        assert list(store.records()) == [live[k] for k in sorted(live)]
        store.close()


class TestPagedIndexOneCell:
    """Every record a leaf stores shares the leaf's cell-ID bits.

    The cell-ID is the low bits of the fingerprint digest (Eq. 7), so an
    index key cut from those bytes gives a leaf's whole store one home
    slot, and every lookup walks all of it.  These records share their low
    16 digest bits, as one leaf's records do.
    """

    N = 1000

    @staticmethod
    def one_cell_fingerprints(n, seed=16):
        rng = random.Random(seed)
        return [
            Fingerprint(
                size=1 + rng.randrange(1 << 20),
                content_digest=rng.randbytes(18) + b"\xbe\xef",
            )
            for _ in range(n)
        ]

    def _fill(self, tmp_path):
        store = PagedWalRecordStore(tmp_path / "one-cell.wal")
        fingerprints = self.one_cell_fingerprints(self.N)
        for i, fingerprint in enumerate(fingerprints):
            store.insert(SaladRecord(fingerprint=fingerprint, location=1 + i % 3))
        return store, fingerprints

    def test_lookup_probes_stay_short(self, tmp_path):
        store, fingerprints = self._fill(tmp_path)
        before = store._index.probes
        for i, fingerprint in enumerate(fingerprints):
            assert store.has_location(fingerprint, 1 + i % 3)
        # A present key's lookup walks to the end of its probe cluster: ~4
        # slots at this load on uniform keys, ~N/2 with one shared home slot.
        assert (store._index.probes - before) / self.N <= 6.0
        store.close()

    def test_replay_and_compaction_logs_are_pinned(self, tmp_path):
        # SHA-256 prefixes of the log bytes, recorded before the index key
        # moved off the cell-ID bits: the on-disk format does not depend on
        # the in-memory index.
        store, _ = self._fill(tmp_path)
        store.remove_location(2)
        store.close()
        path = tmp_path / "one-cell.wal"
        assert hashlib.sha256(path.read_bytes()).hexdigest()[:16] == "59503ae2585d0031"
        reopened = PagedWalRecordStore(path)
        assert reopened.recovered_records == len(reopened) == 667
        assert hashlib.sha256(path.read_bytes()).hexdigest()[:16] == "59503ae2585d0031"
        reopened.compact()
        assert hashlib.sha256(path.read_bytes()).hexdigest()[:16] == "182a12e99ac77c1f"
        assert len(reopened) == 667


class TestDefaultDbDir:
    """Without a db_dir, stores go to a tempdir removed at interpreter exit.

    Each test runs a child interpreter, since the cleanup fires at exit.
    """

    PRELUDE = """
import os, sys, tempfile
from pathlib import Path
from repro.core.fingerprint import synthetic_fingerprint
from repro.salad.records import SaladRecord
from repro.salad.salad import Salad, SaladConfig

def build(seed=3, **kwargs):
    salad = Salad(SaladConfig(seed=seed, **kwargs))
    leaves = [salad.add_leaf() for _ in range(8)]
    salad.insert_records({
        leaf.identifier: [
            SaladRecord(fingerprint=synthetic_fingerprint(10 + i, leaf.identifier),
                        location=leaf.identifier)
            for i in range(4)
        ]
        for leaf in leaves
    })
    salad.close_databases()
    return len(list(Path(tempfile.gettempdir()).glob("salad-db-*/**/*.wal")))
"""

    @staticmethod
    def _run(script, tmp_path, *args):
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        scratch = tmp_path / "tmp"
        scratch.mkdir()
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, TMPDIR=str(scratch), PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", TestDefaultDbDir.PRELUDE + script, *args],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.split()
        assert not list(scratch.glob("salad-db-*"))
        return out

    def test_default_dir_is_removed_at_exit_and_explicit_dir_kept(self, tmp_path):
        kept = tmp_path / "kept"
        out = self._run(
            """
print(build(db_backend="wal-paged"))
build(db_backend="wal-paged", db_dir=sys.argv[1])
pid = os.fork()
if pid == 0:
    sys.exit(0)  # a forked child runs the inherited exit hooks
os.waitpid(pid, 0)
print(len(list(Path(tempfile.gettempdir()).glob("salad-db-*"))))
""",
            tmp_path,
            str(kept),
        )
        assert out == ["8", "1"]  # one log per leaf; the child left the dir alone
        assert len(list(kept.rglob("*.wal"))) == 8

    def test_pool_workers_share_the_parents_dir(self, tmp_path):
        # The CLI path: --db-backend wal-paged without --db-dir, then a
        # fork pool whose workers die without running exit hooks.
        out = self._run(
            """
from repro.perf.parallel import parallel_map
from repro.salad.storage import set_default_db_backend
set_default_db_backend("wal-paged")
print(min(parallel_map(build, [1, 2, 3, 4], workers=2, min_items=2)))
""",
            tmp_path,
        )
        assert int(out[0]) >= 8
