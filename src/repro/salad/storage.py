"""Record-store backends for the SALAD leaf databases.

The paper's full-scale deployment implies on the order of 10M
``(fingerprint, location)`` records spread across the leaf databases
(section 5); holding them all in RAM is what blocks a laptop-scale
full-corpus run.  This module extracts the :class:`RecordStore` contract
that :class:`repro.salad.database.RecordDatabase` (the in-memory store,
``memory``) already implements and adds one durable backend:

- :class:`PagedWalRecordStore` (``wal-paged``) -- an append-only write-ahead
  log of state-changing operations with per-entry CRC32 framing.  The
  records themselves stay on disk: memory holds only a flat open-addressed
  key->offset index (16 bytes per slot) plus a small LRU record cache, and
  record bodies are read back from the log on demand.  Replay rebuilds the
  index; a truncated or corrupt tail (a torn write from a crash) is detected
  by the CRC and *dropped*, never fatal.  A stale-ratio-triggered compaction
  rewrites the log as a snapshot of the live records.

Both backends are observably identical for in-memory behavior: the shared
contract suite (``tests/salad/test_record_stores.py``) runs them through
the same associative-insert / capacity-eviction / iteration semantics and
asserts bit-identical results.  The contract fixes two orderings the
original in-memory store left to Python set iteration: duplicate matches
are returned sorted by location, and :meth:`records` iterates in
``(sort_key, location)`` order.

Backend selection threads through :class:`repro.salad.salad.SaladConfig`
(``db_backend`` / ``db_dir``) and the experiment CLIs (``--db-backend
memory|wal-paged``, ``--db-dir``); :func:`set_default_db_backend` sets the
process-wide default the same way ``repro.perf.set_default_workers`` does
for parallelism.

WAL format (version 1)::

    file   := MAGIC entry*
    MAGIC  := b"SALADWAL1\\n"
    entry  := op(1) payload_len(u32 BE) payload crc32(u32 BE)
    op     := 0x01 INSERT | 0x02 REMOVE_LOCATION
    INSERT payload := fingerprint(28) loc_len(u16 BE) location(loc_len, BE)
    REMOVE payload := loc_len(u16 BE) location(loc_len, BE)

The CRC covers ``op || payload_len || payload``.  Only state-changing
operations are logged (a rejected or duplicate insert changes nothing), so
replaying the log through the same deterministic capacity policy reproduces
the exact live state.
"""

from __future__ import annotations

import abc
import atexit
import os
import shutil
import struct
import tempfile
import zlib
from array import array
from bisect import insort
from collections import OrderedDict
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Set, Tuple

from repro.core.fingerprint import FINGERPRINT_BYTES, Fingerprint
from repro.salad.records import SaladRecord

#: Known backend names, in documentation order.
BACKENDS = ("memory", "wal-paged")

WAL_MAGIC = b"SALADWAL1\n"
_OP_INSERT = 0x01
_OP_REMOVE_LOCATION = 0x02
_HEADER = struct.Struct(">BI")  # op, payload length
_CRC = struct.Struct(">I")


class RecordStore(abc.ABC):
    """The associative record-database contract every backend implements.

    Semantics (shared by all backends, pinned by the contract suite):

    - ``insert`` returns ``(stored, matches)`` where *matches* are the
      records already present with the same fingerprint, sorted by
      location, computed before insertion and regardless of whether the new
      record is stored;
    - with a ``capacity``, an insert into a full store evicts the record
      with the lowest ``(sort_key, location)`` -- unless no stored record
      sorts below the new one, in which case the new record is rejected;
    - ``records()`` iterates in ``(sort_key, location)`` order;
    - ``evictions`` / ``rejections`` count capacity-policy outcomes for the
      lifetime of the open store (they are session statistics, not
      persisted state).
    """

    capacity: Optional[int]
    evictions: int
    rejections: int
    #: Backing file, or None for purely in-memory stores.
    path: Optional[Path] = None

    @abc.abstractmethod
    def __len__(self) -> int: ...

    @abc.abstractmethod
    def __contains__(self, fingerprint: Fingerprint) -> bool: ...

    @abc.abstractmethod
    def locations(self, fingerprint: Fingerprint) -> Set[int]: ...

    @abc.abstractmethod
    def has_location(self, fingerprint: Fingerprint, location: int) -> bool: ...

    @abc.abstractmethod
    def records(self) -> Iterator[SaladRecord]: ...

    @abc.abstractmethod
    def insert(self, record: SaladRecord) -> Tuple[bool, List[SaladRecord]]: ...

    @abc.abstractmethod
    def remove_location(self, location: int) -> int: ...

    def insert_many(
        self, records: Iterable[SaladRecord]
    ) -> List[Tuple[SaladRecord, bool, List[SaladRecord]]]:
        """Insert a batch in order; one ``(record, stored, matches)`` per record.

        The capacity policy is applied record by record, so a batch observes
        exactly the same eviction decisions as a sequence of singles.
        """
        return [(record, *self.insert(record)) for record in records]

    # -- durability ------------------------------------------------------------

    def flush(self) -> None:
        """Make all applied operations durable (no-op for memory stores)."""

    def close(self) -> None:
        """Flush and release any backing resources."""
        self.flush()

    def crash(self) -> None:
        """Simulate a process crash: abandon the store *without* flushing.

        Durable backends lose only operations not yet flushed; in-memory
        stores lose everything.  After ``crash`` the store is unusable;
        recovery reopens the backing file through :func:`make_record_store`.
        """
        pass

    @property
    def pending_records(self) -> int:
        """Stored records that would be lost if the process crashed now."""
        return len(self)


class _OffsetIndex:
    """Flat open-addressed hash multimap: 64-bit key -> log offsets.

    The paged store's only per-record memory: one ``array('Q')`` holding
    interleaved ``[key, value]`` slot pairs (16 bytes each), linear probing,
    power-of-two sizing.  ``value`` is a log offset; offsets are always
    ``>= len(WAL_MAGIC)``, freeing 0 (EMPTY) and 1 (TOMBSTONE) as sentinels.
    Keys are a 64-bit digest slice of the record's sort key, so distinct
    fingerprints may collide -- the store disambiguates by reading the
    records back, which is why this is a multimap (lookup returns every
    offset filed under the key, probing past tombstones until EMPTY).
    """

    __slots__ = ("_slots", "_mask", "_table", "_used", "_live", "probes")

    _EMPTY = 0
    _TOMBSTONE = 1

    def __init__(self, slots: int = 16):
        self._slots = slots
        self._mask = slots - 1
        self._table = array("Q", bytes(16 * slots))
        self._used = 0  # non-EMPTY slots (live + tombstones)
        self._live = 0
        #: Slots :meth:`lookup` has read, EMPTY terminators included.
        self.probes = 0

    def __len__(self) -> int:
        return self._live

    def add(self, key: int, offset: int) -> None:
        if 3 * (self._used + 1) >= 2 * self._slots:
            self._rebuild()
        table, mask = self._table, self._mask
        i = key & mask
        while True:
            value = table[2 * i + 1]
            if value <= self._TOMBSTONE:
                table[2 * i] = key
                table[2 * i + 1] = offset
                if value == self._EMPTY:
                    self._used += 1
                self._live += 1
                return
            i = (i + 1) & mask

    def lookup(self, key: int) -> List[int]:
        """Every offset filed under *key* (hash collisions included)."""
        table, mask = self._table, self._mask
        home = i = key & mask
        out: List[int] = []
        while True:
            value = table[2 * i + 1]
            if value == self._EMPTY:
                self.probes += ((i - home) & mask) + 1
                return out
            if value != self._TOMBSTONE and table[2 * i] == key:
                out.append(value)
            i = (i + 1) & mask

    def remove(self, key: int, offset: int) -> bool:
        table, mask = self._table, self._mask
        i = key & mask
        while True:
            value = table[2 * i + 1]
            if value == self._EMPTY:
                return False
            if value == offset and table[2 * i] == key:
                table[2 * i + 1] = self._TOMBSTONE
                self._live -= 1
                return True
            i = (i + 1) & mask

    def items(self) -> Iterator[Tuple[int, int]]:
        """All live ``(key, offset)`` pairs, in slot order."""
        table = self._table
        for i in range(self._slots):
            value = table[2 * i + 1]
            if value > self._TOMBSTONE:
                yield table[2 * i], value

    def _rebuild(self) -> None:
        # Double when live entries are genuinely dense; otherwise rebuild at
        # the same size, which drops the tombstones that tripped the load
        # check.
        slots = self._slots
        if 3 * (self._live + 1) >= 2 * slots:
            slots *= 2
        old = self._table
        self._slots = slots
        self._mask = slots - 1
        self._table = array("Q", bytes(16 * slots))
        self._used = 0
        self._live = 0
        for i in range(len(old) // 2):
            value = old[2 * i + 1]
            if value > self._TOMBSTONE:
                self.add(old[2 * i], value)


class PagedWalRecordStore(RecordStore):
    """An append-log (write-ahead) store whose records live in the log.

    Every *state-changing* operation is framed and appended to the log
    (the WAL format in the module docstring).  Instead of mirroring the log
    into a full in-memory :class:`~repro.salad.database.RecordDatabase`,
    memory holds:

    - a :class:`_OffsetIndex` mapping a 64-bit slice of each record's sort
      key to the offset of its INSERT frame (~16-32 bytes per record at the
      index's load factor, vs hundreds for dict-of-set mirrors);
    - a bounded LRU cache of decoded records keyed by offset
      (``cache_records`` entries; :attr:`page_hits` / :attr:`page_misses`
      count its effectiveness);
    - only when a ``capacity`` is set: a bisect-sorted list of live
      ``(sort_key, location)`` pairs serving the Fig. 13 lowest-record
      probe (bounded by the capacity itself, so it never grows with the
      log).

    Cache misses read the frame back from the log: a short ``seek + read``
    against the backing file, or a parse out of the append buffer for
    offsets not yet written out.  No file descriptor is held between
    operations -- a flagship-scale run opens one store per leaf (10^5 of
    them), which would exhaust the fd table if each pinned one.

    Appends buffer in memory and reach the file every ``sync_every`` logged
    operations, at every batch boundary (:meth:`insert_many`), and on
    :meth:`flush` / :meth:`close`; a crash loses at most the buffered tail.
    The file itself is created by the first write-out (or compaction), so a
    store that never wrote anything leaves no file and reopens empty.

    Reopening an existing log replays it to rebuild the index; entries
    whose CRC fails or that are truncated mid-frame -- the torn tail of a
    crash -- are dropped and the file is trimmed to the last valid entry,
    never treated as fatal (:attr:`torn_bytes_dropped` reports how much was
    discarded, :attr:`recovered_records` how many live records the replay
    restored).

    Compaction: removals and evictions strand stale entries in the log.
    When the log holds more than ``compact_ratio`` entries per live record
    (checked after each logged operation, with a floor to leave small logs
    alone), the log is rewritten as a snapshot -- one INSERT per live record
    in ``(sort_key, location)`` order -- via an atomic temp-file replace,
    and every index entry is *remapped* to its new offset.
    """

    _COMPACT_FLOOR = 1024

    def __init__(
        self,
        path: os.PathLike,
        capacity: Optional[int] = None,
        sync_every: int = 64,
        compact_ratio: float = 4.0,
        cache_records: int = 512,
    ):
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be positive if set: {capacity}")
        if sync_every < 1:
            raise ValueError(f"sync_every must be positive: {sync_every}")
        if compact_ratio < 1.0:
            raise ValueError(f"compact_ratio must be at least 1: {compact_ratio}")
        if cache_records < 1:
            raise ValueError(f"cache_records must be positive: {cache_records}")
        self.path = Path(path)
        self.capacity = capacity
        self.evictions = 0
        self.rejections = 0
        self._sync_every = sync_every
        self._compact_ratio = compact_ratio
        self._cache_limit = cache_records
        self._index = _OffsetIndex()
        #: Live (sort_key, location) pairs, sorted; capacity stores only.
        self._sorted: Optional[List[Tuple[bytes, int]]] = (
            [] if capacity is not None else None
        )
        self._cache: "OrderedDict[int, SaladRecord]" = OrderedDict()
        self._buffer = bytearray()
        self._buffered_ops = 0
        self._file_end = len(WAL_MAGIC)  # logical offsets >= this are buffered
        self._log_ops = 0
        # Whether the file holds a valid log; until then the next write-out
        # (re)creates it, magic first.
        self._on_disk = False
        # Replay-time window into the whole file, so recovery reads need no
        # per-record file opens; None outside __init__.
        self._replay_data: Optional[bytes] = None
        self.recovered_records = 0
        self.torn_bytes_dropped = 0
        # Telemetry (harvested by repro.salad.telemetry).
        self.compactions = 0
        self.sync_writes = 0
        self.page_hits = 0
        self.page_misses = 0
        if self.path.exists() and self.path.stat().st_size > 0:
            self._replay()
            # Replay re-runs the capacity policy; its eviction/rejection
            # outcomes belong to the previous session, not this one.
            self.evictions = 0
            self.rejections = 0
        self.recovered_records = len(self._index)

    @staticmethod
    def _key64(sort_key: bytes) -> int:
        # A uniform 64-bit slice of the fingerprint's hash digest, taken
        # from its middle, not its end.  The digest's last bytes are the low
        # bits of ``routing_id``, and the cell-ID is exactly those low bits
        # (Eq. 7): every record a leaf stores shares them with the leaf, so
        # keys cut from them all land on one home slot and every lookup
        # walks the whole store.  Digest bytes 4..11 sit above any cell-ID.
        return int.from_bytes(sort_key[-16:-8], "big")

    # -- reads -----------------------------------------------------------------

    def _record_at(self, offset: int, cache: bool = True) -> SaladRecord:
        """The record whose INSERT frame starts at logical *offset*."""
        if self._replay_data is not None:
            return self._parse_insert(self._replay_data, offset)
        record = self._cache.get(offset)
        if record is not None:
            self._cache.move_to_end(offset)
            self.page_hits += 1
            return record
        self.page_misses += 1
        if offset >= self._file_end:
            record = self._parse_insert(self._buffer, offset - self._file_end)
        else:
            with open(self.path, "rb") as fh:
                fh.seek(offset)
                op, length = _HEADER.unpack(fh.read(_HEADER.size))
                record = self._decode_insert(fh.read(length))
        if cache:
            self._cache_put(offset, record)
        return record

    @classmethod
    def _parse_insert(cls, buf, offset: int) -> SaladRecord:
        op, length = _HEADER.unpack_from(buf, offset)
        start = offset + _HEADER.size
        return cls._decode_insert(bytes(buf[start : start + length]))

    @staticmethod
    def _decode_insert(payload: bytes) -> SaladRecord:
        key = payload[:FINGERPRINT_BYTES]
        loc_bytes = payload[FINGERPRINT_BYTES + 2 :]
        return SaladRecord(
            fingerprint=Fingerprint.from_bytes(key),
            location=int.from_bytes(loc_bytes, "big"),
        )

    def _cache_put(self, offset: int, record: SaladRecord) -> None:
        cache = self._cache
        cache[offset] = record
        cache.move_to_end(offset)
        if len(cache) > self._cache_limit:
            cache.popitem(last=False)

    def _live_matches(self, sort_key: bytes) -> List[Tuple[int, SaladRecord]]:
        """Live ``(offset, record)`` pairs whose sort key equals *sort_key*.

        The index key is only a 64-bit slice, so every candidate offset is
        read back and verified against the full sort key.
        """
        out = [
            (offset, record)
            for offset in self._index.lookup(self._key64(sort_key))
            if (record := self._record_at(offset)).sort_key() == sort_key
        ]
        out.sort(key=lambda pair: pair[1].location)
        return out

    def __len__(self) -> int:
        return len(self._index)

    def _live_records(self, sort_key: bytes) -> Iterator[SaladRecord]:
        """Live records whose sort key equals *sort_key*, in probe order."""
        for offset in self._index.lookup(self._key64(sort_key)):
            record = self._record_at(offset)
            if record.sort_key() == sort_key:
                yield record

    def __contains__(self, fingerprint: Fingerprint) -> bool:
        return next(self._live_records(fingerprint.to_bytes()), None) is not None

    def locations(self, fingerprint: Fingerprint) -> Set[int]:
        return {record.location for record in self._live_records(fingerprint.to_bytes())}

    def has_location(self, fingerprint: Fingerprint, location: int) -> bool:
        # Location first: it is one int compare, and it rejects every other
        # copy of the fingerprint without building a sort key.
        sort_key = fingerprint.to_bytes()
        for offset in self._index.lookup(self._key64(sort_key)):
            record = self._record_at(offset)
            if record.location == location and record.sort_key() == sort_key:
                return True
        return False

    def records(self) -> Iterator[SaladRecord]:
        everything = [
            self._record_at(offset, cache=False)
            for _, offset in self._index.items()
        ]
        everything.sort(key=lambda r: (r.sort_key(), r.location))
        return iter(everything)

    # -- mutations -------------------------------------------------------------

    def insert(self, record: SaladRecord) -> Tuple[bool, List[SaladRecord]]:
        sort_key = record.sort_key()
        matches = [rec for _, rec in self._live_matches(sort_key)]
        if any(m.location == record.location for m in matches):
            return False, matches
        if self.capacity is not None and not self._make_room(sort_key):
            return False, matches
        offset = self._file_end + len(self._buffer)
        self._append(_OP_INSERT, self._insert_payload(record))
        self._index.add(self._key64(sort_key), offset)
        if self._sorted is not None:
            insort(self._sorted, (sort_key, record.location))
        self._cache_put(offset, record)
        self._maybe_compact()
        return True, matches

    def insert_many(
        self, records: Iterable[SaladRecord]
    ) -> List[Tuple[SaladRecord, bool, List[SaladRecord]]]:
        results = [(record, *self.insert(record)) for record in records]
        self._write_out()  # batch boundary: make the whole batch durable
        return results

    def _make_room(self, sort_key: bytes) -> bool:
        """The Fig. 13 capacity policy ahead of storing *sort_key*.

        A full store evicts its lowest record, or rejects the newcomer
        (returns False) when nothing stored sorts below it.  Evictions write
        no log entry: replaying the logged inserts through this same policy
        re-derives them.  Capacity stores only.
        """
        if len(self._index) < self.capacity:
            return True
        if not self._sorted or sort_key <= self._sorted[0][0]:
            self.rejections += 1
            return False
        low_key, low_location = self._sorted[0]
        for offset, record in self._live_matches(low_key):
            if record.location == low_location:
                self._index.remove(self._key64(low_key), offset)
                self._cache.pop(offset, None)
                del self._sorted[0]
                self.evictions += 1
                return True
        raise AssertionError("eviction target vanished from the index")

    def remove_location(self, location: int) -> int:
        """Drop every record pointing at *location* (a departed machine)."""
        removed = self._drop_location(location)
        if removed:
            self._append(_OP_REMOVE_LOCATION, self._remove_payload(location))
            self._maybe_compact()
        return removed

    def _drop_location(self, location: int) -> int:
        """Unindex every record at *location*; returns how many.

        A full index scan with read-back -- the paged store keeps no
        per-location index in memory.  Departures are rare (once per machine
        death) and per-leaf logs are small, so the scan is the right trade
        against carrying another always-on in-memory index.
        """
        victims = [
            (key, offset, record)
            for key, offset in list(self._index.items())
            if (record := self._record_at(offset, cache=False)).location == location
        ]
        for key, offset, record in victims:
            self._index.remove(key, offset)
            self._cache.pop(offset, None)
            if self._sorted is not None:
                self._sorted.remove((record.sort_key(), location))
        return len(victims)

    # -- log framing & append --------------------------------------------------

    @staticmethod
    def _frame(op: int, payload: bytes) -> bytes:
        head = _HEADER.pack(op, len(payload))
        return head + payload + _CRC.pack(zlib.crc32(head + payload))

    @classmethod
    def _insert_payload(cls, record: SaladRecord) -> bytes:
        return record.sort_key() + cls._remove_payload(record.location)

    @staticmethod
    def _remove_payload(location: int) -> bytes:
        loc = location.to_bytes(max(1, (location.bit_length() + 7) // 8), "big")
        return struct.pack(">H", len(loc)) + loc

    def _append(self, op: int, payload: bytes) -> None:
        self._buffer += self._frame(op, payload)
        self._buffered_ops += 1
        self._log_ops += 1
        if self._buffered_ops >= self._sync_every:
            self._write_out()

    def _write_out(self) -> None:
        if self._buffer:
            mode, head = ("ab", b"") if self._on_disk else ("wb", WAL_MAGIC)
            with open(self.path, mode) as fh:
                fh.write(head + self._buffer)
            self._on_disk = True
            self._file_end += len(self._buffer)
            self._buffer.clear()
            self.sync_writes += 1
        self._buffered_ops = 0

    # -- replay & recovery -----------------------------------------------------

    def _replay(self) -> None:
        data = self.path.read_bytes()
        if not data.startswith(WAL_MAGIC):
            # Foreign or garbage file: treat the whole thing as a torn tail;
            # the first write-out replaces it.
            self.torn_bytes_dropped = len(data)
            return
        self._on_disk = True
        self._replay_data = data
        try:
            offset = len(WAL_MAGIC)
            valid_end = offset
            while offset < len(data):
                if offset + _HEADER.size > len(data):
                    break  # truncated header
                op, length = _HEADER.unpack_from(data, offset)
                frame_end = offset + _HEADER.size + length + _CRC.size
                if frame_end > len(data):
                    break  # truncated payload/CRC
                payload = data[offset + _HEADER.size : offset + _HEADER.size + length]
                (crc,) = _CRC.unpack_from(data, offset + _HEADER.size + length)
                if crc != zlib.crc32(data[offset : offset + _HEADER.size + length]):
                    break  # corrupt entry: drop it and everything after
                if not self._apply(op, payload, offset):
                    break  # unparseable payload: same treatment as a bad CRC
                offset = frame_end
                valid_end = frame_end
                self._log_ops += 1
        finally:
            self._replay_data = None
        self.torn_bytes_dropped = len(data) - valid_end
        if self.torn_bytes_dropped:
            with open(self.path, "r+b") as fh:
                fh.truncate(valid_end)
        self._file_end = valid_end

    def _apply(self, op: int, payload: bytes, offset: int) -> bool:
        """Replay one frame at *offset* through the live-state policy."""
        try:
            if op == _OP_INSERT:
                (loc_len,) = struct.unpack_from(">H", payload, FINGERPRINT_BYTES)
                if len(payload) != FINGERPRINT_BYTES + 2 + loc_len:
                    return False
                record = self._decode_insert(payload)
                sort_key = record.sort_key()
                matches = self._live_matches(sort_key)
                if any(r.location == record.location for _, r in matches):
                    return True  # idempotent replay of an odd log
                if self.capacity is None or self._make_room(sort_key):
                    self._index.add(self._key64(sort_key), offset)
                    if self._sorted is not None:
                        insort(self._sorted, (sort_key, record.location))
            elif op == _OP_REMOVE_LOCATION:
                (loc_len,) = struct.unpack_from(">H", payload, 0)
                if len(payload) != 2 + loc_len:
                    return False
                self._drop_location(int.from_bytes(payload[2:], "big"))
            else:
                return False
        except (ValueError, struct.error, IndexError):
            return False
        return True

    # -- compaction ------------------------------------------------------------

    @property
    def log_ops(self) -> int:
        """Entries currently in the log (disk plus buffer)."""
        return self._log_ops

    def _maybe_compact(self) -> None:
        if self._log_ops <= self._COMPACT_FLOOR:
            return
        if self._log_ops <= self._compact_ratio * max(1, len(self._index)):
            return
        self.compact()

    def compact(self) -> None:
        """Rewrite the log as a live snapshot and remap every index offset."""
        live = [
            self._record_at(offset, cache=False)
            for _, offset in self._index.items()
        ]
        live.sort(key=lambda r: (r.sort_key(), r.location))
        tmp = self.path.with_suffix(self.path.suffix + ".compact")
        rebuilt = _OffsetIndex()
        with open(tmp, "wb") as fh:
            fh.write(WAL_MAGIC)
            position = len(WAL_MAGIC)
            for record in live:
                frame = self._frame(_OP_INSERT, self._insert_payload(record))
                fh.write(frame)
                rebuilt.add(self._key64(record.sort_key()), position)
                position += len(frame)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.path)
        self._on_disk = True
        self._index = rebuilt
        self._cache.clear()  # offset-keyed: every key just moved
        self._buffer.clear()
        self._buffered_ops = 0
        self._file_end = position
        self._log_ops = len(live)
        self.compactions += 1

    # -- durability ------------------------------------------------------------

    def flush(self) -> None:
        self._write_out()

    def close(self) -> None:
        self._write_out()

    def crash(self) -> None:
        # Abandon the buffered tail: those operations never reached the file.
        self._buffer.clear()
        self._buffered_ops = 0

    @property
    def pending_records(self) -> int:
        return min(self._buffered_ops, len(self._index))


# ----------------------------------------------------------------------------
# factory & session defaults
# ----------------------------------------------------------------------------

_default_backend: str = "memory"
_default_db_dir: Optional[Path] = None
_process_tmp_dir: Optional[Path] = None


def set_default_db_backend(backend: str, db_dir: Optional[os.PathLike] = None) -> None:
    """Set the process-wide backend default (the CLI ``--db-backend`` hook).

    Mirrors :func:`repro.perf.set_default_workers`: configs whose
    ``db_backend`` is ``None`` resolve to this value, so one CLI flag steers
    every Salad an experiment builds (including those built inside worker
    processes, which re-apply the flag on startup).
    """
    global _default_backend, _default_db_dir
    if backend not in BACKENDS:
        raise ValueError(f"unknown db backend {backend!r}; choose from {BACKENDS}")
    _default_backend = backend
    _default_db_dir = Path(db_dir) if db_dir is not None else None
    if backend != "memory" and db_dir is None:
        # Make the tempdir now, so worker processes forked later share it
        # and its exit hook; a dir a worker made itself would outlive it.
        resolve_db_dir(None)


def resolve_db_backend(backend: Optional[str]) -> str:
    """``None`` means the session default; anything else must be known."""
    if backend is None:
        return _default_backend
    if backend not in BACKENDS:
        raise ValueError(f"unknown db backend {backend!r}; choose from {BACKENDS}")
    return backend


def _remove_tmp_dir(path: Path, owner_pid: int) -> None:
    # Forked children inherit this exit hook; only the creator removes.
    if os.getpid() == owner_pid:
        shutil.rmtree(path, ignore_errors=True)


def resolve_db_dir(db_dir: Optional[os.PathLike]) -> Path:
    """The directory durable stores live in.

    An explicit *db_dir* (or the session default) is used as given and never
    removed.  Otherwise this is a per-process tempdir, removed at interpreter
    exit by the process that created it.
    """
    global _process_tmp_dir
    if db_dir is not None:
        path = Path(db_dir)
    elif _default_db_dir is not None:
        path = _default_db_dir
    else:
        if _process_tmp_dir is None:
            _process_tmp_dir = Path(tempfile.mkdtemp(prefix="salad-db-"))
            atexit.register(_remove_tmp_dir, _process_tmp_dir, os.getpid())
        path = _process_tmp_dir
    path.mkdir(parents=True, exist_ok=True)
    return path


def make_record_store(
    backend: Optional[str] = None,
    capacity: Optional[int] = None,
    db_dir: Optional[os.PathLike] = None,
    name: str = "records",
) -> RecordStore:
    """Create (or reopen) a record store of the requested backend.

    *name* identifies the store within *db_dir*; reusing an existing name
    with the durable backend reopens that store and recovers its records,
    which is exactly what the crash-recovery harness does.
    """
    if resolve_db_backend(backend) == "memory":
        from repro.salad.database import RecordDatabase

        return RecordDatabase(capacity=capacity)
    return PagedWalRecordStore(resolve_db_dir(db_dir) / f"{name}.wal", capacity=capacity)
