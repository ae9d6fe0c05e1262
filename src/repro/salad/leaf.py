"""The SALAD leaf state machine (paper sections 4.2-4.6).

A leaf is a machine participating in the SALAD.  It maintains:

- a *leaf table* of all leaves it believes to be vector-aligned with it
  (the only leaves it ever communicates with, section 4.3);
- a local *record database* holding the records of its cell (section 4.1);
- an estimate of the system size L, from which it derives its cell-ID width
  W (Fig. 6).

The three protocol procedures are implemented directly from the paper's
pseudo-code:

- record insertion and multi-hop forwarding: Fig. 4;
- join-message handling: Fig. 5;
- cell-ID width recalculation with hysteresis: Fig. 6.

Leaves may disagree about W (their estimates of L differ); the paper notes
this only costs efficiency or lossiness, never correctness, and the
implementation inherits that property because every leaf evaluates alignment
with its *own* W.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Optional, Set

from repro.obs import tracing as _tracing
from repro.salad import protocol
from repro.salad.alignment import mismatching_dimensions
from repro.salad.database import RecordDatabase
from repro.salad.storage import RecordStore
from repro.salad.ids import (
    axis_masks,
    cell_id,
    coordinate,
    coordinate_width,
    effective_dimensionality,
    spread_coordinate,
)
from repro.salad.protocol import JoinPayload, MatchPayload
from repro.salad.records import SaladRecord
from repro.salad.width import (
    attenuated_redundancy,
    estimate_system_size,
    known_leaf_ratio,
    target_width,
)
from repro.sim.machine import SimMachine
from repro.sim.network import Message, Network

#: Next-hop cache sentinel: "this record's cell is mine; handle locally".
_LOCAL = object()


def _mismatch_axis(diff: int, masks) -> Optional[int]:
    """The one axis a masked id xor *diff* sets bits on.

    -1 if it sets none (cell-aligned), None if it sets bits on two or more
    axes (not vector-aligned).  Cell-ID bit b belongs to axis b mod D
    (:func:`~repro.salad.ids.axis_masks`), so the lowest set bit names the
    only axis the xor can be confined to.
    """
    if not diff:
        return -1
    axis = ((diff & -diff).bit_length() - 1) % len(masks)
    return axis if (diff & masks[axis]) == diff else None


class SaladLeaf(SimMachine):
    """One SALAD leaf (machine) with its table, database, and protocols."""

    def __init__(
        self,
        identifier: int,
        network: Network,
        target_redundancy: float = 2.0,
        dimensions: int = 2,
        damping: float = 0.1,
        database_capacity: Optional[int] = None,
        notify_limit: Optional[int] = None,
        rng: Optional[random.Random] = None,
        reference_routing: bool = False,
        database: Optional[RecordStore] = None,
        detailed_metrics: bool = False,
        reference_width: bool = False,
        deferred_width_recalc: bool = False,
    ):
        super().__init__(identifier, network)
        if dimensions < 1:
            raise ValueError(f"dimensionality must be at least 1: {dimensions}")
        if target_redundancy < 1.0:
            raise ValueError(
                f"target redundancy must be at least 1: {target_redundancy}"
            )
        self.target_redundancy = target_redundancy
        self.dimensions = dimensions
        self.damping = damping
        self.width = 0
        # Any repro.salad.storage.RecordStore works here (the memory, sqlite,
        # and WAL backends are contract-identical); callers that don't pass
        # one get the in-memory default.
        self.database = (
            database
            if database is not None
            else RecordDatabase(capacity=database_capacity)
        )
        # Duplicate-notification policy.  None reproduces Fig. 4 literally:
        # notify both machines of *every* matching pair, which costs
        # O(copies^2) messages per duplicate group.  An integer cap notifies
        # each newly inserted record's machine of at most that many existing
        # matches (and vice versa); the transitive chain still identifies the
        # whole group for coalescing, at O(copies) messages -- the only
        # regime in which contents shared by hundreds of machines are
        # simulable (and, judging by its reported message counts, the regime
        # the paper's own simulator ran in).
        self.notify_limit = notify_limit
        self._rng = rng or random.Random(identifier & 0xFFFFFFFF)

        # Leaf table: identifier -> last refresh time (virtual).
        self.leaf_table: Dict[int, float] = {}
        # Index over the table, rebuilt on width changes and updated
        # incrementally on adds/removes:
        #   _cellmates: leaves cell-aligned with me;
        #   _vectors[d][k]: leaves differing from me only on axis d, keyed
        #   by their masked d-axis bits k = j & axis_masks(W, D)[d] (a
        #   bijective image of the d-coordinate that needs no extraction).
        self._cellmates: Set[int] = set()
        self._vectors: Dict[int, Dict[int, Set[int]]] = {
            d: {} for d in range(dimensions)
        }
        # Routing acceleration state, all derived from the current width:
        # the cell-ID mask, per-axis masks, and a next-hop cache mapping a
        # record's cell-ID to its forwarding targets (or _LOCAL).  The cache
        # is invalidated on every leaf-table or width change; masks are
        # recomputed by _rebuild_index.
        self._cell_mask = 0
        self._axis_masks = axis_masks(0, dimensions)
        # Width-increase lookahead: masks for width W+1 plus an incrementally
        # maintained two-bucket partition of the leaf table by "would this
        # entry stay vector-aligned at W+1?".  The survivor bucket is
        # implicit (table minus dropped) and carried as a count; the dropped
        # bucket is the explicit set a committed width increase deletes, so
        # neither the Fig. 6 growth check nor the commit itself needs a
        # table scan.  The pre-amortization full partition scan survives as
        # the `reference_width` oracle (and is what `survivor_scans` counts).
        self._next_cell_mask = 1
        self._next_axis_masks = axis_masks(1, dimensions)
        self._next_width_survivors = 0
        self._next_width_dropped: Set[int] = set()
        self.survivor_scans = 0
        # Width-maintenance path selection, mirroring `reference_routing`:
        # the reference path re-derives the dropped bucket with a full scan
        # at every committed increase (the seed behavior), the default path
        # reads the maintained bucket.  Trace-identical by construction --
        # the width-golden tests assert it.
        self.reference_width = reference_width
        # Opt-in coalescing of recalculations to settle-round boundaries
        # (see _recalculate_width).  Off by default: deferral changes the
        # width-transition schedule and therefore the message trace.
        self.deferred_width_recalc = deferred_width_recalc
        self._recalc_deferred = False
        self._next_hop_cache: Dict[int, object] = {}
        self.next_hop_hits = 0
        self.next_hop_misses = 0
        # Routing-path selection: the indexed path is the default; the
        # reference path keeps the seed's per-axis coordinate scan alive as
        # the golden-trace oracle (message-for-message identical).
        self.reference_routing = reference_routing
        self._route_record = (
            self._route_record_reference
            if reference_routing
            else self._route_record_indexed
        )

        # Telemetry: plain attributes bumped on the hot paths, harvested
        # into a MetricsRegistry at report time (repro.salad.telemetry).
        # Identical across engines: every field below is driven purely by
        # the deterministic message trace.  Record-flow tallies are gated
        # on `detailed_metrics` because even bare integer increments cost
        # several percent at ~15k arrivals per 2k-record insert; the store
        # path is method-swapped here so the disabled path pays nothing.
        self.detailed_metrics = detailed_metrics
        self._store_impl = (
            self._store_record_metered if detailed_metrics else self._store_record
        )
        # Causal tracing composes the same way: when a recorder is active at
        # construction (the engine activates before building leaves), the
        # store path goes through the traced wrapper; otherwise the disabled
        # path pays nothing -- not even a global read per stored record.
        self._store = (
            self._store_record_traced
            if _tracing.ACTIVE is not None
            else self._store_impl
        )
        self.record_arrivals = 0
        self.record_hops = 0
        self.batch_envelopes = 0
        self.batch_records = 0
        # Exact size -> envelope-count mapping; the telemetry harvest folds
        # it into the `salad.routing.batch_size` histogram.  A plain dict
        # increment keeps the per-envelope cost to one hash op.
        self.batch_size_counts: Dict[int, int] = {}

        # Duplicate notifications received for this machine's own files.
        self.matches: List[MatchPayload] = []

        # Join-flood suppression: new-leaf identifiers whose join this leaf
        # has already processed.  Leaves with different system-size estimates
        # can disagree about alignment, which without suppression lets a join
        # cycle among leaves indefinitely; processing each join once breaks
        # the cycle and loses nothing (the first arrival already triggered
        # this leaf's forwarding and welcome).
        self._seen_joins: Set[int] = set()
        #: Joins this leaf should have forwarded (Fig. 5) but had no target
        #: for: its table held no leaf in the direction the join must go.
        self.join_dead_ends = 0

        self._in_recalculate = False
        self.width_changes = 0
        self.width_recalcs = 0

        self.on(protocol.RECORD, self._on_record)
        self.on(protocol.RECORD_BATCH, self._on_record_batch)
        self.on(protocol.JOIN, self._on_join)
        self.on(protocol.WELCOME, self._on_welcome)
        self.on(protocol.WELCOME_ACK, self._on_welcome_ack)
        self.on(protocol.LEAF_REQUEST, self._on_leaf_request)
        self.on(protocol.LEAF_RESPONSE, self._on_leaf_response)
        self.on(protocol.DEPARTURE, self._on_departure)
        self.on(protocol.REFRESH, self._on_refresh)
        self.on(protocol.MATCH, self._on_match)

    # ------------------------------------------------------------------
    # identifiers & coordinates (always under *this leaf's* current width)
    # ------------------------------------------------------------------

    @property
    def effective_dimensions(self) -> int:
        """Eq. 16: the effective dimensionality, min(W, D)."""
        return effective_dimensionality(self.width, self.dimensions)

    def coord(self, identifier: int, axis: int) -> int:
        return coordinate(identifier, self.width, self.dimensions, axis)

    def cell(self, identifier: int) -> int:
        return cell_id(identifier, self.width)

    def _mismatches(self, identifier: int) -> List[int]:
        """Axes on which *identifier* differs from me: the set Delta."""
        return mismatching_dimensions(
            self.identifier, identifier, self.width, self.dimensions
        )

    @property
    def estimated_system_size(self) -> float:
        """L = T / r, with T counting this leaf itself (section 4.6)."""
        return estimate_system_size(
            len(self.leaf_table) + 1, self.width, self.dimensions
        )

    # ------------------------------------------------------------------
    # leaf-table maintenance
    # ------------------------------------------------------------------

    def knows(self, identifier: int) -> bool:
        return identifier in self.leaf_table

    @property
    def table_size(self) -> int:
        return len(self.leaf_table)

    def _survives_next_width(self, identifier: int) -> bool:
        """Would *identifier* stay vector-aligned at width W+1?"""
        diff = (identifier ^ self.identifier) & self._next_cell_mask
        return _mismatch_axis(diff, self._next_axis_masks) is not None

    def _index_add(self, identifier: int) -> bool:
        """Place a leaf into the cellmate/vector index.

        Returns False if the leaf is not vector-aligned under the current
        width (in which case it does not belong in the table at all).
        """
        diff = (identifier ^ self.identifier) & self._cell_mask
        axis = _mismatch_axis(diff, self._axis_masks)
        if axis is None:
            return False
        if axis < 0:
            self._cellmates.add(identifier)
        else:
            key = identifier & self._axis_masks[axis]
            self._vectors[axis].setdefault(key, set()).add(identifier)
        if self._survives_next_width(identifier):
            self._next_width_survivors += 1
        else:
            self._next_width_dropped.add(identifier)
        self._next_hop_cache.clear()
        return True

    def _index_remove(self, identifier: int) -> None:
        # The index is rebuilt on every width change, so the current masks
        # locate the entry's bucket exactly as _index_add filed it.
        axis = _mismatch_axis(
            (identifier ^ self.identifier) & self._cell_mask, self._axis_masks
        )
        if axis == -1:
            self._cellmates.discard(identifier)
        elif axis is not None:
            bucket = self._vectors[axis].get(identifier & self._axis_masks[axis])
            if bucket is not None:
                bucket.discard(identifier)
        # The partition classifies on entry, so removal only needs a set
        # probe, not a fresh alignment check.
        if identifier in self._next_width_dropped:
            self._next_width_dropped.discard(identifier)
        else:
            self._next_width_survivors -= 1
        self._next_hop_cache.clear()

    def _rebuild_index(self) -> None:
        """Re-derive the index at the current width in one pass.

        Same placement as one :meth:`_index_add` per table entry, in table
        order (so every bucket set iterates identically), with the masks
        bound once and the next-hop cache cleared once.
        """
        self._cell_mask = cell_mask = (1 << self.width) - 1
        self._axis_masks = masks = axis_masks(self.width, self.dimensions)
        self._next_cell_mask = next_mask = (1 << (self.width + 1)) - 1
        self._next_axis_masks = next_masks = axis_masks(self.width + 1, self.dimensions)
        self._next_hop_cache.clear()
        me = self.identifier
        dims = self.dimensions
        cellmates: Set[int] = set()
        vectors: Dict[int, Dict[int, Set[int]]] = {d: {} for d in range(dims)}
        dropped: Set[int] = set()
        survivors = 0
        # _mismatch_axis inlined: this loop runs once per table entry per
        # width change, the bulk of all index work in a growing SALAD.
        for identifier in self.leaf_table:
            xor = identifier ^ me
            diff = xor & cell_mask
            if diff:
                axis = ((diff & -diff).bit_length() - 1) % dims
                mask = masks[axis]
                if (diff & mask) != diff:
                    continue  # not vector-aligned at this width: not indexed
                bucket = vectors[axis].get(identifier & mask)
                if bucket is None:
                    vectors[axis][identifier & mask] = {identifier}
                else:
                    bucket.add(identifier)
            else:
                cellmates.add(identifier)
            diff = xor & next_mask  # a zero diff passes whichever mask it picks
            if (diff & next_masks[((diff & -diff).bit_length() - 1) % dims]) != diff:
                dropped.add(identifier)
            else:
                survivors += 1
        self._cellmates = cellmates
        self._vectors = vectors
        self._next_width_dropped = dropped
        self._next_width_survivors = survivors

    def add_leaf(self, identifier: int, recalculate: bool = True) -> bool:
        """Add a vector-aligned leaf to the table; returns True if added."""
        if identifier == self.identifier or identifier in self.leaf_table:
            return False
        if not self._index_add(identifier):
            return False
        self.leaf_table[identifier] = self.network.scheduler.now
        if recalculate:
            self._recalculate_width()
        return True

    def remove_leaf(self, identifier: int, recalculate: bool = True) -> bool:
        if identifier not in self.leaf_table:
            return False
        del self.leaf_table[identifier]
        self._index_remove(identifier)
        if recalculate:
            self._recalculate_width()
        return True

    def _vector_members(self, axis: int, coord_value: int) -> Set[int]:
        """Known leaves j with ``a_axis(I, j)`` and ``c_axis(j) == coord``.

        Excludes cellmates automatically when coord differs from mine, which
        is the only way these sets are used for routing.  Takes a coordinate
        *value* (the Eq. 10 extraction); hot paths that already hold an
        identifier use :meth:`_vector_members_key` directly.
        """
        return self._vector_members_key(
            axis, spread_coordinate(coord_value, self.dimensions, axis)
        )

    def _vector_members_key(self, axis: int, key: int) -> Set[int]:
        """Same as :meth:`_vector_members`, keyed by masked axis bits.

        *key* is ``j & axis_masks(W, D)[axis]`` for any identifier j whose
        axis-coordinate is wanted -- computable from an identifier with one
        AND, no bit-extraction loop.
        """
        members = set(self._vectors[axis].get(key, ()))
        if key == self.identifier & self._axis_masks[axis]:
            members |= self._cellmates
        return members

    def _axis_members(self, axis: int) -> Set[int]:
        """All known leaves d-vector-aligned with me along *axis* (plus cellmates)."""
        members = set(self._cellmates)
        for group in self._vectors[axis].values():
            members |= group
        return members

    # ------------------------------------------------------------------
    # record insertion & forwarding (Fig. 4)
    # ------------------------------------------------------------------

    def insert_record(self, record: SaladRecord) -> None:
        """Locally initiate insertion of a record for one of this machine's files."""
        tracer = _tracing.ACTIVE
        if tracer is not None and tracer.sampled(record._rid):
            tracer.record_insert(record, self.identifier)
        self._process_batch([(record, 0)])

    def insert_records(self, records: Iterable[SaladRecord]) -> int:
        """Locally initiate a batch of records in one pass (Fig. 4, batched).

        Records bound for the same next hop coalesce into a single
        RECORD_BATCH envelope per neighbor, so a machine publishing its whole
        file scan pays one message per neighbor per hop instead of one per
        record.  Routing decisions, storage, and match notifications are
        per-record identical to :meth:`insert_record`.
        """
        pairs = [(record, 0) for record in records]
        tracer = _tracing.ACTIVE  # one check per batch; None costs nothing more
        if tracer is not None:
            for record, _hops in pairs:
                if tracer.sampled(record._rid):
                    tracer.record_insert(record, self.identifier)
        self._process_batch(pairs)
        return len(pairs)

    def _on_record(self, message: Message) -> None:
        tracer = _tracing.ACTIVE
        if tracer is not None:
            record, hops = message.payload
            if tracer.sampled(record._rid):
                tracer.record_hop(record, hops, message.sender, self.identifier)
        self._process_batch((message.payload,))

    def _on_record_batch(self, message: Message) -> None:
        tracer = _tracing.ACTIVE
        if tracer is not None:
            sender = message.sender
            for record, hops in message.payload:
                if tracer.sampled(record._rid):
                    tracer.record_hop(record, hops, sender, self.identifier)
        self._process_batch(message.payload)

    def _process_batch(self, pairs: Iterable[tuple]) -> None:
        """Route/store a batch of ``(record, hops)`` pairs, coalescing forwards.

        Each record follows the Fig. 4 procedure independently; the batch
        layer only merges same-destination forwards into one envelope.  A
        destination owed a single record receives a legacy RECORD message,
        so aggregation never *adds* overhead.
        """
        forwards: Dict[int, List[tuple]] = {}
        if self.reference_routing:
            route = self._route_record
            for record, hops in pairs:
                route(record, hops, forwards)
        else:
            self._route_batch_indexed(pairs, forwards)
        for target, batch in forwards.items():
            if len(batch) == 1:
                self.send(target, protocol.RECORD, batch[0])
            else:
                self.send(target, protocol.RECORD_BATCH, tuple(batch))
                if self.detailed_metrics:
                    size = len(batch)
                    self.batch_envelopes += 1
                    self.batch_records += size
                    counts = self.batch_size_counts
                    counts[size] = counts.get(size, 0) + 1

    def _route_record_reference(
        self, record: SaladRecord, hops: int, forwards: Dict[int, List[tuple]]
    ) -> None:
        """The Fig. 4 procedure for record `<f, l>` at leaf I (oracle path).

        Nominal delivery takes at most D hops (section 4.3), but leaves with
        different system-size estimates compute different coordinates, which
        can bounce a record between vectors indefinitely.  A hop budget of
        2*D forwards every nominal path (plus slack for mild disagreement)
        while converting pathological cycles into ordinary lossiness.

        Outbound forwards are appended to *forwards* (target -> pairs) for
        the caller to coalesce; match notifications are sent immediately.

        This is the seed's implementation -- per-axis coordinate extraction
        on every record, no caching.  It stays in-tree as the oracle the
        golden-trace tests compare :meth:`_route_record_indexed` against.
        """
        routing_id = record.routing_id
        for d in range(self.dimensions):
            if self.coord(routing_id, d) != self.coord(self.identifier, d):
                if hops >= 2 * self.dimensions:
                    return  # hop budget exhausted: the record is lost
                # Forward along my d-axis vector to leaves whose d-coordinate
                # matches the fingerprint's, then exit.
                for target in self._vector_members(d, self.coord(routing_id, d)):
                    forwards.setdefault(target, []).append((record, hops + 1))
                return
        self._store(record, hops, forwards)

    def _route_record_indexed(
        self, record: SaladRecord, hops: int, forwards: Dict[int, List[tuple]]
    ) -> None:
        """Fig. 4 routing through the next-hop cache (default path).

        Message-for-message identical to :meth:`_route_record_reference`:
        the cache memoizes, per record cell-ID, the first mismatching axis's
        forwarding targets (computed once with mask arithmetic instead of
        per-axis extraction), so every further record bound for the same
        cell costs one AND plus one dict probe.  Invalidation: the cache is
        cleared whenever the leaf table gains or loses an entry or the width
        changes (see :meth:`_index_add` / :meth:`_rebuild_index`), which are
        exactly the events that can alter any cell's next hop.
        """
        cell = record.routing_id & self._cell_mask
        targets = self._next_hop_cache.get(cell)
        if targets is None:
            targets = self._compute_next_hop(record.routing_id)
            self._next_hop_cache[cell] = targets
            self.next_hop_misses += 1
        else:
            self.next_hop_hits += 1
        if targets is _LOCAL:
            self._store(record, hops, forwards)
            return
        if hops >= 2 * self.dimensions:
            return  # hop budget exhausted: the record is lost
        for target in targets:
            forwards.setdefault(target, []).append((record, hops + 1))

    def _route_batch_indexed(
        self, pairs: Iterable[tuple], forwards: Dict[int, List[tuple]]
    ) -> None:
        """Batch form of :meth:`_route_record_indexed` with locals bound.

        Per-record behavior is identical (same cache, same order, same
        counters); hoisting the cache/mask/budget lookups out of the loop
        matters because this loop runs once per record per hop.  The cache
        dict cannot be invalidated mid-batch: routing only stores records
        and sends messages (sends are scheduled, never synchronous), and
        only leaf-table/width changes clear the cache.
        """
        cache = self._next_hop_cache
        mask = self._cell_mask
        hop_budget = 2 * self.dimensions
        store = self._store
        hits = misses = 0
        for record, hops in pairs:
            rid = record._rid  # precomputed routing_id; property skipped
            cell = rid & mask
            targets = cache.get(cell)
            if targets is None:
                targets = self._compute_next_hop(rid)
                cache[cell] = targets
                misses += 1
            else:
                hits += 1
            if targets is _LOCAL:
                store(record, hops, forwards)
                continue
            if hops >= hop_budget:
                continue  # hop budget exhausted: the record is lost
            forwarded = (record, hops + 1)
            for target in targets:
                bucket = forwards.get(target)
                if bucket is None:
                    forwards[target] = [forwarded]
                else:
                    bucket.append(forwarded)
        self.next_hop_hits += hits
        self.next_hop_misses += misses

    def _compute_next_hop(self, routing_id: int) -> object:
        """First-mismatching-axis targets for a cell, or _LOCAL if mine.

        The tuple is materialized from the same member set the reference
        path iterates, so forwarding order is identical on a cache miss and
        (because the cache is cleared on any membership change) on every
        hit thereafter.
        """
        diff = (routing_id ^ self.identifier) & self._cell_mask
        if not diff:
            return _LOCAL
        masks = self._axis_masks
        for d in range(self.dimensions):
            if diff & masks[d]:
                return tuple(self._vector_members_key(d, routing_id & masks[d]))
        return _LOCAL  # unreachable: every cell-ID bit belongs to some axis

    def _store_record_metered(
        self, record: SaladRecord, hops: int, forwards: Dict[int, List[tuple]]
    ) -> None:
        """:meth:`_store_record` plus the detailed record-flow tallies."""
        self.record_arrivals += 1
        self.record_hops += hops
        self._store_record(record, hops, forwards)

    def _store_record_traced(
        self, record: SaladRecord, hops: int, forwards: Dict[int, List[tuple]]
    ) -> None:
        """The store path when a causal-trace recorder is active.

        Emits the ``store`` event *before* delegating, so a sampled record's
        timeline orders store ahead of the MATCH sends it triggers.
        """
        tracer = _tracing.ACTIVE
        if tracer is not None and tracer.sampled(record._rid):
            tracer.record_store(record, self.identifier, hops)
        self._store_impl(record, hops, forwards)

    def _store_record(
        self, record: SaladRecord, hops: int, forwards: Dict[int, List[tuple]]
    ) -> None:
        """Cell-aligned arrival: replicate if self-initiated, store, notify."""
        if record.location == self.identifier and hops == 0:
            # Special case: this leaf generated the record (hops == 0 marks
            # local initiation; a copy returning over the network must not
            # re-broadcast).  Replicate to the rest of the cell.
            for target in self._cellmates:
                forwards.setdefault(target, []).append((record, hops + 1))
        if self.database.has_location(record.fingerprint, record.location):
            return  # idempotent redelivery (multiple forwarders reach us)
        stored, matching = self.database.insert(record)
        matching = [m for m in matching if m.location != record.location]
        if self.notify_limit is not None:
            matching = matching[: self.notify_limit]
        for match in matching:
            self.send(
                record.location,
                protocol.MATCH,
                MatchPayload(fingerprint=record.fingerprint, other_machine=match.location),
            )
            self.send(
                match.location,
                protocol.MATCH,
                MatchPayload(fingerprint=record.fingerprint, other_machine=record.location),
            )

    def _on_match(self, message: Message) -> None:
        self.matches.append(message.payload)

    # ------------------------------------------------------------------
    # join protocol (Fig. 5)
    # ------------------------------------------------------------------

    def initiate_join(self, bootstrap: Iterable[int]) -> None:
        """Send a join message to each out-of-band-discovered extant leaf.

        If *bootstrap* is empty, this leaf starts a new singleton SALAD.
        """
        payload = JoinPayload(sender=self.identifier, new_leaf=self.identifier)
        for extant in bootstrap:
            self.send(extant, protocol.JOIN, payload)

    def _on_join(self, message: Message) -> None:
        """The Fig. 5 procedure for a join `<s, n>` arriving at leaf I."""
        payload: JoinPayload = message.payload
        n = payload.new_leaf
        # Most join deliveries end here: flood suppression (this leaf already
        # forwarded and welcomed n), or my own join echoed back.
        if n in self._seen_joins or n == self.identifier:
            return
        self._seen_joins.add(n)
        s = payload.sender
        eff = self.effective_dimensions

        # Mask arithmetic: coordinate d of two identifiers differs iff their
        # XOR has a set bit among axis d's interleaved positions (Eq. 10 is
        # a bit permutation), so each delta computation is one XOR + D ANDs.
        masks = self._axis_masks
        n_diff = (n ^ self.identifier) & self._cell_mask
        delta_set = [d for d in range(eff) if n_diff & masks[d]]
        delta = len(delta_set)
        if s == n:
            # Join received directly from the new leaf: the sender's
            # dimensional alignment is considered lower than all others'.
            sender_delta = -1
        else:
            s_diff = (n ^ s) & self._cell_mask
            sender_delta = len([d for d in range(eff) if s_diff & masks[d]])

        # Equal alignment (sender_delta == delta) forwards nothing: the
        # sender's other recipients cover the remaining paths.  So does a
        # cell-aligned leaf hearing from a less aligned sender.
        targets: Iterable[int] = ()
        should_forward = sender_delta < delta or (sender_delta > delta and delta > 0)
        if sender_delta > delta:
            # Sender has higher dimensional alignment: move down one degree.
            if delta > 1:
                targets = [
                    target
                    for d in delta_set
                    if (d + 1) % eff not in delta_set
                    for target in self._vector_members_key(d, n & masks[d])
                ]
            elif delta == 1:
                # I am vector-aligned: forward to every leaf in my vector.
                targets = self._axis_members(delta_set[0])
        elif sender_delta < delta:
            if delta < eff:
                # Forward *up* one degree of alignment: pick a random matching
                # axis and a random foreign coordinate along it.
                candidates = [d for d in range(eff) if d not in delta_set]
                d = self._rng.choice(candidates)
                width_d = coordinate_width(self.width, self.dimensions, d)
                coords = [c for c in range(1 << width_d) if c != self.coord(n, d)]
                if coords:
                    targets = self._vector_members(d, self._rng.choice(coords))
            elif delta > 1:
                # I have minimal alignment with n: initiate the batches, one
                # per mismatching dimension.
                targets = [
                    target
                    for d in delta_set
                    for target in self._vector_members_key(d, n & masks[d])
                ]
            else:
                # I'm vector-aligned and effective dimensionality is 1:
                # forward the join to everyone I know.
                targets = list(self.leaf_table)
        if should_forward and not targets:
            self.join_dead_ends += 1
        if targets:
            forward = JoinPayload(sender=self.identifier, new_leaf=n)
            for target in targets:
                self.send(target, protocol.JOIN, forward)
        if delta < 2:
            # I am vector-aligned (or cell-aligned) with the new leaf.
            self.send(n, protocol.WELCOME)

    def _on_welcome(self, message: Message) -> None:
        """Welcome from an extant leaf: add it, update estimate, acknowledge."""
        extant = message.sender
        if self.knows(extant):
            return
        if self.add_leaf(extant):
            self.send(extant, protocol.WELCOME_ACK)

    def _on_welcome_ack(self, message: Message) -> None:
        """Welcome-acknowledge: add the leaf and update the estimate; no reply."""
        self.add_leaf(message.sender)

    # ------------------------------------------------------------------
    # departure & refresh (section 4.5)
    # ------------------------------------------------------------------

    def depart_cleanly(self) -> None:
        """Send explicit departure messages to the whole leaf table, then leave."""
        for identifier in list(self.leaf_table):
            self.send(identifier, protocol.DEPARTURE)
        self.depart()

    def _on_departure(self, message: Message) -> None:
        self.remove_leaf(message.sender)

    def send_refreshes(self) -> None:
        """Send one periodic refresh round to every leaf-table entry."""
        for identifier in list(self.leaf_table):
            self.send(identifier, protocol.REFRESH)

    def _on_refresh(self, message: Message) -> None:
        if message.sender in self.leaf_table:
            self.leaf_table[message.sender] = self.network.scheduler.now
        # A refresh from an unknown but vector-aligned leaf re-introduces it.
        elif self.add_leaf(message.sender):
            pass

    def flush_stale_entries(self, timeout: float) -> int:
        """Drop leaf-table entries not refreshed within *timeout*; return count."""
        now = self.network.scheduler.now
        stale = [
            identifier
            for identifier, last_seen in self.leaf_table.items()
            if now - last_seen > timeout
        ]
        for identifier in stale:
            self.remove_leaf(identifier, recalculate=False)
        if stale:
            self._recalculate_width()
        return len(stale)

    # ------------------------------------------------------------------
    # cell-ID width recalculation (Fig. 6)
    # ------------------------------------------------------------------

    def _recalculate_width(self) -> None:
        """The Fig. 6 procedure, run whenever the leaf table changes."""
        if self._in_recalculate or self._recalc_deferred:
            return
        if self.deferred_width_recalc:
            # Bulk-join storms run this procedure once per table change even
            # though only the final state of a delivery window can influence
            # the *next* window.  Deferral coalesces all of a window's
            # invocations into one at the settle-round boundary.  This is a
            # schedule change relative to Fig. 6's recalculate-on-every-
            # change (width transitions land at window granularity, which
            # alters e.g. which WELCOMEs a joining leaf accepts), so it is
            # opt-in and off by default.  Outside a delivery window the
            # network refuses the deferral and we fall through to the eager
            # path, so driver-level calls still take effect immediately.
            if self.network.defer_post_window(self._flush_deferred_recalc):
                self._recalc_deferred = True
                return
        self._in_recalculate = True
        try:
            self._recalculate_width_inner()
        finally:
            self._in_recalculate = False

    def _flush_deferred_recalc(self) -> None:
        """Run the one coalesced recalculation at the window boundary."""
        self._recalc_deferred = False
        if not self.alive:
            return
        self._in_recalculate = True
        try:
            self._recalculate_width_inner()
        finally:
            self._in_recalculate = False

    def _recalculate_width_inner(self) -> None:
        self.width_recalcs += 1
        d_count = self.dimensions
        table_with_self = len(self.leaf_table) + 1
        estimate = estimate_system_size(table_with_self, self.width, d_count)
        # Decreases use the attenuated target redundancy (hysteresis, Eq. 19).
        reduced = attenuated_redundancy(self.target_redundancy, self.damping)
        target = target_width(estimate, reduced)
        while target < self.width:
            old_width = self.width
            self.width -= 1
            self.width_changes += 1
            self._rebuild_index()
            self._request_newly_aligned(old_width)
            table_with_self = len(self.leaf_table) + 1
            estimate = estimate_system_size(table_with_self, self.width, d_count)
            target = target_width(estimate, reduced)

        target = target_width(estimate, self.target_redundancy)
        while target > self.width:
            # The stability check costs O(1): _next_width_survivors is the
            # incrementally maintained count of entries that stay
            # vector-aligned at W+1, so rejecting the tentative width (the
            # hysteresis zone, where every table change used to pay a full
            # rescan) touches no table entry at all.
            tentative_width = self.width + 1
            tentative_table = self._next_width_survivors + 1
            tentative_estimate = estimate_system_size(
                tentative_table, tentative_width, d_count
            )
            tentative_target = target_width(tentative_estimate, self.target_redundancy)
            if tentative_target < tentative_width:
                return  # the tentative width is unstable; stay put
            if self.reference_width:
                # Reference oracle: re-derive the dropped bucket with the
                # pre-amortization full partition scan (counted so tests can
                # pin the bound and assert identity with the default path).
                self.survivor_scans += 1
                dropped = [
                    identifier
                    for identifier in self.leaf_table
                    if not self._survives_next_width(identifier)
                ]
            else:
                # Amortized commit: the partition was maintained on every
                # add/remove, so committing costs O(dropped), and the only
                # remaining full pass is _rebuild_index at the new width.
                dropped = self._next_width_dropped
            self.width = tentative_width
            self.width_changes += 1
            for identifier in dropped:
                del self.leaf_table[identifier]
            self._rebuild_index()
            estimate = tentative_estimate
            target = tentative_target

    def _request_newly_aligned(self, old_width: int) -> None:
        """After a width decrease, learn the newly vector-aligned leaves.

        Folding merged my cell with its mirror along the fold axis; leaves
        that are now cell-aligned with me (but were not before) have exactly
        the newly vector-aligned leaves in their tables, so ask up to
        ceil(lambda) of them for their leaf tables (section 4.6).
        """
        lam = max(1, round(self.target_redundancy))
        newly_cell_aligned = [
            identifier
            for identifier in self.leaf_table
            if self.cell(identifier) == self.cell(self.identifier)
            and cell_id(identifier, old_width) != cell_id(self.identifier, old_width)
        ]
        for identifier in newly_cell_aligned[:lam]:
            self.send(identifier, protocol.LEAF_REQUEST)

    def _on_leaf_request(self, message: Message) -> None:
        identifiers = tuple(self.leaf_table)
        self.send(message.sender, protocol.LEAF_RESPONSE, identifiers)

    def _on_leaf_response(self, message: Message) -> None:
        added = False
        for identifier in message.payload:
            if identifier == self.identifier or self.knows(identifier):
                continue
            if self.add_leaf(identifier, recalculate=False):
                # Introduce myself so knowledge stays symmetric.
                self.send(identifier, protocol.WELCOME_ACK)
                added = True
        if added:
            self._recalculate_width()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def stored_record_count(self) -> int:
        return len(self.database)

    def __repr__(self) -> str:
        return (
            f"<SaladLeaf {self.identifier:#x} W={self.width} "
            f"T={len(self.leaf_table)} DB={len(self.database)}>"
        )
