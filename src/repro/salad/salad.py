"""Whole-SALAD orchestration over the simulated network.

Builds a SALAD the way the paper's experiments do (section 5): "The SALAD
was initialized with a single leaf, and the remaining machines were each
added to the SALAD by the procedure outlined in Subsection 4.4" -- i.e., a
join message to a randomly discovered extant leaf, propagated through the
hypercube, answered by welcomes.

The orchestrator also drives record insertion (Fig. 4) and exposes the
measurements behind every figure: per-machine message counts (Figs. 9-10),
database sizes (Figs. 11-13), leaf-table sizes (Figs. 14-15), and the match
notifications from which reclaimed space is computed (Figs. 7-8).
"""

from __future__ import annotations

import itertools
import os
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from repro.salad.leaf import SaladLeaf
from repro.salad.protocol import MatchPayload
from repro.salad.records import SaladRecord
from repro.salad.storage import (
    make_record_store,
    resolve_db_backend,
    resolve_db_dir,
)
from repro.sim.events import EventScheduler
from repro.sim.failure import fail_exact_fraction
from repro.sim.network import Network, TopologyNetwork
from repro.sim.topology import Topology

#: Per-process sequence distinguishing the durable-store directories of
#: multiple Salad instances built in one process (e.g. one per sweep point).
_salad_sequence = itertools.count()

#: Identifier width: 20-byte hashes (section 2).
IDENTIFIER_BITS = 160

#: Session default for SaladConfig.trace_invariants = None (the CLI
#: ``--trace-invariants`` hook; mirrors set_default_db_backend).
_default_trace_invariants = False


def set_trace_invariants(enabled: bool) -> None:
    """Set the process-wide default for runtime invariant tracing.

    Configs whose ``trace_invariants`` is ``None`` resolve to this value,
    so one CLI flag turns on tracing for every Salad an experiment builds
    (including those built inside worker processes, which re-apply the flag
    on startup).
    """
    global _default_trace_invariants
    _default_trace_invariants = bool(enabled)


def resolve_trace_invariants(value) -> bool:
    """``None`` means the session default; anything else is a plain bool."""
    return _default_trace_invariants if value is None else bool(value)


#: Session default for SaladConfig.detailed_metrics = None (set by
#: ``--metrics-out`` on the CLIs; mirrors set_trace_invariants).
_default_detailed_metrics = False


def set_detailed_metrics(enabled: bool) -> None:
    """Set the process-wide default for detailed record-flow metrics.

    Detailed metrics (per-record arrival/hop counts and per-envelope batch
    statistics) cost real time on the routing hot path -- measurably so on
    insert-heavy workloads -- so they are off unless a run asks for a
    report.  Configs whose ``detailed_metrics`` is ``None`` resolve to this
    value.
    """
    global _default_detailed_metrics
    _default_detailed_metrics = bool(enabled)


def resolve_detailed_metrics(value) -> bool:
    """``None`` means the session default; anything else is a plain bool."""
    return _default_detailed_metrics if value is None else bool(value)


#: Session default for SaladConfig.trace_sample_rate = None (set by
#: ``--trace-sample-rate`` on the CLIs; mirrors set_detailed_metrics).
_default_trace_sample_rate = 0.0


def set_trace_sample_rate(rate: float) -> None:
    """Set the process-wide default causal-trace sampling rate.

    A rate in (0, 1] turns on :mod:`repro.obs.tracing`: a deterministic
    hash of each record's routing id selects the sampled fraction, and
    every SALAD the session builds emits per-record causal events for
    them.  0 disables tracing entirely (the hot paths pay one ``is None``
    check per batch).  Configs whose ``trace_sample_rate`` is ``None``
    resolve to this value.
    """
    validate_trace_sample_rate(rate)
    global _default_trace_sample_rate
    _default_trace_sample_rate = float(rate)


def resolve_trace_sample_rate(value) -> float:
    """``None`` means the session default; anything else is validated."""
    if value is None:
        return _default_trace_sample_rate
    validate_trace_sample_rate(value)
    return float(value)


def validate_trace_sample_rate(value) -> None:
    """Validate a ``trace_sample_rate`` knob without resolving it."""
    if value is None:
        return
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(
            f"trace_sample_rate must be a number in [0, 1] or None, got "
            f"{type(value).__name__}: {value!r}"
        )
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"trace_sample_rate must be in [0, 1]: {value}")


def _topology_link_of(topology):
    """A ``(a, b) -> (link_name, class_name)`` annotator for trace events.

    ``None`` on the flat fabric -- the recorder then omits link fields
    rather than inventing a fake class.
    """
    if topology is None:
        return None

    def link_of(a: int, b: int):
        name, link_class = topology.link(a, b)
        return name, link_class.name

    return link_of


@dataclass
class SaladConfig:
    """Configuration of a SALAD deployment."""

    target_redundancy: float = 2.0  # Lambda
    dimensions: int = 2  # D
    damping: float = 0.1  # xi (Eq. 19 hysteresis)
    database_capacity: Optional[int] = None  # Fig. 13 record limit
    #: None = Fig. 4 literal pairwise notification (O(copies^2) per group);
    #: an integer caps match notifications per inserted record (O(copies)).
    notify_limit: Optional[int] = None
    bootstrap_count: int = 1  # extant leaves contacted per join
    latency: float = 1.0
    #: Network topology (:class:`repro.sim.topology.Topology`) replacing the
    #: flat constant-latency fabric: per-pair rack/lan/wan delays, per-class
    #: message counters, and named-link cuts.  None keeps the flat fabric
    #: (bit-identical to the seed); the degenerate one-site topology is
    #: trace-identical to None.
    topology: Optional["Topology"] = None
    seed: int = 0
    #: Route with the seed's per-axis coordinate scan instead of the indexed
    #: next-hop cache.  Message-for-message identical (the golden-trace tests
    #: assert it); only useful as the oracle side of that comparison.
    reference_routing: bool = False
    #: Commit width increases with the seed's full-table survivor scan
    #: instead of the incrementally maintained drop bucket.  Trace-identical
    #: (the width-golden tests assert it); only useful as the oracle side of
    #: that comparison and as the pre-change leg of the flagship bench.
    reference_width: bool = False
    #: Coalesce width recalculations during bulk-join storms to settle-round
    #: (delivery-window) boundaries instead of running Fig. 6 after every
    #: leaf-table change.  NOT trace-identical to the eager default -- width
    #: transitions land at window granularity, which changes e.g. which
    #: WELCOMEs a joining leaf accepts -- so it is opt-in; the flagship run
    #: turns it on.
    deferred_width_recalc: bool = False
    #: Record-database backend per leaf: "memory" (default), "sqlite", or
    #: "wal" (see repro.salad.storage).  None defers to the session default
    #: set by set_default_db_backend (the CLI --db-backend hook).  All three
    #: are contract-identical; the durable two trade insert speed for a
    #: bounded memory footprint and crash recovery.
    db_backend: Optional[str] = None
    #: Directory durable backends write under (each Salad instance gets its
    #: own subdirectory so repeated runs never reopen each other's files).
    #: None = the session default, falling back to a per-process tempdir.
    db_dir: Optional[str] = None
    #: Trace every message and check protocol invariants at harvest time
    #: (the ``--trace-invariants`` runtime mode; see repro.sim.tracer).
    #: None = the session default set by :func:`set_trace_invariants`.
    #: Tracing does not alter the message trace, but it retains every
    #: message in memory -- opt in deliberately on large runs.
    trace_invariants: Optional[bool] = None
    #: Count per-record arrivals/hops and per-envelope batch sizes
    #: (``salad.records.arrivals``/``hops``, ``salad.routing.envelopes``/
    #: ``envelope_records``/``batch_size``).  These increments sit on the
    #: routing hot path, so they are opt-in: ``--metrics-out`` turns them
    #: on; None = the session default set by :func:`set_detailed_metrics`.
    #: Never alters the message trace -- only whether flow counters tally.
    detailed_metrics: Optional[bool] = None
    #: Causal-trace sampling rate in [0, 1] (see :mod:`repro.obs.tracing`):
    #: a deterministic hash of each record's routing id samples this
    #: fraction of inserts, and sampled records emit per-hop/per-store
    #: trace events that export to Perfetto.  Sampling consumes no RNG and
    #: never alters the message trace; 0 disables tracing.  None = the
    #: session default set by :func:`set_trace_sample_rate` (the CLI
    #: ``--trace-sample-rate`` hook).
    trace_sample_rate: Optional[float] = None

    def __post_init__(self) -> None:
        resolve_db_backend(self.db_backend)  # fail fast on unknown names
        validate_trace_sample_rate(self.trace_sample_rate)
        if self.topology is not None and not isinstance(self.topology, Topology):
            raise ValueError(
                f"topology must be a repro.sim.topology.Topology or None, "
                f"got {type(self.topology).__name__}"
            )
        if self.dimensions < 1:
            raise ValueError(f"dimensions must be >= 1: {self.dimensions}")
        if self.target_redundancy < 1.0:
            raise ValueError(
                f"target redundancy must be >= 1: {self.target_redundancy}"
            )
        if self.bootstrap_count < 1:
            raise ValueError(f"bootstrap count must be >= 1: {self.bootstrap_count}")


class Salad:
    """A SALAD instance: a set of leaves over one simulated network."""

    def __init__(self, config: SaladConfig, network: Optional[Network] = None):
        self.config = config
        self._rng = random.Random(config.seed)
        if network is None:
            rng = random.Random(self._rng.getrandbits(64))
            if config.topology is None:
                network = Network(EventScheduler(), config.latency, rng=rng)
            else:
                network = TopologyNetwork(EventScheduler(), config.topology, rng=rng)
        self.network = network
        self.leaves: Dict[int, SaladLeaf] = {}
        self._join_order: List[int] = []
        # Alive-leaf list in creation order, maintained incrementally so the
        # per-join alive scan in add_leaf/build is O(1) amortized instead of
        # O(leaves) -- at flagship scale (1e5 joins) the rescan is O(L^2).
        # Invalidated by machine-liveness flips via on_liveness_change.
        self._alive_cache: Optional[List[SaladLeaf]] = None
        # Opt-in runtime invariant tracing.  Attached after the network is
        # built (and after the network-seed RNG draw above, so traced and
        # untraced runs see identical randomness).
        self.tracer = None
        if resolve_trace_invariants(config.trace_invariants):
            from repro.sim.tracer import NetworkTracer

            self.tracer = NetworkTracer(self.network)
        # Resolved once so every leaf this SALAD builds counts identically.
        self._detailed_metrics = resolve_detailed_metrics(config.detailed_metrics)
        # Causal tracing (repro.obs.tracing): the latest Salad wins the module
        # recorder, so sweeps that build several Salads trace the active
        # one.  Activation at rate 0 clears any stale recorder.
        self._trace_sample_rate = resolve_trace_sample_rate(config.trace_sample_rate)
        from repro.obs import tracing

        tracing.activate(
            self._trace_sample_rate,
            now=lambda: self.network.scheduler.now,
            link_of=_topology_link_of(config.topology),
        )
        # Durable-store housing: resolved lazily so memory-backed SALADs
        # (the default) never touch the filesystem.
        self._db_backend = resolve_db_backend(config.db_backend)
        self._db_dir: Optional[Path] = None

    def _database_for(self, identifier: int):
        """The record store a new leaf gets under this SALAD's backend."""
        if self._db_backend == "memory":
            return make_record_store("memory", capacity=self.config.database_capacity)
        if self._db_dir is None:
            self._db_dir = (
                resolve_db_dir(self.config.db_dir)
                / f"salad-{os.getpid()}-{next(_salad_sequence)}"
            )
        return make_record_store(
            self._db_backend,
            capacity=self.config.database_capacity,
            db_dir=self._db_dir,
            name=f"leaf-{identifier:040x}",
        )

    def close_databases(self) -> None:
        """Flush and close every leaf's record store (durable backends)."""
        for leaf in self.leaves.values():
            leaf.database.close()

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------

    def _fresh_identifier(self) -> int:
        """A random 160-bit identifier, unique within this SALAD.

        Real machines hash their public keys (section 2, and
        :mod:`repro.farsite.machine_id`); the low bits are uniform either
        way, which is all the cell-ID statistics require.
        """
        while True:
            identifier = self._rng.getrandbits(IDENTIFIER_BITS)
            if identifier not in self.leaves:
                return identifier

    def create_leaf(self, identifier: Optional[int] = None) -> SaladLeaf:
        """Create a leaf machine (not yet joined)."""
        if identifier is None:
            identifier = self._fresh_identifier()
        if identifier in self.leaves:
            raise ValueError(f"leaf {identifier:#x} already exists")
        leaf = SaladLeaf(
            identifier,
            self.network,
            target_redundancy=self.config.target_redundancy,
            dimensions=self.config.dimensions,
            damping=self.config.damping,
            database_capacity=self.config.database_capacity,
            notify_limit=self.config.notify_limit,
            rng=random.Random(self._rng.getrandbits(64)),
            reference_routing=self.config.reference_routing,
            database=self._database_for(identifier),
            detailed_metrics=self._detailed_metrics,
            reference_width=self.config.reference_width,
            deferred_width_recalc=self.config.deferred_width_recalc,
        )
        self.leaves[identifier] = leaf
        leaf.on_liveness_change = self._invalidate_alive_cache
        self._alive_cache = None  # callers may rebuild or patch incrementally
        return leaf

    def add_leaf(
        self,
        identifier: Optional[int] = None,
        settle: bool = True,
    ) -> SaladLeaf:
        """Create a leaf and join it to the SALAD (section 4.4).

        The new leaf discovers ``bootstrap_count`` arbitrary extant leaves
        "by some out-of-band means" and sends each a join message.  With
        *settle* (the default), the network runs to quiescence before
        returning, matching the paper's incremental-growth experiments.
        """
        alive = self._alive_leaves_cached()
        leaf = self.create_leaf(identifier)  # invalidates the cache
        if alive:
            count = min(self.config.bootstrap_count, len(alive))
            bootstrap = [extant.identifier for extant in self._rng.sample(alive, count)]
            leaf.initiate_join(bootstrap)
        # The pre-join snapshot plus the (alive) newcomer is the new alive
        # list, in creation order -- reinstall it instead of rescanning.
        alive.append(leaf)
        self._alive_cache = alive
        self._join_order.append(leaf.identifier)
        if settle:
            self.network.run()
        return leaf

    def build(self, count: int, settle_each: bool = True) -> None:
        """Grow the SALAD to *count* live leaves by incremental joins.

        Departed or failed leaves do not count toward the target, so a
        shrunken SALAD can be regrown past its former size.
        """
        while len(self._alive_leaves_cached()) < count:
            self.add_leaf(settle=settle_each)
        if not settle_each:
            self.network.run()

    def run(self) -> int:
        """Settle the network to quiescence."""
        return self.network.run()

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self.network.scheduler.now

    def _invalidate_alive_cache(self) -> None:
        self._alive_cache = None

    def _alive_leaves_cached(self) -> List[SaladLeaf]:
        """Alive leaves in creation order; rebuilt only after liveness flips.

        Returns the cache itself -- callers other than add_leaf must not
        mutate it (add_leaf appends the newcomer and reinstalls).
        """
        cache = self._alive_cache
        if cache is None:
            cache = self._alive_cache = [
                leaf for leaf in self.leaves.values() if leaf.alive
            ]
        return cache

    def alive_leaves(self) -> List[SaladLeaf]:
        return list(self._alive_leaves_cached())

    def alive_count(self) -> int:
        return len(self._alive_leaves_cached())

    def alive_identifiers(self) -> List[int]:
        return [leaf.identifier for leaf in self._alive_leaves_cached()]

    def depart_leaf(self, identifier: int, settle: bool = True) -> None:
        """Cleanly depart one leaf (section 4.5) by identifier."""
        leaf = self.leaves.get(identifier)
        if leaf is None:
            raise KeyError(f"no such leaf: {identifier:#x}")
        leaf.depart_cleanly()
        if settle:
            self.network.run()

    # ------------------------------------------------------------------
    # failure injection
    # ------------------------------------------------------------------

    def set_loss_probability(self, probability: float) -> None:
        """Every message is lost with this probability (Fig. 8 duty cycle)."""
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"loss probability must be in [0,1]: {probability}")
        self.network.loss_probability = probability

    def crash_fraction(self, fraction: float, rng: random.Random) -> int:
        """Permanently crash an exact fraction of leaves; returns the count."""
        return len(fail_exact_fraction(list(self.leaves.values()), fraction, rng))

    def shutdown(self) -> None:
        """Release resources (the leaves' record stores)."""
        self.close_databases()

    # ------------------------------------------------------------------
    # records
    # ------------------------------------------------------------------

    def insert_records(
        self,
        records_by_leaf: Dict[int, Iterable[SaladRecord]],
        settle: bool = True,
    ) -> int:
        """Each leaf inserts its own file records (Fig. 4); returns count inserted.

        Failed leaves insert nothing -- an off machine cannot publish its
        fingerprints, which is how the Fig. 8 failure experiment works.
        """
        inserted = 0
        for leaf_id, records in records_by_leaf.items():
            leaf = self.leaves.get(leaf_id)
            if leaf is None:
                raise KeyError(f"no such leaf: {leaf_id:#x}")
            if not leaf.alive:
                continue
            # Batched initiation: records sharing a first hop leave in one
            # coalesced envelope (see SaladLeaf.insert_records).
            inserted += leaf.insert_records(records)
        if settle:
            self.network.run()
            # Batch boundary: make the settled round durable, so a crash
            # loses at most the round in flight (no-op for memory stores).
            from repro.obs import tracing

            recorder = tracing.ACTIVE
            for leaf in self.leaves.values():
                if leaf.alive:
                    leaf.database.flush()
                    if recorder is not None:
                        recorder.record_flush(leaf.identifier)
        return inserted

    def collected_matches(self) -> List[Tuple[int, MatchPayload]]:
        """All duplicate notifications received, as (machine, payload) pairs."""
        out: List[Tuple[int, MatchPayload]] = []
        for leaf in self.leaves.values():
            for match in leaf.matches:
                out.append((leaf.identifier, match))
        return out

    # ------------------------------------------------------------------
    # measurements
    # ------------------------------------------------------------------

    def leaf_table_sizes(self, alive_only: bool = True) -> List[int]:
        leaves = self.alive_leaves() if alive_only else list(self.leaves.values())
        return [leaf.table_size for leaf in leaves]

    def database_sizes(self, alive_only: bool = True) -> List[int]:
        leaves = self.alive_leaves() if alive_only else list(self.leaves.values())
        return [len(leaf.database) for leaf in leaves]

    def message_totals(self, alive_only: bool = False) -> List[int]:
        """Per-machine messages sent plus received (Figs. 9-10)."""
        leaves = self.alive_leaves() if alive_only else list(self.leaves.values())
        return [self.network.traffic[leaf.identifier].total for leaf in leaves]

    def width_distribution(self) -> Dict[int, int]:
        """How many alive leaves currently use each cell-ID width."""
        out: Dict[int, int] = {}
        for leaf in self.alive_leaves():
            out[leaf.width] = out.get(leaf.width, 0) + 1
        return dict(sorted(out.items()))

    def total_stored_records(self) -> int:
        return sum(len(leaf.database) for leaf in self.alive_leaves())

    def stored_records(self) -> Dict[int, List[tuple]]:
        """Per-leaf ``(fingerprint, location)`` dumps in store order."""
        return {
            identifier: [
                (record.fingerprint, record.location)
                for record in leaf.database.records()
            ]
            for identifier, leaf in self.leaves.items()
        }

    def message_counters(self) -> Tuple[int, int, int]:
        """(sent, delivered, dropped) network totals."""
        return (
            self.network.messages_sent,
            self.network.messages_delivered,
            self.network.messages_dropped,
        )

    def collect_metrics(self, registry):
        """Harvest this SALAD's runtime state into *registry*; returns it.

        Builds fresh entries from the leaves' plain attribute counters (see
        repro.salad.telemetry), so harvesting twice into two registries
        double-counts nothing.  When invariant tracing is on, the protocol
        checks run here and their violation counts land under
        ``sim.invariants.*``.
        """
        from repro.salad.telemetry import harvest_salad_metrics, harvest_trace_metrics

        harvest_salad_metrics(
            registry, self.leaves.values(), self.network, self.config.dimensions
        )
        harvest_trace_metrics(registry)
        if self.tracer is not None:
            self.tracer.feed_registry(registry, self.leaves, self.config.dimensions)
        return registry

    def __len__(self) -> int:
        return len(self.leaves)
