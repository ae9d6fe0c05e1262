"""Golden-trace equivalence of the optimized and reference execution paths.

The PR's claim is that three optimizations -- indexed next-hop routing in
the leaf, the calendar-queue scheduler, and per-timestep message batching in
the network -- are *observably identical* to the seed's implementations, not
merely statistically similar.  These tests pin that down at the strongest
level available: the full ordered message trace (time, sender, recipient,
kind, payload) and the per-machine traffic counters of a seeded
build-then-insert workload must match message-for-message across every
combination of optimized and reference components.
"""

import random

import pytest

from repro.core.fingerprint import Fingerprint
from repro.salad.records import SaladRecord
from repro.salad.salad import Salad, SaladConfig
from repro.sim.events import EventScheduler
from repro.sim.network import Network
from repro.sim.tracer import NetworkTracer
from tests.oracles.events import ReferenceEventScheduler
from tests.oracles.network import PerMessageNetwork

LEAVES = 40
RECORDS_PER_LEAF = 15
CONTENT_POOL = 120  # small pool => plenty of duplicate groups => MATCH traffic


def _run_workload(sched_cls, batch_delivery, reference_routing, churn=False):
    """One seeded build + insert (+ optional churn); returns (trace, counters)."""
    config = SaladConfig(
        dimensions=2, seed=11, reference_routing=reference_routing
    )
    network_cls = Network if batch_delivery else PerMessageNetwork
    network = network_cls(
        scheduler=sched_cls(), latency=config.latency, rng=random.Random(123)
    )
    salad = Salad(config, network=network)
    tracer = NetworkTracer(network)

    salad.build(LEAVES)

    record_rng = random.Random(5)
    by_leaf = {}
    for leaf in salad.alive_leaves():
        records = []
        for _ in range(RECORDS_PER_LEAF):
            content = record_rng.randrange(CONTENT_POOL)
            fingerprint = Fingerprint(
                size=1024 + content, content_digest=content.to_bytes(20, "big")
            )
            records.append(
                SaladRecord(fingerprint=fingerprint, location=leaf.identifier)
            )
        by_leaf[leaf.identifier] = records
    salad.insert_records(by_leaf)

    if churn:
        # Departures shrink tables and can trigger width recalculation --
        # exactly the events that must invalidate the next-hop cache.  A
        # second insert wave then routes through the post-churn topology.
        leaving = sorted(leaf.identifier for leaf in salad.alive_leaves())[::4]
        for identifier in leaving:
            salad.leaves[identifier].depart_cleanly()
        network.run()
        second_rng = random.Random(17)
        second = {}
        for leaf in salad.alive_leaves():
            content = second_rng.randrange(CONTENT_POOL)
            fingerprint = Fingerprint(
                size=1024 + content, content_digest=content.to_bytes(20, "big")
            )
            second[leaf.identifier] = [
                SaladRecord(fingerprint=fingerprint, location=leaf.identifier)
            ]
        salad.insert_records(second)

    trace = [
        (m.time, m.sender, m.recipient, m.kind, m.payload) for m in tracer.messages
    ]
    counters = sorted(
        (identifier, t.sent, t.received, t.dropped_to)
        for identifier, t in network.traffic.items()
    )
    return trace, counters


class TestRoutingGoldenTrace:
    def test_indexed_routing_matches_reference_trace(self):
        reference = _run_workload(EventScheduler, True, reference_routing=True)
        indexed = _run_workload(EventScheduler, True, reference_routing=False)
        assert indexed[0] == reference[0]  # ordered message-for-message
        assert indexed[1] == reference[1]  # per-machine traffic counters

    def test_indexed_routing_matches_reference_under_churn(self):
        reference = _run_workload(
            EventScheduler, True, reference_routing=True, churn=True
        )
        indexed = _run_workload(
            EventScheduler, True, reference_routing=False, churn=True
        )
        assert indexed[0] == reference[0]
        assert indexed[1] == reference[1]


class TestEngineGoldenTrace:
    def test_calendar_batched_matches_heap_unbatched(self):
        # The seed configuration: heap scheduler, one event per message.
        seed_style = _run_workload(
            ReferenceEventScheduler, False, reference_routing=False
        )
        optimized = _run_workload(EventScheduler, True, reference_routing=False)
        assert optimized[0] == seed_style[0]
        assert optimized[1] == seed_style[1]

    @pytest.mark.parametrize("sched_cls", [EventScheduler, ReferenceEventScheduler])
    @pytest.mark.parametrize("batch", [True, False])
    def test_all_engine_combinations_agree(self, sched_cls, batch):
        baseline = _run_workload(EventScheduler, True, reference_routing=False)
        variant = _run_workload(sched_cls, batch, reference_routing=False)
        assert variant[0] == baseline[0]
        assert variant[1] == baseline[1]


class TestFullCrossProduct:
    def test_everything_reference_matches_everything_optimized(self):
        all_reference = _run_workload(
            ReferenceEventScheduler, False, reference_routing=True, churn=True
        )
        all_optimized = _run_workload(
            EventScheduler, True, reference_routing=False, churn=True
        )
        assert all_optimized[0] == all_reference[0]
        assert all_optimized[1] == all_reference[1]
