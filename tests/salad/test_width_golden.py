"""Golden identity of amortized width maintenance vs. the scan oracle.

The flagship insert path replaces the full leaf-table rescan at width-commit
time with an incrementally maintained two-bucket partition (survivor count +
dropped set, updated on every index add/remove).  The claim is *trace
identity*, not statistical equivalence: with ``reference_width=True`` a leaf
re-derives the dropped set by scanning (the seed behavior, counted by
``survivor_scans``); the default amortized path must produce bit-identical
stored records, duplicate matches, per-machine message totals, and telemetry
-- the only permitted difference is the ``salad.routing.survivor_scans``
counter itself (the whole point: it pins to zero).

``deferred_width_recalc`` is a different knob: it is NOT trace-identical to
the eager default (a joining newbie's width stays 0 through a welcome wave),
so its trace is pinned on its own: per-kind message totals, stored records,
and the match set of a fixed-seed run must stay exactly as recorded.
"""

import hashlib
import random

import pytest

from repro.core.fingerprint import Fingerprint
from repro.obs.registry import MetricsRegistry
from repro.salad.records import SaladRecord
from repro.salad.salad import Salad, SaladConfig

LEAVES = 24
RECORDS_PER_LEAF = 10
CONTENT_POOL = 60

#: The per-process ``sim.`` namespace plus the one counter that
#: legitimately differs between the amortized path and the reference oracle.
EXCLUDED_PREFIXES = ("sim.",)
SCAN_COUNTER = "salad.routing.survivor_scans"


def _config(**overrides):
    base = dict(dimensions=2, seed=11, detailed_metrics=True)
    base.update(overrides)
    return SaladConfig(**base)


def _records_for(identifiers, rng, per_leaf=RECORDS_PER_LEAF):
    by_leaf = {}
    for identifier in identifiers:
        records = []
        for _ in range(per_leaf):
            content = rng.randrange(CONTENT_POOL)
            fingerprint = Fingerprint(
                size=1024 + content, content_digest=content.to_bytes(20, "big")
            )
            records.append(SaladRecord(fingerprint=fingerprint, location=identifier))
        by_leaf[identifier] = records
    return by_leaf


def _drive(sim):
    """Growth, insert, clean departures, and a second insert wave.

    Departures shrink leaf tables, so the run commits width changes in both
    directions -- exactly the events whose dropped-set derivation differs
    between the amortized partition and the reference rescan.
    """
    try:
        sim.build(LEAVES)
        sim.insert_records(_records_for(sim.alive_identifiers(), random.Random(5)))
        for identifier in sorted(sim.alive_identifiers())[::4]:
            sim.depart_leaf(identifier, settle=False)
        sim.run()
        sim.insert_records(
            _records_for(sim.alive_identifiers(), random.Random(17), per_leaf=1)
        )
        registry = MetricsRegistry()
        sim.collect_metrics(registry)
        counters = registry.counter_totals()
        return {
            "stored_records": sim.stored_records(),
            "matches": sim.collected_matches(),
            "message_totals": sim.message_totals(),
            "leaf_tables": sim.leaf_table_sizes(),
            "widths": sim.width_distribution(),
            "counters": {
                name: value
                for name, value in counters.items()
                if not name.startswith(EXCLUDED_PREFIXES) and name != SCAN_COUNTER
            },
            "survivor_scans": counters.get(SCAN_COUNTER, 0),
            "width_changes": counters.get("salad.width.changes", 0),
        }
    finally:
        sim.shutdown()


@pytest.fixture(scope="module")
def amortized_single():
    return _drive(Salad(_config()))


@pytest.fixture(scope="module")
def reference_single():
    return _drive(Salad(_config(reference_width=True)))


def _assert_trace_identical(left, right):
    for key in (
        "stored_records",
        "matches",
        "message_totals",
        "leaf_tables",
        "widths",
        "counters",
    ):
        assert left[key] == right[key], f"width paths diverge on {key}"


class TestAmortizedWidthGolden:
    def test_amortized_matches_reference_single_process(
        self, amortized_single, reference_single
    ):
        _assert_trace_identical(amortized_single, reference_single)

    def test_amortized_path_never_scans(self, amortized_single, reference_single):
        # The workload commits width changes; the oracle scans once per
        # commit, the amortized path never does.
        assert amortized_single["width_changes"] > 0
        assert amortized_single["survivor_scans"] == 0
        assert reference_single["survivor_scans"] > 0
        assert (
            reference_single["survivor_scans"]
            <= reference_single["width_changes"]
        )


def _digest(rows):
    return hashlib.sha256(repr(sorted(rows)).encode()).hexdigest()[:16]


def _drive_deferred_flagship_shape():
    """The benchmark's flagship shape in miniature: staged growth, then waves.

    Deferred width recalc, D=2, growth 16 > 32 > 64 leaves, then two insert
    waves of four records per leaf drawn from 128 contents.
    """
    salad = Salad(SaladConfig(dimensions=2, seed=2026, deferred_width_recalc=True))
    try:
        for stage in (16, 32, 64):
            salad.build(stage)
        identifiers = sorted(salad.alive_identifiers())
        rng = random.Random(2026)
        for _wave in range(2):
            batch = {}
            for identifier in identifiers:
                batch[identifier] = []
                for _ in range(4):
                    content = rng.randrange(128)
                    fingerprint = Fingerprint(
                        size=1024 + content, content_digest=content.to_bytes(20, "big")
                    )
                    batch[identifier].append(
                        SaladRecord(fingerprint=fingerprint, location=identifier)
                    )
            salad.insert_records(batch)
        sent, delivered = {}, {}
        for traffic in salad.network.traffic.values():
            for kind, n in traffic.by_kind_sent.items():
                sent[kind] = sent.get(kind, 0) + n
            for kind, n in traffic.by_kind_received.items():
                delivered[kind] = delivered.get(kind, 0) + n
        # Content size identifies the content (size = 1024 + content id).
        stored = [
            (leaf, fingerprint.size, location)
            for leaf, rows in salad.stored_records().items()
            for fingerprint, location in rows
        ]
        matches = [
            (machine, match.fingerprint.size, match.other_machine)
            for machine, match in salad.collected_matches()
        ]
        registry = salad.collect_metrics(MetricsRegistry())
        return {
            "sent": sent,
            "delivered": delivered,
            "stored": (len(stored), _digest(stored)),
            "matches": (len(matches), _digest(matches)),
            "survivor_scans": registry.counter_value("salad.routing.survivor_scans"),
        }
    finally:
        salad.shutdown()


class TestDeferredRecalcGolden:
    """Deferral changes the trace (documented, opt-in), so its trace is
    pinned to values recorded at a fixed seed rather than compared against
    the eager default."""

    def test_deferred_trace_is_pinned(self):
        run = _drive_deferred_flagship_shape()
        kinds = {
            "join": 3853,
            "match": 4204,
            "record": 4064,
            "record_batch": 546,
            "welcome": 913,
            "welcome_ack": 913,
        }
        assert run["sent"] == kinds
        assert run["delivered"] == kinds
        assert run["stored"] == (1281, "e30b07e7b08e8617")
        assert run["matches"] == (4204, "cf85b6e458568152")
        assert run["survivor_scans"] == 0

    def test_deferred_coalesces_recalcs(self):
        eager = _drive(Salad(_config()))
        deferred = _drive(Salad(_config(deferred_width_recalc=True)))
        # Coalescing is the optimization: strictly fewer recalc executions
        # over a join-storm workload, and an equally settled final cube
        # (every leaf converges to the same width distribution).
        assert (
            deferred["counters"]["salad.width.recalcs"]
            < eager["counters"]["salad.width.recalcs"]
        )
        assert deferred["widths"] == eager["widths"]
