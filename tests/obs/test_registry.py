"""The metrics registry: instruments, labels, merges, and the session switch.

The load-bearing property is merge exactness: the experiment runner folds
one registry dump per worker process (``merge_dict``) and the result must be
bit-identical to observing everything in one registry, in any merge order.
Hypothesis drives that over random observation partitions here.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fingerprint import Fingerprint
from repro.obs.registry import (
    Histogram,
    MetricsRegistry,
    bucket_of,
    disable,
    enable,
    enabled,
    get_registry,
)
from repro.salad.records import SaladRecord
from repro.salad.salad import Salad, SaladConfig


class TestInstruments:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        registry.counter("x").inc()
        registry.counter("x").inc(4)
        assert registry.counter_value("x") == 5

    def test_missing_counter_reads_zero(self):
        assert MetricsRegistry().counter_value("never") == 0

    def test_labels_distinguish_instruments(self):
        registry = MetricsRegistry()
        registry.counter("ops", kind="a").inc(1)
        registry.counter("ops", kind="b").inc(2)
        assert registry.counter_value("ops", kind="a") == 1
        assert registry.counter_value("ops", kind="b") == 2
        assert registry.counter_value("ops") == 0
        assert registry.counter_totals() == {"ops{kind=a}": 1, "ops{kind=b}": 2}

    def test_label_order_is_irrelevant(self):
        registry = MetricsRegistry()
        registry.counter("ops", a="1", b="2").inc()
        assert registry.counter_value("ops", b="2", a="1") == 1

    def test_gauge_last_value_and_unset(self):
        registry = MetricsRegistry()
        assert registry.gauge_value("g") is None
        registry.gauge("g").set(3.0)
        registry.gauge("g").set(1.5)
        assert registry.gauge_value("g") == 1.5

    def test_histogram_stats(self):
        h = Histogram()
        h.observe_many([1, 2, 3, 100])
        assert h.count == 4
        assert h.total == 106
        assert h.min == 1
        assert h.max == 100
        assert h.mean == pytest.approx(26.5)

    def test_bucket_of_is_log_spaced(self):
        assert bucket_of(0) == 0
        assert bucket_of(-1) == 0
        # bucket e covers [2**(e-1), 2**e)
        assert bucket_of(1) == 1
        assert bucket_of(1.5) == 1
        assert bucket_of(2) == 2
        assert bucket_of(3.99) == 2
        assert bucket_of(4) == 3


class TestMerge:
    def test_counters_sum_gauges_max(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("c").inc(3)
        b.counter("c").inc(4)
        a.gauge("g").set(1.0)
        b.gauge("g").set(2.0)
        a.merge(b)
        assert a.counter_value("c") == 7
        assert a.gauge_value("g") == 2.0

    def test_unset_gauge_does_not_clobber(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.gauge("g").set(5.0)
        b.gauge("g")  # created but never set
        a.merge(b)
        assert a.gauge_value("g") == 5.0

    def test_round_trip_dict(self):
        a = MetricsRegistry()
        a.counter("c", shard="0").inc(9)
        a.gauge("g").set(2.5)
        a.histogram("h").observe_many([1, 2, 1024])
        assert MetricsRegistry.from_dict(a.to_dict()).to_dict() == a.to_dict()

    @given(
        observations=st.lists(st.integers(min_value=0, max_value=10**6), max_size=60),
        cut=st.integers(min_value=0, max_value=60),
    )
    def test_any_partition_merges_to_the_whole(self, observations, cut):
        """Split one observation stream across two registries; the merge
        equals observing everything in one registry (the merge contract)."""
        cut = min(cut, len(observations))
        whole, left, right = MetricsRegistry(), MetricsRegistry(), MetricsRegistry()
        for value in observations:
            whole.counter("n").inc(value)
            whole.histogram("h").observe(value)
        for value in observations[:cut]:
            left.counter("n").inc(value)
            left.histogram("h").observe(value)
        for value in observations[cut:]:
            right.counter("n").inc(value)
            right.histogram("h").observe(value)
        merged_lr = MetricsRegistry().merge(left).merge(right)
        merged_rl = MetricsRegistry().merge(right).merge(left)
        assert merged_lr.to_dict() == whole.to_dict()
        assert merged_rl.to_dict() == whole.to_dict()

    def test_merge_dict_equals_merge(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        b.counter("c").inc(2)
        b.histogram("h").observe(7)
        via_dict = MetricsRegistry().merge(a).merge_dict(b.to_dict())
        direct = MetricsRegistry().merge(a).merge(b)
        assert via_dict.to_dict() == direct.to_dict()


class TestRegistryMergeProperties:
    """Real SALAD harvests -- one per run, as the runner's worker processes
    ship them -- merge to the same registry in any order and grouping."""

    @pytest.fixture(scope="class")
    def dumps(self):
        out = []
        for seed in range(4):
            salad = Salad(SaladConfig(dimensions=2, seed=seed, detailed_metrics=True))
            try:
                salad.build(12)
                salad.insert_records(
                    {
                        leaf: [
                            SaladRecord(
                                fingerprint=Fingerprint(
                                    size=1024 + n, content_digest=n.to_bytes(20, "big")
                                ),
                                location=leaf,
                            )
                            for n in range(index % 5, 40, 5)
                        ]
                        for index, leaf in enumerate(salad.alive_identifiers())
                    }
                )
                out.append(salad.collect_metrics(MetricsRegistry()).to_dict())
            finally:
                salad.shutdown()
        return out

    @staticmethod
    def _fold(dumps, order):
        registry = MetricsRegistry()
        for index in order:
            registry.merge_dict(dumps[index])
        return registry.to_dict()

    @settings(deadline=None, max_examples=20)
    @given(order=st.permutations(list(range(4))))
    def test_merge_is_commutative(self, order, dumps):
        assert self._fold(dumps, order) == self._fold(dumps, range(4))

    def test_merge_is_associative(self, dumps):
        # ((a+b) + (c+d)) via intermediate registries, vs the flat fold.
        halves = [self._fold(dumps, (0, 1)), self._fold(dumps, (2, 3))]
        assert self._fold(halves, (0, 1)) == self._fold(dumps, range(4))
        assert self._fold(dumps, range(4))["histograms"]


class TestSerializationStability:
    def test_dump_is_sorted_and_omits_empty(self):
        registry = MetricsRegistry()
        registry.counter("z").inc()
        registry.counter("a").inc()
        registry.gauge("unset")  # never set -> omitted
        registry.histogram("empty")  # never observed -> omitted
        dump = registry.to_dict()
        assert [e["name"] for e in dump["counters"]] == ["a", "z"]
        assert dump["gauges"] == []
        assert dump["histograms"] == []


class TestSessionSwitch:
    def teardown_method(self):
        disable()

    def test_disabled_by_default_and_null_is_free(self):
        disable()
        assert not enabled()
        null = get_registry()
        null.counter("x").inc(100)
        null.gauge("g").set(1.0)
        null.histogram("h").observe(5)
        assert null.counter_value("x") == 0
        assert len(null) == 0

    def test_enable_returns_live_registry(self):
        registry = enable()
        assert enabled()
        get_registry().counter("x").inc(2)
        assert registry.counter_value("x") == 2
        disable()
        assert get_registry().counter_value("x") == 0

    def test_enable_accepts_existing_registry(self):
        mine = MetricsRegistry()
        assert enable(mine) is mine
        assert get_registry() is mine
