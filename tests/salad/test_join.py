"""The join protocol (Fig. 5) and SALAD growth (section 4.4)."""

import pytest

from repro.salad.alignment import vector_aligned
from repro.salad.salad import Salad, SaladConfig


class TestSingleton:
    def test_first_leaf_starts_alone(self):
        salad = Salad(SaladConfig(seed=1))
        leaf = salad.add_leaf()
        assert leaf.table_size == 0
        assert leaf.width == 0

    def test_second_leaf_meets_first(self):
        salad = Salad(SaladConfig(seed=2))
        first = salad.add_leaf()
        second = salad.add_leaf()
        assert first.knows(second.identifier)
        assert second.knows(first.identifier)


class TestGrowth:
    @pytest.fixture(scope="class")
    def grown(self):
        salad = Salad(SaladConfig(target_redundancy=2.5, dimensions=2, seed=3))
        salad.build(80)
        return salad

    def test_all_leaves_joined(self, grown):
        assert len(grown) == 80

    def test_tables_contain_only_vector_aligned_leaves(self, grown):
        """A leaf's table must contain only leaves vector-aligned under its
        own width -- the section 4.3 invariant."""
        for leaf in grown.alive_leaves():
            for other in leaf.leaf_table:
                assert vector_aligned(
                    leaf.identifier, other, leaf.width, leaf.dimensions
                )

    def test_knowledge_is_mostly_symmetric(self, grown):
        """Welcome/welcome-ack make pairs learn of each other; width
        disagreement may break a few pairs, not the bulk."""
        asymmetric = 0
        total = 0
        for leaf in grown.alive_leaves():
            for other_id in leaf.leaf_table:
                other = grown.leaves[other_id]
                total += 1
                if not other.knows(leaf.identifier):
                    asymmetric += 1
        assert total > 0
        assert asymmetric / total < 0.2

    def test_mean_table_size_near_eq13(self, grown):
        from repro.salad.model import expected_leaf_table_size

        sizes = grown.leaf_table_sizes()
        mean = sum(sizes) / len(sizes)
        expected = expected_leaf_table_size(80, 2.5, 2)
        assert 0.5 * expected < mean < 1.6 * expected

    def test_widths_cluster_near_eq6(self, grown):
        from repro.salad.ids import cell_id_width

        target = cell_id_width(80, 2.5)
        widths = [leaf.width for leaf in grown.alive_leaves()]
        near = sum(1 for w in widths if abs(w - target) <= 1)
        assert near / len(widths) > 0.7

    def test_system_size_estimates_are_sane(self, grown):
        estimates = [leaf.estimated_system_size for leaf in grown.alive_leaves()]
        median = sorted(estimates)[len(estimates) // 2]
        assert 40 < median < 160  # true size 80


class TestJoinTraffic:
    def test_flood_suppression_bounds_messages(self):
        """Each join must cost O(sqrt(L)) messages, not a broadcast storm."""
        salad = Salad(SaladConfig(target_redundancy=2.0, seed=5))
        salad.build(60)
        before = salad.network.messages_sent
        salad.add_leaf()
        cost = salad.network.messages_sent - before
        assert cost < 60 * 10  # far below anything storm-like

    def test_departed_leaf_forgotten(self):
        salad = Salad(SaladConfig(target_redundancy=2.0, seed=6))
        salad.build(30)
        victim = salad.alive_leaves()[3]
        victim_id = victim.identifier
        knowers = [
            leaf for leaf in salad.alive_leaves() if leaf.knows(victim_id)
        ]
        assert knowers
        victim.depart_cleanly()
        salad.network.run()
        for leaf in salad.alive_leaves():
            assert not leaf.knows(victim_id)


class TestJoinDeadEnds:
    """``salad.join.dead_ends`` against an independent recount.

    A dead end is a join this leaf processes, whose Fig. 5 branch says to
    forward (the sender is less aligned with the new leaf than this leaf,
    or more aligned and this leaf is not cell-aligned), but that reaches
    no leaf: the table holds nobody in the needed direction.  The recount
    takes alignment from the definitional Eq. 10 coordinates and counts the
    JOIN messages the leaf actually sent while handling the delivery.
    """

    def test_counter_matches_recount(self, monkeypatch):
        from repro.obs.registry import MetricsRegistry
        from repro.salad.alignment import mismatching_dimensions_reference
        from repro.salad.leaf import SaladLeaf

        recount = 0
        handle = SaladLeaf._on_join

        def recounting(leaf, message):
            nonlocal recount
            s, n = message.payload.sender, message.payload.new_leaf
            fresh = n != leaf.identifier and n not in leaf._seen_joins

            def delta(a, b):
                return len(
                    mismatching_dimensions_reference(a, b, leaf.width, leaf.dimensions)
                )

            mine = delta(leaf.identifier, n)
            senders = -1 if s == n else delta(s, n)
            should_forward = senders < mine or (senders > mine and mine > 0)
            sent = leaf.traffic.by_kind_sent.get("join", 0)
            handle(leaf, message)
            if fresh and should_forward and leaf.traffic.by_kind_sent.get("join", 0) == sent:
                recount += 1

        monkeypatch.setattr(SaladLeaf, "_on_join", recounting)
        salad = Salad(SaladConfig(dimensions=2, seed=1))
        salad.build(256)
        counted = salad.collect_metrics(MetricsRegistry()).counter_value(
            "salad.join.dead_ends"
        )
        assert recount > 0  # the seed exercises the case
        assert counted == recount
