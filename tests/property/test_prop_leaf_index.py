"""Property tests: the leaf's cellmate/vector index under random churn.

The index is a performance structure over the leaf table; these invariants
keep it truthful:

- every table entry is in exactly one bucket (cellmates xor one vector);
- every bucket member is in the table;
- bucket placement matches the alignment predicates at the current width.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.salad.alignment import mismatching_dimensions
from repro.salad.ids import axis_masks, spread_coordinate
from repro.salad.leaf import SaladLeaf
from repro.sim.events import EventScheduler
from repro.sim.network import Network

operations = st.lists(
    st.tuples(
        st.sampled_from(["add", "remove"]),
        st.integers(min_value=1, max_value=(1 << 24)),
    ),
    max_size=60,
)


def check_index(leaf: SaladLeaf) -> None:
    table = set(leaf.leaf_table)
    indexed = set(leaf._cellmates)
    for by_key in leaf._vectors.values():
        for members in by_key.values():
            indexed |= members
    assert indexed == table

    # Width-derived routing state must track the current width.
    assert leaf._cell_mask == (1 << leaf.width) - 1
    assert leaf._axis_masks == axis_masks(leaf.width, leaf.dimensions)

    # The width-increase lookahead counter must equal the brute-force count
    # of entries that stay vector-aligned at W+1 (the Fig. 6 growth check
    # reads it instead of rescanning the table).
    assert leaf._next_cell_mask == (1 << (leaf.width + 1)) - 1
    assert leaf._next_axis_masks == axis_masks(leaf.width + 1, leaf.dimensions)
    expected_survivors = sum(
        1
        for other in table
        if len(
            mismatching_dimensions(
                leaf.identifier, other, leaf.width + 1, leaf.dimensions
            )
        )
        <= 1
    )
    assert leaf._next_width_survivors == expected_survivors

    # The other half of the partition: the dropped bucket must equal a fresh
    # rescan's non-survivor set exactly (not just in count), because a
    # committed width increase deletes precisely these entries without
    # scanning (the amortized path of _recalculate_width_inner).
    assert leaf._next_width_dropped == {
        other for other in table if not leaf._survives_next_width(other)
    }
    assert len(leaf._next_width_dropped) + leaf._next_width_survivors == len(table)

    for other in table:
        delta = mismatching_dimensions(
            leaf.identifier, other, leaf.width, leaf.dimensions
        )
        assert len(delta) <= 1
        if len(delta) == 0:
            assert other in leaf._cellmates
        else:
            axis = delta[0]
            # Buckets are keyed by masked axis bits (the bijective image of
            # the axis coordinate), not the extracted coordinate value.
            key = other & leaf._axis_masks[axis]
            assert key == spread_coordinate(
                leaf.coord(other, axis), leaf.dimensions, axis
            )
            assert other in leaf._vectors[axis][key]
            assert other not in leaf._cellmates


class TestIndexConsistency:
    @settings(max_examples=60, deadline=None)
    @given(operations)
    def test_index_matches_table_under_churn(self, ops):
        network = Network(EventScheduler())
        leaf = SaladLeaf(0xABCDEF, network, target_redundancy=2.0, dimensions=2)
        for op, identifier in ops:
            if op == "add":
                leaf.add_leaf(identifier)
            else:
                leaf.remove_leaf(identifier)
            check_index(leaf)

    @settings(max_examples=30, deadline=None)
    @given(operations, st.integers(min_value=0, max_value=10))
    def test_index_survives_forced_width_changes(self, ops, width):
        network = Network(EventScheduler())
        leaf = SaladLeaf(0x123456, network, target_redundancy=2.0, dimensions=2)
        for op, identifier in ops:
            if op == "add":
                leaf.add_leaf(identifier, recalculate=False)
            else:
                leaf.remove_leaf(identifier, recalculate=False)
        # Force an arbitrary width; entries no longer aligned must be culled
        # by the caller (here: emulate the recalc drop) and the index rebuilt.
        leaf.width = width
        for other in list(leaf.leaf_table):
            if (
                len(mismatching_dimensions(leaf.identifier, other, width, 2))
                > 1
            ):
                del leaf.leaf_table[other]
        leaf._rebuild_index()
        check_index(leaf)

    @settings(max_examples=40, deadline=None)
    @given(operations)
    def test_estimate_is_table_plus_one_over_ratio(self, ops):
        from repro.salad.width import known_leaf_ratio

        network = Network(EventScheduler())
        leaf = SaladLeaf(0x999, network, target_redundancy=2.0, dimensions=2)
        for op, identifier in ops:
            if op == "add":
                leaf.add_leaf(identifier)
            else:
                leaf.remove_leaf(identifier)
        expected = (len(leaf.leaf_table) + 1) / known_leaf_ratio(leaf.width, 2)
        assert abs(leaf.estimated_system_size - expected) < 1e-9


def reference_index(leaf: SaladLeaf):
    """The index as one _index_add per table entry would build it."""
    leaf._cellmates = set()
    leaf._vectors = {d: {} for d in range(leaf.dimensions)}
    leaf._next_width_dropped = set()
    leaf._next_width_survivors = 0
    for identifier in leaf.leaf_table:
        leaf._index_add(identifier)
    return snapshot(leaf)


def snapshot(leaf: SaladLeaf):
    """Index state with iteration orders: routing sends follow set order."""
    return (
        list(leaf._cellmates),
        {d: [(k, list(v)) for k, v in by_key.items()] for d, by_key in leaf._vectors.items()},
        list(leaf._next_width_dropped),
        leaf._next_width_survivors,
    )


class TestOnePassRebuild:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(min_value=1, max_value=(1 << 24)), max_size=80),
        st.integers(min_value=0, max_value=10),
        st.integers(min_value=1, max_value=3),
    )
    def test_rebuild_matches_per_entry_adds(self, identifiers, width, dimensions):
        leaf = SaladLeaf(0x5A5A5A, Network(EventScheduler()), dimensions=dimensions)
        for identifier in identifiers:
            leaf.leaf_table.setdefault(identifier, 0.0)
        leaf.width = width
        leaf._rebuild_index()
        rebuilt = snapshot(leaf)
        # Entries not vector-aligned at this width stay out of the index,
        # exactly as _index_add refuses them.
        assert rebuilt == reference_index(leaf)

    @settings(max_examples=40, deadline=None)
    @given(operations, st.integers(min_value=0, max_value=10))
    def test_remove_finds_the_bucket_by_masks(self, ops, width):
        # Removal locates the entry's one bucket by mask arithmetic; every
        # other bucket must be left untouched.
        leaf = SaladLeaf(0x123456, Network(EventScheduler()), dimensions=2)
        leaf.width = width
        leaf._rebuild_index()
        for op, identifier in ops:
            if op == "add" or not leaf.leaf_table:
                leaf.add_leaf(identifier, recalculate=False)
            else:
                table = list(leaf.leaf_table)
                identifier = table[identifier % len(table)]
                before = snapshot(leaf)
                leaf.remove_leaf(identifier, recalculate=False)
                after = snapshot(leaf)
                assert identifier not in after[0]
                for d in range(2):
                    for (key, old), (_, new) in zip(before[1][d], after[1][d]):
                        assert new == [i for i in old if i != identifier]
            check_index(leaf)
