"""Availability-driven replica placement."""

import random

import pytest

from repro.farsite.placement import (
    Placement,
    PlacementProblem,
    file_availability,
    place_replicas,
)

from .placement_reference import reference_climb


def make_problem(machines=10, files=8, r=3, capacity=None):
    rng = random.Random(1)
    availability = {i: 0.3 + 0.6 * rng.random() for i in range(machines)}
    capacity = capacity or {i: files for i in range(machines)}
    return PlacementProblem(
        machine_availability=availability,
        machine_capacity=capacity,
        file_ids=[f"f{i}" for i in range(files)],
        replication_factor=r,
    )


class TestFileAvailability:
    def test_single_host(self):
        assert file_availability([1], {1: 0.9}) == pytest.approx(0.9)

    def test_independent_hosts(self):
        # 1 - 0.5 * 0.5 = 0.75
        assert file_availability([1, 2], {1: 0.5, 2: 0.5}) == pytest.approx(0.75)

    def test_more_replicas_never_hurt(self):
        avail = {1: 0.5, 2: 0.6, 3: 0.7}
        assert file_availability([1, 2, 3], avail) > file_availability([1, 2], avail)


class TestPlacement:
    def test_every_file_gets_r_distinct_hosts(self):
        problem = make_problem()
        placement = place_replicas(problem, rng=random.Random(2))
        for fid, hosts in placement.assignment.items():
            assert len(hosts) == 3
            assert len(set(hosts)) == 3

    def test_respects_capacity(self):
        problem = make_problem(machines=6, files=4, r=3, capacity={i: 2 for i in range(6)})
        placement = place_replicas(problem, rng=random.Random(3))
        usage = {}
        for hosts in placement.assignment.values():
            for host in hosts:
                usage[host] = usage.get(host, 0) + 1
        assert all(count <= 2 for count in usage.values())

    def test_hill_climbing_does_not_hurt_min_availability(self):
        problem = make_problem(machines=12, files=10)
        greedy_only = place_replicas(problem, rng=random.Random(4), swap_rounds=0)
        optimized = place_replicas(problem, rng=random.Random(4), swap_rounds=500)
        assert optimized.min_availability >= greedy_only.min_availability - 1e-12

    def test_availability_metrics(self):
        problem = make_problem()
        placement = place_replicas(problem, rng=random.Random(5))
        assert 0.0 < placement.min_availability <= placement.mean_availability <= 1.0

    def test_overcommitted_demand_rejected(self):
        with pytest.raises(ValueError):
            make_problem(machines=2, files=10, r=3, capacity={0: 1, 1: 1})

    def test_invalid_availability_rejected(self):
        with pytest.raises(ValueError):
            PlacementProblem(
                machine_availability={1: 0.0},
                machine_capacity={1: 5},
                file_ids=["f"],
                replication_factor=1,
            )


class TestProblemValidation:
    def test_availability_above_one_rejected(self):
        with pytest.raises(ValueError, match="availability"):
            PlacementProblem(
                machine_availability={1: 1.5},
                machine_capacity={1: 5},
                file_ids=["f"],
                replication_factor=1,
            )

    def test_nan_availability_rejected(self):
        with pytest.raises(ValueError, match="availability"):
            PlacementProblem(
                machine_availability={1: float("nan")},
                machine_capacity={1: 5},
                file_ids=["f"],
                replication_factor=1,
            )

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError, match="capacity"):
            PlacementProblem(
                machine_availability={1: 0.9},
                machine_capacity={1: -1},
                file_ids=[],
                replication_factor=1,
            )

    def test_capacity_without_availability_rejected(self):
        with pytest.raises(ValueError, match="no availability"):
            PlacementProblem(
                machine_availability={1: 0.9},
                machine_capacity={1: 2, 2: 2},
                file_ids=["f"],
                replication_factor=1,
            )

    def test_availability_without_capacity_rejected(self):
        """A machine with an availability but no capacity entry is named,
        not left to surface as a bare KeyError inside the greedy pass."""
        with pytest.raises(ValueError, match="0x4 has availability but no capacity"):
            PlacementProblem(
                machine_availability={1: 0.9, 2: 0.8, 3: 0.7, 4: 0.5},
                machine_capacity={1: 5, 2: 5, 3: 5},
                file_ids=["a", "b"],
                replication_factor=3,
            )

    def test_invalid_replication_factor_rejected(self):
        with pytest.raises(ValueError, match="replication factor"):
            PlacementProblem(
                machine_availability={1: 0.9},
                machine_capacity={1: 2},
                file_ids=["f"],
                replication_factor=0,
            )


class TestHillClimbCachePinning:
    """The heap-indexed climb must not change what the climb computes.

    The climb finds each round's minimum-availability file through a
    lazy-deletion heap instead of rescanning every file.  Same RNG stream,
    same float computations, same tie-breaking -- so the final assignment
    must be *identical*, not just equally good.  This pins that
    equivalence against a straightforward recompute-everything reference.
    """

    @pytest.mark.parametrize("seed", [2, 9, 31])
    def test_cached_climb_matches_recompute_reference(self, seed):
        problem = make_problem(machines=14, files=12, r=3)
        expected = reference_climb(problem, seed, swap_rounds=300)
        cached = place_replicas(
            problem, rng=random.Random(seed), swap_rounds=300
        )
        assert cached.assignment == expected

    def test_all_ties_broken_by_file_order(self):
        """Every machine equally available: every file ties every round."""
        problem = PlacementProblem(
            machine_availability={m: 0.6 for m in range(9)},
            machine_capacity={m: 8 for m in range(9)},
            file_ids=[f"f{i}" for i in range(20)],
            replication_factor=3,
        )
        expected = reference_climb(problem, 5, swap_rounds=200)
        placed = place_replicas(problem, rng=random.Random(5), swap_rounds=200)
        assert placed.assignment == expected

    def test_two_levels_tie_break_picks_the_swapped_file(self):
        """Two availability levels: many files tie at the minimum, swaps do
        improve, and which tied file the climb swaps decides the result."""
        problem = PlacementProblem(
            machine_availability={m: (0.4 if m % 2 else 0.9) for m in range(10)},
            machine_capacity={m: 12 for m in range(10)},
            file_ids=[f"f{i}" for i in range(30)],
            replication_factor=2,
        )
        greedy = place_replicas(problem, rng=random.Random(0), swap_rounds=0)
        expected = reference_climb(problem, 8, swap_rounds=300)
        placed = place_replicas(problem, rng=random.Random(8), swap_rounds=300)
        assert expected != greedy.assignment
        assert placed.assignment == expected

    def test_benchmark_shaped_problem(self):
        """64 machines, ~2,600 files, R=3, 2,000 rounds: the DFC bench's size."""
        rng = random.Random(11)
        machines = 64
        files = 2600
        slots = -(-files * 3 // machines) + 3
        problem = PlacementProblem(
            machine_availability={m: 0.30 + 0.65 * rng.random() for m in range(machines)},
            machine_capacity={m: slots for m in range(machines)},
            file_ids=[f"m{i % machines}-f{i}" for i in range(files)],
            replication_factor=3,
        )
        expected = reference_climb(problem, 18, swap_rounds=2000)
        placed = place_replicas(problem, rng=random.Random(18), swap_rounds=2000)
        assert placed.assignment == expected

    def test_more_rounds_than_files(self):
        problem = make_problem(machines=8, files=5, r=2)
        expected = reference_climb(problem, 3, swap_rounds=400)
        placed = place_replicas(problem, rng=random.Random(3), swap_rounds=400)
        assert placed.assignment == expected
