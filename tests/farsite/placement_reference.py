"""Recompute-everything reference for the placement hill climb.

Each round rescans every file's availability from scratch and takes the
first file with the minimum (``min``'s tie-break), with the same RNG draws
as :func:`repro.farsite.placement.place_replicas`.  Tests compare the
production climb against it; it is deliberately the slow, obvious version.
"""

import random

from repro.farsite.placement import _try_swap, file_availability, place_replicas


def reference_climb(problem, seed, swap_rounds):
    greedy = place_replicas(problem, rng=random.Random(0), swap_rounds=0)
    assignment = {fid: list(hosts) for fid, hosts in greedy.assignment.items()}
    availability = problem.machine_availability
    rng = random.Random(seed)
    fids = list(assignment)
    for _ in range(swap_rounds):
        if len(fids) < 2:
            break
        low = min(fids, key=lambda f: file_availability(assignment[f], availability))
        high = rng.choice(fids)
        if high == low:
            continue
        improved = _try_swap(assignment[low], assignment[high], availability)
        if improved is not None:
            assignment[low], assignment[high] = improved
    return {fid: tuple(hosts) for fid, hosts in assignment.items()}
