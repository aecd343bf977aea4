"""Two-phase local search over the six neighborhoods.

Each round shuffles the pairs and, for every pair, applies the best
improving move among relocating that pair, the 2-opt scans anchored at
its two positions, and the or-opt scans anchored there. When large
neighborhoods are enabled the round then applies the single best
improving move among the nested-2-opt program, the restricted 4-opt and
the Balas-Simonetti graph, and the whole cycle repeats until one full
round leaves the tour untouched.

Whether a descent gets the large phase is decided once per descent,
with probability ``p_large`` unless the caller forces it either way.

A descent skips scans that cannot change anything. It counts the moves
it has applied and stamps each pair, and the large phase, with that
count whenever its step finds no improving move. While the count still
equals the stamp, the tour is the one that step last saw, and
``pair_step`` and ``large_step`` depend only on the tour, so the step
would find no improving move again; it is skipped. The shuffle still
runs every round, so tours, costs and the random stream are exactly
those of a descent that rescans everything.
"""

from __future__ import annotations

import random
import time

from .instance import Instance
from .neighborhoods import (
    SearchParams,
    bs_best,
    four_opt_best,
    or_opt_scan,
    relocate_pair_best,
    two_k_opt_best,
    two_opt_scan,
)
from .tour import Tour, apply_move


def pair_step(inst: Instance, tour: Tour, x: int, k_or: int):
    """Best small-neighborhood move for one pair; ties keep the earliest scan."""
    best = relocate_pair_best(inst, tour, x)
    for anchor in (x, x + inst.n_pairs):
        i = tour.pos[anchor]
        m = two_opt_scan(inst, tour, i)
        if m.feasible and (not best.feasible or m.delta < best.delta):
            best = m
        m = or_opt_scan(inst, tour, i, k_or)
        if m.feasible and (not best.feasible or m.delta < best.delta):
            best = m
    return best


def phase_one_sweep(
    inst: Instance,
    tour: Tour,
    order,
    k_or: int,
    *,
    apply_moves: bool = True,
    stamps: list | None = None,
) -> bool:
    """One pass over ``order``; with apply_moves False it only scans,
    which is what the scaling benchmark times.

    ``stamps``, used by ``local_search``, holds the count of applied
    moves at index 0 and, at index x, the count at which pair x last
    found no improving move. A pair whose stamp equals the count is
    skipped, and each applied move advances the count.
    """
    eps = inst.eps
    improved = False
    for x in order:
        if stamps is not None and stamps[x] == stamps[0]:
            continue
        best = pair_step(inst, tour, x, k_or)
        if best.improves(eps):
            improved = True
            if apply_moves:
                apply_move(inst, tour, best)
                if stamps is not None:
                    stamps[0] += 1
        elif stamps is not None:
            stamps[x] = stamps[0]
    return improved


def large_step(inst: Instance, tour: Tour, k_bs: int) -> bool:
    """Applies the best improving large-neighborhood move, if any."""
    eps = inst.eps
    best = two_k_opt_best(inst, tour)
    m = four_opt_best(inst, tour)
    if m.feasible and (not best.feasible or m.delta < best.delta):
        best = m
    m = bs_best(inst, tour, k_bs)
    if m.feasible and (not best.feasible or m.delta < best.delta):
        best = m
    if best.improves(eps):
        apply_move(inst, tour, best)
        return True
    return False


def local_search(
    inst: Instance,
    tour: Tour,
    params: SearchParams,
    rng: random.Random,
    use_large: bool | None = None,
    *,
    deadline: float | None = None,
) -> Tour:
    """Runs the tour to a local optimum in place and returns it.

    With a ``deadline`` (a ``time.perf_counter()`` value) the descent
    stops before any round that would start after it, so the tour may
    be short of a local optimum; it is still feasible and its cost is
    exact.
    """
    if use_large is None:
        use_large = rng.random() < params.p_large
    n = inst.n_pairs
    pairs = list(range(1, n + 1))
    stamps = [0] + [-1] * n
    large_stamp = -1
    improved = True
    while improved:
        if deadline is not None and time.perf_counter() >= deadline:
            break
        rng.shuffle(pairs)
        improved = phase_one_sweep(inst, tour, pairs, params.k_or, stamps=stamps)
        if use_large and large_stamp != stamps[0]:
            if large_step(inst, tour, params.k_bs):
                stamps[0] += 1
                improved = True
            else:
                large_stamp = stamps[0]
    return tour
