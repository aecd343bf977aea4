"""Two-phase local search over the six neighborhoods.

Each round shuffles the pairs and, for every pair, applies the best
improving move among relocating that pair, the 2-opt scans anchored at
its two positions, and the or-opt scans anchored there. When large
neighborhoods are enabled the round then applies the single best
improving move among the nested-2-opt program, the restricted 4-opt and
the Balas-Simonetti graph, and the whole cycle repeats until one full
round leaves the tour untouched. Every scan returns its best improving
move or the empty move, whose delta is 0, so a step keeps each strictly
cheaper result and applies the one it kept unless that is empty.

Whether a descent gets the large phase is decided once per descent,
with probability ``p_large`` unless the caller forces it either way.

A descent skips the steps it has already run at a tour, the exact form
of Bentley's don't-look bits (1992). It keeps one record per tour in a
``memo``, an ``Lru`` keyed by the sequence (``tuple(seq)``): the record
maps each pair whose step ran there to that step's result, and holds
the key 0 once the large step found nothing there. A pair step reads
only the sequence, so a held result is the one the step would return;
the sweep applies it, or skips the pair if it is empty, instead of
running the step. The key 0 skips the large step, which also reads the
cached cost in Balas-Simonetti's delta; equal sequences can carry costs
that differ by rounding, and the record treats that step, too, as a
function of the sequence. A plain descent uses a one-key memo: each
move lowers the cost, so it never revisits a tour, and the memo holds
just the current tour's record, as the bits would. A caller that runs
many descents, as HGS does, passes one larger memo to each, and a
descent that starts at, or moves to, a tour where an earlier one ran
steps reads them back. Either way the shuffle still runs every round,
so tours, costs and the random stream are exactly those of a descent
that rescans everything. A memo serves one instance, one ``k_or`` and
one ``k_bs``.
"""

from __future__ import annotations

import math
import random
import time
from collections import OrderedDict

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
from .tour import MoveDelta, Tour, apply_move


def pair_step(inst: Instance, tour: Tour, x: int, k_or: int):
    """Best improving small-neighborhood move for one pair, or the empty
    move; ties keep the earliest scan. Or-opt's segments start at two
    visits, so with ``k_or < 2`` it has none and is not called."""
    best = relocate_pair_best(inst, tour, x)
    for anchor in (x, x + inst.n_pairs):
        i = tour.pos[anchor]
        m = two_opt_scan(inst, tour, i)
        if m.delta < best.delta:
            best = m
        if k_or > 1:
            m = or_opt_scan(inst, tour, i, k_or)
            if m.delta < best.delta:
                best = m
    return best


class Lru:
    """A map of at most ``cap`` keys; when a ``put`` goes past the cap,
    the least recently used key leaves. A ``get`` that finds its key,
    and every ``put``, count as a use. Values are never None."""

    __slots__ = ("cap", "data")

    def __init__(self, cap: int):
        self.cap = cap
        self.data = OrderedDict()

    def __len__(self) -> int:
        return len(self.data)

    def get(self, key):
        """The value at ``key``, or None if it is not held."""
        value = self.data.get(key)
        if value is not None:
            self.data.move_to_end(key)
        return value

    def put(self, key, value) -> None:
        self.data[key] = value
        self.data.move_to_end(key)
        if len(self.data) > self.cap:
            self.data.popitem(last=False)


def record_of(memo: Lru, tour: Tour) -> dict:
    """The record of ``tour`` in ``memo``, stored empty if it is new."""
    key = tuple(tour.seq)
    record = memo.get(key)
    if record is None:
        record = {}
        memo.put(key, record)
    return record


def phase_one_sweep(
    inst: Instance,
    tour: Tour,
    order,
    k_or: int,
    *,
    memo: Lru,
    deadline: float = math.inf,
) -> bool:
    """One pass over ``order`` that applies each pair's best improving move.

    The pass fetches the current tour's record from ``memo`` (see the
    module docstring) at its start and after each applied move. A pair
    whose result the record holds takes it: an empty one is skipped, an
    improving one is applied. Otherwise the pair step runs and its
    result is stored. This is exact, with any memo: every held result
    is one a pair step returned at that sequence, and a pair step reads
    nothing else. The clock is read only before a pair step that runs,
    and the pass stops before one that would start after ``deadline``.
    """
    improved = False
    record = record_of(memo, tour)
    for x in order:
        best = record.get(x)
        if best is None:
            if time.perf_counter() >= deadline:
                break
            best = record[x] = pair_step(inst, tour, x, k_or)
        if best.indices:
            improved = True
            apply_move(inst, tour, best)
            record = record_of(memo, tour)
    return improved


def large_step(
    inst: Instance, tour: Tour, k_bs: int, *, deadline: float = math.inf
) -> bool:
    """Applies the best improving large-neighborhood move, if any.

    The step starts from the empty move and keeps each strictly cheaper
    kernel result. A kernel that would start after ``deadline`` is
    skipped, and the best move of the kernels that ran is applied.
    """
    best = MoveDelta("2k-opt", (), 0)
    for scan, args in ((two_k_opt_best, ()), (four_opt_best, ()), (bs_best, (k_bs,))):
        if time.perf_counter() >= deadline:
            break
        m = scan(inst, tour, *args)
        if m.delta < best.delta:
            best = m
    if not best.indices:
        return False
    apply_move(inst, tour, best)
    return True


def local_search(
    inst: Instance,
    tour: Tour,
    params: SearchParams,
    rng: random.Random,
    use_large: bool | None = None,
    *,
    deadline: float = math.inf,
    memo: Lru | None = None,
) -> Tour:
    """Runs the tour to a local optimum in place and returns it.

    The descent starts no round, pair step or large step after
    ``deadline``, a ``time.perf_counter()`` value that by default is
    never reached. A cut tour may be short of a local optimum; it is
    still feasible and its cost is exact.

    ``memo`` (see the module docstring) is handed to every
    ``phase_one_sweep``; without one the descent uses ``Lru(1)``. The
    large phase is skipped at a tour whose record holds the key 0. A
    large step that applies nothing sets that key only if it returns
    before the deadline: one the deadline cut skipped kernels, so it
    proved nothing. So every key 0, like every held pair result, stands
    for a step that ran in full at that sequence, even in a descent the
    deadline cut, and a descent it does not cut returns what a plain
    descent returns, with the same random draws, whatever the memo held.
    """
    if use_large is None:
        use_large = rng.random() < params.p_large
    if memo is None:
        memo = Lru(1)
    pairs = list(range(1, inst.n_pairs + 1))
    improved = True
    while improved:
        if time.perf_counter() >= deadline:
            break
        rng.shuffle(pairs)
        improved = phase_one_sweep(
            inst, tour, pairs, params.k_or, memo=memo, deadline=deadline
        )
        if not use_large:
            continue
        record = record_of(memo, tour)
        if 0 in record:
            continue
        if time.perf_counter() >= deadline:
            break
        if large_step(inst, tour, params.k_bs, deadline=deadline):
            improved = True
        elif time.perf_counter() < deadline:
            record[0] = True
    return tour
