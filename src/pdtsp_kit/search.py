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

A descent skips scans that cannot change anything. It counts the moves
it has applied and stamps each pair, and the large phase, with that
count whenever its step finds no improving move. While the count still
equals the stamp, the tour is the one that step last saw, and
``pair_step`` and ``large_step`` depend only on the tour, so the step
would find no improving move again; it is skipped. The shuffle still
runs every round, so tours, costs and the random stream are exactly
those of a descent that rescans everything.

A caller that runs many descents, as HGS does, passes the same
``optima`` map to each. It maps the sequence (``tuple(seq)``) at which
an earlier descent finished to whether that descent ran the large
phase. No pair step improves such a tour, and neither does the large
step when the flag is set, since the steps depend only on the tour. So
whenever the descent starts at, or moves to, a tour in the map, it
stamps every pair, and the large phase if flagged, with the current
count, and the same argument makes it exact. A descent records where
it ended only if it finished before its deadline: a cut one may have
stopped short of a local optimum.

Such a caller may also pass one ``memo``, an ``Lru`` map from a
sequence to the pair steps already run there, ``{pair: MoveDelta}``.
Each pair step is looked up in the current tour's record before it
runs, and a miss is stored. This is exact because a pair step reads
only the sequence; only the Balas-Simonetti kernel of the large step
reads the cached cost, and the large step is not memoized. A memo
serves one instance and one ``k_or``.
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
    move; ties keep the earliest scan."""
    best = relocate_pair_best(inst, tour, x)
    for anchor in (x, x + inst.n_pairs):
        i = tour.pos[anchor]
        m = two_opt_scan(inst, tour, i)
        if m.delta < best.delta:
            best = m
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


def recall(optima: dict, tour: Tour, stamps: list) -> None:
    """Stamps every pair, and the large phase (the last stamp) if its
    flag is set, when ``tour`` is in ``optima``."""
    large = optima.get(tuple(tour.seq))
    if large is not None:
        stamps[1:-1] = [stamps[0]] * (len(stamps) - 2)
        if large:
            stamps[-1] = stamps[0]


def phase_one_sweep(
    inst: Instance,
    tour: Tour,
    order,
    k_or: int,
    *,
    stamps: list,
    deadline: float = math.inf,
    optima: dict | None = None,
    memo: Lru | None = None,
) -> bool:
    """One pass over ``order`` that applies each pair's best improving move.

    ``stamps`` holds the count of applied moves at index 0 and, at index
    x, the count at which pair x last found no improving move. A pair
    whose stamp equals the count is skipped, and each applied move
    advances the count, so fresh stamps ``[0] + [-1] * n`` scan every
    pair. The pass stops before any pair step that would start after
    ``deadline``. With ``optima``, ``stamps`` ends with the large
    phase's stamp, and each applied move is followed by ``recall``.

    With ``memo`` (see the module docstring), the pass fetches the
    current tour's record, under ``tuple(tour.seq)``, at its first pair
    step there, takes a pair's result from it when held and stores each
    result it computes. An applied move changes the tour, so the pass
    drops the record and fetches the next tour's at its next pair step.
    """
    improved = False
    record = None
    for x in order:
        if stamps[x] == stamps[0]:
            continue
        if time.perf_counter() >= deadline:
            break
        if memo is None:
            best = pair_step(inst, tour, x, k_or)
        else:
            if record is None:
                key = tuple(tour.seq)
                record = memo.get(key)
                if record is None:
                    record = {}
                    memo.put(key, record)
            best = record.get(x)
            if best is None:
                best = record[x] = pair_step(inst, tour, x, k_or)
        if best.indices:
            improved = True
            apply_move(inst, tour, best)
            record = None
            stamps[0] += 1
            if optima is not None:
                recall(optima, tour, stamps)
        else:
            stamps[x] = stamps[0]
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
    optima: dict | None = None,
    memo: Lru | None = None,
) -> Tour:
    """Runs the tour to a local optimum in place and returns it.

    The descent starts no round, pair step or large step after
    ``deadline``, a ``time.perf_counter()`` value that by default is
    never reached. A cut tour may be short of a local optimum; it is
    still feasible and its cost is exact.

    ``optima`` (see the module docstring) lets the descent skip the
    steps an earlier descent proved empty; it returns what a plain
    descent would return, with the same random draws. If it finishes
    before the deadline, it records its final sequence there, flagged
    if it ran the large phase or the entry already was.

    ``memo`` (see the module docstring) is handed to every
    ``phase_one_sweep``, so a pair step that an earlier sweep or
    descent ran at the same sequence is read back instead of run. It
    too leaves the result and the random draws as they are.
    """
    if use_large is None:
        use_large = rng.random() < params.p_large
    n = inst.n_pairs
    pairs = list(range(1, n + 1))
    # The last stamp is the large phase's.
    stamps = [0] + [-1] * (n + 1)
    if optima is not None:
        recall(optima, tour, stamps)
    improved = True
    while improved:
        if time.perf_counter() >= deadline:
            break
        rng.shuffle(pairs)
        improved = phase_one_sweep(
            inst,
            tour,
            pairs,
            params.k_or,
            stamps=stamps,
            deadline=deadline,
            optima=optima,
            memo=memo,
        )
        if use_large and stamps[-1] != stamps[0]:
            if time.perf_counter() >= deadline:
                break
            if large_step(inst, tour, params.k_bs, deadline=deadline):
                stamps[0] += 1
                improved = True
                if optima is not None:
                    recall(optima, tour, stamps)
            else:
                stamps[-1] = stamps[0]
    # A descent cut by the deadline returns only after it.
    if optima is not None and time.perf_counter() < deadline:
        key = tuple(tour.seq)
        optima[key] = use_large or optima.get(key, False)
    return tour
