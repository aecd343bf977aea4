"""Exact solver: a forward dynamic program over pair states.

After k placed visits, a state is (set of placed visits, last visit)
and keeps the cheapest cost of reaching it and the visit before its
last one. A state extends by an unplaced pickup, or by a delivery whose
pickup is already placed, so precedence violations are never generated.
Each pair is unplaced, picked up or delivered, so there are at most
3^n sets, and the run time follows the size alone (Psaraftis 1980,
Transportation Science 14(2)). Guarded to 10 pairs, which take a few
seconds; each further pair triples the states.
"""

from __future__ import annotations

import math

from .instance import Instance
from .tour import Tour

MAX_PAIRS = 10


def brute_force_optimal(inst: Instance, *, seed: Tour | None = None) -> Tour:
    """Optimal tour by dynamic programming over (placed visits, last visit).

    Tie rule: on equal cost a state keeps the smaller previous visit,
    and among the final states the smaller last visit wins. The tour
    returned is therefore the optimal one whose customer order, read
    backward from the last customer, is lexicographically smallest.

    ``seed`` caps the search at a known tour's cost: a partial or
    complete tour costing more is dropped, and ValueError is raised when
    no tour is left. Every prefix of an optimal tour costs no more than
    the seed, so the tour returned is the same without it.
    """
    n = inst.n_pairs
    if n > MAX_PAIRS:
        raise ValueError(f"the exact solver is limited to {MAX_PAIRS} pairs, got {n}")
    w = inst.work_cost()
    nv = inst.n_visits
    cap = math.inf if seed is None else seed.cost
    # (visit, its bit, the bit that must already be placed, costs into it);
    # bit 0 is the depot, placed from the start.
    steps = [
        (x, 1 << x, 1 << (x - n) if x > n else 1, [row[x] for row in w])
        for x in range(1, nv)
    ]

    # A layer maps a placed set to (last visits ascending, costs, previous
    # visits). Sources run in descending set order: the source of
    # (placed, x) is placed minus x, which is larger for a smaller x, so
    # each target's last visits arrive ascending. ``min`` plus ``index``
    # then picks the smaller visit on equal cost.
    layer = {1: ([0], [0], [None])}
    layers = []
    for _ in range(nv - 1):
        nxt = {}
        for placed in sorted(layer, reverse=True):
            lasts, costs, _ = layer[placed]
            for x, bit, need, col in steps:
                if placed & bit or not placed & need:
                    continue
                totals = [c + col[u] for u, c in zip(lasts, costs)]
                best = min(totals)
                if best > cap:
                    continue
                entry = nxt.get(placed | bit)
                if entry is None:
                    entry = nxt[placed | bit] = ([], [], [])
                entry[0].append(x)
                entry[1].append(best)
                entry[2].append(lasts[totals.index(best)])
        layers.append(nxt)
        layer = nxt

    placed = (1 << nv) - 1
    lasts, costs, _ = layer.get(placed, ((), (), ()))
    totals = [c + w[v][inst.end] for v, c in zip(lasts, costs)]
    if not totals or min(totals) > cap:
        raise ValueError("no tour within the seed's cost; seed is not a tour of inst")
    v = lasts[totals.index(min(totals))]
    seq = [inst.end]
    for layer in reversed(layers):
        lasts, _, prevs = layer[placed]
        seq.append(v)
        placed ^= 1 << v
        v = prevs[lasts.index(v)]
    seq.append(0)
    return Tour(inst, seq[::-1])
