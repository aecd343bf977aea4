"""Precedence-aware 2-opt scan from a fixed left edge.

A 2-opt on (i, j) drops edges (seq[i], seq[i+1]) and (seq[j-1], seq[j])
and reverses the span in between. The reversal is infeasible exactly
when the span contains a complete pair, and once that happens for some
j it stays true for every larger j, so the scan walks j upward from the
anchor and stops at the first delivery whose pickup sits inside the
span. That truncation is what keeps the scan cheap on tours where pairs
sit close together.
"""

from __future__ import annotations

from ..instance import Instance
from ..tour import MoveDelta, Tour


def two_opt_scan(inst: Instance, tour: Tour, i: int) -> MoveDelta:
    """Best improving 2-opt whose left edge starts at position i, or the
    empty move.

    j = i+2 reverses a single visit and is skipped as the identity; the
    scan starts at j = i+3 and truncates at the first span that would
    swallow a whole pair.
    """
    seq = tour.seq
    pos = tour.pos
    n = inst.n_pairs
    w = inst.work_cost()
    top = len(seq) - 1
    best_d = -inst.eps
    best_j = 0
    wi = w[seq[i]]
    wi1 = w[seq[i + 1]]
    ci = wi[seq[i + 1]]
    for j in range(i + 3, top + 1):
        v = seq[j - 1]
        if v > n and pos[v - n] > i:
            break
        y = seq[j]
        d = wi[v] + wi1[y] - ci - w[v][y]
        if d < best_d:
            best_d, best_j = d, j
    if best_j:
        return MoveDelta("2opt", (i, best_j), best_d)
    return MoveDelta("2opt", (), 0)
