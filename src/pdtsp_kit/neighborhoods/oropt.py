"""Or-opt: relocate a short segment, optionally reversed.

Segments start at a fixed anchor position a and grow one visit at a
time up to k_or visits. The tour must be precedence-feasible; every
caller holds a feasible tour when it scans.

Feasible slots form a contiguous range lo..hi of the sequence with the
segment removed. The segment must land after the last outside pickup
serving a delivery it contains (lo), and before the first outside
delivery served by a pickup it contains (hi). Both bounds are kept
incrementally as the segment grows: a new delivery either raises lo or
completes a pair, and a new pickup adds its delivery to a heap of
pending positions whose minimum gives hi. Reversal is allowed unless
the segment holds a complete pair, whose order the flip would break.

Slots are read straight from the tour. For a segment of length L,
slot t is the tour edge t, (seq[t], seq[t+1]), when t < a-1; the
bridge (seq[a-1], seq[a+L]) left by the removal when t == a-1; and the
tour edge t+L when t >= a. The tour's edge costs are read from
``tour.edge``, which ``apply_move`` keeps current, and the other costs
a slot needs lie in the rows of the segment's head and tail, so the
slot loops touch no other matrix row.
The reversed candidate's cost from a slot's left end u to the tail is
read as w[tail][u], equal to w[u][tail] since costs are symmetric.
Reinserting the segment unreversed at the bridge is the identity and
is skipped; reinserting it reversed there is a real candidate.

Candidates are visited by length, then slot, then forward before
reversed, and the first strict minimum below ``-inst.eps`` wins.
"""

from __future__ import annotations

from heapq import heappop, heappush

from ..instance import Instance
from ..tour import MoveDelta, Tour


def or_opt_scan(inst: Instance, tour: Tour, a: int, k_or: int) -> MoveDelta:
    """Best improving segment move among lengths 1..k_or starting at
    position a, or the empty move.

    An improving move has indices (a, length, t, reversed), where slot t
    means insertion between the t-th and (t+1)-th visits of the sequence
    with the segment removed.
    """
    seq = tour.seq
    pos = tour.pos
    n = inst.n_pairs
    n2 = 2 * n
    w = inst.work_cost()
    prev = seq[a - 1]
    head = seq[a]
    wp = w[prev]
    wh = w[head]
    edge = tour.edge

    best_d = -inst.eps
    best_len = best_t = 0
    best_rev = False
    lo = 0
    pending: list = []
    whole_pair = False
    for length in range(1, min(k_or, n2 - a + 1) + 1):
        end = a + length
        tail = seq[end - 1]
        if tail > n:
            p = pos[tail - n]
            if p >= a:
                # The pair is now complete, and its delivery was the
                # earliest pending one.
                whole_pair = True
                heappop(pending)
            elif p > lo:
                lo = p
        else:
            heappush(pending, pos[tail + n])
        hi = pending[0] - length - 1 if pending else n2 - length

        nxt = seq[end]
        wt = w[tail]
        d_rem = wp[nxt] - wp[head] - wt[nxt]

        can_rev = length > 1 and not whole_pair
        u = seq[lo]
        for t in range(lo, a - 1):
            v = seq[t + 1]
            base = edge[t]
            d = d_rem + wh[u] + wt[v] - base
            if d < best_d:
                best_d, best_len, best_t, best_rev = d, length, t, False
            if can_rev:
                d = d_rem + wt[u] + wh[v] - base
                if d < best_d:
                    best_d, best_len, best_t, best_rev = d, length, t, True
            u = v
        if can_rev:
            d = d_rem + wp[tail] + wh[nxt] - wp[nxt]
            if d < best_d:
                best_d, best_len, best_t, best_rev = d, length, a - 1, True
        u = nxt
        for t in range(a, hi + 1):
            v = seq[t + length + 1]
            base = edge[t + length]
            d = d_rem + wh[u] + wt[v] - base
            if d < best_d:
                best_d, best_len, best_t, best_rev = d, length, t, False
            if can_rev:
                d = d_rem + wt[u] + wh[v] - base
                if d < best_d:
                    best_d, best_len, best_t, best_rev = d, length, t, True
            u = v

    if best_len == 0:
        return MoveDelta("or-opt", (), 0)
    return MoveDelta("or-opt", (a, best_len, best_t, best_rev), best_d)
