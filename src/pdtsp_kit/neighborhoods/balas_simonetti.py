"""Balas-Simonetti reordering within a sliding window of width k.

The neighborhood contains every reordering of the current sequence in
which a visit may overtake at most k-1 positions: whenever two
positions are k or more apart, their relative order is preserved.
Pickups also stay ahead of their deliveries. All such reorderings embed
in a layered graph whose nodes record, after t placements, the original
position of the visit just placed (r), the smallest original position
still unplaced (m), and which of the at most k-1 positions above m are
already placed (a bitmask). Layer widths are therefore bounded by a
constant in k times 1, independent of n, and a shortest path through
the graph is the cheapest reordering.

Precedence pruning happens at construction: a delivery may only be
placed once its pickup is, so forbidden states never enter a layer.

A layer maps each state to an entry (cost, parent): the cheapest path
cost to the state and the state it was reached from. The placed
position is the state's first field, r, so walking the parents back
from the cheapest last state reads off the reordering.
"""

from __future__ import annotations

from ..instance import Instance
from ..tour import MoveDelta, Tour


def bs_optimize(inst: Instance, seq, k: int):
    """Shortest path through the window-k reordering graph of ``seq``.

    Returns (best_seq, best_cost, layers), where ``layers`` is the list
    of layers the backtrack reads, the start layer first. A path cost
    starts at 0 and adds its edge costs left to right. k = 1 fixes every
    position: each layer holds one state, and the cost is the input's,
    added as ``tour_cost`` adds it.

    Raises ``ValueError`` if no reordering within the window keeps every
    pickup ahead of its delivery, which only a precedence-infeasible
    ``seq`` can cause.
    """
    if not 1 <= k <= 12:
        raise ValueError("k must be between 1 and 12")
    n = inst.n_pairs
    w = inst.work_cost()
    last = len(seq) - 1  # terminal slot; positions 1..last-1 get reordered
    pos_of = [0] * (2 * n + 2)
    for t, v in enumerate(seq[:-1]):
        pos_of[v] = t

    # State: (r, m, mask); one dict of entries per layer.
    start = (0, 1, 0)
    layer = {start: (0, None)}
    layers = [layer]
    for t in range(1, last):
        nxt = {}
        for state, (cost, _) in layer.items():
            r, m, mask = state
            wr = w[seq[r]]
            for off in range(k):
                q = m + off
                if q >= last:
                    break
                if off and (mask >> (off - 1)) & 1:
                    continue
                u = seq[q]
                if u > n:
                    pp = pos_of[u - n]
                    # Pickup must already be placed: below m or flagged.
                    if pp >= m and not (pp > m and (mask >> (pp - m - 1)) & 1):
                        continue
                if off == 0:
                    nm = m + 1
                    nmask = mask
                    while nmask & 1:
                        nmask >>= 1
                        nm += 1
                    nmask >>= 1
                else:
                    nm = m
                    nmask = mask | (1 << (off - 1))
                nstate = (q, nm, nmask)
                ncost = cost + wr[u]
                known = nxt.get(nstate)
                if known is None or ncost < known[0]:
                    nxt[nstate] = (ncost, state)
        if not nxt:
            raise ValueError(
                "no precedence-feasible reordering of seq within the window"
            )
        layer = nxt
        layers.append(layer)

    end_visit = seq[last]
    best_state = None
    best_cost = None
    for state, (cost, _) in layer.items():
        total = cost + w[seq[state[0]]][end_visit]
        if best_cost is None or total < best_cost:
            best_cost = total
            best_state = state

    order = []
    state = best_state
    for t in range(last - 1, 0, -1):
        order.append(state[0])
        state = layers[t][state][1]
    order.reverse()
    best_seq = [seq[0]] + [seq[q] for q in order] + [seq[last]]
    return best_seq, best_cost, layers


def bs_best(inst: Instance, tour: Tour, k: int) -> MoveDelta:
    """Wraps the graph search as a move against the current tour cost:
    the cheapest reordering if it improves, else the empty move."""
    seq, cost, _ = bs_optimize(inst, tour.seq, k)
    delta = cost - tour.cost
    if delta >= -inst.eps:
        return MoveDelta("bs", (), 0)
    return MoveDelta("bs", (k,), delta, tuple(seq))
