"""Or-opt: relocate a short segment, optionally reversed.

Segments start at a fixed anchor position a and hold 2 to k_or visits,
so k_or = 1 leaves no candidate. The tour must be precedence-feasible;
every caller holds a feasible tour when it scans.

A single visit is left to pair relocation. The pair step of pair x
scans or-opt only at the positions of x and x+n, where a single-visit
segment moves one visit of x and leaves the other in place. Relocating
x lists that tour too, since it prices every joint reinsertion of x and
x+n, the other visit's old slot included. On integer costs both
deltas are that tour's exact cost change d. Relocation runs first and
the running best only falls, so it is at most d when or-opt runs, and
a scan result replaces it only if strictly cheaper. A single-visit
candidate that won the scan therefore lost the step, and so does what
the scan returns without it, whose delta is at least d. Any other
result was the first strict minimum of the longer segments in their
order, and still is. So no pair step's result changes. On float costs
the two deltas of one tour may differ in their last bits, so a step
that a single visit won may now take relocation's move to the same
tour (or 2-opt's, which lists swaps of two adjacent visits), or, where
rounding decides between tours of near-equal cost, another tour.

Feasible slots form a contiguous range lo..hi of the sequence with the
segment removed. The segment must land after the last outside pickup
serving a delivery it contains (lo), and before the first outside
delivery served by a pickup it contains (hi). Both bounds are kept
incrementally as the segment grows: a new delivery either raises lo or
completes a pair, and a new pickup adds its delivery to a heap of
pending positions whose minimum gives hi. Reversal is allowed unless
the segment holds a complete pair, whose order the flip would break.

Slots are read straight from the tour. For a segment of length L,
slot t is the tour edge t, (seq[t], seq[t+1]), when t < a-1, and the
tour edge t+L when t >= a. The tour's edge costs are read from the
per-tour state below, and the other costs a slot needs lie in the rows
of the segment's head and tail, so the slot loops touch no other
matrix row.
The reversed candidate's cost from a slot's left end u to the tail is
read as w[tail][u], equal to w[u][tail] since costs are symmetric.
Slot a-1, the bridge (seq[a-1], seq[a+L]) left by the removal, is
never a candidate. Reinserting the segment there unreversed is the
identity. Reversed, for L >= 3, it gives the tour of the length L-1
candidate at slot a, reversed, which is listed earlier and is feasible
whenever the reversal is. For L = 2 it swaps the head and the tail: a
single-visit move, which relocation lists.

Candidates are visited by length, then slot, then forward before
reversed, and the first strict minimum below ``-inst.eps`` wins.

The gain screen
---------------
Most slots cannot improve, and a wide length prices only those that
can (the gain criterion of Lin and Kernighan, used with neighbor lists
as in Bentley's exact 2-opt). Write p and nx for the visits around the
segment, h and t for its head and tail. Moving it forward into the
slot (u, v) removes the edges (p,h), (t,nx) and (u,v) and adds (p,nx),
(u,h) and (t,v). Pair each added edge with a removed one:
(p,nx) with (p,h), (u,h) with (t,nx), (t,v) with (u,v). The delta is
the sum of the three differences, so if the move improves, at least
one added edge is shorter than its partner. That needs no triangle
inequality, so it holds for every symmetric matrix. Hence:

- if w(p,nx) < w(p,h), the length is priced in full;
- otherwise a forward candidate needs w(u,h) < w(t,nx), found by
  walking h's neighbors in order of cost up to that radius, or
  w(t,v) < w(u,v), read from a per-tour index that lists, for each
  visit x, the left-end positions of the tour edges (u,v) with
  w(x,v) < w(u,v);
- a reversed move adds (u,t) and (h,v) instead, so its candidates are
  the same with h and t swapped, at the same radius w(t,nx).

Candidates are priced in the full loop's order with its arithmetic,
and every candidate the screen drops has a delta no better than the
running best, so the result is the full loop's to the last tie. Both
orientations are priced at every slot found, and a slot found twice is
priced twice, since pricing a candidate that cannot win changes
nothing.

A length is screened only when it has more than ``SCREEN_WIDTH``
feasible slots left after the length bound below; below that, pricing
every slot is cheaper than gathering candidates. Of 0, 16, 24 and 40,
16 and 0 were fastest on locally optimal n = 50 and n = 200 tours, and
0 cost 15-20% on n = 10 tours, where 16 never screens. The widest
length has 2n - 2 slots, reached by two visits that form a whole pair
and may land anywhere, so tours of 9 pairs or fewer take the full loop
only.

Float costs need no slack in these comparisons, although computed
deltas carry rounding error (several e-8 at a span of 1e7). Rounding
to nearest is monotone, and the scan adds the six costs in the order
d = ((((w(p,nx) - w(p,h)) - w(t,nx)) + w(u,h)) + w(t,v)) - w(u,v).
When no pair difference is negative, the rounded partial sums are in
turn >= 0, >= -w(t,nx), >= 0, >= w(t,v) and, at the end, >= 0; the
reversed sum has the same shape. So a candidate the screen drops has
a computed delta of at least 0, which the full loop rejects too.

The length bound
----------------
Most lengths have no slot that can improve at all, and an O(1) test
skips them before any slot is gathered or priced. A forward candidate
at the slot (u, v) computes ((d_rem + w(u,h)) + w(t,v)) - w(u,v), with
d_rem = (w(p,nx) - w(p,h)) - w(t,nx); a reversed one has w(u,t) and
w(h,v) in place of w(u,h) and w(t,v). Here u is never the open
terminal, so w(u,x) >= nu[x], x's cheapest cost to another visit
other than the open terminal, and w(x,v) >= nv[x], x's cheapest cost
to any other visit (0 on open tours). The removed edge (u,v) is a
tour edge left of the segment, at most M = max(edge[0..a-2]), or right
of it, at most M = max(edge[a+L..]). Let k be the smaller of the two
orientations' sums (d_rem + nu[h]) + nv[t] and (d_rem + nu[t]) + nv[h],
added in the scan's order, or the forward one where reversal is not
allowed. Rounding to nearest is monotone, so every candidate on a side
computes a delta of at least k - M as computed; where that is no
better than the running best, the side is dropped, and a length with
both sides dropped ends before it reads the tail's cost row. Its
d_rem needs one matrix read, w(p,nx): w(p,h) is read once per scan,
and w(t,nx) is the tour edge edge[end-1].

The bound runs only where the screen can: on tours of 10 pairs or more,
whose widest length has more than ``SCREEN_WIDTH`` slots. In one round
of the benchmark's hgs-closed workload (n = 50) it drops 56% of the
lengths whole and one side of 15% more. Run on every tour, it made the
small-exact workload, 5-8 pairs, about 8% slower.

Each visit's neighbor list holds the other visit ids in order of cost,
as one compact ``array`` row. The lists, nu and nv depend only on the
costs: they are built on the instance's first scan of a tour of 10
pairs or more and kept in ``inst._screen``.

The per-tour state
------------------
What depends on the tour is kept in ``tour.scan_state``, which
``apply_move`` and ``recost`` clear and ``Tour.copy`` shares. The first
scan of a tour since its last change sets it to [edge, pre, suf, idx]:
edge[t] is the cost of the tour edge (seq[t], seq[t+1]), pre and suf
are its prefix and suffix maxima, and idx is the edge index. The
maxima are built only on tours of 10 pairs or more, and the index on
the tour's first wide length; both are None until then. No list is
modified once built, and the index is filled in only for the sequence
the copies share, so copies may share the state.
"""

from __future__ import annotations

from array import array
from heapq import heappop, heappush
from itertools import chain

from ..instance import OPEN, Instance
from ..tour import MoveDelta, Tour

SCREEN_WIDTH = 16


def neighbor_lists(w: list, term: int) -> tuple:
    """(near, nu, nv) for the work costs ``w``. near[x] lists the visit
    ids other than x in order of w[x], one compact ``array`` row each.
    nv[x] is x's cheapest cost to another visit and nu[x] the same with
    the open terminal ``term`` left out (-1 on closed tours)."""
    nvis = len(w)
    code = "H" if nvis <= 1 << 16 else "I"
    near = [
        array(code, sorted(chain(range(x), range(x + 1, nvis)), key=row.__getitem__))
        for x, row in enumerate(w)
    ]
    nv = [row[xs[0]] for row, xs in zip(w, near)]
    nu = [row[xs[xs[0] == term]] for row, xs in zip(w, near)]
    return near, nu, nv


def edge_maxima(edge: list) -> tuple:
    """(pre, suf): pre[i] = max(edge[:i]) and suf[i] = max(edge[i:]),
    0 for an empty range."""
    # A plain loop: ``accumulate(edge, max)`` calls the builtin once per
    # edge and runs about 5x slower; both keep the earlier of two equals.
    pre = [m := 0]
    for e in edge:
        pre.append(m := e if e > m else m)
    suf = [m := 0]
    for e in reversed(edge):
        suf.append(m := e if e > m else m)
    suf.reverse()
    return pre, suf


def edge_index(near: list, w: list, seq: list, edge: list) -> list:
    """idx[x]: the positions e of the tour edges (u, v) = (seq[e],
    seq[e+1]) with w(x,v) < w(u,v), ascending."""
    idx = [[] for _ in near]
    for e, base in enumerate(edge):
        v = seq[e + 1]
        wv = w[v]
        for x in near[v]:
            if wv[x] >= base:
                break
            idx[x].append(e)
    return idx


def or_opt_scan(inst: Instance, tour: Tour, a: int, k_or: int) -> MoveDelta:
    """Best improving segment move among lengths 2..k_or starting at
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
    w_ph = wp[head]
    # The length bound and the screen engage on the same tours: those
    # whose widest length, 2n - 2 slots, is wide.
    bound = n2 - 2 > SCREEN_WIDTH
    state = tour.scan_state
    if state is None:
        edge = [w[u][v] for u, v in zip(seq, seq[1:])]
        pre, suf = edge_maxima(edge) if bound else (None, None)
        state = tour.scan_state = [edge, pre, suf, None]
    edge, pre, suf, idx = state
    if bound:
        screen = inst._screen
        if screen is None:
            term = inst.end if inst.mode == OPEN else -1
            screen = inst._screen = neighbor_lists(w, term)
        near, nu, nv = screen
        pre_left = pre[a - 1]
        nu_h = nu[head]
        nv_h = nv[head]

    best_d = -inst.eps
    best_len = best_t = 0
    best_rev = False
    # The head alone: a delivery sets lo, a pickup's delivery is pending.
    if head > n:
        lo = pos[head - n]
        pending: list = []
    else:
        lo = 0
        pending = [pos[head + n]]
    whole_pair = False
    for length in range(2, min(k_or, n2 - a + 1) + 1):
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
        w_tn = edge[end - 1]
        gain = wp[nxt] - w_ph
        d_rem = gain - w_tn
        can_rev = not whole_pair

        # first..hi are the slots still to price, a - 1 excepted.
        first = lo
        if bound:
            k = d_rem + nu_h + nv[tail]
            if can_rev:
                k_rev = d_rem + nu[tail] + nv_h
                if k_rev < k:
                    k = k_rev
            if k - pre_left >= best_d:
                first = a - 1
            if k - suf[end] >= best_d:
                if first == a - 1:
                    # Neither side has a slot left to price.
                    continue
                hi = a - 1
        wt = w[tail]

        if hi - first > SCREEN_WIDTH:
            if idx is None:
                idx = state[3] = edge_index(near, w, seq, edge)
            if gain >= 0:
                cand = idx[tail][:]
                for u in near[head]:
                    if wh[u] >= w_tn:
                        break
                    cand.append(pos[u])
                if can_rev:
                    cand += idx[head]
                    for u in near[tail]:
                        if wt[u] >= w_tn:
                            break
                        cand.append(pos[u])
                cand.sort()
                last = hi + length
                for e in cand:
                    if e >= a - 1:
                        if e < end:
                            continue
                        if e > last:
                            break
                        t = e - length
                    elif e < first:
                        continue
                    else:
                        t = e
                    u = seq[e]
                    v = seq[e + 1]
                    base = edge[e]
                    d = d_rem + wh[u] + wt[v] - base
                    if d < best_d:
                        best_d, best_len, best_t, best_rev = d, length, t, False
                    if can_rev:
                        d = d_rem + wt[u] + wh[v] - base
                        if d < best_d:
                            best_d, best_len, best_t, best_rev = d, length, t, True
                continue

        if first < a - 1:
            u = seq[first]
            for t in range(first, a - 1):
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
        if hi >= a:
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
