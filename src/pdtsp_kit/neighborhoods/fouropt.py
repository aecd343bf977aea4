"""Restricted 4-opt: three segment-exchange patterns in O(n^2).

Cut the tour into five blocks P1 | P2 | P3 | P4 | P5 at positions
i1 < i2 < j1 < j2 (P5 possibly empty). The three patterns are

  type 1:  P1  P4   P3   P2  P5   (two segment swaps, nothing reversed)
  type 2a: P1 r(P3) r(P4) P2  P5
  type 2b: P1  P4  r(P2) r(P3) P5

and ``tour.four_opt_splice`` realizes them.

Each pattern's gain splits into a term depending on (i2, j2) and a term
depending on (i1, j1), so for every (i2, j2) the best partner cut is a
minimum over earlier (i1, j1). The scan makes one pass over i2 and
keeps no quadratic cost table: it builds row i2 of the two delta tables
as it goes, holds the minimum over i1 < i2 of each column in an O(n)
row folded forward from row i2 - 1, and takes the minimum over j1 as a
running value while j2 ascends. Only the cheapest partner is then
tested for precedence feasibility, in O(1). A segment may be reversed
when it holds no complete pair; for a start i that holds for every end
below cut[i], the first end at which it would hold one, so one position
per start suffices. Last gives the latest outside pickup serving a
delivery inside a segment; it is a range maximum that depends on the
start, so each start has its own row, built in O(n) the first time a
candidate that beats the best so far reads it. Deliveries moved ahead
of blocks they depended on are rejected; a segment may only jump ahead
of everything after i1 if all its deliveries' pickups sit in P1. At
each (i2, j2) the types are tried in the order 1, 2a, 2b, and a
candidate replaces the best move so far only if it is strictly cheaper.

That rule is stricter than precedence needs for type 2a: it rejects
any pair picked up in P3 and delivered in P4, although r(P3) still
precedes r(P4). The tour [0, 3, 2, 1, 6, 4, 5, 7, 8, 0] (four pairs,
closed) at cuts (0, 1, 2, 4) is such a case. ``four_opt_oracle``
applies the same rule, and relaxing it would change tours.

The scan starts its best at ``-inst.eps``, so it returns the best
improving move or the empty move. The mutation helper walks the same
rows for type 1 without any feasibility filtering, which is also safe
on precedence-violating sequences, and returns the same kind of
result.
"""

from __future__ import annotations

import math

from ..instance import Instance
from ..tour import MoveDelta, Tour

_KINDS = ("4opt-type1", "4opt-type2a", "4opt-type2b")


def _partner_rows(w, seq, top):
    """Rows of the two delta tables with their partner minima, by i2.

    dd[i][j] replaces edges (i,i+1),(j,j+1) by (i,j+1),(i+1,j), and
    dc[i][j] replaces them by (i,j),(i+1,j+1). For i2 = 1 .. top-2 this
    yields (i2, dd[i2], dc[i2], min_d, arg_d, min_c, arg_c): min_d[j1]
    is the minimum of dd[i1][j1] over i1 < i2 and arg_d[j1] the first
    i1 reaching it, likewise for dc, valid for j1 > i2. Row i is built
    for j > i in the lists that held row i - 1, each cell overwritten
    right after its old value is folded into the minima, so the yielded
    lists change once the caller moves on.
    """
    edge = [w[seq[k]][seq[k + 1]] for k in range(top)]
    min_d = [math.inf] * top
    arg_d = [0] * top
    min_c = [math.inf] * top
    arg_c = [0] * top
    row_d = min_d[:]
    row_c = min_d[:]
    for i in range(top - 1):
        wi, wi1 = w[seq[i]], w[seq[i + 1]]
        base = edge[i]
        h = i - 1
        # Fold row h into the minima and build row i in one sweep.
        for j in range(i + 1, top):
            v = row_d[j]
            if v < min_d[j]:
                min_d[j] = v
                arg_d[j] = h
            v = row_c[j]
            if v < min_c[j]:
                min_c[j] = v
                arg_c[j] = h
            sj, sj1 = seq[j], seq[j + 1]
            drop = base + edge[j]
            row_d[j] = wi[sj1] + wi1[sj] - drop
            row_c[j] = wi[sj] + wi1[sj1] - drop
        if i:
            yield i, row_d, row_c, min_d, arg_d, min_c, arg_c


def _cut_table(seq, pos, n, top):
    """cut[i]: first j >= i at which [i..j] holds a complete pair, or
    top; segment [i..j] may flip exactly when j < cut[i]."""
    cut = [top] * (top + 1)
    for i in range(top - 1, 0, -1):
        v = seq[i]
        cut[i] = min(cut[i + 1], pos[v + n]) if v <= n else cut[i + 1]
    return cut


def _last_row(seq, pos, n, top, i):
    """last[i][j] for j = i .. top-1: latest position before i of a
    pickup whose delivery lies in [i..j]; -1 when every such pickup is
    absent."""
    lrow = [-1] * top
    acc = -1
    for j in range(i, top):
        v = seq[j]
        if v > n:
            p = pos[v - n]
            if acc < p < i:
                acc = p
        lrow[j] = acc
    return lrow


class _LastRows(dict):
    """The rows of last, each built on first use: a scan reads only the
    rows of the candidates that beat its running best."""

    def __init__(self, seq, pos, n, top):
        super().__init__()
        self.args = seq, pos, n, top

    def __missing__(self, i):
        row = self[i] = _last_row(*self.args, i)
        return row


def four_opt_best(inst: Instance, tour: Tour) -> MoveDelta:
    """Best improving restricted 4-opt move, or the empty move."""
    seq = tour.seq
    pos = tour.pos
    n = inst.n_pairs
    top = len(seq) - 1  # customer positions are 1..top-1
    empty = MoveDelta(_KINDS[0], (), 0)
    if top - 1 < 5:
        return empty

    w = inst.work_cost()
    cut = _cut_table(seq, pos, n, top)
    last = _LastRows(seq, pos, n, top)

    best = empty
    best_delta = -inst.eps
    for i2, base_d, base_c, min_d, arg_d, min_c, arg_c in _partner_rows(w, seq, top):
        p3 = i2 + 1  # P3 starts at i2 + 1
        cut3 = cut[p3]
        # Running minima over j1 in (i2, j2) of the partner minima.
        phi_d = phi_c = math.inf
        i1_d = j1_d = i1_c = j1_c = 0
        for j2 in range(i2 + 2, top):
            j1 = j2 - 1
            v = min_d[j1]
            if v < phi_d:
                phi_d = v
                i1_d = arg_d[j1]
                j1_d = j1
            v = min_c[j1]
            if v < phi_c:
                phi_c = v
                i1_c = arg_c[j1]
                j1_c = j1
            d = base_d[j2]
            total = d + phi_d
            if (
                total < best_delta
                and last[p3][j1_d] <= i1_d
                and last[j1_d + 1][j2] <= i1_d
            ):
                best_delta = total
                best = MoveDelta(_KINDS[0], (i1_d, i2, j1_d, j2), total)
            total = d + phi_c
            if (
                total < best_delta
                and last[p3][j1_c] <= i1_c
                and last[j1_c + 1][j2] <= i1_c
                and j1_c < cut3
                and j2 < cut[j1_c + 1]
            ):
                best_delta = total
                best = MoveDelta(_KINDS[1], (i1_c, i2, j1_c, j2), total)
            total = base_c[j2] + phi_d
            if (
                total < best_delta
                and last[j1_d + 1][j2] <= i1_d
                and i2 < cut[i1_d + 1]
                and j1_d < cut3
            ):
                best_delta = total
                best = MoveDelta(_KINDS[2], (i1_d, i2, j1_d, j2), total)
    return best


def four_opt_type1_any(inst: Instance, seq) -> MoveDelta:
    """Best improving type-1 move by cost alone, precedence ignored, or
    the empty move.

    Works on a bare sequence, so crossover offspring that violate
    precedence can be perturbed before repair. It shares the rows of
    ``_partner_rows`` but keeps its own j2 loop, because
    ``four_opt_best`` weighs the three types together at each (i2, j2),
    so their tie order depends on that loop.
    """
    top = len(seq) - 1
    if top - 1 < 5:
        return MoveDelta(_KINDS[0], (), 0)
    w = inst.work_cost()
    best = -inst.eps
    cuts = ()
    for i2, base, _, min_d, arg_d, _, _ in _partner_rows(w, seq, top):
        phi = math.inf
        i1 = j1 = 0
        for j2 in range(i2 + 2, top):
            v = min_d[j2 - 1]
            if v < phi:
                phi = v
                i1 = arg_d[j2 - 1]
                j1 = j2 - 1
            total = base[j2] + phi
            if total < best:
                best = total
                cuts = (i1, i2, j1, j2)
    return MoveDelta(_KINDS[0], cuts, best if cuts else 0)
