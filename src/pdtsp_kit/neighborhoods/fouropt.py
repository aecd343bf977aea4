"""Restricted 4-opt: three segment-exchange patterns in O(n^2).

Cut the tour into five blocks P1 | P2 | P3 | P4 | P5 at positions
i1 < i2 < j1 < j2 (P5 possibly empty). The three patterns are

  type 1:  P1  P4   P3   P2  P5   (two segment swaps, nothing reversed)
  type 2a: P1 r(P3) r(P4) P2  P5
  type 2b: P1  P4  r(P2) r(P3) P5

and ``tour.four_opt_splice`` realizes them.

Each pattern's gain splits into a term depending on (i2, j2) and a term
depending on (i1, j1), so for every (i2, j2) the best partner cut is a
prefix minimum over earlier (i1, j1). Only the cheapest partner is then
tested for precedence feasibility, using two O(1) tables: Rev marks
segments safe to reverse (no complete pair inside) and Last gives the
latest outside pickup serving a delivery inside a segment. Deliveries
moved ahead of blocks they depended on are rejected; a segment may only
jump ahead of everything after i1 if all its deliveries' pickups sit in
P1.

The scan returns improving moves only. The mutation helper reuses the
type-1 tables without any feasibility filtering, which is also safe on
precedence-violating sequences.
"""

from __future__ import annotations

import math

from ..instance import Instance
from ..tour import MoveDelta, Tour

_KINDS = ("4opt-type1", "4opt-type2a", "4opt-type2b")


def _delta_tables(w, seq, top):
    # dd[i][j]: replace edges (i,i+1),(j,j+1) by (i,j+1),(i+1,j).
    # dc[i][j]: replace them by (i,j),(i+1,j+1).
    dd = [[0] * top for _ in range(top)]
    dc = [[0] * top for _ in range(top)]
    for i in range(top - 1):
        si, si1 = seq[i], seq[i + 1]
        wi, wi1 = w[si], w[si1]
        base = wi[si1]
        row_d = dd[i]
        row_c = dc[i]
        for j in range(i + 1, top):
            sj, sj1 = seq[j], seq[j + 1]
            drop = base + w[sj][sj1]
            row_d[j] = wi[sj1] + wi1[sj] - drop
            row_c[j] = wi[sj] + wi1[sj1] - drop
    return dd, dc


def _prefix_tables(delta, top):
    # sub[i2][j1] = min over i1 < i2 of delta[i1][j1], with its argmin.
    # full[i2][j2] = min over j1 in (i2, j2) of sub[i2][j1], with (i1, j1).
    sub = [[math.inf] * top for _ in range(top)]
    sub_arg = [[0] * top for _ in range(top)]
    for i2 in range(1, top - 1):
        prev = sub[i2 - 1] if i2 > 1 else None
        row = sub[i2]
        arg = sub_arg[i2]
        for j1 in range(i2 + 1, top):
            cand = delta[i2 - 1][j1]
            if prev is None or cand < prev[j1]:
                row[j1] = cand
                arg[j1] = i2 - 1
            else:
                row[j1] = prev[j1]
                arg[j1] = sub_arg[i2 - 1][j1]
    full = [[math.inf] * (top + 1) for _ in range(top)]
    full_arg = [[(0, 0)] * (top + 1) for _ in range(top)]
    for i2 in range(1, top - 1):
        srow = sub[i2]
        sarg = sub_arg[i2]
        frow = full[i2]
        farg = full_arg[i2]
        best = math.inf
        best_arg = (0, 0)
        for j2 in range(i2 + 2, top + 1):
            j1 = j2 - 1
            if srow[j1] < best:
                best = srow[j1]
                best_arg = (sarg[j1], j1)
            frow[j2] = best
            farg[j2] = best_arg
    return full, full_arg


def _feasibility_tables(seq, pos, n, top):
    # rev[i][j]: segment [i..j] holds no complete pair, so it may flip.
    # last[i][j]: latest position before i of a pickup whose delivery
    # lies in [i..j]; -1 when every such pickup is absent.
    rev = [[True] * top for _ in range(top)]
    last = [[-1] * top for _ in range(top)]
    for i in range(1, top):
        rrow = rev[i]
        lrow = last[i]
        ok = True
        acc = -1
        for j in range(i, top):
            v = seq[j]
            if v > n:
                p = pos[v - n]
                if p >= i:
                    ok = False
                elif p > acc:
                    acc = p
            rrow[j] = ok
            lrow[j] = acc
    return rev, last


def four_opt_best(inst: Instance, tour: Tour) -> MoveDelta:
    """Best improving restricted 4-opt move, or an empty move if none passes."""
    seq = tour.seq
    pos = tour.pos
    n = inst.n_pairs
    top = len(seq) - 1  # customer positions are 1..top-1
    eps = inst.eps
    empty = MoveDelta("4opt-type1", (), 0, False)
    if top - 1 < 5:
        return empty

    w = inst.work_cost()
    dd, dc = _delta_tables(w, seq, top)
    sub_d, arg_d = _prefix_tables(dd, top)
    sub_c, arg_c = _prefix_tables(dc, top)
    rev, last = _feasibility_tables(seq, pos, n, top)

    best = empty
    best_delta = -eps
    for i2 in range(1, top - 2):
        base_d = dd[i2]
        base_c = dc[i2]
        phi_d = sub_d[i2]
        phi_c = sub_c[i2]
        parg_d = arg_d[i2]
        parg_c = arg_c[i2]
        for j2 in range(i2 + 2, top):
            cands = (
                (base_d[j2] + phi_d[j2], parg_d[j2], 0),
                (base_d[j2] + phi_c[j2], parg_c[j2], 1),
                (base_c[j2] + phi_d[j2], parg_d[j2], 2),
            )
            for total, (i1, j1), ttype in cands:
                if total >= best_delta:
                    continue
                p3_ok = last[i2 + 1][j1] <= i1
                p4_ok = last[j1 + 1][j2] <= i1
                if ttype == 0:
                    ok = p3_ok and p4_ok
                elif ttype == 1:
                    ok = (
                        p3_ok
                        and p4_ok
                        and rev[i2 + 1][j1]
                        and rev[j1 + 1][j2]
                    )
                else:
                    ok = p4_ok and rev[i1 + 1][i2] and rev[i2 + 1][j1]
                if ok:
                    best_delta = total
                    best = MoveDelta(_KINDS[ttype], (i1, i2, j1, j2), total, True)
    return best


def four_opt_type1_any(inst: Instance, seq):
    """Best type-1 move by cost alone, precedence ignored.

    Works on a bare sequence, so crossover offspring that violate
    precedence can be perturbed before repair. Returns (delta,
    (i1, i2, j1, j2)) or None when the tour is too short. It keeps its
    own loop because ``four_opt_best`` weighs the three types together
    at each (i2, j2), so their tie order depends on that shared loop.
    """
    top = len(seq) - 1
    if top - 1 < 5:
        return None
    w = inst.work_cost()
    dd, _ = _delta_tables(w, seq, top)
    sub_d, arg_d = _prefix_tables(dd, top)
    best = math.inf
    best_move = None
    for i2 in range(1, top - 2):
        base = dd[i2]
        phi = sub_d[i2]
        parg = arg_d[i2]
        for j2 in range(i2 + 2, top):
            total = base[j2] + phi[j2]
            if total < best:
                best = total
                i1, j1 = parg[j2]
                best_move = (i1, i2, j1, j2)
    return best, best_move
