"""Slow reference implementations of the neighborhood scans.

Everything here enumerates candidates one by one, and most functions
realize each candidate sequence, check precedence by inspection and
recompute its cost from scratch. Each scan's oracle returns, as the
scan does, its best improving move or the empty move (see
``MoveDelta``), so the tests compare the two exactly. The fast scans
are validated against these on small instances; nothing in this module
is meant for production tour sizes. Ruin-and-recreate must follow the
same trajectory with the quadratic pair insertion swapped in for the
linear one, which the tests check.
"""

from __future__ import annotations

import itertools
import math

from ..instance import Instance
from ..tour import MoveDelta, Tour, check_precedence, tour_cost
from .relocate import removal_delta


def best_insertion_naive(w, rho, x: int, nx: int):
    """Pair insertion by full enumeration; same result and tie order as
    ``best_insertion``."""
    last = len(rho) - 2
    wx = w[x]
    wnx = w[nx]
    best = math.inf
    best_i = best_j = -1
    for t in range(last + 1):
        u, v = rho[t], rho[t + 1]
        d = wx[u] + wx[nx] + wnx[v] - w[u][v]
        if d < best:
            best, best_i, best_j = d, t, t
    for t in range(last):
        u, v = rho[t], rho[t + 1]
        da = wx[u] + wx[v] - w[u][v]
        for t2 in range(t + 1, last + 1):
            u2, v2 = rho[t2], rho[t2 + 1]
            d = da + wnx[u2] + wnx[v2] - w[u2][v2]
            if d < best:
                best, best_i, best_j = d, t, t2
    return best, best_i, best_j


def relocate_pair_best_naive(inst: Instance, tour: Tour, x: int) -> MoveDelta:
    """``relocate_pair_best`` with the insertion found by enumeration."""
    nx = x + inst.n_pairs
    i, j = tour.pos[x], tour.pos[nx]
    w = inst.work_cost()
    rho = [v for v in tour.seq if v != x and v != nx]
    d_ins, ip, jp = best_insertion_naive(w, rho, x, nx)
    delta = removal_delta(w, tour.seq, i, j) + d_ins
    if delta >= -inst.eps:
        return MoveDelta("relocate-pair", (), 0)
    return MoveDelta("relocate-pair", (x, ip, jp), delta)


def two_opt_oracle(inst: Instance, tour: Tour, i: int):
    """All 2-opt candidates at anchor i by realization.

    Returns (best, all_candidates) where best is the best improving
    feasible move or the empty move, and all_candidates lists
    (j, delta, feasible) for every structural j, truncation ignored.
    """
    seq = tour.seq
    top = len(seq) - 1
    out = []
    best = MoveDelta("2opt", (), 0)
    best_d = -inst.eps
    for j in range(i + 3, top + 1):
        new = seq[:i + 1] + seq[i + 1 : j][::-1] + seq[j:]
        feasible = not check_precedence(inst, new)
        delta = tour_cost(inst, new) - tour.cost
        out.append((j, delta, feasible))
        if feasible and delta < best_d:
            best_d = delta
            best = MoveDelta("2opt", (i, j), delta)
    return best, out


def or_opt_oracle(inst: Instance, tour: Tour, a: int, k_or: int) -> MoveDelta:
    """Best improving relocation of a segment of 2..k_or visits by full
    realization, same candidate order. Slot a - 1, where the segment
    stood, is skipped: unreversed it is the identity, and reversed it
    repeats the tour of a shorter segment's move at slot a."""
    seq = tour.seq
    n2 = 2 * inst.n_pairs
    best = MoveDelta("or-opt", (), 0)
    best_d = -inst.eps
    for length in range(2, min(k_or, n2 - a + 1) + 1):
        seg = seq[a : a + length]
        rho = seq[:a] + seq[a + length :]
        for t in range(len(rho) - 1):
            if t == a - 1:
                continue
            for rev in (False, True):
                chunk = seg[::-1] if rev else seg
                new = rho[: t + 1] + chunk + rho[t + 1 :]
                if check_precedence(inst, new):
                    continue
                delta = tour_cost(inst, new) - tour.cost
                if delta < best_d:
                    best_d = delta
                    best = MoveDelta("or-opt", (a, length, t, rev), delta)
    return best


def _enum_nested(seq, i, j, kind, memo):
    key = (kind, i, j)
    if key in memo:
        return memo[key]
    entries = []
    seen = set()

    def add(s, flips):
        mark = (s, flips)
        if mark not in seen:
            seen.add(mark)
            entries.append(mark)

    if j <= i + 1:
        part = tuple(seq[i : j + 1])
        add(part if kind == "F" else part[::-1], frozenset())
    elif kind == "F":
        for s, fl in _enum_nested(seq, i + 1, j, "F", memo):
            add((seq[i],) + s, fl)
        for s, fl in _enum_nested(seq, i, j - 1, "F", memo):
            add(s + (seq[j],), fl)
        for s, fl in _enum_nested(seq, i + 1, j - 1, "R", memo):
            add((seq[i],) + s + (seq[j],), fl | {(i, j)})
    else:
        for s, fl in _enum_nested(seq, i + 1, j, "R", memo):
            add(s + (seq[i],), fl)
        for s, fl in _enum_nested(seq, i, j - 1, "R", memo):
            add((seq[j],) + s, fl)
        for s, fl in _enum_nested(seq, i + 1, j - 1, "F", memo):
            add((seq[j],) + s + (seq[i],), fl | {(i, j)})

    memo[key] = entries
    return entries


def two_k_opt_oracle(inst: Instance, tour: Tour) -> MoveDelta:
    """Best improving nested-2-opt combination by enumerating every
    realization, or the empty move.

    Candidates come out in the same first-case-first order the dynamic
    program uses to break ties, so the champion matches move for move.
    """
    seq = tour.seq
    top = len(seq) - 1
    best = MoveDelta("2k-opt", (), 0)
    best_d = -inst.eps
    for new, flips in _enum_nested(seq, 0, top, "F", {}):
        if check_precedence(inst, list(new)):
            continue
        delta = tour_cost(inst, new) - tour.cost
        if delta < best_d:
            best_d = delta
            best = MoveDelta("2k-opt", tuple(sorted(flips)), delta, new)
    return best


def _segment_last(seq, pos, n, i, j):
    acc = -1
    for v in seq[i : j + 1]:
        if v > n and pos[v - n] < i and pos[v - n] > acc:
            acc = pos[v - n]
    return acc


def _segment_rev_ok(seq, pos, n, i, j):
    return all(v <= n or pos[v - n] < i for v in seq[i : j + 1])


def four_opt_oracle(inst: Instance, tour: Tour) -> MoveDelta:
    """Restricted 4-opt by brute-force partner search and direct checks."""
    seq = tour.seq
    pos = tour.pos
    n = inst.n_pairs
    top = len(seq) - 1
    w = inst.work_cost()
    best = MoveDelta("4opt-type1", (), 0)
    if top - 1 < 5:
        return best

    def dd(i, j):
        return (
            w[seq[i]][seq[j + 1]]
            + w[seq[i + 1]][seq[j]]
            - w[seq[i]][seq[i + 1]]
            - w[seq[j]][seq[j + 1]]
        )

    def dc(i, j):
        return (
            w[seq[i]][seq[j]]
            + w[seq[i + 1]][seq[j + 1]]
            - w[seq[i]][seq[i + 1]]
            - w[seq[j]][seq[j + 1]]
        )

    best_delta = -inst.eps
    for i2 in range(1, top - 2):
        for j2 in range(i2 + 2, top):
            for ttype, base_fn, phi_fn in (
                ("4opt-type1", dd, dd),
                ("4opt-type2a", dd, dc),
                ("4opt-type2b", dc, dd),
            ):
                base = base_fn(i2, j2)
                champ = math.inf
                champ_arg = None
                for j1 in range(i2 + 1, j2):
                    for i1 in range(i2):
                        d = phi_fn(i1, j1)
                        if d < champ:
                            champ = d
                            champ_arg = (i1, j1)
                total = base + champ
                if total >= best_delta:
                    continue
                i1, j1 = champ_arg
                p3_ok = _segment_last(seq, pos, n, i2 + 1, j1) <= i1
                p4_ok = _segment_last(seq, pos, n, j1 + 1, j2) <= i1
                if ttype == "4opt-type1":
                    ok = p3_ok and p4_ok
                elif ttype == "4opt-type2a":
                    ok = (
                        p3_ok
                        and p4_ok
                        and _segment_rev_ok(seq, pos, n, i2 + 1, j1)
                        and _segment_rev_ok(seq, pos, n, j1 + 1, j2)
                    )
                else:
                    ok = (
                        p4_ok
                        and _segment_rev_ok(seq, pos, n, i1 + 1, i2)
                        and _segment_rev_ok(seq, pos, n, i2 + 1, j1)
                    )
                if ok:
                    best_delta = total
                    best = MoveDelta(ttype, (i1, i2, j1, j2), total)
    return best


def bs_oracle(inst: Instance, seq, k: int):
    """Best window-k reordering by recursive enumeration.

    Builds placement orders that always pick within k of the smallest
    unplaced position, then filters by precedence on the finished
    sequence. Returns (best_cost, best_seq).
    """
    last = len(seq) - 1
    w = inst.work_cost()
    best = [math.inf, None]
    slots = list(range(1, last))

    def descend(chosen, used):
        if len(chosen) == len(slots):
            new = [seq[0]] + [seq[q] for q in chosen] + [seq[last]]
            if check_precedence(inst, new):
                return
            c = tour_cost(inst, new)
            if c < best[0]:
                best[0] = c
                best[1] = new
            return
        m = min(q for q in slots if q not in used)
        for q in range(m, min(m + k, last)):
            if q not in used:
                descend(chosen + [q], used | {q})

    descend([], frozenset())
    return best[0], best[1]


def bs_oracle_pairwise(inst: Instance, seq, k: int):
    """Same by filtering raw permutations with the pairwise order rule.

    Exponentially slower than bs_oracle; exists to pin down that the
    window recursion and the pairwise definition agree.
    """
    last = len(seq) - 1
    best = (math.inf, None)
    for perm in itertools.permutations(range(1, last)):
        slot = {}
        for t, p in enumerate(perm):
            slot[p] = t
        if any(
            slot[p] > slot[q]
            for p in range(1, last)
            for q in range(p + k, last)
        ):
            continue
        new = [seq[0]] + [seq[p] for p in perm] + [seq[last]]
        if check_precedence(inst, new):
            continue
        c = tour_cost(inst, new)
        if c < best[0]:
            best = (c, new)
    return best
