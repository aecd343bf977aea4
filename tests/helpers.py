"""Shared builders for the test suite."""

from __future__ import annotations

import math
import random
import time

from pdtsp_kit.instance import Instance, generate_pairs
from pdtsp_kit.metaheuristics import _destroy_random, greedy_construct
from pdtsp_kit.neighborhoods.oracles import best_insertion_naive
from pdtsp_kit.neighborhoods.relocate import best_insertion, removal_delta
from pdtsp_kit.tour import Tour, insert_pair


def euclid_instance(rng, n, *, mode="closed", rounding="nearest", group="C", span=100):
    pts = [(rng.randint(0, span), rng.randint(0, span)) for _ in range(2 * n + 1)]
    return generate_pairs(pts, group, rng, mode=mode, rounding=rounding, name=f"t{n}")


def float_instance(rng, n, *, mode="closed", span=100.0):
    pts = [(rng.uniform(0, span), rng.uniform(0, span)) for _ in range(2 * n + 1)]
    return generate_pairs(pts, "C", rng, mode=mode, rounding="none", name=f"f{n}")


def random_feasible_seq(rng, inst: Instance) -> list:
    n = inst.n_pairs
    placed = set()
    seq = [0]
    while len(seq) < inst.n_visits:
        ready = [x for x in range(1, n + 1) if x not in placed]
        ready += [
            x + n for x in range(1, n + 1) if x in placed and x + n not in placed
        ]
        v = ready[rng.randrange(len(ready))]
        placed.add(v)
        seq.append(v)
    seq.append(inst.end)
    return seq


def random_feasible_tour(rng, inst: Instance) -> Tour:
    return Tour(inst, random_feasible_seq(rng, inst))


def layer_widths(layers) -> tuple:
    """Widest layer of a Balas-Simonetti graph, as ``bs_optimize``
    returns its layers: (state count, count of distinct (m, mask)
    placement shapes)."""
    nodes = max(map(len, layers))
    shapes = max(len({(m, mask) for _, m, mask in layer}) for layer in layers)
    return nodes, shapes


def is_settled(record, n: int) -> bool:
    """Whether a descent memo's ``record`` of a tour holds every pair's
    step, each empty: the tour is a local optimum of the pair steps."""
    return all(x in record and not record[x].indices for x in range(1, n + 1))


def adjacent_pairs_tour(rng, inst: Instance) -> Tour:
    """A feasible tour where each pickup is followed by its own delivery
    with probability 0.7; the other deliveries come later, in random
    order."""
    n = inst.n_pairs
    todo = list(range(1, n + 1))
    rng.shuffle(todo)
    waiting = []
    seq = [0]
    while todo or waiting:
        if todo and (not waiting or rng.random() < 0.6):
            x = todo.pop()
            seq.append(x)
            if rng.random() < 0.7:
                seq.append(x + n)
            else:
                waiting.append(x + n)
        else:
            seq.append(waiting.pop(rng.randrange(len(waiting))))
    seq.append(inst.end)
    return Tour(inst, seq)


def line_tour(n, *, mode="closed", step=10) -> Tour:
    """A tour no move can improve: visits on a line at ``step`` apart,
    met in order of distance from the depot, pickups first. A float
    ``step`` gives float costs."""
    nv = 2 * n + 1
    cost = [[step * abs(i - j) for j in range(nv)] for i in range(nv)]
    return Tour.identity(Instance(n, cost, mode=mode, name=f"line{n}"))


def or_opt_range(inst: Instance, tour: Tour, a: int, length: int):
    """(lo, hi, can_rev) for the segment of ``length`` visits at position
    a: its feasible slots lo..hi, slot a - 1 among them, and whether it
    may be reversed."""
    seq, pos = tour.seq, tour.pos
    n = inst.n_pairs
    end = a + length
    seg = seq[a:end]
    lo = max([pos[v - n] for v in seg if v > n and pos[v - n] < a], default=0)
    outs = [pos[v + n] for v in seg if v <= n and pos[v + n] >= end]
    hi = min(outs) - length - 1 if outs else 2 * n - length
    can_rev = length > 1 and not any(v <= n and v + n in seg for v in seg)
    return lo, hi, can_rev


def or_opt_full_pricing(inst: Instance, tour: Tour, a: int, k_or: int, shortest=2):
    """(indices, delta) of or-opt's best improving move, every feasible
    slot but a - 1 priced with ``or_opt_scan``'s arithmetic and in its
    order.

    The reference for the scan's gain screen: the same floats, so equal
    results are required even where rounding decides. ``shortest=1``
    also prices single-visit segments, as or-opt once did, for the
    reference pair step that shows they never win one.
    """
    seq = tour.seq
    w = inst.work_cost()
    best_d, best = -inst.eps, ()
    for length in range(shortest, min(k_or, 2 * inst.n_pairs - a + 1) + 1):
        end = a + length
        lo, hi, can_rev = or_opt_range(inst, tour, a, length)
        p, h, t, nx = seq[a - 1], seq[a], seq[end - 1], seq[end]
        d_rem = w[p][nx] - w[p][h] - w[t][nx]
        for slot in range(lo, hi + 1):
            if slot == a - 1:
                continue
            e = slot if slot < a - 1 else slot + length
            u, v = seq[e], seq[e + 1]
            trials = [
                (False, d_rem + w[h][u] + w[t][v] - w[u][v]),
                (True, d_rem + w[t][u] + w[h][v] - w[u][v]),
            ]
            for rev, d in trials:
                if (can_rev or not rev) and d < best_d:
                    best_d, best = d, (a, length, slot, rev)
    return best, best_d if best else 0


def or_opt_state(inst: Instance, seq, state) -> list:
    """Or-opt's per-tour state for ``seq`` built from scratch: [edge,
    pre, suf, idx], each part left None where ``state`` has it None."""
    w = inst.work_cost()
    edge = [w[u][v] for u, v in zip(seq, seq[1:])]
    ranges = range(len(edge) + 1)
    pre = [max(edge[:i], default=0) for i in ranges]
    suf = [max(edge[i:], default=0) for i in ranges]
    idx = [
        [e for e, c in enumerate(edge) if seq[e + 1] != x and w[seq[e + 1]][x] < c]
        for x in range(len(w))
    ]
    fresh = (edge, pre, suf, idx)
    return [part if built is not None else None for part, built in zip(fresh, state)]


def checked_insertion(calls: list):
    """A stand-in for ``best_insertion`` that also runs
    ``best_insertion_naive``, asserts that both give the same (delta,
    ip, jp), and appends each call's pair to ``calls``."""

    def both(w, rho, x, nx):
        got = best_insertion(w, rho, x, nx)
        assert got == best_insertion_naive(w, rho, x, nx), (rho, x)
        calls.append(x)
        return got

    return both


def select_survivors_from_scratch(costs, dist, near, mu: int, mu_elite: int) -> list:
    """The reference for ``select_survivors``: survivor selection as HGS
    ran it before it kept its ranks. Every removal sorts costs and
    diversity contributions again, computes every biased fitness, and
    sorts again every distance row whose pair in ``near`` the removed
    member may have been part of. Edits ``dist`` and ``near`` the same
    way and returns the removed indices in order."""
    costs = list(costs)
    removed = []
    while len(costs) > mu:
        p = len(costs)
        contrib = [(a + b) / 2 for a, b in near]
        by_cost = sorted(range(p), key=costs.__getitem__)
        rc = [0] * p
        for r, i in enumerate(by_cost):
            rc[i] = r
        rd = [0] * p
        for r, i in enumerate(sorted(range(p), key=contrib.__getitem__, reverse=True)):
            rd[i] = r
        coef = 1.0 - mu_elite / p
        bf = [rc[i] + coef * rd[i] for i in range(p)]
        keep = set(by_cost[:mu_elite])
        worst = max((i for i in range(p) if i not in keep), key=bf.__getitem__)
        removed.append(worst)
        costs.pop(worst)
        dist.pop(worst)
        near.pop(worst)
        for row, nb in zip(dist, near):
            if row.pop(worst) <= nb[1]:
                nb[:] = (sorted(row)[1:3] + [math.inf, math.inf])[:2]
    return removed


def destroy_worst_from_scratch(inst, tour, q, rng):
    """The reference for ``_destroy_worst``: one gain list per call."""
    w = inst.work_cost()
    seq, pos = tour.seq, tour.pos
    items = []
    for x in range(1, inst.n_pairs + 1):
        i, j = pos[x], pos[x + inst.n_pairs]
        gain = -removal_delta(w, seq, i, j)
        items.append((-gain, x))
    items.sort()
    picked = []
    for _ in range(q):
        idx = int(len(items) * rng.random() ** 3)
        picked.append(items.pop(idx)[1])
    return picked


def destroy_block_from_scratch(inst, tour, q, rng):
    """The reference for ``_destroy_block``: each member's visits in the
    span are listed, and the first of them ranks it."""
    n = inst.n_pairs
    pos = tour.pos
    remaining = list(range(1, n + 1))
    removed = []
    while len(removed) < q and remaining:
        x = remaining[rng.randrange(len(remaining))]
        lo, hi = pos[x], pos[x + n]
        hits = []
        for y in remaining:
            touch = [p for p in (pos[y], pos[y + n]) if lo <= p <= hi]
            if touch:
                hits.append((min(touch), y))
        hits.sort()
        for _, y in hits:
            if len(removed) >= q:
                break
            removed.append(y)
        removed_set = set(removed)
        remaining = [y for y in remaining if y not in removed_set]
    return removed


def rr_run_from_scratch(inst: Instance, params, rng, stats: dict | None = None) -> Tour:
    """The reference for ``rr_run``: ruin-and-recreate as it ran before
    it kept a recreate memo and its removal rankings. Every iteration
    rebuilds its candidate, and every worst-removal ranks the current
    tour's pairs again."""
    t_start = time.perf_counter()
    w = inst.work_cost()
    n = inst.n_pairs
    cur = greedy_construct(inst, rng)
    best = cur.copy()
    ttb = time.perf_counter() - t_start

    q_lo = max(1, min(30, int(0.20 * n)))
    q_hi = max(q_lo, min(50, int(0.55 * n)))
    z0 = cur.cost if cur.cost > 0 else 1.0
    t0 = 0.05 * z0 / math.log(2)
    tf = 1e-3 * t0
    operators = (_destroy_random, destroy_worst_from_scratch, destroy_block_from_scratch)

    it = 0
    while True:
        if params.iters is not None and it >= params.iters:
            break
        elapsed = time.perf_counter() - t_start
        if params.tmax is not None and elapsed >= params.tmax:
            break
        if params.iters is not None and params.iters > 1:
            temp = t0 * (tf / t0) ** (it / (params.iters - 1))
        elif params.tmax is not None:
            temp = t0 * (tf / t0) ** min(1.0, elapsed / params.tmax)
        else:
            temp = t0

        op = operators[rng.randrange(3)]
        q = rng.randint(q_lo, q_hi)
        removed = op(inst, cur, q, rng)
        gone = set()
        for x in removed:
            gone.add(x)
            gone.add(x + n)
        part = [v for v in cur.seq if v not in gone]
        order = list(removed)
        rng.shuffle(order)
        for x in order:
            _, ip, jp = best_insertion(w, part, x, x + n)
            insert_pair(part, x, x + n, ip, jp)
        cand = Tour(inst, part)
        delta = cand.cost - cur.cost
        if delta < 0:
            accept = True
        else:
            accept = rng.random() < math.exp(-delta / temp) if temp > 0 else False
        if accept:
            cur = cand
            if cur.cost < best.cost:
                best = cur.copy()
                ttb = time.perf_counter() - t_start
        it += 1

    if stats is not None:
        stats.update(cost=best.cost, ttb=ttb, iters=it)
    return best
