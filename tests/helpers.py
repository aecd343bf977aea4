"""Shared builders for the test suite."""

from __future__ import annotations

import math
import random
import time

from pdtsp_kit.instance import Instance, generate_pairs
from pdtsp_kit.metaheuristics import _destroy_random, greedy_construct
from pdtsp_kit.neighborhoods.fouropt import _KINDS
from pdtsp_kit.neighborhoods.oracles import best_insertion_naive
from pdtsp_kit.neighborhoods.relocate import best_insertion, removal_delta
from pdtsp_kit.tour import MoveDelta, Tour, insert_pair


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


def partner_rows_reference(w, seq, top):
    """``_partner_rows`` as it was with a fresh pair of delta rows per
    step. Rows of the two delta tables with their partner minima, by i2.

    dd[i][j] replaces edges (i,i+1),(j,j+1) by (i,j+1),(i+1,j), and
    dc[i][j] replaces them by (i,j),(i+1,j+1). For i2 = 1 .. top-2 this
    yields (i2, dd[i2], dc[i2], min_d, arg_d, min_c, arg_c): min_d[j1]
    is the minimum of dd[i1][j1] over i1 < i2 and arg_d[j1] the first
    i1 reaching it, likewise for dc, valid for j1 > i2. Row i is built
    for j > i and then folded into the minima on the next step, in
    place, so the yielded lists change once the caller moves on.
    """
    min_d = [math.inf] * top
    arg_d = [0] * top
    min_c = [math.inf] * top
    arg_c = [0] * top
    prev_d = prev_c = min_d[:]
    for i in range(top - 1):
        si, si1 = seq[i], seq[i + 1]
        wi, wi1 = w[si], w[si1]
        base = wi[si1]
        row_d = [0] * top
        row_c = [0] * top
        h = i - 1
        # Fold row h into the minima and build row i in one sweep.
        for j in range(i + 1, top):
            v = prev_d[j]
            if v < min_d[j]:
                min_d[j] = v
                arg_d[j] = h
            v = prev_c[j]
            if v < min_c[j]:
                min_c[j] = v
                arg_c[j] = h
            sj, sj1 = seq[j], seq[j + 1]
            drop = base + w[sj][sj1]
            row_d[j] = wi[sj1] + wi1[sj] - drop
            row_c[j] = wi[sj] + wi1[sj1] - drop
        if i:
            yield i, row_d, row_c, min_d, arg_d, min_c, arg_c
        prev_d = row_d
        prev_c = row_c


def feasibility_tables_reference(seq, pos, n, top):
    # cut[i]: first j >= i at which [i..j] holds a complete pair, or
    # top; segment [i..j] may flip exactly when j < cut[i].
    # last[i][j]: latest position before i of a pickup whose delivery
    # lies in [i..j]; -1 when every such pickup is absent.
    cut = [top] * (top + 1)
    last = [[-1] * top for _ in range(top)]
    for i in range(top - 1, 0, -1):
        v = seq[i]
        cut[i] = min(cut[i + 1], pos[v + n]) if v <= n else cut[i + 1]
        lrow = last[i]
        acc = -1
        for j in range(i, top):
            v = seq[j]
            if v > n:
                p = pos[v - n]
                if acc < p < i:
                    acc = p
            lrow[j] = acc
    return cut, last


def four_opt_best_reference(inst: Instance, tour: Tour) -> MoveDelta:
    """``four_opt_best`` as it was when it built every delta row and the
    whole table of latest outside pickups afresh on each call."""
    seq = tour.seq
    pos = tour.pos
    n = inst.n_pairs
    top = len(seq) - 1  # customer positions are 1..top-1
    empty = MoveDelta(_KINDS[0], (), 0)
    if top - 1 < 5:
        return empty

    w = inst.work_cost()
    cut, last = feasibility_tables_reference(seq, pos, n, top)

    best = empty
    best_delta = -inst.eps
    for i2, base_d, base_c, min_d, arg_d, min_c, arg_c in partner_rows_reference(w, seq, top):
        last3 = last[i2 + 1]  # P3 starts at i2 + 1
        cut3 = cut[i2 + 1]
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
                and last3[j1_d] <= i1_d
                and last[j1_d + 1][j2] <= i1_d
            ):
                best_delta = total
                best = MoveDelta(_KINDS[0], (i1_d, i2, j1_d, j2), total)
            total = d + phi_c
            if (
                total < best_delta
                and last3[j1_c] <= i1_c
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


def four_opt_type1_any_reference(inst: Instance, seq) -> MoveDelta:
    """``four_opt_type1_any`` over ``partner_rows_reference``."""
    top = len(seq) - 1
    if top - 1 < 5:
        return MoveDelta(_KINDS[0], (), 0)
    w = inst.work_cost()
    best = -inst.eps
    cuts = ()
    for i2, base, _, min_d, arg_d, _, _ in partner_rows_reference(w, seq, top):
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


def two_k_opt_best_reference(inst: Instance, tour: Tour) -> MoveDelta:
    """``two_k_opt_best`` as it was when it allocated a fresh F and R row
    per interval start and whole integer case tables on each call."""
    seq = tour.seq
    pos = tour.pos
    n = inst.n_pairs
    top = len(seq) - 1
    w = inst.work_cost()

    size = top + 1
    FC = [[0] * size for _ in range(size)]
    RC = [[0] * size for _ in range(size)]

    # F_in and R_in hold row i + 1. Two-visit intervals gain 0, and a
    # flip over a single visit is barred by an infinite cell.
    wrow = [w[v] for v in seq]
    F_in = [0] * size
    R_in = [0] * size
    F_in[top - 1] = R_in[top - 1] = math.inf
    for i in range(top - 2, -1, -1):
        F_i = [0] * size
        R_i = [0] * size
        F_i[i] = R_i[i] = math.inf
        FC_i = FC[i]
        RC_i = RC[i]
        w_i = wrow[i]
        w_in = wrow[i + 1]
        c_i = w_i[seq[i + 1]]
        # R(i, j) is blocked from seq[i]'s delivery on, R(i, i + 1) too.
        s_i = seq[i]
        cut = pos[s_i + n] if 0 < s_i <= n else top
        if cut == i + 1:
            R_i[cut] = math.inf
        for j in range(i + 2, size):
            s_jm = seq[j - 1]
            s_j = seq[j]
            d2 = w_i[s_jm] + w_in[s_j] - c_i - wrow[j - 1][s_j]
            best = F_in[j]
            case = 1
            alt = F_i[j - 1]
            if alt < best:
                best, case = alt, 2
            alt = d2 + R_in[j - 1]
            if alt < best:
                best, case = alt, 3
            F_i[j] = best
            FC_i[j] = case

            if i and j < top:
                if j >= cut or s_j > n and pos[s_j - n] >= i:
                    R_i[j] = math.inf
                    continue
                best = R_in[j]
                case = 1
                alt = R_i[j - 1]
                if alt < best:
                    best, case = alt, 2
                alt = d2 + F_in[j - 1]
                if alt < best:
                    best, case = alt, 3
                R_i[j] = best
                RC_i[j] = case
        F_in = F_i
        R_in = R_i

    # ``left`` collects the output front to back and ``right`` back to
    # front; inside a reversed interval seq[i] goes to the back.
    delta = F_in[top]
    if delta >= -inst.eps:
        return MoveDelta("2k-opt", (), 0)
    left = []
    right = []
    flips = []
    i, j, rev = 0, top, False
    while j > i + 1:
        case = (RC if rev else FC)[i][j]
        near, far = (right, left) if rev else (left, right)
        if case == 3:
            flips.append((i, j))
            rev = not rev
        if case != 2:
            near.append(seq[i])
            i += 1
        if case != 1:
            far.append(seq[j])
            j -= 1
    mid = seq[i : j + 1]
    if rev:
        mid.reverse()
    out = left + mid + right[::-1]
    return MoveDelta("2k-opt", tuple(sorted(flips)), delta, tuple(out))
