"""Ruin-and-recreate and hybrid genetic search.

Both start from the same randomized greedy constructor: shuffle the
pairs, insert each at its cheapest joint position. Ruin-and-recreate
alternates three destruction operators with greedy reconstruction under
Metropolis acceptance and geometric cooling. The genetic search keeps a
small population ranked by a biased fitness mixing cost rank with a
diversity rank (mean Jaccard distance of the consecutive-location edge
set to the two closest neighbors), breeds by linear order crossover,
perturbs offspring with the best type-1 4-opt regardless of
feasibility, repairs broken pairs by cheapest reinsertion, and educates
with the local search.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field

from .instance import Instance, OPEN
from .neighborhoods import SearchParams, four_opt_type1_any
from .neighborhoods.oracles import best_insertion_naive
from .neighborhoods.relocate import best_insertion, removal_delta
from .search import local_search
from .tour import Tour, check_precedence, four_opt_splice, insert_pair


@dataclass
class RrParams:
    """Ruin-and-recreate budget and evaluator choice.

    ``iters`` gives a deterministic run; ``tmax`` (seconds) may cap or
    replace it. ``fast`` switches between the linear-time insertion
    evaluator and the quadratic reference one in
    ``neighborhoods.oracles``, which follow identical trajectories.
    """

    iters: int | None = 10000
    tmax: float | None = None
    fast: bool = True

    def __post_init__(self):
        if self.iters is None and self.tmax is None:
            raise ValueError("need an iteration or time budget")
        if self.iters is not None and self.iters < 0:
            raise ValueError("iters must be nonnegative")


@dataclass
class HgsParams:
    """Population sizes, stop rules and embedded search settings."""

    mu: int = 25
    lam: int = 40
    mu_elite: int = 1
    tmax: float | None = None
    max_no_improve: int | None = None
    search: SearchParams = field(default_factory=SearchParams)

    def __post_init__(self):
        if self.mu < 3:
            raise ValueError(
                "mu must be at least 3: the diversity rank needs two neighbors"
            )
        if self.lam < 1:
            raise ValueError("lam must be at least 1")
        if not 0 <= self.mu_elite <= self.mu:
            raise ValueError("mu_elite must lie in [0, mu]")
        if self.tmax is None and self.max_no_improve is None:
            raise ValueError("need a time budget or a no-improvement cutoff")


def greedy_construct(inst: Instance, rng: random.Random) -> Tour:
    """Inserts pairs in random order, each at its cheapest joint position."""
    w = inst.work_cost()
    order = list(range(1, inst.n_pairs + 1))
    rng.shuffle(order)
    seq = [0, inst.end]
    for x in order:
        _, ip, jp = best_insertion(w, seq, x, x + inst.n_pairs)
        insert_pair(seq, x, x + inst.n_pairs, ip, jp)
    return Tour(inst, seq)


# ---------------------------------------------------------------------------
# Ruin and recreate


def _destroy_random(inst, tour, q, rng):
    return sorted(rng.sample(range(1, inst.n_pairs + 1), q))


def _destroy_worst(inst, tour, q, rng):
    # One gain list per call, most expensive pairs first; the cubed draw
    # biases removal toward the top without making it deterministic.
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


def _destroy_block(inst, tour, q, rng):
    # Spans are measured on the tour as it was when the call started.
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


def rr_run(
    inst: Instance,
    params: RrParams,
    rng: random.Random,
    stats: dict | None = None,
    trace: list | None = None,
) -> Tour:
    """Runs ruin-and-recreate and returns the best tour found.

    The starting temperature accepts a 5 percent degradation with
    probability one half and decays geometrically to a thousandth of
    itself across the budget. When ``trace`` is given it records, per
    iteration, the proposed sequence and the one held after the accept
    decision.
    """
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
    evaluator = best_insertion if params.fast else best_insertion_naive
    operators = (_destroy_random, _destroy_worst, _destroy_block)

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
            _, ip, jp = evaluator(w, part, x, x + n)
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
        if trace is not None:
            trace.append((tuple(cand.seq), tuple(cur.seq)))
        it += 1

    if stats is not None:
        stats.update(cost=best.cost, ttb=ttb, iters=it)
    return best


# ---------------------------------------------------------------------------
# Hybrid genetic search


def lox_crossover(p1: Tour, p2: Tour, rng: random.Random) -> list:
    """Linear order crossover on the customer part of two parents.

    Copies a window of the first parent in place and fills the rest in
    the second parent's order. The window may be empty (child is the
    second parent) or everything (child is the first). Offspring may
    violate precedence; repair handles that.
    """
    n2 = len(p1.seq) - 2
    c1 = p1.seq[1 : n2 + 1]
    c2 = p2.seq[1 : n2 + 1]
    a = rng.randint(0, n2)
    b = rng.randint(0, n2)
    if a > b:
        a, b = b, a
    window = c1[a:b]
    used = set(window)
    fill = [v for v in c2 if v not in used]
    return [p1.seq[0]] + fill[:a] + window + fill[a:] + [p1.seq[-1]]


def mutate_and_repair(inst: Instance, seq: list) -> Tour:
    """Applies the best type-1 4-opt if it helps, then fixes broken pairs.

    Repair takes each violated pair in tour order of its pickup, pulls
    both visits out and reinserts them at the cheapest feasible joint
    position. Reinsertion always places the pickup first, so one pass
    leaves no violations behind.
    """
    w = inst.work_cost()
    n = inst.n_pairs
    res = four_opt_type1_any(inst, seq)
    if res is not None:
        delta, cuts = res
        if delta < -inst.eps:
            seq = four_opt_splice(seq, "4opt-type1", cuts)
    broken = check_precedence(inst, seq)
    if broken:
        at = {v: t for t, v in enumerate(seq[:-1])}
        for _, x in sorted((at[x], x) for x in broken):
            i, j = sorted((seq.index(x), seq.index(x + n)))
            del seq[j]
            del seq[i]
            _, ip, jp = best_insertion(w, seq, x, x + n)
            insert_pair(seq, x, x + n, ip, jp)
    return Tour(inst, seq)


def edge_set(inst: Instance, seq) -> frozenset:
    """Undirected location pairs of consecutive visits; open tours skip
    the arc into the virtual terminal."""
    coords = inst.coords

    def key(v):
        return coords[v] if coords is not None else v

    limit = len(seq) - 2 if inst.mode == OPEN else len(seq) - 1
    edges = set()
    for t in range(limit):
        a, b = key(seq[t]), key(seq[t + 1])
        edges.add((a, b) if a <= b else (b, a))
    return frozenset(edges)


def jaccard(e1: frozenset, e2: frozenset) -> float:
    union = len(e1 | e2)
    if union == 0:
        return 0.0
    return (union - len(e1 & e2)) / union


def biased_fitness(costs, dist, mu_elite: int = 1) -> list:
    """Cost rank plus discounted diversity rank, both zero-based.

    Diversity is the mean distance to the two closest other
    individuals, ranked descending so distinct solutions score low.
    Needs at least three individuals to have two neighbors each.
    """
    p = len(costs)
    if p < 3:
        raise ValueError("population must hold at least 3 individuals")
    by_cost = sorted(range(p), key=lambda i: (costs[i], i))
    rc = [0] * p
    for r, i in enumerate(by_cost):
        rc[i] = r
    contrib = []
    for i in range(p):
        two = sorted(dist[i][j] for j in range(p) if j != i)[:2]
        contrib.append((two[0] + two[1]) / 2)
    by_div = sorted(range(p), key=lambda i: (-contrib[i], i))
    rd = [0] * p
    for r, i in enumerate(by_div):
        rd[i] = r
    coef = 1.0 - mu_elite / p
    return [rc[i] + coef * rd[i] for i in range(p)]


class _Member:
    __slots__ = ("tour", "edges")

    def __init__(self, tour, edges):
        self.tour = tour
        self.edges = edges


def hgs_run(
    inst: Instance,
    params: HgsParams,
    rng: random.Random,
    stats: dict | None = None,
) -> Tour:
    """Hybrid genetic search; stops on the time budget or after
    ``max_no_improve`` consecutive children without a new best.

    The time budget also bounds every descent and the building of the
    initial population, which stops at the deadline once it holds one
    tour.
    """
    t_start = time.perf_counter()
    deadline = None if params.tmax is None else t_start + params.tmax
    sp = params.search
    pop: list[_Member] = []
    dist: list[list[float]] = []

    def add(tour: Tour):
        e = edge_set(inst, tour.seq)
        row = [jaccard(e, m.edges) for m in pop]
        for prev, d in zip(dist, row):
            prev.append(d)
        dist.append(row + [0.0])
        pop.append(_Member(tour, e))

    def trim():
        while len(pop) > params.mu:
            costs = [m.tour.cost for m in pop]
            bf = biased_fitness(costs, dist, params.mu_elite)
            keep = set(
                sorted(range(len(pop)), key=lambda i: (costs[i], i))[: params.mu_elite]
            )
            worst = None
            for i in range(len(pop)):
                if i in keep:
                    continue
                if worst is None or bf[i] > bf[worst]:
                    worst = i
            pop.pop(worst)
            dist.pop(worst)
            for row in dist:
                row.pop(worst)

    best = None
    ttb = 0.0
    for _ in range(params.mu):
        t = greedy_construct(inst, rng)
        local_search(inst, t, sp, rng, deadline=deadline)
        add(t)
        if best is None or t.cost < best.cost:
            best = t.copy()
            ttb = time.perf_counter() - t_start
        if deadline is not None and time.perf_counter() >= deadline:
            break

    children = 0
    no_improve = 0
    while True:
        if deadline is not None and time.perf_counter() >= deadline:
            break
        if params.max_no_improve is not None and no_improve >= params.max_no_improve:
            break
        costs = [m.tour.cost for m in pop]
        bf = biased_fitness(costs, dist, params.mu_elite)

        def pick():
            i = rng.randrange(len(pop))
            j = rng.randrange(len(pop))
            return i if bf[i] <= bf[j] else j

        p1 = pop[pick()].tour
        p2 = pop[pick()].tour
        child = mutate_and_repair(inst, lox_crossover(p1, p2, rng))
        local_search(inst, child, sp, rng, deadline=deadline)
        add(child)
        children += 1
        if child.cost < best.cost:
            best = child.copy()
            ttb = time.perf_counter() - t_start
            no_improve = 0
        else:
            no_improve += 1
        if len(pop) >= params.mu + params.lam:
            trim()

    if stats is not None:
        stats.update(cost=best.cost, ttb=ttb, children=children)
    return best
