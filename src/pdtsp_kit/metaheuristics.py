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

The population keeps its distance matrix and each member's two nearest
distances up to date as members enter and leave, as HGS-CVRP keeps its
proximity lists (Vidal 2022): an entering member updates every other
member's pair in O(1), and a leaving one sends back to a full sort only
the rows whose pair it changes. A row whose pair survives the removal
keeps it, as most rows of clones, with several 0.0 distances, do.
Ranking then reads two floats per member instead of sorting every row.
Survivor selection ranks cost and diversity once per trim and keeps
both rankings across its removals, ranking diversity again only after a
removal that changed some pair. Both sorts are stable, and a removal
keeps the order of the members that remain, so the kept ranks are the
ones a new sort would give.

A tour whose sequence equals a current member's, a twin, takes the
member's edge set and distance row instead of one Jaccard distance per
member; the edge set depends on the sequence alone.

Per-run maps skip repeated deterministic work. Genetic search keeps
two, each an ``Lru`` of at most ``mu + lam`` keys, the population's own
bound, as HGS-CVRP bounds its per-run state (Vidal 2022). The breeding
memo maps a child's sequence, as crossover left it, to its mutated and
repaired tour; a clone population breeds the same child again and
again. The descent memo holds the steps every descent ran, one record
per tour (``local_search(memo=...)``), so a child that reaches a
member's local optimum, or any tour an earlier descent passed, skips
the steps already run there. Ruin-and-recreate keeps one, the recreate
memo, an ``Lru`` of ``RR_MEMO_CAP`` keys. It maps the current sequence
and the shuffled order of the removed pairs to the candidate rebuilt
from them; on small instances the run mostly stays at one tour, and
about half its iterations repeat a rebuild. All three are exact:
mutation, repair and recreation read no random numbers and depend on
their key alone, and so does a pair step. The cap of 64 keys holds at
most 64 tours of any size, and in 200-iteration runs on 5-8 pairs it
catches 97.7% of the repeats an unbounded memo would (51.3% against
52.5% of iterations).
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field

from .instance import Instance, OPEN
from .neighborhoods import SearchParams, four_opt_type1_any
from .neighborhoods.relocate import best_insertion, removal_delta
from .search import Lru, local_search
from .tour import Tour, check_precedence, four_opt_splice, insert_pair


@dataclass
class RrParams:
    """Ruin-and-recreate budget.

    ``iters`` gives a deterministic run; ``tmax`` (seconds) may cap or
    replace it. ``tmax`` must be a nonnegative number, not NaN, and
    ``math.inf`` is no time budget, so it cannot replace ``iters``.
    """

    iters: int | None = 10000
    tmax: float | None = None

    def __post_init__(self):
        # A NaN deadline would never pass: NaN fails every comparison.
        if self.tmax is not None and not self.tmax >= 0:
            raise ValueError("tmax must be a nonnegative number")
        if self.iters is None and self.tmax in (None, math.inf):
            raise ValueError("need an iteration or time budget")
        if self.iters is not None and self.iters < 0:
            raise ValueError("iters must be nonnegative")


@dataclass
class HgsParams:
    """Population sizes, stop rules and embedded search settings.

    ``tmax`` (seconds) must be a nonnegative number, not NaN, and
    ``math.inf`` is no time budget, so it needs ``max_no_improve``.
    """

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
        if self.tmax is not None and not self.tmax >= 0:
            raise ValueError("tmax must be a nonnegative number")
        if self.tmax in (None, math.inf) and self.max_no_improve is None:
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

# The most keys ruin-and-recreate's recreate memo holds.
RR_MEMO_CAP = 64


def _destroy_random(inst, tour, q, rng):
    return sorted(rng.sample(range(1, inst.n_pairs + 1), q))


def _removal_ranking(inst, tour) -> list:
    """``(removal_delta, x)`` for every pair x of ``tour``, ascending:
    the pair whose removal saves the most comes first."""
    w = inst.work_cost()
    n = inst.n_pairs
    seq, pos = tour.seq, tour.pos
    return sorted((removal_delta(w, seq, pos[x], pos[x + n]), x) for x in range(1, n + 1))


def _destroy_worst(inst, tour, q, rng, ranked=None):
    # Pops from a copy of the tour's ranking (_removal_ranking, built
    # here unless given), most expensive pairs first; the cubed draw
    # biases removal toward the top without making it deterministic.
    items = list(ranked) if ranked is not None else _removal_ranking(inst, tour)
    picked = []
    for _ in range(q):
        idx = int(len(items) * rng.random() ** 3)
        picked.append(items.pop(idx)[1])
    return picked


def _destroy_block(inst, tour, q, rng):
    # Spans are measured on the tour as it was when the call started.
    # The tour is feasible, so a pair's first visit in a span is its
    # pickup whenever the pickup lies there.
    n = inst.n_pairs
    pos = tour.pos
    remaining = list(range(1, n + 1))
    removed = []
    while len(removed) < q and remaining:
        x = remaining[rng.randrange(len(remaining))]
        lo, hi = pos[x], pos[x + n]
        hits = []
        for y in remaining:
            if lo <= pos[y] <= hi:
                hits.append((pos[y], y))
            elif lo <= pos[y + n] <= hi:
                hits.append((pos[y + n], y))
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
) -> Tour:
    """Runs ruin-and-recreate and returns the best tour found.

    The starting temperature accepts a 5 percent degradation with
    probability one half and decays geometrically to a thousandth of
    itself across the budget.

    Two pieces of per-run state skip repeated deterministic work (see
    the module docstring). The recreate memo, an ``Lru`` of
    ``RR_MEMO_CAP`` keys, maps (current sequence, shuffled removal
    order) to the candidate tour built from them; a held key skips the
    insertions and the ``Tour`` construction. The removal ranking that
    ``_destroy_worst`` pops from is built again only when the current
    sequence differs from the one it was last built for. The destroy
    operators only read the current tour and ``best`` is a copy, so a
    stored candidate is never edited and may become the current tour.
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
    operators = (_destroy_random, _destroy_worst, _destroy_block)
    recreated = Lru(RR_MEMO_CAP)
    cur_key = tuple(cur.seq)
    ranked_key = ranked = None  # the last ranking _destroy_worst took

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
        if op is _destroy_worst:
            if ranked_key != cur_key:
                ranked_key, ranked = cur_key, _removal_ranking(inst, cur)
            removed = op(inst, cur, q, rng, ranked)
        else:
            removed = op(inst, cur, q, rng)
        order = list(removed)
        rng.shuffle(order)
        key = (cur_key, tuple(order))
        cand = recreated.get(key)
        if cand is None:
            gone = set()
            for x in removed:
                gone.add(x)
                gone.add(x + n)
            part = [v for v in cur.seq if v not in gone]
            for x in order:
                _, ip, jp = best_insertion(w, part, x, x + n)
                insert_pair(part, x, x + n, ip, jp)
            cand = Tour(inst, part)
            recreated.put(key, cand)
        delta = cand.cost - cur.cost
        if delta < 0:
            accept = True
        else:
            accept = rng.random() < math.exp(-delta / temp) if temp > 0 else False
        if accept:
            if cand.seq != cur.seq:
                cur_key = tuple(cand.seq)
            cur = cand
            if cur.cost < best.cost:
                best = cur.copy()
                ttb = time.perf_counter() - t_start
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


def mutate_and_repair(inst: Instance, seq: list, memo: Lru | None = None) -> Tour:
    """Applies the best type-1 4-opt if it helps, then fixes broken pairs.

    Repair takes each violated pair in tour order of its pickup, pulls
    both visits out and reinserts them at the cheapest feasible joint
    position. Reinsertion always places the pickup first, so one pass
    leaves no violations behind. ``seq`` may be edited in place.

    The function is pure: the result depends on ``seq`` alone, and
    neither step draws a random number. So a caller may pass a ``memo``
    that maps ``tuple(seq)`` to the stored result; a sequence it holds
    returns a copy of the stored tour, and a new one stores a copy of
    its result, so editing a returned tour never reaches the memo.
    """
    if memo is not None:
        key = tuple(seq)
        done = memo.get(key)
        if done is not None:
            return done.copy()
    w = inst.work_cost()
    n = inst.n_pairs
    m = four_opt_type1_any(inst, seq)
    if m.indices:
        seq = four_opt_splice(seq, m.kind, m.indices)
    broken = check_precedence(inst, seq)
    if broken:
        at = {v: t for t, v in enumerate(seq[:-1])}
        for _, x in sorted((at[x], x) for x in broken):
            i, j = sorted((seq.index(x), seq.index(x + n)))
            del seq[j]
            del seq[i]
            _, ip, jp = best_insertion(w, seq, x, x + n)
            insert_pair(seq, x, x + n, ip, jp)
    tour = Tour(inst, seq)
    if memo is not None:
        memo.put(key, tour.copy())
    return tour


def location_ids(inst: Instance) -> list:
    """Location id of every visit, for ``edge_set``.

    Visits at equal coordinates share the smallest of their visit ids;
    without coordinates every visit is its own location. An open
    instance's virtual terminal gets its own id, ``inst.end``.
    """
    if inst.coords is None:
        loc = list(range(inst.n_visits))
    else:
        first = {}
        loc = [first.setdefault(xy, v) for v, xy in enumerate(inst.coords)]
    if inst.mode == OPEN:
        loc.append(inst.end)
    return loc


def edge_set(loc, seq) -> frozenset:
    """Undirected location-id pairs ``(a, b)``, ``a <= b``, of consecutive
    visits; ``loc`` comes from ``location_ids``. An open tour ends at
    the virtual terminal, and the arc into it is skipped."""
    ids = [loc[v] for v in (seq if seq[-1] == seq[0] else seq[:-1])]
    # A frozenset copied from a set gets a table sized to fit; one grown
    # from a generator can take twice the memory and intersects slower.
    return frozenset({(a, b) if a <= b else (b, a) for a, b in zip(ids, ids[1:])})


def jaccard(e1: frozenset, e2: frozenset) -> float:
    inter = len(e1 & e2)
    union = len(e1) + len(e2) - inter
    if union == 0:
        return 0.0
    return (union - inter) / union


def join_neighbors(dist, near, row) -> None:
    """Adds a member whose distances to the current ones are ``row``.

    ``dist`` is the square distance matrix, nonnegative with a zero
    diagonal, and ``near[i]`` holds the two smallest off-diagonal
    entries of ``dist[i]``, ascending, padded with ``inf`` while the
    population holds fewer than three. Each current member takes its
    new distance into ``near`` in O(1).
    """
    for prev, nb, d in zip(dist, near, row):
        prev.append(d)
        if d < nb[1]:
            if d < nb[0]:
                nb[0], nb[1] = d, nb[0]
            else:
                nb[1] = d
    near.append((sorted(row) + [math.inf, math.inf])[:2])
    row.append(0.0)
    dist.append(row)


def leave_neighbors(dist, near, k) -> bool:
    """Drops member ``k`` from ``dist`` and ``near`` (see
    ``join_neighbors``) and reports whether any other member's pair
    changed.

    A row is sorted again only when its pair changes. Removing a
    distance above ``nb[1]`` keeps the pair, and removing one below it
    takes away ``nb[0]``, whose only copy it was. Removing a distance
    equal to ``nb[1]`` keeps the pair exactly when the row still holds,
    off the diagonal, as many copies of ``nb[1]`` as ``nb`` does; clones
    hold several 0.0 distances, so most of their rows keep it. A sorted
    row starts with its zero diagonal, so the two entries after it are
    the two closest others.
    """
    dist.pop(k)
    near.pop(k)
    changed = False
    for row, nb in zip(dist, near):
        d = row.pop(k)
        if d > nb[1]:
            continue
        if d == nb[1] and row.count(d) - (d == 0.0) >= 1 + (nb[0] == d):
            continue
        nb[:] = (sorted(row)[1:3] + [math.inf, math.inf])[:2]
        changed = True
    return changed


def ranks_of(values, reverse: bool = False) -> list:
    """Zero-based rank of each entry in a stable sort of ``values``,
    descending if ``reverse``; ties go to the smaller index."""
    p = len(values)
    ranks = [0] * p
    for r, i in enumerate(sorted(range(p), key=values.__getitem__, reverse=reverse)):
        ranks[i] = r
    return ranks


def biased_fitness(costs, contrib, mu_elite: int = 1) -> list:
    """Cost rank plus discounted diversity rank, both zero-based.

    ``contrib[i]`` is member i's diversity contribution, the mean
    distance to its two closest other members; it is ranked descending
    so distinct solutions score low. Ties go to the smaller index in
    both ranks. The fitness list starts as the cost ranks (``ranks_of``,
    which survivor selection shares) and adds each member's diversity
    rank, times ``1 - mu_elite / p``, as the sort lists it. Needs at
    least three individuals to have two neighbors each.
    """
    p = len(costs)
    if p < 3:
        raise ValueError("population must hold at least 3 individuals")
    fit = ranks_of(costs)
    coef = 1.0 - mu_elite / p
    for r, i in enumerate(sorted(range(p), key=contrib.__getitem__, reverse=True)):
        fit[i] += coef * r
    return fit


def select_survivors(costs, dist, near, mu: int, mu_elite: int) -> list:
    """Removes members until ``mu`` remain and returns their indices,
    each as it was at its removal, in the order they left.

    Each removal takes the member of worst biased fitness (the first on
    ties) outside the ``mu_elite`` cheapest and drops it from ``dist``
    and ``near`` with ``leave_neighbors``; ``costs`` is only read. Cost
    and diversity are ranked once per call. A removal drops the member's
    two ranks and lowers every rank above them by one: both sorts are
    stable, and a removal keeps the relative order of the members that
    remain, so these are the ranks a new sort would give. Diversity is
    ranked again only when ``leave_neighbors`` reports a changed pair;
    otherwise every contribution is the same float as before.

    The elites need no guard. With p > mu >= mu_elite members and
    ``coef = 1 - mu_elite / p``, an elite's fitness is at most
    ``mu_elite - 1 + coef * (p - 1) = p - 2 + mu_elite / p``, less than
    p - 1, and the costliest member's fitness is at least its cost rank,
    p - 1. So the worst fitness is never an elite's.
    """
    rc = ranks_of(costs)
    rd = ranks_of([(a + b) / 2 for a, b in near], reverse=True)
    removed = []
    while len(rc) > mu:
        coef = 1.0 - mu_elite / len(rc)
        fit = [a + coef * b for a, b in zip(rc, rd)]
        k = fit.index(max(fit))
        removed.append(k)
        c, d = rc.pop(k), rd.pop(k)
        rc = [r - (r > c) for r in rc]
        if leave_neighbors(dist, near, k):
            rd = ranks_of([(a + b) / 2 for a, b in near], reverse=True)
        else:
            rd = [r - (r > d) for r in rd]
    return removed


class _Member:
    __slots__ = ("tour", "edges")

    def __init__(self, tour, edges):
        self.tour = tour
        self.edges = edges


def find_twin(pop, seq) -> int | None:
    """Index of the first member whose tour visits ``seq`` in order.

    Sequences are compared, never costs: equal float tours can carry
    costs that differ in the last bit, because ``apply_move`` advances
    the cost by each move's delta.
    """
    for k, m in enumerate(pop):
        if m.tour.seq == seq:
            return k
    return None


def hgs_run(
    inst: Instance,
    params: HgsParams,
    rng: random.Random,
    stats: dict | None = None,
) -> Tour:
    """Hybrid genetic search; stops on the time budget or after
    ``max_no_improve`` consecutive children without a new best.

    The time budget also bounds every descent, the building of the
    initial population and the breeding of children. Once the population
    holds one tour, it starts no greedy construction that would end past
    the deadline if it took as long as the previous one, and it starts no
    child whose crossover, mutation and repair would end past it if they
    took as long as the previous child's.
    """
    t_start = time.perf_counter()
    deadline = math.inf if params.tmax is None else t_start + params.tmax
    sp = params.search
    loc = location_ids(inst)
    pop: list[_Member] = []
    dist: list[list[float]] = []
    near: list[list[float]] = []
    # The breeding and descent memos (see the module docstring).
    bred = Lru(params.mu + params.lam)
    scanned = Lru(params.mu + params.lam)

    def educate_and_add(tour: Tour):
        local_search(inst, tour, sp, rng, deadline=deadline, memo=scanned)
        k = find_twin(pop, tour.seq)
        if k is None:
            e = edge_set(loc, tour.seq)
            row = [jaccard(e, m.edges) for m in pop]
        else:
            # A twin's distances are its own row: jaccard is symmetric
            # and gives 0.0 on equal sets, the diagonal entry.
            e = pop[k].edges
            row = dist[k][:]
        join_neighbors(dist, near, row)
        pop.append(_Member(tour, e))

    best = None
    ttb = 0.0
    for _ in range(params.mu):
        t_build = time.perf_counter()
        t = greedy_construct(inst, rng)
        build_s = time.perf_counter() - t_build
        educate_and_add(t)
        if best is None or t.cost < best.cost:
            best = t.copy()
            ttb = time.perf_counter() - t_start
        # A construction reads no clock, so none starts that would end
        # past the deadline if it took as long as the last one.
        if time.perf_counter() + build_s >= deadline:
            break

    children = 0
    no_improve = 0
    breed_s = 0.0
    # Trimming keeps mu members, so a smaller population is one whose
    # building the deadline stopped, and the run ends with it.
    while len(pop) >= params.mu:
        # Breeding reads no clock either, so the construction rule
        # holds for children too.
        if time.perf_counter() + breed_s >= deadline:
            break
        if params.max_no_improve is not None and no_improve >= params.max_no_improve:
            break
        bf = biased_fitness(
            [m.tour.cost for m in pop], [(a + b) / 2 for a, b in near], params.mu_elite
        )

        def pick():
            i = rng.randrange(len(pop))
            j = rng.randrange(len(pop))
            return i if bf[i] <= bf[j] else j

        t_breed = time.perf_counter()
        p1 = pop[pick()].tour
        p2 = pop[pick()].tour
        child = mutate_and_repair(inst, lox_crossover(p1, p2, rng), memo=bred)
        breed_s = time.perf_counter() - t_breed
        educate_and_add(child)
        children += 1
        if child.cost < best.cost:
            best = child.copy()
            ttb = time.perf_counter() - t_start
            no_improve = 0
        else:
            no_improve += 1
        if len(pop) >= params.mu + params.lam:
            costs = [m.tour.cost for m in pop]
            for k in select_survivors(costs, dist, near, params.mu, params.mu_elite):
                pop.pop(k)

    if stats is not None:
        stats.update(cost=best.cost, ttb=ttb, children=children)
    return best
