"""Construction, destroy operators, ruin-and-recreate and genetic search."""

import random
import time

import pytest

from pdtsp_kit.metaheuristics import (
    HgsParams,
    RrParams,
    _destroy_block,
    _destroy_random,
    _destroy_worst,
    biased_fitness,
    edge_set,
    greedy_construct,
    hgs_run,
    jaccard,
    lox_crossover,
    mutate_and_repair,
    rr_run,
)
from pdtsp_kit.neighborhoods.relocate import removal_delta
from pdtsp_kit.oracle import brute_force_optimal
from pdtsp_kit.tour import Tour, tour_cost
from helpers import euclid_instance, random_feasible_tour


class ScriptRng:
    """Feeds canned values to the draws a function makes."""

    def __init__(self, randoms=(), randints=(), randranges=()):
        self.randoms = list(randoms)
        self.randints = list(randints)
        self.randranges = list(randranges)

    def random(self):
        return self.randoms.pop(0)

    def randint(self, a, b):
        v = self.randints.pop(0)
        assert a <= v <= b
        return v

    def randrange(self, n):
        return self.randranges.pop(0) % n


# ---------------------------------------------------------------------------
# Construction


def test_greedy_construct_valid_and_deterministic():
    for mode in ("closed", "open"):
        inst = euclid_instance(random.Random(90), 8, mode=mode)
        t1 = greedy_construct(inst, random.Random(5))
        t2 = greedy_construct(inst, random.Random(5))
        assert t1.seq == t2.seq
        assert t1.is_feasible()
        assert t1.cost == tour_cost(inst, t1.seq)


# ---------------------------------------------------------------------------
# Destroy operators


def test_destroy_operators_return_distinct_pairs():
    rng = random.Random(91)
    inst = euclid_instance(rng, 9)
    tour = random_feasible_tour(rng, inst)
    for op in (_destroy_random, _destroy_worst, _destroy_block):
        for q in (1, 4, 9):
            got = op(inst, tour, q, rng)
            assert len(got) == q
            assert len(set(got)) == q
            assert all(1 <= x <= 9 for x in got)


def test_destroy_worst_greedy_draws_take_top_gains():
    rng = random.Random(92)
    inst = euclid_instance(rng, 7)
    tour = random_feasible_tour(rng, inst)
    w = inst.work_cost()
    gains = []
    for x in range(1, 8):
        i, j = tour.pos[x], tour.pos[x + 7]
        gains.append((removal_delta(w, tour.seq, i, j), x))
    gains.sort()  # removal deltas are negative; most expensive pair first
    expect = [x for _, x in gains[:3]]
    got = _destroy_worst(inst, tour, 3, ScriptRng(randoms=[0.0, 0.0, 0.0]))
    assert got == expect


def test_destroy_block_seeds_with_chosen_pair():
    rng = random.Random(93)
    inst = euclid_instance(rng, 6)
    tour = random_feasible_tour(rng, inst)
    got = _destroy_block(inst, tour, 3, ScriptRng(randranges=[0, 0, 0]))
    assert got[0] == 1  # span of pair 1 always contains pair 1 itself
    assert len(set(got)) == 3


# ---------------------------------------------------------------------------
# Ruin and recreate


def test_rr_deterministic_and_no_worse_than_start():
    inst = euclid_instance(random.Random(94), 7)
    start = greedy_construct(inst, random.Random(11))
    outs = []
    for _ in range(2):
        stats = {}
        best = rr_run(inst, RrParams(iters=120), random.Random(11), stats)
        assert best.is_feasible()
        assert best.cost == tour_cost(inst, best.seq)
        assert best.cost == stats["cost"]
        assert stats["iters"] == 120
        assert best.cost <= start.cost
        outs.append(best.seq)
    assert outs[0] == outs[1]


def test_rr_zero_iters_returns_construction():
    inst = euclid_instance(random.Random(95), 5)
    stats = {}
    best = rr_run(inst, RrParams(iters=0), random.Random(3), stats)
    ref = greedy_construct(inst, random.Random(3))
    assert best.seq == ref.seq
    assert stats["iters"] == 0


def test_rr_evaluators_walk_identically():
    inst = euclid_instance(random.Random(96), 6)
    traces = []
    finals = []
    for fast in (True, False):
        trace = []
        best = rr_run(inst, RrParams(iters=80, fast=fast), random.Random(17), trace=trace)
        traces.append(trace)
        finals.append(best.seq)
    assert traces[0] == traces[1]
    assert finals[0] == finals[1]


def test_rr_time_budget_stops():
    inst = euclid_instance(random.Random(97), 10)
    stats = {}
    best = rr_run(inst, RrParams(iters=None, tmax=0.05), random.Random(1), stats)
    assert best.is_feasible()
    assert stats["iters"] >= 1


def test_rr_params_validation():
    with pytest.raises(ValueError):
        RrParams(iters=None, tmax=None)
    with pytest.raises(ValueError):
        RrParams(iters=-1)


# ---------------------------------------------------------------------------
# Genetic operators


def test_lox_window_extremes():
    rng = random.Random(98)
    inst = euclid_instance(rng, 5)
    p1 = random_feasible_tour(rng, inst)
    p2 = random_feasible_tour(rng, inst)
    n2 = 10
    child = lox_crossover(p1, p2, ScriptRng(randints=[4, 4]))
    assert child == p2.seq  # empty window keeps the second parent
    child = lox_crossover(p1, p2, ScriptRng(randints=[0, n2]))
    assert child == p1.seq  # full window keeps the first


def test_lox_children_are_permutations():
    rng = random.Random(99)
    inst = euclid_instance(rng, 6)
    for _ in range(20):
        p1 = random_feasible_tour(rng, inst)
        p2 = random_feasible_tour(rng, inst)
        child = lox_crossover(p1, p2, rng)
        assert child[0] == 0 and child[-1] == inst.end
        assert sorted(child[1:-1]) == list(range(1, 13))


def test_mutate_and_repair_fixes_any_permutation():
    rng = random.Random(100)
    inst = euclid_instance(rng, 6)
    for _ in range(25):
        mid = list(range(1, 13))
        rng.shuffle(mid)
        tour = mutate_and_repair(inst, [0] + mid + [inst.end])
        assert tour.is_feasible()
        assert tour.cost == tour_cost(inst, tour.seq)


def test_mutate_and_repair_keeps_settled_tour():
    rng = random.Random(101)
    inst = euclid_instance(rng, 5)
    best = brute_force_optimal(inst)
    tour = mutate_and_repair(inst, list(best.tour.seq))
    # Nothing beats the optimum, so the mutation must decline and the
    # repair pass has nothing to do.
    assert tour.seq == best.tour.seq


# ---------------------------------------------------------------------------
# Diversity machinery


def test_edge_set_counts_and_open_terminal_skip():
    rng = random.Random(102)
    closed = euclid_instance(rng, 4, mode="closed")
    t = random_feasible_tour(rng, closed)
    assert len(edge_set(closed, t.seq)) <= 9  # duplicate locations may merge
    opened = euclid_instance(rng, 4, mode="open")
    t = random_feasible_tour(rng, opened)
    edges = edge_set(opened, t.seq)
    assert len(edges) <= 8
    term = opened.end
    assert all(term not in (a, b) for a, b in edges if isinstance(a, int))


def test_jaccard_extremes():
    a = frozenset({(0, 1), (1, 2)})
    b = frozenset({(2, 3), (3, 4)})
    assert jaccard(a, a) == 0.0
    assert jaccard(a, b) == 1.0
    assert jaccard(frozenset(), frozenset()) == 0.0


def test_biased_fitness_hand_example():
    costs = [5, 1, 3]
    dist = [
        [0.0, 0.2, 0.8],
        [0.2, 0.0, 0.4],
        [0.8, 0.4, 0.0],
    ]
    bf = biased_fitness(costs, dist, mu_elite=1)
    assert bf == pytest.approx([2 + 2 / 3 * 1, 0 + 2 / 3 * 2, 1 + 2 / 3 * 0])
    bf = biased_fitness(costs, dist, mu_elite=0)
    assert bf == pytest.approx([3.0, 2.0, 1.0])
    with pytest.raises(ValueError):
        biased_fitness([1, 2], [[0, 1], [1, 0]])


# ---------------------------------------------------------------------------
# Genetic search


def test_hgs_deterministic_and_finds_small_optimum():
    inst = euclid_instance(random.Random(103), 4)
    opt = brute_force_optimal(inst).cost
    outs = []
    for _ in range(2):
        stats = {}
        params = HgsParams(mu=5, lam=6, max_no_improve=15)
        best = hgs_run(inst, params, random.Random(7), stats)
        assert best.is_feasible()
        assert best.cost == stats["cost"]
        outs.append((best.cost, best.seq, stats["children"]))
    assert outs[0] == outs[1]
    assert outs[0][0] == opt


def test_hgs_time_budget_stops():
    inst = euclid_instance(random.Random(104), 8)
    params = HgsParams(mu=4, lam=4, tmax=0.3, max_no_improve=None)
    best = hgs_run(inst, params, random.Random(2))
    assert best.is_feasible()


def test_hgs_time_budget_bounds_every_descent():
    # At n = 60 the initial population alone takes seconds, so a budget
    # of half a second holds only if descents watch the clock too.
    inst = euclid_instance(random.Random(104), 60, span=1000)
    t0 = time.perf_counter()
    stats = {}
    best = hgs_run(inst, HgsParams(tmax=0.5), random.Random(1), stats)
    assert time.perf_counter() - t0 < 1.5
    assert best.is_feasible()
    assert best.cost == stats["cost"] == tour_cost(inst, best.seq)


def test_hgs_params_validation():
    with pytest.raises(ValueError):
        HgsParams()  # no stop rule
    with pytest.raises(ValueError):
        HgsParams(mu=1, max_no_improve=1)
    with pytest.raises(ValueError):
        HgsParams(mu=2, lam=1, max_no_improve=5)
    with pytest.raises(ValueError):
        HgsParams(mu=5, mu_elite=6, max_no_improve=1)
    with pytest.raises(ValueError):
        HgsParams(lam=0, max_no_improve=1)
