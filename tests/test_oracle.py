"""Exact solver against an enumeration of every feasible order."""

import math
import random

import pytest

from pdtsp_kit.oracle import MAX_PAIRS, brute_force_optimal
from pdtsp_kit.search import local_search
from pdtsp_kit.neighborhoods import SearchParams
from pdtsp_kit.metaheuristics import greedy_construct
from pdtsp_kit.tour import Tour, tour_cost
from helpers import euclid_instance, feasible_orders, float_instance, random_feasible_tour


def feasible_leaves(n):
    return math.factorial(2 * n) // 2**n


def enumerate_optimum(inst):
    """The smallest (cost, customer order read backward) over all
    feasible orders: the optimum and the tour the tie rule picks."""
    return min(
        (tour_cost(inst, [0, *order, inst.end]), order[::-1])
        for order in feasible_orders(inst.n_pairs)
    )


def backward_order(tour):
    return tuple(tour.seq[-2:0:-1])


def test_enumeration_reaches_every_feasible_order():
    for n in (1, 2, 3, 4, 5):
        orders = list(feasible_orders(n))
        assert len(orders) == len(set(orders)) == feasible_leaves(n)


def test_pruning_keeps_the_optimum():
    rng = random.Random(111)
    for n in (2, 3, 4, 5):
        for mode in ("closed", "open"):
            inst = euclid_instance(rng, n, mode=mode)
            best = enumerate_optimum(inst)
            plain = brute_force_optimal(inst)
            # A random tour caps loosely; the optimum caps as tight as can be.
            seeds = (random_feasible_tour(rng, inst), plain)
            capped = [brute_force_optimal(inst, seed=seed) for seed in seeds]
            for tour in (plain, *capped):
                assert (tour.cost, backward_order(tour)) == best
                assert tour.is_feasible()
                assert tour.cost == tour_cost(inst, tour.seq)


def test_matches_permutation_enumeration():
    rng = random.Random(112)
    for mode in ("closed", "open"):
        inst = euclid_instance(rng, 3, mode=mode)
        tour = brute_force_optimal(inst)
        assert (tour.cost, backward_order(tour)) == enumerate_optimum(inst)
    finst = float_instance(rng, 3)
    assert brute_force_optimal(finst).cost == pytest.approx(
        enumerate_optimum(finst)[0], rel=1e-9
    )


def test_ties_go_to_the_smallest_backward_order():
    # Coordinates on a 7 x 7 grid make many instances with several
    # optimal tours.
    rng = random.Random(118)
    tied = 0
    for trial in range(80):
        mode = ("closed", "open")[trial % 2]
        inst = euclid_instance(rng, 1 + trial % 4, mode=mode, span=6)
        costs = [
            tour_cost(inst, [0, *order, inst.end])
            for order in feasible_orders(inst.n_pairs)
        ]
        tied += costs.count(min(costs)) > 1
        tour = brute_force_optimal(inst)
        assert (tour.cost, backward_order(tour)) == enumerate_optimum(inst)
    assert tied >= 20, tied


def test_integral_instances_stay_integral():
    inst = euclid_instance(random.Random(113), 4)
    res = brute_force_optimal(inst)
    assert isinstance(res.cost, int)


def test_seed_incumbent_is_safe():
    rng = random.Random(114)
    inst = euclid_instance(rng, 5)
    plain = brute_force_optimal(inst)

    # A mediocre seed must not change the answer.
    seeded = brute_force_optimal(inst, seed=random_feasible_tour(rng, inst))
    assert seeded.cost == plain.cost
    assert seeded.seq == plain.seq

    # Nor does the optimum itself, which caps as tight as can be.
    tight = brute_force_optimal(inst, seed=plain)
    assert tight.cost == plain.cost
    assert tight.seq == plain.seq

    # Nor does a warmed-up heuristic seed.
    warm = greedy_construct(inst, rng)
    local_search(inst, warm, SearchParams(), rng, use_large=True)
    warmed = brute_force_optimal(inst, seed=warm)
    assert warmed.cost == plain.cost
    assert warmed.seq == plain.seq


def test_seed_cheaper_than_the_optimum_is_refused():
    # A cap of -1 prunes every partial tour. A cap just below the
    # optimum keeps partial tours and must refuse the complete ones,
    # whose final edge to the terminal is added after the last layer.
    inst = euclid_instance(random.Random(118), 4)
    opt = brute_force_optimal(inst)
    for cap in (-1, opt.cost - 1):
        fake = opt.copy()
        fake.cost = cap
        with pytest.raises(ValueError, match="seed"):
            brute_force_optimal(inst, seed=fake)


def test_oracle_never_beaten_by_heuristic_tours():
    rng = random.Random(115)
    inst = euclid_instance(rng, 4)
    opt = brute_force_optimal(inst).cost
    for _ in range(30):
        assert random_feasible_tour(rng, inst).cost >= opt


def test_pair_guard():
    inst = euclid_instance(random.Random(116), MAX_PAIRS + 1)
    with pytest.raises(ValueError):
        brute_force_optimal(inst)


def test_result_shape():
    inst = euclid_instance(random.Random(117), 2)
    res = brute_force_optimal(inst)
    assert isinstance(res, Tour)
    assert res.is_feasible()
    assert res.cost == tour_cost(inst, res.seq)
