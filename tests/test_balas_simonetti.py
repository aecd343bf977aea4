"""Windowed reordering graph against filtered enumeration."""

import random

import pytest

from pdtsp_kit.neighborhoods import bs_best, bs_optimize
from pdtsp_kit.neighborhoods.oracles import bs_oracle, bs_oracle_pairwise
from pdtsp_kit.tour import MoveDelta, apply_move, check_precedence, tour_cost
from helpers import (
    euclid_instance,
    float_instance,
    layer_widths,
    line_tour,
    random_feasible_tour,
)


def window_ok(orig_seq, new_seq, k):
    # Positions k or more apart must keep their relative order.
    slot = {v: t for t, v in enumerate(new_seq[:-1])}
    last = len(orig_seq) - 1
    for p in range(1, last):
        for q in range(p + k, last):
            if slot[orig_seq[p]] > slot[orig_seq[q]]:
                return False
    return True


def test_recursive_oracle_agrees_with_pairwise_definition():
    rng = random.Random(70)
    for k in (2, 3):
        for _ in range(6):
            inst = euclid_instance(rng, 2)
            tour = random_feasible_tour(rng, inst)
            c1, _ = bs_oracle(inst, tour.seq, k)
            c2, _ = bs_oracle_pairwise(inst, tour.seq, k)
            assert c1 == c2


def test_matches_oracle():
    rng = random.Random(71)
    for n in (2, 3):
        for k in (2, 3, 4):
            for _ in range(5):
                inst = euclid_instance(rng, n)
                tour = random_feasible_tour(rng, inst)
                seq, cost, _ = bs_optimize(inst, tour.seq, k)
                ref_cost, _ = bs_oracle(inst, tour.seq, k)
                assert cost == ref_cost
                assert cost == tour_cost(inst, seq)
                assert not check_precedence(inst, seq)
                assert window_ok(tour.seq, seq, k)


def test_open_mode_and_floats():
    rng = random.Random(72)
    inst = euclid_instance(rng, 3, mode="open")
    tour = random_feasible_tour(rng, inst)
    seq, cost, _ = bs_optimize(inst, tour.seq, 3)
    ref_cost, _ = bs_oracle(inst, tour.seq, 3)
    assert cost == ref_cost
    finst = float_instance(rng, 3)
    ftour = random_feasible_tour(rng, finst)
    seq, cost, _ = bs_optimize(finst, ftour.seq, 3)
    ref_cost, _ = bs_oracle(finst, ftour.seq, 3)
    assert cost == pytest.approx(ref_cost, rel=1e-9)


def test_k1_is_identity():
    rng = random.Random(73)
    for inst in (euclid_instance(rng, 4), float_instance(rng, 4, mode="open")):
        tour = random_feasible_tour(rng, inst)
        seq, cost, layers = bs_optimize(inst, tour.seq, 1)
        assert seq == tour.seq
        assert cost == tour.cost == tour_cost(inst, tour.seq)
        assert type(cost) is type(tour.cost)
        assert layer_widths(layers) == (1, 1)


def test_layer_widths_bounded():
    rng = random.Random(74)
    for k in (2, 3, 4, 5):
        node_cap = (k + 1) * 2 ** max(0, k - 2)
        for _ in range(4):
            inst = euclid_instance(rng, 6)
            tour = random_feasible_tour(rng, inst)
            _, _, layers = bs_optimize(inst, tour.seq, k)
            nodes, shapes = layer_widths(layers)
            assert nodes <= node_cap
            assert shapes <= 2 ** (k - 1)


def test_bs_best_move_improves_or_matches():
    rng = random.Random(75)
    inst = euclid_instance(rng, 5)
    cases = [(inst, random_feasible_tour(rng, inst)) for _ in range(6)]
    line = line_tour(5)
    cases.append((line.inst, line))
    empties = 0
    for inst, tour in cases:
        mv = bs_best(inst, tour, 3)
        if not mv.indices:
            empties += 1
            assert mv == MoveDelta("bs", (), 0)
            ref_cost, _ = bs_oracle(inst, tour.seq, 3)
            assert ref_cost == tour.cost
            continue
        assert mv.delta < 0
        trial = tour.copy()
        apply_move(inst, trial, mv)
        assert trial.is_feasible()
        assert trial.cost == tour_cost(inst, trial.seq)
    assert empties >= 1


def test_k_validation():
    rng = random.Random(76)
    inst = euclid_instance(rng, 2)
    tour = random_feasible_tour(rng, inst)
    with pytest.raises(ValueError):
        bs_optimize(inst, tour.seq, 0)
    with pytest.raises(ValueError):
        bs_optimize(inst, tour.seq, 13)


def test_infeasible_window_raises_value_error():
    # Pairs (1, 3) and (2, 4). In the first tour 2 is three slots after
    # its delivery 4, so a window of 2 cannot bring it ahead; at k = 1
    # every position is fixed, and 3 precedes its pickup 1.
    inst = euclid_instance(random.Random(77), 2)
    for seq, k in (([0, 4, 3, 1, 2, 0], 2), ([0, 3, 1, 2, 4, 0], 1)):
        with pytest.raises(ValueError, match="precedence-feasible"):
            bs_optimize(inst, seq, k)
