"""Nested 2-opt dynamic program against full enumeration."""

import random

import pytest

from pdtsp_kit.neighborhoods import two_k_opt_best
from pdtsp_kit.neighborhoods.oracles import two_k_opt_oracle
from pdtsp_kit.tour import MoveDelta, apply_move, tour_cost
from helpers import (
    adjacent_pairs_tour,
    euclid_instance,
    float_instance,
    line_tour,
    random_feasible_tour,
    two_k_opt_best_reference,
)


def test_matches_enumeration_small():
    rng = random.Random(50)
    for n in (2, 3, 4):
        for _ in range(4):
            inst = euclid_instance(rng, n)
            for _ in range(5):
                tour = random_feasible_tour(rng, inst)
                mv = two_k_opt_best(inst, tour)
                ref = two_k_opt_oracle(inst, tour)
                assert mv.delta == ref.delta
                assert mv.seq_after == ref.seq_after
                assert mv.indices == ref.indices


def test_matches_enumeration_open_and_float():
    rng = random.Random(53)
    for n in (3, 5, 7):
        for build, mode in (
            (euclid_instance, "open"),
            (float_instance, "closed"),
            (float_instance, "open"),
        ):
            inst = build(rng, n, mode=mode)
            for _ in range(2):
                tour = random_feasible_tour(rng, inst)
                mv = two_k_opt_best(inst, tour)
                ref = two_k_opt_oracle(inst, tour)
                assert mv.seq_after == ref.seq_after
                if build is euclid_instance:
                    assert mv.delta == ref.delta
                    assert mv.indices == ref.indices
                else:
                    assert mv.delta == pytest.approx(ref.delta, rel=1e-9, abs=1e-7)


def assert_empty_like_oracle(inst, tour, mv):
    assert mv == MoveDelta("2k-opt", (), 0)
    assert two_k_opt_oracle(inst, tour) == mv


def test_root_never_positive_and_apply_consistent():
    rng = random.Random(51)
    empties = 0
    for mode in ("closed", "open"):
        inst = euclid_instance(rng, 6, mode=mode)
        cases = [(inst, random_feasible_tour(rng, inst)) for _ in range(10)]
        line = line_tour(6, mode=mode)
        cases.append((line.inst, line))
        for inst, tour in cases:
            mv = two_k_opt_best(inst, tour)
            if not mv.indices:
                empties += 1
                assert_empty_like_oracle(inst, tour, mv)
                continue
            assert mv.delta < 0
            trial = tour.copy()
            apply_move(inst, trial, mv)
            assert trial.is_feasible()
            assert trial.cost == tour_cost(inst, trial.seq)
            assert trial.cost == tour.cost + mv.delta
    assert empties >= 2


@pytest.mark.parametrize("mode", ["closed", "open"])
def test_apply_consistent_on_large_tours_with_adjacent_pairs(mode):
    # Pickups right before their deliveries make the two-visit cells and
    # the row cut-offs of the blocked reversals matter; each move found
    # along a short descent must realize a feasible tour at exactly
    # cost + delta.
    rng = random.Random(54)
    moves = 0
    for n in (15, 30, 60):
        inst = euclid_instance(rng, n, mode=mode, span=1000)
        for tour in (adjacent_pairs_tour(rng, inst), random_feasible_tour(rng, inst)):
            for _ in range(4):
                mv = two_k_opt_best(inst, tour)
                if not mv.indices:
                    break
                moves += 1
                assert mv.delta < 0
                trial = tour.copy()
                apply_move(inst, trial, mv)
                assert trial.is_feasible()
                assert trial.cost == tour_cost(inst, trial.seq) == tour.cost + mv.delta
                tour = trial
    assert moves >= 20


def test_float_costs():
    rng = random.Random(52)
    inst = float_instance(rng, 3)
    cases = [(inst, random_feasible_tour(rng, inst)) for _ in range(8)]
    line = line_tour(3, step=10.0)
    cases.append((line.inst, line))
    empties = 0
    for inst, tour in cases:
        mv = two_k_opt_best(inst, tour)
        if not mv.indices:
            empties += 1
            assert_empty_like_oracle(inst, tour, mv)
            continue
        ref = two_k_opt_oracle(inst, tour)
        assert mv.delta == pytest.approx(ref.delta, rel=1e-9, abs=1e-7)
        assert mv.seq_after == ref.seq_after
        trial = tour.copy()
        apply_move(inst, trial, mv)
        assert trial.cost == pytest.approx(tour_cost(inst, trial.seq), rel=1e-9)
    assert empties >= 1


def test_identity_when_tour_already_good():
    # A line of points in visiting order cannot be improved.
    pts = [(i * 10, 0) for i in range(7)]
    from pdtsp_kit.instance import generate_pairs

    inst = generate_pairs(pts, "C", random.Random(1), name="line")
    from pdtsp_kit.tour import Tour

    seq = [0] + sorted(
        range(1, 7), key=lambda v: inst.coords[v][0]
    ) + [0]
    tour = Tour(inst, seq)
    mv = two_k_opt_best(inst, tour)
    assert mv == MoveDelta("2k-opt", (), 0)
    assert two_k_opt_oracle(inst, tour) == mv


def test_float_scan_lists_no_single_visit_flip():
    # A 2-opt on (i, i + 2) flips one visit, so it changes nothing, yet
    # its float gain can round below 0 and win a strict comparison.
    rng = random.Random(54)
    for k in range(300):
        inst = float_instance(rng, 8, mode=("closed", "open")[k % 2], span=1000.0)
        tour = random_feasible_tour(rng, inst)
        mv = two_k_opt_best(inst, tour)
        assert all(j > i + 2 for i, j in mv.indices), mv.indices
        if mv.indices:
            assert tour_cost(inst, mv.seq_after) == pytest.approx(tour.cost + mv.delta)


def _nested(flips):
    return any(a < c and d < b for a, b in flips for c, d in flips)


def test_reused_rows_match_the_allocating_kernel():
    # The kernel reuses two rows each of F and R and keeps byte case
    # rows; the reference allocates every row afresh. Results must agree bit for
    # bit, on a second call too, from 1 to 60 pairs.
    rng = random.Random(270)
    nested = 0
    for n in (1, 2, 3, 4, 6, 9, 14, 21, 33, 47, 60):
        for build, mode in (
            (euclid_instance, "closed"),
            (euclid_instance, "open"),
            (float_instance, "closed"),
            (float_instance, "open"),
        ):
            inst = build(rng, n, mode=mode)
            for tour in (adjacent_pairs_tour(rng, inst), random_feasible_tour(rng, inst)):
                ref = two_k_opt_best_reference(inst, tour)
                mv = two_k_opt_best(inst, tour)
                assert mv == ref
                assert repr(mv.delta) == repr(ref.delta)
                assert two_k_opt_best(inst, tour) == mv
                nested += _nested(mv.indices)
    assert nested >= 10
