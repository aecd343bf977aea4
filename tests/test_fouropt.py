"""Restricted 4-opt scan against brute-force partner search."""

import random

import pytest

from pdtsp_kit.instance import generate_pairs
from pdtsp_kit.neighborhoods import four_opt_best, four_opt_type1_any
from pdtsp_kit.neighborhoods.oracles import four_opt_oracle
from pdtsp_kit.tour import (
    MoveDelta,
    Tour,
    apply_move,
    check_precedence,
    four_opt_splice,
    tour_cost,
)
from helpers import euclid_instance, float_instance, random_feasible_tour


def test_matches_oracle_and_applies_cleanly():
    rng = random.Random(60)
    found = 0
    for n in (3, 4, 5, 6):
        for _ in range(4):
            inst = euclid_instance(rng, n)
            for _ in range(6):
                tour = random_feasible_tour(rng, inst)
                mv = four_opt_best(inst, tour)
                ref = four_opt_oracle(inst, tour)
                assert bool(mv.indices) == bool(ref.indices)
                if mv.indices:
                    found += 1
                    assert mv.kind == ref.kind
                    assert mv.indices == ref.indices
                    assert mv.delta == ref.delta
                    assert mv.delta < 0
                    trial = tour.copy()
                    apply_move(inst, trial, mv)
                    assert trial.is_feasible()
                    assert trial.cost == tour_cost(inst, trial.seq)
    assert found > 10  # the family actually fires on random tours


def test_matches_oracle_on_open_and_float_tours():
    rng = random.Random(64)
    found = 0
    for n in (3, 4, 5, 6, 7):
        for build, mode in (
            (euclid_instance, "open"),
            (float_instance, "closed"),
            (float_instance, "open"),
        ):
            inst = build(rng, n, mode=mode)
            for _ in range(4):
                tour = random_feasible_tour(rng, inst)
                mv = four_opt_best(inst, tour)
                ref = four_opt_oracle(inst, tour)
                assert bool(mv.indices) == bool(ref.indices)
                if not mv.indices:
                    continue
                found += 1
                assert mv.kind == ref.kind
                assert mv.indices == ref.indices
                trial = tour.copy()
                apply_move(inst, trial, mv)
                assert trial.is_feasible()
                if build is euclid_instance:
                    assert mv.delta == ref.delta
                    assert trial.cost == tour_cost(inst, trial.seq)
                else:
                    assert mv.delta == pytest.approx(ref.delta, rel=1e-9, abs=1e-7)
                    assert trial.cost == pytest.approx(
                        tour_cost(inst, trial.seq), rel=1e-9
                    )
    assert found > 20


def test_type_ties_resolve_like_the_oracle():
    # Points on a line, many of them shared, give equal totals across
    # types; the scan tries type 1, 2a, 2b in turn and keeps the first.
    kinds = ("4opt-type1", "4opt-type2a", "4opt-type2b")
    tied = 0
    for seed in range(40):
        rng = random.Random(seed)
        n = 4 + seed % 3
        pts = [(10 * rng.randrange(4), 0) for _ in range(2 * n + 1)]
        mode = ("closed", "open")[seed % 2]
        inst = generate_pairs(pts, "C", rng, mode=mode, name="line")
        tour = random_feasible_tour(rng, inst)
        mv = four_opt_best(inst, tour)
        ref = four_opt_oracle(inst, tour)
        assert (mv.kind, mv.indices, mv.delta) == (ref.kind, ref.indices, ref.delta)
        if not mv.indices:
            continue
        chosen = four_opt_splice(tour.seq, mv.kind, mv.indices)
        for kind in kinds[kinds.index(mv.kind) + 1 :]:
            other = four_opt_splice(tour.seq, kind, mv.indices)
            if (
                other != chosen
                and not check_precedence(inst, other)
                and tour_cost(inst, other) - tour.cost == mv.delta
            ):
                tied += 1
    # A later type reaching the same delta at the same cuts, with a
    # different tour, happens on 3 of these 40 seeds.
    assert tied >= 3


def test_too_short_returns_empty():
    rng = random.Random(61)
    inst = euclid_instance(rng, 2)
    tour = Tour.identity(inst)
    empty = MoveDelta("4opt-type1", (), 0)
    assert four_opt_best(inst, tour) == empty
    assert four_opt_type1_any(inst, tour.seq) == empty


def test_float_instances():
    rng = random.Random(62)
    for _ in range(6):
        inst = float_instance(rng, 5)
        tour = random_feasible_tour(rng, inst)
        mv = four_opt_best(inst, tour)
        ref = four_opt_oracle(inst, tour)
        assert bool(mv.indices) == bool(ref.indices)
        if mv.indices:
            assert mv.indices == ref.indices
            assert mv.delta == pytest.approx(ref.delta, rel=1e-9, abs=1e-7)


def _type1(seq, i1, i2, j1, j2):
    return (
        seq[: i1 + 1]
        + seq[j1 + 1 : j2 + 1]
        + seq[i2 + 1 : j1 + 1]
        + seq[i1 + 1 : i2 + 1]
        + seq[j2 + 1 :]
    )


def test_type1_any_matches_brute_force_on_raw_sequences():
    # Each shuffled sequence takes the helper's move until it returns
    # the empty move, checking every result against full enumeration.
    rng = random.Random(63)
    cases = [(euclid_instance, "closed", n) for n in (3, 4, 5)]
    cases += [(euclid_instance, "open", n) for n in (3, 4, 5)]
    cases += [(float_instance, mode, n) for mode in ("closed", "open") for n in (3, 5)]
    moves = empties = 0
    for build, mode, n in cases:
        inst = build(rng, n, mode=mode)
        exact = build is euclid_instance
        base = Tour.identity(inst).seq
        for _ in range(8):
            middle = base[1:-1]
            rng.shuffle(middle)
            seq = [base[0]] + middle + [base[-1]]
            top = len(seq) - 1
            while True:
                res = four_opt_type1_any(inst, seq)
                cost = tour_cost(inst, seq)
                best = min(
                    tour_cost(inst, _type1(seq, bi1, bi2, bj1, bj2)) - cost
                    for bi1 in range(top - 3)
                    for bi2 in range(bi1 + 1, top - 2)
                    for bj1 in range(bi2 + 1, top - 1)
                    for bj2 in range(bj1 + 1, top)
                )
                if best >= -inst.eps:
                    assert res == MoveDelta("4opt-type1", (), 0)
                    empties += 1
                    break
                moves += 1
                assert res.kind == "4opt-type1"
                new = _type1(seq, *res.indices)
                assert new == four_opt_splice(seq, res.kind, res.indices)
                realized = tour_cost(inst, new) - cost
                if exact:
                    assert res.delta == best
                    assert realized == res.delta
                else:
                    assert res.delta == pytest.approx(best, rel=1e-9, abs=1e-7)
                    assert realized == pytest.approx(res.delta, rel=1e-9, abs=1e-7)
                seq = new
    assert empties == len(cases) * 8
    assert moves > empties
