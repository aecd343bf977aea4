"""Restricted 4-opt scan against brute-force partner search."""

import random

import pytest

from pdtsp_kit.instance import generate_pairs
from pdtsp_kit.neighborhoods import four_opt_best, four_opt_type1_any
from pdtsp_kit.neighborhoods.fouropt import _cut_table, _last_row
from pdtsp_kit.neighborhoods.oracles import (
    _segment_last,
    _segment_rev_ok,
    four_opt_oracle,
)
from pdtsp_kit.tour import (
    MoveDelta,
    Tour,
    apply_move,
    check_precedence,
    four_opt_splice,
    tour_cost,
)
from helpers import (
    adjacent_pairs_tour,
    euclid_instance,
    feasible_orders,
    float_instance,
    four_opt_best_reference,
    four_opt_type1_any_reference,
    random_feasible_tour,
    tour_shapes,
)


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


@pytest.mark.parametrize("mode", ["closed", "open"])
def test_apply_consistent_on_large_tours_with_adjacent_pairs(mode):
    # Pickups right before their deliveries make many segments
    # unflippable; each move found along a short descent must realize a
    # feasible tour at exactly cost + delta.
    rng = random.Random(65)
    kinds = set()
    for n in (15, 30, 60):
        inst = euclid_instance(rng, n, mode=mode, span=1000)
        for tour in (adjacent_pairs_tour(rng, inst), random_feasible_tour(rng, inst)):
            for _ in range(4):
                mv = four_opt_best(inst, tour)
                if not mv.indices:
                    break
                kinds.add(mv.kind)
                assert mv.delta < 0
                trial = tour.copy()
                apply_move(inst, trial, mv)
                assert trial.is_feasible()
                assert trial.cost == tour_cost(inst, trial.seq) == tour.cost + mv.delta
                tour = trial
    assert len(kinds) >= 2


def test_feasibility_tables_match_segment_checks():
    rng = random.Random(66)
    for n in (1, 2, 5, 9):
        for mode in ("closed", "open"):
            inst = euclid_instance(rng, n, mode=mode)
            for tour in (adjacent_pairs_tour(rng, inst), random_feasible_tour(rng, inst)):
                seq, pos, top = tour.seq, tour.pos, len(tour.seq) - 1
                cut = _cut_table(seq, pos, n, top)
                for i in range(1, top):
                    last_i = _last_row(seq, pos, n, top, i)
                    for j in range(i, top):
                        assert (j < cut[i]) == _segment_rev_ok(seq, pos, n, i, j)
                        assert last_i[j] == _segment_last(seq, pos, n, i, j)


def _oracle_accepts(seq, pos, n, kind, cuts):
    # The precedence rule of four_opt_oracle (and of the scan).
    i1, i2, j1, j2 = cuts
    p3_ok = _segment_last(seq, pos, n, i2 + 1, j1) <= i1
    p4_ok = _segment_last(seq, pos, n, j1 + 1, j2) <= i1
    if kind == "4opt-type1":
        return p3_ok and p4_ok
    if kind == "4opt-type2a":
        return (
            p3_ok
            and p4_ok
            and _segment_rev_ok(seq, pos, n, i2 + 1, j1)
            and _segment_rev_ok(seq, pos, n, j1 + 1, j2)
        )
    return (
        p4_ok
        and _segment_rev_ok(seq, pos, n, i1 + 1, i2)
        and _segment_rev_ok(seq, pos, n, i2 + 1, j1)
    )


def test_accepted_cut_sets_realize_feasible_tours():
    # Every cut set the rule accepts splices into a feasible tour. The
    # rule is stricter than needed for type 2a only: it rejects a pair
    # picked up in P3 and delivered in P4, which r(P3) r(P4) keeps in
    # order, as in the pinned tour below.
    kinds = ("4opt-type1", "4opt-type2a", "4opt-type2b")
    rng = random.Random(67)
    pinned = Tour(euclid_instance(rng, 4), [0, 3, 2, 1, 6, 4, 5, 7, 8, 0])
    cases = [pinned]
    for n in (3, 4, 5, 6):
        for mode in ("closed", "open"):
            inst = euclid_instance(rng, n, mode=mode)
            cases += [random_feasible_tour(rng, inst), adjacent_pairs_tour(rng, inst)]
    accepted = {kind: 0 for kind in kinds}
    for tour in cases:
        inst, seq, pos = tour.inst, tour.seq, tour.pos
        n, top = inst.n_pairs, len(seq) - 1
        for i1 in range(top - 3):
            for i2 in range(i1 + 1, top - 2):
                for j1 in range(i2 + 1, top - 1):
                    for j2 in range(j1 + 1, top):
                        cuts = (i1, i2, j1, j2)
                        for kind in kinds:
                            if _oracle_accepts(seq, pos, n, kind, cuts):
                                accepted[kind] += 1
                                new = four_opt_splice(seq, kind, cuts)
                                assert not check_precedence(inst, new)
    assert min(accepted.values()) > 100
    cuts = (0, 1, 2, 4)
    assert not _oracle_accepts(pinned.seq, pinned.pos, 4, "4opt-type2a", cuts)
    assert not check_precedence(
        pinned.inst, four_opt_splice(pinned.seq, "4opt-type2a", cuts)
    )


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


def test_reused_rows_match_the_allocating_kernels():
    # The kernels build each delta row in the list of the row before
    # and a row of latest outside pickups only when a candidate needs
    # it; the references allocate every row. Results must agree bit for bit, on
    # a second call too, from 1 to 60 pairs; the type-1 helper also on
    # shuffled sequences that break precedence.
    rng = random.Random(271)
    moves = 0
    for n in (1, 2, 3, 4, 6, 9, 14, 21, 33, 47, 60):
        for build, mode in (
            (euclid_instance, "closed"),
            (euclid_instance, "open"),
            (float_instance, "closed"),
            (float_instance, "open"),
        ):
            inst = build(rng, n, mode=mode)
            for tour in (adjacent_pairs_tour(rng, inst), random_feasible_tour(rng, inst)):
                ref = four_opt_best_reference(inst, tour)
                mv = four_opt_best(inst, tour)
                assert mv == ref
                assert repr(mv.delta) == repr(ref.delta)
                assert four_opt_best(inst, tour) == mv
                moves += bool(mv.indices)
            seq = Tour.identity(inst).seq
            middle = seq[1:-1]
            rng.shuffle(middle)
            seq = [seq[0]] + middle + [seq[-1]]
            ref = four_opt_type1_any_reference(inst, seq)
            mv = four_opt_type1_any(inst, seq)
            assert mv == ref
            assert repr(mv.delta) == repr(ref.delta)
            assert four_opt_type1_any(inst, seq) == mv
    assert moves >= 40


def assert_like_reference(inst, tour):
    ref = four_opt_best_reference(inst, tour)
    mv = four_opt_best(inst, tour)
    assert mv == ref
    assert repr(mv.delta) == repr(ref.delta)
    assert four_opt_best(inst, tour) == mv
    return mv


def test_every_tiny_tour_matches_the_reference():
    # Every feasible tour of 1 to 4 pairs: each type next to both ends
    # of the tour, with candidates that pass and fail the one-minimum
    # screen and their cut tests.
    rng = random.Random(292)
    kinds = set()
    for n in (1, 2, 3, 4):
        for build in (euclid_instance, float_instance):
            for mode in ("closed", "open"):
                inst = build(rng, n, mode=mode)
                for order in feasible_orders(n):
                    mv = assert_like_reference(inst, Tour(inst, [0, *order, inst.end]))
                    if mv.indices:
                        kinds.add(mv.kind)
    assert kinds == {"4opt-type1", "4opt-type2a", "4opt-type2b"}


def test_tour_shapes_match_the_reference():
    # Pickups first and nested pairs leave long segments that cannot
    # flip, so many candidates of types 2a and 2b fail their cut tests;
    # adjacent pairs and random tours flip often. 10 to 60 pairs.
    rng = random.Random(293)
    kinds = set()
    for n in (10, 25, 40, 60):
        for build in (euclid_instance, float_instance):
            for mode in ("closed", "open"):
                inst = build(rng, n, mode=mode)
                for tour in tour_shapes(rng, inst):
                    mv = assert_like_reference(inst, tour)
                    if mv.indices:
                        kinds.add(mv.kind)
    assert kinds == {"4opt-type1", "4opt-type2a", "4opt-type2b"}
