"""Relocate, 2-opt and or-opt scans against realization references."""

import random

import pytest

from pdtsp_kit.neighborhoods import or_opt_scan, relocate_pair_best, two_opt_scan
from pdtsp_kit.neighborhoods.relocate import best_insertion
from pdtsp_kit.neighborhoods.oracles import (
    best_insertion_naive,
    or_opt_oracle,
    relocate_pair_best_naive,
    two_opt_oracle,
)
from pdtsp_kit.tour import Tour, apply_move, insert_pair, tour_cost
from helpers import euclid_instance, float_instance, random_feasible_tour


def close(a, b, integral):
    if integral:
        return a == b
    return a == pytest.approx(b, rel=1e-9, abs=1e-7)


def build_states(seed, sizes, modes=("closed", "open"), floats=False):
    rng = random.Random(seed)
    out = []
    for n in sizes:
        for mode in modes:
            inst = (
                float_instance(rng, n, mode=mode)
                if floats
                else euclid_instance(rng, n, mode=mode)
            )
            for _ in range(6):
                out.append((inst, random_feasible_tour(rng, inst)))
    return out


# ---------------------------------------------------------------------------
# Relocate


def insertion_oracle(w, rho, x, nx):
    # Ground truth by splicing: every consecutive slot, then every split.
    best = None
    last = len(rho) - 2
    for t in range(last + 1):
        trial = list(rho)
        insert_pair(trial, x, nx, t, t)
        c = sum(w[a][b] for a, b in zip(trial, trial[1:]))
        if best is None or c < best[0]:
            best = (c, t, t)
    for t in range(last):
        for t2 in range(t + 1, last + 1):
            trial = list(rho)
            insert_pair(trial, x, nx, t, t2)
            c = sum(w[a][b] for a, b in zip(trial, trial[1:]))
            if c < best[0]:
                best = (c, t, t2)
    base = sum(w[a][b] for a, b in zip(rho, rho[1:]))
    return best[0] - base, best[1], best[2]


@pytest.mark.parametrize("floats", [False, True])
def test_insertion_fast_equals_naive_and_truth(floats):
    states = build_states(100, (2, 3, 5, 8), floats=floats)
    for inst, tour in states:
        w = inst.work_cost()
        for x in range(1, inst.n_pairs + 1):
            nx = x + inst.n_pairs
            rho = [v for v in tour.seq if v not in (x, nx)]
            fast = best_insertion(w, rho, x, nx)
            naive = best_insertion_naive(w, rho, x, nx)
            assert fast[1:] == naive[1:]
            assert close(fast[0], naive[0], inst.integral)
            truth = insertion_oracle(w, rho, x, nx)
            assert close(fast[0], truth[0], inst.integral)
            assert fast[1:] == truth[1:]


def test_relocate_best_never_positive_and_applies():
    states = build_states(200, (2, 4, 7))
    for inst, tour in states:
        for x in range(1, inst.n_pairs + 1):
            mv = relocate_pair_best(inst, tour, x)
            assert mv.feasible
            assert mv.delta <= 0
            naive = relocate_pair_best_naive(inst, tour, x)
            assert mv.indices == naive.indices and mv.delta == naive.delta
            trial = tour.copy()
            apply_move(inst, trial, mv)
            assert trial.is_feasible()
            assert close(trial.cost, tour_cost(inst, trial.seq), inst.integral)
            assert close(trial.cost, tour.cost + mv.delta, inst.integral)


# ---------------------------------------------------------------------------
# 2-opt


def test_two_opt_scan_matches_oracle():
    states = build_states(300, (2, 3, 5, 8))
    for inst, tour in states:
        n2 = 2 * inst.n_pairs
        for i in range(1, n2 + 1):
            mv = two_opt_scan(inst, tour, i)
            oracle, cands = two_opt_oracle(inst, tour, i)
            assert mv.feasible == oracle.feasible
            if mv.feasible:
                assert mv.indices == oracle.indices
                assert close(mv.delta, oracle.delta, inst.integral)
                trial = tour.copy()
                apply_move(inst, trial, mv)
                assert trial.is_feasible()
                assert close(trial.cost, tour_cost(inst, trial.seq), inst.integral)
            # Truncation must only ever cut infeasible tails.
            seen = {j for j, _, _ in cands}
            scanned = set()
            pos, seq = tour.pos, tour.seq
            for j in range(i + 3, len(seq)):
                v = seq[j - 1]
                if v > inst.n_pairs and pos[v - inst.n_pairs] > i:
                    break
                scanned.add(j)
            for j, _, feas in cands:
                if j not in scanned:
                    assert not feas


def test_two_opt_scan_float():
    states = build_states(301, (4, 6), floats=True)
    for inst, tour in states:
        for i in range(1, 2 * inst.n_pairs + 1):
            mv = two_opt_scan(inst, tour, i)
            oracle, _ = two_opt_oracle(inst, tour, i)
            assert mv.feasible == oracle.feasible
            if mv.feasible:
                assert mv.indices == oracle.indices
                assert mv.delta == pytest.approx(oracle.delta, rel=1e-9, abs=1e-7)


# ---------------------------------------------------------------------------
# Or-opt


@pytest.mark.parametrize("k_or", [1, 3, 30])
def test_or_opt_scan_matches_oracle(k_or):
    states = build_states(400 + k_or, (2, 3, 6))
    for inst, tour in states:
        for a in range(1, 2 * inst.n_pairs + 1):
            mv = or_opt_scan(inst, tour, a, k_or)
            oracle = or_opt_oracle(inst, tour, a, k_or)
            assert mv.feasible == oracle.feasible
            if mv.feasible:
                assert mv.indices == oracle.indices, (a, k_or, tour.seq)
                assert close(mv.delta, oracle.delta, inst.integral)
                trial = tour.copy()
                apply_move(inst, trial, mv)
                assert trial.is_feasible()
                assert close(trial.cost, tour_cost(inst, trial.seq), inst.integral)


def assert_or_opt_matches_oracle(states, k_or):
    for inst, tour in states:
        for a in range(1, 2 * inst.n_pairs + 1):
            mv = or_opt_scan(inst, tour, a, k_or)
            oracle = or_opt_oracle(inst, tour, a, k_or)
            assert mv.feasible == oracle.feasible
            if not mv.feasible:
                continue
            assert isinstance(mv.delta, int) == inst.integral
            assert close(mv.delta, oracle.delta, inst.integral)
            if inst.integral:
                assert mv.indices == oracle.indices, (a, k_or, tour.seq)
            # On floats, two moves giving the same tour tie exactly but
            # their deltas round differently, so the scan and the oracle
            # may pick different ones: compare values, then realize it.
            trial = tour.copy()
            apply_move(inst, trial, mv)
            assert trial.is_feasible()
            assert close(tour_cost(inst, trial.seq), tour.cost + oracle.delta, inst.integral)


@pytest.mark.parametrize("k_or", [1, 3, 30])
def test_or_opt_scan_matches_oracle_float(k_or):
    assert_or_opt_matches_oracle(build_states(410 + k_or, (2, 3, 6), floats=True), k_or)


def test_or_opt_scan_long_segments_with_pending_deliveries():
    # Twelve pairs and k_or = 30 let segments hold several pickups whose
    # deliveries lie further on, so the feasible range's upper bound
    # changes as each one is passed.
    rng = random.Random(430)
    states = []
    for mode in ("closed", "open"):
        inst = euclid_instance(rng, 12, mode=mode)
        states += [(inst, random_feasible_tour(rng, inst)) for _ in range(2)]
    assert_or_opt_matches_oracle(states, 30)


def test_scans_break_ties_like_their_references():
    # Costs within a span of 3 make most candidates tie, so only the
    # candidate order decides the winner.
    rng = random.Random(440)
    for n in (3, 5, 7):
        for mode in ("closed", "open"):
            inst = euclid_instance(rng, n, mode=mode, span=3)
            w = inst.work_cost()
            for _ in range(4):
                tour = random_feasible_tour(rng, inst)
                for a in range(1, 2 * n + 1):
                    mv = or_opt_scan(inst, tour, a, 30)
                    oracle = or_opt_oracle(inst, tour, a, 30)
                    assert (mv.indices, mv.delta) == (oracle.indices, oracle.delta)
                for x in range(1, n + 1):
                    rho = [v for v in tour.seq if v not in (x, x + n)]
                    assert best_insertion(w, rho, x, x + n) == best_insertion_naive(
                        w, rho, x, x + n
                    )


def test_or_opt_identity_excluded_but_reversal_in_place_allowed():
    rng = random.Random(41)
    inst = euclid_instance(rng, 3)
    tour = Tour.identity(inst)
    mv = or_opt_scan(inst, tour, 2, 30)
    # Whatever wins, re-inserting unreversed where it stood is not it.
    a, length, t, rev = mv.indices
    assert not (t == a - 1 and not rev)
