"""Two-phase descent: termination, feasibility, local optimality."""

import random
import time

import pytest

import pdtsp_kit.search as search
from pdtsp_kit.neighborhoods import SearchParams
from pdtsp_kit.oracle import brute_force_optimal
from pdtsp_kit.search import large_step, local_search, pair_step, phase_one_sweep
from pdtsp_kit.tour import apply_move, tour_cost
from helpers import euclid_instance, float_instance, random_feasible_tour


def test_pair_step_apply_keeps_feasibility():
    rng = random.Random(80)
    for _ in range(10):
        inst = euclid_instance(rng, 6)
        tour = random_feasible_tour(rng, inst)
        for x in range(1, inst.n_pairs + 1):
            mv = pair_step(inst, tour, x, 30)
            if mv.feasible and mv.improves(inst.eps):
                apply_move(inst, tour, mv)
                assert tour.is_feasible()
                assert tour.cost == tour_cost(inst, tour.seq)


def test_phase_one_scan_only_leaves_tour_alone():
    rng = random.Random(81)
    inst = euclid_instance(rng, 8)
    tour = random_feasible_tour(rng, inst)
    before = list(tour.seq)
    improved = phase_one_sweep(
        inst, tour, range(1, 9), 30, apply_moves=False
    )
    assert improved  # random tours are essentially never locally optimal
    assert tour.seq == before


def test_descent_reaches_local_optimum():
    rng = random.Random(82)
    params = SearchParams()
    for mode in ("closed", "open"):
        inst = euclid_instance(rng, 9, mode=mode)
        tour = random_feasible_tour(rng, inst)
        start_cost = tour.cost
        local_search(inst, tour, params, rng, use_large=True)
        assert tour.is_feasible()
        assert tour.cost == tour_cost(inst, tour.seq)
        assert tour.cost <= start_cost
        # No scan finds anything once the descent stops.
        assert not phase_one_sweep(
            inst, tour, range(1, 10), params.k_or, apply_moves=False
        )
        probe = tour.copy()
        assert not large_step(inst, probe, params.k_bs)
        assert probe.seq == tour.seq


def test_descent_is_deterministic_given_seed():
    inst = euclid_instance(random.Random(83), 10)
    runs = []
    for _ in range(2):
        rng = random.Random(4242)
        tour = random_feasible_tour(rng, inst)
        local_search(inst, tour, SearchParams(), rng)
        runs.append(list(tour.seq))
    assert runs[0] == runs[1]


def test_restarts_find_small_optimum():
    rng = random.Random(84)
    inst = euclid_instance(rng, 4)
    opt = brute_force_optimal(inst).cost
    best = None
    for _ in range(12):
        tour = random_feasible_tour(rng, inst)
        local_search(inst, tour, SearchParams(), rng, use_large=True)
        if best is None or tour.cost < best:
            best = tour.cost
    assert best == opt


def test_float_costs_descend():
    rng = random.Random(85)
    inst = float_instance(rng, 7)
    tour = random_feasible_tour(rng, inst)
    start = tour.cost
    local_search(inst, tour, SearchParams(), rng, use_large=True)
    assert tour.cost <= start + inst.eps
    tour.recost()
    assert not phase_one_sweep(
        inst, tour, range(1, 8), 30, apply_moves=False
    )


def _rescan_descent(inst, tour, params, rng, use_large):
    # The descent without stamps: every round scans every pair.
    pairs = list(range(1, inst.n_pairs + 1))
    improved = True
    while improved:
        rng.shuffle(pairs)
        improved = phase_one_sweep(inst, tour, pairs, params.k_or)
        if use_large and search.large_step(inst, tour, params.k_bs):
            improved = True


def _spy_steps(monkeypatch):
    """Logs (pair or 0 for the large step, tour seen, improved) per call."""
    log = []

    def spy_pair(inst, tour, x, k_or):
        m = pair_step(inst, tour, x, k_or)
        log.append((x, tuple(tour.seq), m.improves(inst.eps)))
        return m

    def spy_large(inst, tour, k_bs):
        seen = tuple(tour.seq)
        applied = large_step(inst, tour, k_bs)
        log.append((0, seen, applied))
        return applied

    monkeypatch.setattr(search, "pair_step", spy_pair)
    monkeypatch.setattr(search, "large_step", spy_large)
    return log


def _drop_repeats(log):
    # A step may be skipped exactly when it last saw the same tour and
    # found nothing.
    last = {}
    kept = []
    for step, seen, improved in log:
        if last.get(step) != (seen, False):
            kept.append((step, seen, improved))
        last[step] = (seen, improved)
    return kept


@pytest.mark.parametrize("mode", ["closed", "open"])
@pytest.mark.parametrize("build", [euclid_instance, float_instance])
@pytest.mark.parametrize("use_large", [True, False])
def test_stamped_descent_matches_full_rescan(monkeypatch, mode, build, use_large):
    params = SearchParams()
    log = _spy_steps(monkeypatch)
    skipped = 0
    for seed in range(12):
        inst = build(random.Random(900 + seed), 7 + seed % 3, mode=mode)
        start = random_feasible_tour(random.Random(seed), inst)
        ref = start.copy()
        rng_ref = random.Random(seed)
        del log[:]
        _rescan_descent(inst, ref, params, rng_ref, use_large)
        expected = _drop_repeats(log)
        skipped += len(log) - len(expected)
        got = start.copy()
        rng = random.Random(seed)
        del log[:]
        local_search(inst, got, params, rng, use_large)
        assert got.seq == ref.seq
        assert got.cost == ref.cost
        assert type(got.cost) is type(ref.cost)
        assert rng.random() == rng_ref.random()
        assert log == expected
    assert skipped > 0


def test_scan_only_sweep_scans_every_pair(monkeypatch):
    rng = random.Random(86)
    inst = euclid_instance(rng, 8)
    tour = random_feasible_tour(rng, inst)
    local_search(inst, tour, SearchParams(), rng, use_large=False)
    log = _spy_steps(monkeypatch)
    order = list(range(1, 9))
    for _ in range(3):
        assert not phase_one_sweep(inst, tour, order, 30, apply_moves=False)
    assert [step for step, _, _ in log] == order * 3


def test_descent_stops_at_deadline():
    rng = random.Random(87)
    inst = euclid_instance(rng, 8)
    tour = random_feasible_tour(rng, inst)
    before = list(tour.seq)
    state = rng.getstate()
    local_search(
        inst, tour, SearchParams(), rng, use_large=True, deadline=time.perf_counter()
    )
    assert tour.seq == before
    assert rng.getstate() == state
    local_search(
        inst, tour, SearchParams(), rng, use_large=True, deadline=time.perf_counter() + 60
    )
    assert tour.seq != before
    assert tour.is_feasible()
    assert tour.cost == tour_cost(inst, tour.seq)
