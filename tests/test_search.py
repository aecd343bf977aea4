"""Two-phase descent: termination, feasibility, local optimality."""

import math
import random
import time
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import pdtsp_kit.search as search
from pdtsp_kit.instance import Instance
from pdtsp_kit.metaheuristics import greedy_construct
from pdtsp_kit.neighborhoods import (
    SearchParams,
    bs_best,
    four_opt_best,
    or_opt_scan,
    relocate_pair_best,
    two_k_opt_best,
    two_opt_scan,
)
from pdtsp_kit.oracle import brute_force_optimal
from pdtsp_kit.search import Lru, large_step, local_search, pair_step, phase_one_sweep
from pdtsp_kit.tour import MoveDelta, apply_move, tour_cost
from helpers import (
    euclid_instance,
    float_instance,
    is_settled,
    or_opt_full_pricing,
    random_feasible_tour,
)


def test_pair_step_apply_keeps_feasibility():
    rng = random.Random(80)
    for _ in range(10):
        inst = euclid_instance(rng, 6)
        tour = random_feasible_tour(rng, inst)
        for x in range(1, inst.n_pairs + 1):
            mv = pair_step(inst, tour, x, 30)
            assert mv.improves(inst.eps) == bool(mv.indices)
            if mv.indices:
                apply_move(inst, tour, mv)
                assert tour.is_feasible()
                assert tour.cost == tour_cost(inst, tour.seq)


def pair_step_with_single_visits(inst, tour, x, k_or):
    """``pair_step`` with or-opt priced in full from segments of one
    visit, as it was before single-visit segments were dropped."""
    best = relocate_pair_best(inst, tour, x)
    for anchor in (x, x + inst.n_pairs):
        i = tour.pos[anchor]
        m = two_opt_scan(inst, tour, i)
        if m.delta < best.delta:
            best = m
        indices, delta = or_opt_full_pricing(inst, tour, i, k_or, shortest=1)
        if delta < best.delta:
            best = MoveDelta("or-opt", indices, delta)
    return best


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    n=st.integers(3, 14),
    mode=st.sampled_from(["closed", "open"]),
    floats=st.booleans(),
    span=st.sampled_from([3, 100]),
    k_or=st.sampled_from([1, 2, 3, 30]),
)
def test_single_visit_segments_never_win_a_pair_step(seed, n, mode, floats, span, k_or):
    # Relocating pair x lists every tour a single-visit segment at x's
    # positions gives, and runs first. On integer costs both price such
    # a tour exactly, so or-opt's single-visit candidates never beat
    # the running best: the step is the same move. On floats the two
    # deltas may differ in their last bits, so the kind may switch, but
    # the tour after the step is the same. The steps are applied, to
    # reach the near-optimal tours where few moves improve.
    rng = random.Random(seed)
    build = float_instance if floats else euclid_instance
    inst = build(rng, n, mode=mode, span=span)
    tour = random_feasible_tour(rng, inst)
    for _ in range(3):
        for x in rng.sample(range(1, n + 1), n):
            got = pair_step(inst, tour, x, k_or)
            ref = pair_step_with_single_visits(inst, tour, x, k_or)
            if not floats:
                assert got == ref, (x, tour.seq)
            assert bool(got.indices) == bool(ref.indices)
            if got.indices:
                other = tour.copy()
                apply_move(inst, other, ref)
                apply_move(inst, tour, got)
                assert tour.seq == other.seq, (x, got, ref)


def pair_step_calling_or_opt(inst, tour, x, k_or):
    """``pair_step`` as it was when it called ``or_opt_scan`` at every
    ``k_or``, through the module name a test can wrap."""
    best = relocate_pair_best(inst, tour, x)
    for anchor in (x, x + inst.n_pairs):
        i = tour.pos[anchor]
        m = two_opt_scan(inst, tour, i)
        if m.delta < best.delta:
            best = m
        m = search.or_opt_scan(inst, tour, i, k_or)
        if m.delta < best.delta:
            best = m
    return best


@pytest.mark.parametrize("mode", ["closed", "open"])
@pytest.mark.parametrize("build", [euclid_instance, float_instance])
def test_k_or_one_descent_calls_no_or_opt_scan(monkeypatch, mode, build):
    # With k_or = 1 or-opt has no segment, so skipping it changes no
    # step result, and the descent draws the same random numbers.
    calls = Counter()

    def counted(inst, tour, a, k_or):
        calls[step] += 1
        return or_opt_scan(inst, tour, a, k_or)

    monkeypatch.setattr(search, "or_opt_scan", counted)
    params = SearchParams(k_or=1, p_large=0.5)
    for seed in range(6):
        inst = build(random.Random(950 + seed), 8 + seed, mode=mode)
        start = random_feasible_tour(random.Random(seed), inst)
        outs = []
        for step in (pair_step, pair_step_calling_or_opt):
            monkeypatch.setattr(search, "pair_step", step)
            rng = random.Random(seed)
            tour = local_search(inst, start.copy(), params, rng)
            outs.append((tour.seq, tour.cost, type(tour.cost), rng.getstate()))
        assert outs[0] == outs[1]
    assert calls[pair_step] == 0
    assert calls[pair_step_calling_or_opt] > 0


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
        assert not any(
            pair_step(inst, tour, x, params.k_or).improves(inst.eps)
            for x in range(1, 10)
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
    assert not any(pair_step(inst, tour, x, 30).improves(inst.eps) for x in range(1, 8))


def _rescan_descent(inst, tour, params, rng, use_large):
    # The descent with a fresh memo each round: every round scans every pair.
    pairs = list(range(1, inst.n_pairs + 1))
    improved = True
    while improved:
        rng.shuffle(pairs)
        improved = phase_one_sweep(inst, tour, pairs, params.k_or, memo=Lru(1))
        if use_large and search.large_step(inst, tour, params.k_bs):
            improved = True


def _spy_steps(monkeypatch):
    """Logs (pair or 0 for the large step, tour seen, improved) per call."""
    log = []

    def spy_pair(inst, tour, x, k_or):
        m = pair_step(inst, tour, x, k_or)
        log.append((x, tuple(tour.seq), m.improves(inst.eps)))
        return m

    def spy_large(inst, tour, k_bs, *, deadline=math.inf):
        seen = tuple(tour.seq)
        applied = large_step(inst, tour, k_bs, deadline=deadline)
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


def _skipped_steps(plain_log, log):
    # ``log`` must be ``plain_log`` with some steps left out, each of
    # which found nothing; returns those left out.
    it = iter(log)
    nxt = next(it, None)
    skipped = []
    for entry in plain_log:
        if entry == nxt:
            nxt = next(it, None)
        else:
            assert not entry[2], entry
            skipped.append(entry)
    assert nxt is None
    return skipped


def _settled(memo, ends):
    # A memo holding copies of the records at ``ends`` and nothing else.
    settled = Lru(10_000)
    for t in ends:
        key = tuple(t.seq)
        settled.put(key, dict(memo.data[key]))
    return settled


@pytest.mark.parametrize("mode", ["closed", "open"])
@pytest.mark.parametrize("build", [euclid_instance, float_instance])
@pytest.mark.parametrize("use_large", [None, False, True])
def test_settled_descent_skips_only_empty_pair_steps(monkeypatch, mode, build, use_large):
    # A descent that starts at, or reaches, a tour where an earlier
    # descent sharing its memo finished may skip the pair steps there,
    # and the large step if the record holds the key 0, and nothing
    # else. Each descent leaves every pair step at its end in the memo,
    # empty, and the key 0 if it ran the large phase. The memo the
    # checked descent gets holds only the earlier ends' records, so
    # every step it skips is one a finished descent proved empty.
    # Even seeds start at such a tour, odd ones at a random tour.
    params = SearchParams(p_large=0.5)
    log = _spy_steps(monkeypatch)
    skipped = Counter()
    for seed in range(12):
        inst = build(random.Random(950 + seed), 4 + seed % 3, mode=mode)
        n = inst.n_pairs
        shared = Lru(10_000)
        ends = []
        for k in range(8):
            tour = random_feasible_tour(random.Random(10 * seed + k), inst)
            local_search(inst, tour, params, random.Random(k), k % 2 == 0, memo=shared)
            ends.append(tour)
            record = shared.data[tuple(tour.seq)]
            assert is_settled(record, n)
            assert (0 in record) >= (k % 2 == 0)
        if seed % 2:
            start = random_feasible_tour(random.Random(100 + seed), inst)
        else:
            start = ends[seed % 8].copy()
        plain, rng_plain = start.copy(), random.Random(100 + seed)
        del log[:]
        local_search(inst, plain, params, rng_plain, use_large)
        plain_log = log[:]
        got, rng = start.copy(), random.Random(100 + seed)
        known = _settled(shared, ends)
        before = {key: set(record) for key, record in known.data.items()}
        del log[:]
        local_search(inst, got, params, rng, use_large, memo=known)
        assert got.seq == plain.seq
        assert got.cost == plain.cost
        assert type(got.cost) is type(plain.cost)
        assert rng.getstate() == rng_plain.getstate()
        for step, _, _ in _skipped_steps(plain_log, log):
            skipped[seed % 2, step == 0] += 1
        steps = [step for step, _, _ in log]
        if seed % 2 == 0:
            # From a settled tour no pair step runs before a large step,
            # and nothing runs if its record says the large step is empty.
            assert steps[:1] in ([], [0])
            assert not (steps and 0 in before[tuple(start.seq)])
            if not steps:
                assert got.seq == start.seq
        key = tuple(got.seq)
        assert set(before) <= set(known.data)
        record = known.data[key]
        assert is_settled(record, n)
        large_ran = any(step == 0 for step, _, _ in plain_log)
        if use_large is not None:
            assert (0 in record) == (use_large or 0 in before.get(key, ()))
        assert (0 in record) >= large_ran
    assert skipped[0, False] and skipped[1, False]
    if use_large is not False:
        assert skipped[0, True] and skipped[1, True]


def test_lru_drops_the_least_recently_used_key():
    memo = Lru(2)
    memo.put("a", 1)
    memo.put("b", 2)
    assert memo.get("a") == 1  # now "b" is the least recently used
    memo.put("c", 3)
    assert len(memo) == 2
    assert memo.get("b") is None
    assert (memo.get("a"), memo.get("c")) == (1, 3)
    memo.put("a", 4)  # a put is a use too
    memo.put("d", 5)
    assert memo.get("c") is None
    assert (memo.get("a"), memo.get("d")) == (4, 5)


@pytest.mark.parametrize("mode", ["closed", "open"])
@pytest.mark.parametrize("build", [euclid_instance, float_instance])
@pytest.mark.parametrize("use_large", [True, False])
def test_memo_descent_reads_back_the_pair_steps_of_earlier_ones(
    monkeypatch, mode, build, use_large
):
    # One descent never meets a tour twice: its cost falls with every
    # move. So a descent with a fresh memo runs the plain descent's
    # steps, and a second one from the same start reads every pair step
    # back and skips every large step that found nothing, whose record
    # holds the key 0: it runs only the large steps that applied a move.
    # Those, one that takes the pairs in another order with the same
    # memo, and one whose memo holds a single key, return what the
    # plain descent with their seed returns, with the same random draws.
    params = SearchParams()
    log = _spy_steps(monkeypatch)
    for seed in range(8):
        inst = build(random.Random(970 + seed), 6 + seed % 3, mode=mode)
        start = random_feasible_tour(random.Random(seed), inst)
        plain = {}
        for s in (seed, seed + 100):
            tour, rng = start.copy(), random.Random(s)
            del log[:]
            local_search(inst, tour, params, rng, use_large)
            plain[s] = (tour.seq, tour.cost, type(tour.cost), rng.getstate(), log[:])
        plain_log = plain[seed][-1]
        assert any(step for step, _, _ in plain_log)
        memo = Lru(10_000)
        applied_large = [entry for entry in plain_log if entry[0] == 0 and entry[2]]
        for memo_used, s, runs in (
            (memo, seed, plain_log),
            (memo, seed, applied_large),
            (memo, seed + 100, None),
            (Lru(1), seed, plain_log),
        ):
            got, rng = start.copy(), random.Random(s)
            del log[:]
            local_search(inst, got, params, rng, use_large, memo=memo_used)
            assert (got.seq, got.cost, type(got.cost), rng.getstate()) == plain[s][:4]
            if runs is not None:
                assert log == runs


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


def test_descent_stops_at_deadline_before_large_step(monkeypatch):
    # A fake clock passes the deadline the moment the first sweep ends,
    # so only the check before the large step can stop the descent.
    now = [0.0]
    monkeypatch.setattr(search, "time", SimpleNamespace(perf_counter=lambda: now[0]))

    def sweep_then_late(*args, **kwargs):
        improved = phase_one_sweep(*args, **kwargs)
        now[0] = 1.0
        return improved

    def no_large_step(*args):
        raise AssertionError("large step started after the deadline")

    monkeypatch.setattr(search, "phase_one_sweep", sweep_then_late)
    monkeypatch.setattr(search, "large_step", no_large_step)
    rng = random.Random(88)
    inst = euclid_instance(rng, 8)
    tour = random_feasible_tour(rng, inst)
    ref = tour.copy()
    state = rng.getstate()
    local_search(inst, tour, SearchParams(), rng, use_large=True, deadline=1.0)

    rng.setstate(state)
    pairs = list(range(1, inst.n_pairs + 1))
    rng.shuffle(pairs)
    assert phase_one_sweep(inst, ref, pairs, 30, memo=Lru(1))
    assert tour.seq == ref.seq
    assert tour.cost == ref.cost


def test_large_step_skips_kernels_after_deadline(monkeypatch):
    # A fake clock passes the deadline as soon as nested 2-opt returns:
    # 4-opt and BS must not start, and nested 2-opt's move is applied.
    now = [0.0]
    monkeypatch.setattr(search, "time", SimpleNamespace(perf_counter=lambda: now[0]))

    def two_k_then_late(*args):
        move = two_k_opt_best(*args)
        now[0] = 1.0
        return move

    def not_started(*args):
        raise AssertionError("kernel started after the deadline")

    monkeypatch.setattr(search, "two_k_opt_best", two_k_then_late)
    monkeypatch.setattr(search, "four_opt_best", not_started)
    monkeypatch.setattr(search, "bs_best", not_started)
    rng = random.Random(89)
    inst = euclid_instance(rng, 8)
    tour = random_feasible_tour(rng, inst)
    ref = tour.copy()
    move = two_k_opt_best(inst, ref)
    assert move.indices
    assert large_step(inst, tour, 3, deadline=1.0)
    apply_move(inst, ref, move)
    assert tour.seq == ref.seq
    assert tour.cost == ref.cost


def test_large_step_cut_by_the_deadline_leaves_no_flag(monkeypatch):
    # A fake clock passes the deadline as soon as nested 2-opt returns,
    # so 4-opt and BS are skipped. Each start is a tour no pair step or
    # nested 2-opt improves, so the descent's one large step applies
    # nothing, yet it proved nothing: the record must lack the key 0,
    # and a later descent at that tour with the same memo and no
    # deadline must run the large step there.
    now = [0.0]
    monkeypatch.setattr(search, "time", SimpleNamespace(perf_counter=lambda: now[0]))

    def two_k_then_late(*args):
        move = two_k_opt_best(*args)
        now[0] = 1.0
        return move

    monkeypatch.setattr(search, "two_k_opt_best", two_k_then_late)
    log = _spy_steps(monkeypatch)
    params = SearchParams()
    cut = 0
    for seed in range(16):
        rng = random.Random(seed)
        inst = euclid_instance(rng, 6 + seed % 3, mode=("closed", "open")[seed % 2])
        start = random_feasible_tour(rng, inst)
        local_search(inst, start, params, rng, use_large=False)
        if two_k_opt_best(inst, start).indices:
            continue
        cut += 1
        key = tuple(start.seq)
        memo = Lru(10)
        now[0] = 0.0
        tour = start.copy()
        del log[:]
        local_search(inst, tour, params, rng, True, deadline=1.0, memo=memo)
        assert [entry for entry in log if entry[0] == 0] == [(0, key, False)]
        assert tour.seq == start.seq
        record = memo.data[key]
        assert is_settled(record, inst.n_pairs)
        assert 0 not in record
        del log[:]
        local_search(inst, tour, params, rng, True, memo=memo)
        assert log[0][:2] == (0, key)
    assert cut >= 4


def test_large_step_applies_the_first_of_the_cheapest_kernel_moves():
    # On these tours of a 20-unit grid, two or three kernels tie on the
    # least delta with different tours; the step keeps the first in the
    # order nested 2-opt, 4-opt, Balas-Simonetti.
    for seed in (13, 63, 69, 93):
        rng = random.Random(seed)
        inst = euclid_instance(rng, 3 + seed % 3, span=20)
        tour = random_feasible_tour(rng, inst)
        moves = [
            two_k_opt_best(inst, tour),
            four_opt_best(inst, tour),
            bs_best(inst, tour, 3),
        ]
        least = min(m.delta for m in moves)
        tours = []
        for m in moves:
            if m.delta == least:
                trial = tour.copy()
                apply_move(inst, trial, m)
                tours.append(trial.seq)
        assert any(t != tours[0] for t in tours)
        assert large_step(inst, tour, 3)
        assert tour.seq == tours[0]


def test_large_step_after_the_deadline_applies_nothing():
    # No kernel runs, so the step keeps the empty move it starts from.
    rng = random.Random(89)
    inst = euclid_instance(rng, 8)
    tour = random_feasible_tour(rng, inst)
    assert two_k_opt_best(inst, tour).indices
    seq, cost = list(tour.seq), tour.cost
    assert not large_step(inst, tour, 3, deadline=time.perf_counter())
    assert tour.seq == seq
    assert tour.cost == cost


@pytest.mark.parametrize(
    "knobs, words",
    [
        ({"k_or": 0}, "k_or"),
        ({"k_bs": 0}, "k_bs"),
        ({"k_bs": 13}, "k_bs"),
        ({"p_large": -0.1}, "p_large"),
        ({"p_large": 1.5}, "p_large"),
    ],
)
def test_search_params_reject_out_of_range_knobs(knobs, words):
    with pytest.raises(ValueError, match=words):
        SearchParams(**knobs)


# Descents from a greedy tour with the large step on every round,
# recorded at commit 20b5845, before the scans returned only improving
# moves. Between them they apply every move kind: the closed integer
# run or-opt, relocation, 2-opt, type-1 4-opt and Balas-Simonetti; the
# open float run also nested 2-opt; the matrix-only run a type-2b 4-opt.
PINNED_DESCENTS = [
    (
        lambda: euclid_instance(random.Random(1126), 24, span=1000),
        6589,
        [0, 1, 10, 7, 19, 12, 4, 17, 8, 6, 31, 15, 21, 24, 48, 43, 18, 45, 32,
         16, 22, 14, 42, 38, 20, 39, 5, 23, 34, 13, 29, 28, 11, 30, 3, 46, 25,
         44, 40, 41, 47, 2, 36, 9, 26, 37, 33, 27, 35, 0],
    ),
    (
        lambda: float_instance(random.Random(1105), 22, mode="open"),
        628.4366103085139,
        [0, 22, 1, 20, 10, 2, 11, 8, 6, 7, 13, 16, 5, 18, 21, 23, 35, 24, 17,
         4, 43, 28, 14, 44, 19, 15, 38, 36, 33, 40, 37, 3, 12, 34, 39, 9, 41,
         31, 29, 32, 25, 42, 26, 27, 30, 45],
    ),
    (
        lambda: Instance(26, euclid_instance(random.Random(1102), 26, span=300).cost),
        2164,
        [0, 12, 7, 3, 23, 25, 19, 51, 2, 20, 45, 8, 11, 1, 4, 33, 21, 26, 13,
         34, 15, 5, 16, 30, 37, 14, 24, 49, 50, 42, 38, 17, 31, 47, 46, 28, 6,
         43, 32, 27, 52, 9, 10, 41, 36, 18, 39, 40, 29, 22, 44, 35, 48, 0],
    ),
]


@pytest.mark.parametrize("make, cost, seq", PINNED_DESCENTS)
def test_descent_trajectory_is_pinned(make, cost, seq):
    inst = make()
    rng = random.Random(11)
    tour = greedy_construct(inst, rng)
    local_search(inst, tour, SearchParams(), rng, use_large=True)
    assert (tour.cost, tour.seq) == (cost, seq)
    assert type(tour.cost) is type(cost)
