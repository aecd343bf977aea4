"""End-to-end guarantees the package ships with.

Each test here exercises a whole subsystem against an independent
reference: exact enumeration, direct recomputation of internal tables,
or agreement across unrelated solvers. Reference costs for sizes beyond
the enumeration guard use the consensus of every run performed on the
instance, which the smallest sizes validate against the exact solver.
The suite takes a few minutes; everything is seeded and deterministic
apart from wall-clock measurements.
"""

import gc
import random
import statistics
import time

from pdtsp_kit.instance import generate_pairs, parse_instance
from pdtsp_kit.metaheuristics import (
    HgsParams,
    RrParams,
    greedy_construct,
    hgs_run,
    rr_run,
)
from pdtsp_kit.neighborhoods import (
    SearchParams,
    bs_optimize,
    four_opt_best,
    relocate_pair_best,
    two_k_opt_best,
)
from pdtsp_kit.neighborhoods.fouropt import _delta_tables, _prefix_tables
from pdtsp_kit.neighborhoods.oracles import (
    bs_oracle,
    relocate_pair_best_naive,
    two_k_opt_oracle,
)
from pdtsp_kit.oracle import MAX_PAIRS, brute_force_optimal
from pdtsp_kit.search import local_search, phase_one_sweep
from pdtsp_kit.tour import Tour, check_precedence, tour_cost
from helpers import euclid_instance, random_feasible_tour


def _single_two_opts(inst, tour):
    """Every plain 2-opt move (i, j): reverse seq[i+1..j].

    Reversal is infeasible exactly when some pair lies entirely inside
    the flipped window.
    """
    seq = tour.seq
    w = inst.work_cost()
    last = len(seq) - 1
    out = []
    for i in range(0, last - 2):
        for j in range(i + 2, last):
            a, b, c, d = seq[i], seq[i + 1], seq[j], seq[j + 1]
            delta = w[a][c] + w[b][d] - w[a][b] - w[c][d]
            inside = set(seq[i + 1 : j + 1])
            feasible = not any(
                x in inside and x + inst.n_pairs in inside
                for x in range(1, inst.n_pairs + 1)
            )
            out.append((i, j, delta, feasible))
    return out


def _splice_four_opt(seq, kind, idx):
    i1, i2, j1, j2 = idx
    p2 = seq[i1 + 1 : i2 + 1]
    p3 = seq[i2 + 1 : j1 + 1]
    p4 = seq[j1 + 1 : j2 + 1]
    if kind == "4opt-type1":
        mid = p4 + p3 + p2
    elif kind == "4opt-type2a":
        mid = p3[::-1] + p4[::-1] + p2
    else:
        mid = p4 + p2[::-1] + p3[::-1]
    return seq[: i1 + 1] + mid + seq[j2 + 1 :]


# ---------------------------------------------------------------------------
# Small closed instances: every seed must land on the same best cost,
# which the exact solver certifies at the smallest size.


def test_small_instances_all_seeds_reach_reference():
    seeds = list(range(1, 11))
    for n in (5, 10, 15, 20):
        cap = float(2 * n + 1)
        inst = euclid_instance(random.Random(900 + n), n, span=1000)
        results = {}
        for seed in seeds:
            params = HgsParams(max_no_improve=300, tmax=cap)
            results[seed] = hgs_run(inst, params, random.Random(seed)).cost
        probes = [
            rr_run(inst, RrParams(iters=10000), random.Random(s)).cost
            for s in (77, 78)
        ]
        # Misses get one full-budget run on the same seed before the
        # all-must-agree check; the short cutoff is only a speedup.
        pure_done = set()
        while True:
            ref = min(min(results.values()), min(probes))
            misses = [
                s for s in seeds if results[s] != ref and s not in pure_done
            ]
            if not misses:
                break
            for s in misses:
                params = HgsParams(max_no_improve=None, tmax=cap)
                results[s] = hgs_run(inst, params, random.Random(s)).cost
                pure_done.add(s)
        assert all(results[s] == ref for s in seeds), (n, results, ref)
        if n <= MAX_PAIRS:
            assert ref == brute_force_optimal(inst).cost


# ---------------------------------------------------------------------------
# Both metaheuristics against the exact solver on enumerable sizes.


def test_population_and_annealing_methods_match_exact_solver():
    hgs_hits = rr_hits = 0
    total = 50
    for idx in range(total):
        n = 3 + idx % 5
        inst = euclid_instance(random.Random(2000 + idx), n, span=1000)
        t0 = time.perf_counter()
        h = hgs_run(inst, HgsParams(max_no_improve=100), random.Random(idx))
        t1 = time.perf_counter()
        r = rr_run(inst, RrParams(iters=10000), random.Random(idx))
        t2 = time.perf_counter()
        assert t1 - t0 <= 1.0
        assert t2 - t1 <= 1.0
        warm = h if h.cost <= r.cost else r
        opt = brute_force_optimal(inst, seed=warm).cost
        hgs_hits += h.cost == opt
        rr_hits += r.cost == opt
    assert hgs_hits >= 0.95 * total, hgs_hits
    assert rr_hits >= 0.95 * total, rr_hits


# ---------------------------------------------------------------------------
# Pair relocation: the linear scan is exact and far faster than the
# quadratic one.


def test_pair_relocation_fast_scan_matches_and_outruns_enumeration():
    for idx in range(100):
        rng = random.Random(3000 + idx)
        inst = euclid_instance(rng, 30)
        tour = random_feasible_tour(rng, inst)
        for x in range(1, 31):
            fast = relocate_pair_best(inst, tour, x)
            slow = relocate_pair_best_naive(inst, tour, x)
            assert fast.delta == slow.delta
            assert fast.indices == slow.indices

    inst = euclid_instance(random.Random(30), 200, span=1000)
    tour = random_feasible_tour(random.Random(31), inst)

    def scan_all(fn):
        best = None
        for _ in range(2):
            t0 = time.perf_counter()
            for x in range(1, 201):
                fn(inst, tour, x)
            dt = time.perf_counter() - t0
            best = dt if best is None else min(best, dt)
        return best

    t_fast = scan_all(relocate_pair_best)
    t_naive = scan_all(relocate_pair_best_naive)
    assert t_fast <= t_naive / 5, (t_fast, t_naive)


# ---------------------------------------------------------------------------
# Nested reversal program against exhaustive enumeration, plus the
# double-crossing tour that plain 2-opt cannot touch.


def test_nested_reversal_program_matches_enumeration():
    for idx in range(510):
        n = 2 + idx % 3
        rng = random.Random(5000 + idx)
        inst = euclid_instance(rng, n)
        tour = random_feasible_tour(rng, inst)
        mv = two_k_opt_best(inst, tour)
        ref = two_k_opt_oracle(inst, tour)
        assert mv.delta == ref.delta
        assert mv.indices == ref.indices
        assert mv.seq_after == ref.seq_after


DOUBLE_CROSS = """\
NAME double-cross
PAIRS 3
MODE closed
ROUNDING nearest
EDGE_SOURCE coords
COORDS
0 21 40
1 46 54
2 40 49
3 22 53
4 34 34
5 39 39
6 27 54
PAIRING
1 4
2 5
3 6
EOF
"""


def test_double_crossing_tour_needs_nested_reversals():
    inst = parse_instance(DOUBLE_CROSS)
    tour = Tour(inst, [0, 2, 5, 3, 6, 1, 4, 0])
    assert tour.cost == 114

    # Every feasible single reversal keeps or worsens the cost.
    for _, _, delta, feasible in _single_two_opts(inst, tour):
        if feasible:
            assert delta >= 0

    mv = two_k_opt_best(inst, tour)
    assert mv.delta == -16
    assert mv.indices == ((1, 6), (2, 5))
    assert list(mv.seq_after) == [0, 2, 1, 3, 6, 5, 4, 0]
    assert not check_precedence(inst, list(mv.seq_after))
    assert tour_cost(inst, list(mv.seq_after)) == 98

    # Each reversal on its own strands a delivery before its pickup.
    for i, j in mv.indices:
        alone = tour.seq[:i] + tour.seq[i : j + 1][::-1] + tour.seq[j + 1 :]
        assert check_precedence(inst, alone)


# ---------------------------------------------------------------------------
# Segment-exchange scan: partner tables equal direct double minima and
# accepted moves survive an independent splice-and-check.


def test_segment_exchange_tables_and_moves_validate():
    seen = {"4opt-type1": 0, "4opt-type2a": 0, "4opt-type2b": 0}
    for idx in range(200):
        n = 3 + idx % 4
        rng = random.Random(6000 + idx)
        inst = euclid_instance(rng, n)
        tour = random_feasible_tour(rng, inst)
        seq = tour.seq
        top = len(seq) - 1
        w = inst.work_cost()
        dd, dc = _delta_tables(w, seq, top)

        for delta in (dd, dc):
            full, full_arg = _prefix_tables(delta, top)
            for i2 in range(1, top - 1):
                for j2 in range(i2 + 2, top + 1):
                    direct = min(
                        delta[i1][j1]
                        for i1 in range(i2)
                        for j1 in range(i2 + 1, j2)
                    )
                    assert full[i2][j2] == direct
                    i1, j1 = full_arg[i2][j2]
                    assert delta[i1][j1] == direct
                    assert 0 <= i1 < i2 < j1 < j2

        mv = four_opt_best(inst, tour)
        if mv.feasible:
            seen[mv.kind] += 1
            after = _splice_four_opt(seq, mv.kind, mv.indices)
            assert sorted(after) == sorted(seq)
            assert not check_precedence(inst, after)
            assert tour_cost(inst, after) - tour.cost == mv.delta
            assert mv.delta < 0
    assert all(count > 0 for count in seen.values()), seen


# ---------------------------------------------------------------------------
# Windowed reordering graph: equals filtered enumeration under both the
# window and the precedence constraints; layers stay small; k=1 idles.


def test_window_reorder_graph_matches_enumeration_within_width_bounds():
    for k in (2, 3, 4):
        shape_cap = k * 2 ** (k - 2) + 1
        node_cap = (k + 1) * 2 ** (k - 2)
        for idx in range(70):
            n = 2 + idx % 3
            rng = random.Random(7100 + 100 * k + idx)
            inst = euclid_instance(rng, n)
            tour = random_feasible_tour(rng, inst)
            seq, cost, stats = bs_optimize(inst, tour.seq, k)
            ref_cost, _ = bs_oracle(inst, tour.seq, k)
            assert cost == ref_cost
            assert cost == tour_cost(inst, seq)
            assert not check_precedence(inst, seq)
            assert stats["max_set_pairs"] <= shape_cap
            assert stats["max_nodes"] <= node_cap

    rng = random.Random(7099)
    inst = euclid_instance(rng, 4)
    tour = random_feasible_tour(rng, inst)
    seq, cost, _ = bs_optimize(inst, tour.seq, 1)
    assert seq == tour.seq and cost == tour.cost


# ---------------------------------------------------------------------------
# One scan-only sweep should look quadratic: doubling the visit count
# multiplies its wall time by roughly four.


def test_sweep_time_scales_quadratically():
    means = []
    for n in (128, 256, 512):
        rng = random.Random(7)
        pts = [(rng.uniform(0, 1000), rng.uniform(0, 1000)) for _ in range(2 * n + 1)]
        inst = generate_pairs(pts, "C", rng, name=f"scale-C{n}")
        tour = greedy_construct(inst, random.Random(1))
        order = list(range(1, n + 1))
        phase_one_sweep(inst, tour, order, 30, apply_moves=False)  # warm caches
        reps = []
        gc.disable()
        try:
            for _ in range(5):
                t0 = time.perf_counter()
                phase_one_sweep(inst, tour, order, 30, apply_moves=False)
                reps.append(time.perf_counter() - t0)
        finally:
            gc.enable()
        reps.sort()
        means.append(sum(reps[1:4]) / 3)  # trimmed mean damps scheduler noise
    ratios = [b / a for a, b in zip(means, means[1:])]
    assert all(3.0 <= r <= 6.0 for r in ratios), (means, ratios)


# ---------------------------------------------------------------------------
# Open tours at dispatch sizes: the genetic search should find the
# optimum almost always, within milliseconds.


def test_open_tour_runs_hit_optimum_within_milliseconds():
    runs = []
    for n in range(5, 11):
        inst = euclid_instance(random.Random(800 + n), n, mode="open", span=1000)
        outs = []
        for seed in range(1, 21):
            stats = {}
            best = hgs_run(
                inst, HgsParams(max_no_improve=100), random.Random(seed), stats
            )
            outs.append((best.cost, stats["ttb"]))
        if n <= MAX_PAIRS:
            warm = greedy_construct(inst, random.Random(0))
            local_search(inst, warm, SearchParams(), random.Random(0), use_large=True)
            ref = brute_force_optimal(inst, seed=warm).cost
        else:
            probes = [
                rr_run(inst, RrParams(iters=10000), random.Random(s)).cost
                for s in (55, 56)
            ]
            ref = min(min(c for c, _ in outs), min(probes))
        runs.extend((c == ref, t) for c, t in outs)
    hits = sum(h for h, _ in runs)
    assert hits >= 0.99 * len(runs), (hits, len(runs))
    median_ttb = statistics.median(t for h, t in runs if h)
    assert median_ttb <= 0.050, median_ttb


# ---------------------------------------------------------------------------
# The two reconstruction evaluators must be interchangeable: same seed,
# same walk, iteration for iteration.


def test_reconstruction_evaluators_follow_identical_trajectories():
    inst = euclid_instance(random.Random(9), 40, span=1000)
    traces = []
    finals = []
    for fast in (True, False):
        trace = []
        best = rr_run(
            inst,
            RrParams(iters=1000, fast=fast),
            random.Random(5),
            trace=trace,
        )
        traces.append(trace)
        finals.append((best.cost, tuple(best.seq)))
    assert len(traces[0]) == 1000
    assert traces[0] == traces[1]
    assert finals[0] == finals[1]
