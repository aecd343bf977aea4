"""End-to-end guarantees the package ships with.

Each test here exercises a whole subsystem against an independent
reference: exact enumeration, direct recomputation of internal tables,
or agreement across unrelated solvers. Reference costs for sizes beyond
the exact solver's pair cap use the consensus of every run performed on
the instance, which the smaller sizes validate against the exact solver.
The suite takes a few minutes; everything is seeded and deterministic
apart from wall-clock measurements.
"""

import gc
import math
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
    bs_optimize,
    four_opt_best,
    or_opt_scan,
    relocate_pair_best,
    two_k_opt_best,
    two_opt_scan,
)
from pdtsp_kit.neighborhoods.fouropt import _partner_rows
from pdtsp_kit.neighborhoods.relocate import best_insertion
from pdtsp_kit.neighborhoods.oracles import (
    bs_oracle,
    relocate_pair_best_naive,
    two_k_opt_oracle,
)
from pdtsp_kit.oracle import MAX_PAIRS, brute_force_optimal
from pdtsp_kit.tour import Tour, check_precedence, tour_cost
from helpers import (
    checked_insertion,
    euclid_instance,
    layer_widths,
    random_feasible_tour,
)


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
        # CPU time, which leaves out time spent waiting for the CPU on a
        # busy host; both budgets are deterministic.
        t0 = time.process_time()
        h = hgs_run(inst, HgsParams(max_no_improve=100), random.Random(idx))
        t1 = time.process_time()
        r = rr_run(inst, RrParams(iters=10000), random.Random(idx))
        t2 = time.process_time()
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
        # dd: replace edges (i,i+1),(j,j+1) by (i,j+1),(i+1,j);
        # dc: replace them by (i,j),(i+1,j+1).
        def edge_pair(i, j):
            return w[seq[i]][seq[i + 1]] + w[seq[j]][seq[j + 1]]

        dd = [
            [
                w[seq[i]][seq[j + 1]] + w[seq[i + 1]][seq[j]] - edge_pair(i, j)
                for j in range(top)
            ]
            for i in range(top)
        ]
        dc = [
            [
                w[seq[i]][seq[j]] + w[seq[i + 1]][seq[j + 1]] - edge_pair(i, j)
                for j in range(top)
            ]
            for i in range(top)
        ]

        steps = []
        for i2, row_d, row_c, min_d, arg_d, min_c, arg_c in _partner_rows(
            w, seq, top
        ):
            steps.append(i2)
            for delta, row, mins, args in (
                (dd, row_d, min_d, arg_d),
                (dc, row_c, min_c, arg_c),
            ):
                for j2 in range(i2 + 2, top):
                    assert row[j2] == delta[i2][j2]
                # The partner minimum over j1 in (i2, j2), taken as the
                # scan takes it: a running minimum over the column minima.
                full = math.inf
                full_arg = (0, 0)
                for j2 in range(i2 + 2, top + 1):
                    j1 = j2 - 1
                    if mins[j1] < full:
                        full = mins[j1]
                        full_arg = (args[j1], j1)
                    direct = min(
                        delta[i1][j1]
                        for i1 in range(i2)
                        for j1 in range(i2 + 1, j2)
                    )
                    assert full == direct
                    i1, j1 = full_arg
                    assert delta[i1][j1] == direct
                    assert 0 <= i1 < i2 < j1 < j2
        assert steps == list(range(1, top - 1))

        mv = four_opt_best(inst, tour)
        if mv.indices:
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
            seq, cost, layers = bs_optimize(inst, tour.seq, k)
            ref_cost, _ = bs_oracle(inst, tour.seq, k)
            assert cost == ref_cost
            assert cost == tour_cost(inst, seq)
            assert not check_precedence(inst, seq)
            nodes, shapes = layer_widths(layers)
            assert shapes <= shape_cap
            assert nodes <= node_cap

    rng = random.Random(7099)
    inst = euclid_instance(rng, 4)
    tour = random_feasible_tour(rng, inst)
    seq, cost, _ = bs_optimize(inst, tour.seq, 1)
    assert seq == tour.seq and cost == tour.cost


# ---------------------------------------------------------------------------
# Scanning every pair once, without applying moves: pair relocation and
# 2-opt should look quadratic, doubling the visit count multiplying
# their wall time by roughly four. The or-opt pass screens out the slots
# that cannot improve, so it must merely grow no faster than that.


def _relocate_and_two_opt_sweep(inst, tour, order):
    for x in order:
        relocate_pair_best(inst, tour, x)
        two_opt_scan(inst, tour, tour.pos[x])
        two_opt_scan(inst, tour, tour.pos[x + inst.n_pairs])


def _or_opt_sweep(inst, tour, order):
    for x in order:
        or_opt_scan(inst, tour, tour.pos[x], 30)
        or_opt_scan(inst, tour, tour.pos[x + inst.n_pairs], 30)


def test_sweep_time_scales_quadratically():
    # Each repetition times all three sizes back to back, and each size
    # keeps its fastest sweep of each kind, so a slow spell of the host
    # falls on every size alike instead of on one of them. Sweeps are
    # timed in process CPU time, which time spent running other
    # processes does not inflate.
    sweeps = (_relocate_and_two_opt_sweep, _or_opt_sweep)
    cases = []
    for n in (128, 256, 512):
        rng = random.Random(7)
        pts = [(rng.uniform(0, 1000), rng.uniform(0, 1000)) for _ in range(2 * n + 1)]
        inst = generate_pairs(pts, "C", rng, name=f"scale-C{n}")
        tour = greedy_construct(inst, random.Random(1))
        order = range(1, n + 1)
        for sweep in sweeps:  # warm caches
            sweep(inst, tour, order)
        cases.append((inst, tour, order))
    best = [[math.inf] * len(cases) for _ in sweeps]
    gc.disable()
    try:
        for _ in range(5):
            for k, (inst, tour, order) in enumerate(cases):
                for s, sweep in enumerate(sweeps):
                    t0 = time.process_time()
                    sweep(inst, tour, order)
                    best[s][k] = min(best[s][k], time.process_time() - t0)
    finally:
        gc.enable()
    quad, oropt = ([b / a for a, b in zip(row, row[1:])] for row in best)
    assert all(3.0 <= r <= 6.0 for r in quad), (best, quad)
    assert all(r <= 6.0 for r in oropt), (best, oropt)


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
        ref = brute_force_optimal(inst).cost
        runs.extend((c == ref, t) for c, t in outs)
    hits = sum(h for h, _ in runs)
    assert hits >= 0.99 * len(runs), (hits, len(runs))
    median_ttb = statistics.median(t for h, t in runs if h)
    assert median_ttb <= 0.050, median_ttb


# ---------------------------------------------------------------------------
# The two reconstruction evaluators must be interchangeable: same seed,
# same walk, iteration for iteration.


def test_reconstruction_evaluators_follow_identical_trajectories(monkeypatch):
    # Every insertion of the run is priced by both evaluators, which
    # must agree on each, and checking them must not change the run.
    inst = euclid_instance(random.Random(9), 40, span=1000)
    calls = []
    finals = []
    for evaluator in (checked_insertion(calls), best_insertion):
        monkeypatch.setattr("pdtsp_kit.metaheuristics.best_insertion", evaluator)
        stats = {}
        best = rr_run(inst, RrParams(iters=1000), random.Random(5), stats)
        assert stats["iters"] == 1000
        finals.append((best.cost, tuple(best.seq)))
    assert len(calls) > 1000
    assert finals[0] == finals[1]
