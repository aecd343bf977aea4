"""Relocate, 2-opt and or-opt scans against realization references."""

import dataclasses
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from pdtsp_kit.neighborhoods import oropt, or_opt_scan, relocate_pair_best, two_opt_scan
from pdtsp_kit.neighborhoods.oropt import edge_index, edge_maxima
from pdtsp_kit.neighborhoods.relocate import best_insertion
from pdtsp_kit.neighborhoods.oracles import (
    best_insertion_naive,
    or_opt_oracle,
    relocate_pair_best_naive,
    two_opt_oracle,
)
from pdtsp_kit.instance import Instance, generate_pairs
from pdtsp_kit.tour import MoveDelta, Tour, apply_move, insert_pair, tour_cost
from helpers import (
    euclid_instance,
    float_instance,
    or_opt_full_pricing,
    or_opt_range,
    random_feasible_tour,
)


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
    found = 0
    for inst, tour in states:
        for x in range(1, inst.n_pairs + 1):
            mv = relocate_pair_best(inst, tour, x)
            naive = relocate_pair_best_naive(inst, tour, x)
            assert mv.indices == naive.indices and mv.delta == naive.delta
            if not mv.indices:
                assert mv.delta == 0
                continue
            found += 1
            assert mv.delta < 0
            trial = tour.copy()
            apply_move(inst, trial, mv)
            assert trial.is_feasible()
            assert close(trial.cost, tour_cost(inst, trial.seq), inst.integral)
            assert close(trial.cost, tour.cost + mv.delta, inst.integral)
    assert found > 50


# ---------------------------------------------------------------------------
# 2-opt


def test_two_opt_scan_matches_oracle():
    states = build_states(300, (2, 3, 5, 8))
    for inst, tour in states:
        n2 = 2 * inst.n_pairs
        for i in range(1, n2 + 1):
            mv = two_opt_scan(inst, tour, i)
            oracle, cands = two_opt_oracle(inst, tour, i)
            assert bool(mv.indices) == bool(oracle.indices)
            if mv.indices:
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
            assert bool(mv.indices) == bool(oracle.indices)
            if mv.indices:
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
            assert bool(mv.indices) == bool(oracle.indices)
            if mv.indices:
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
            assert bool(mv.indices) == bool(oracle.indices)
            if not mv.indices:
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


@pytest.mark.parametrize("floats", [False, True])
def test_or_opt_never_returns_the_slot_it_left(floats):
    # Slot a - 1 puts the segment back where it stood. A segment flipped
    # in place on an or-opt optimum makes flipping it back a good move,
    # which on float costs rounding could hand to that slot.
    rng = random.Random(41)
    for inst, tour in build_states(42, (3, 5, 12), floats=floats):
        n2 = 2 * inst.n_pairs
        optimum = tour.copy()
        or_opt_descent(inst, optimum)
        states = [tour, optimum]
        for _ in range(8):
            a = rng.randint(1, n2 - 1)
            length = rng.randint(2, min(6, n2 - a + 1))
            seq = optimum.seq[:]
            seq[a : a + length] = seq[a + length - 1 : a - 1 : -1]
            states.append(Tour(inst, seq))
        for state in states:
            if not state.is_feasible():
                continue
            for a in range(1, n2 + 1):
                moves = [or_opt_scan(inst, state, a, 30)]
                # The oracle realizes every candidate: small tours only.
                if n2 < 20:
                    moves.append(or_opt_oracle(inst, state, a, 30))
                for mv in moves:
                    assert mv.indices[2:3] != (a - 1,), (mv, state.seq)


@pytest.mark.parametrize("mode", ["closed", "open"])
def test_or_opt_reversal_in_place_repeats_a_shorter_candidate(mode):
    # Reversed at slot a - 1, a segment of L visits gives the tour of
    # its first L - 1 visits moved to slot a (reversed unless L = 2),
    # and that slot is feasible for them whenever the reversal is. For
    # L = 2 that is a single-visit move, which pair relocation lists.
    rng = random.Random(43)
    for n in (2, 4, 7):
        inst = euclid_instance(rng, n, mode=mode)
        for _ in range(6):
            tour = random_feasible_tour(rng, inst)
            for a in range(1, 2 * n + 1):
                for length in range(2, 2 * n - a + 2):
                    if not or_opt_range(inst, tour, a, length)[2]:
                        continue
                    lo, hi, can_rev = or_opt_range(inst, tour, a, length - 1)
                    assert lo <= a <= hi and (can_rev or length == 2)
                    flipped = tour.copy()
                    apply_move(inst, flipped, MoveDelta("or-opt", (a, length, a - 1, True), 0))
                    moved = tour.copy()
                    apply_move(inst, moved, MoveDelta("or-opt", (a, length - 1, a, length > 2), 0))
                    assert flipped.seq == moved.seq


@pytest.mark.parametrize("floats", [False, True])
def test_or_opt_lists_no_single_visit_segment(floats):
    # Pair relocation lists every single-visit move of a pair step, so
    # or-opt starts at two visits: at k_or = 1 it has no candidate. The
    # old pricing, which starts at one visit, finds improving
    # single-visit moves on these tours, so the scan had some to drop.
    singles = 0
    for inst, tour in build_states(45, (2, 3, 6, 12), floats=floats):
        for a in range(1, 2 * inst.n_pairs + 1):
            assert or_opt_scan(inst, tour, a, 1) == MoveDelta("or-opt", (), 0)
            for k_or in (2, 3, 30):
                assert or_opt_scan(inst, tour, a, k_or).indices[1:2] != (1,)
            old, _ = or_opt_full_pricing(inst, tour, a, 30, shortest=1)
            singles += old[1:2] == (1,)
    assert singles > 20


# ---------------------------------------------------------------------------
# Or-opt's gain screen engages only on lengths with more than
# SCREEN_WIDTH feasible slots. The widest length has 2n - 2 of them (a
# segment holding one whole pair may land anywhere but where it
# stands), so these tours have 10 pairs or more.


def random_matrix_instance(rng, n, mode, top):
    # Symmetric, not metric, with zeros off the diagonal; a small top
    # makes most costs tie.
    nv = 2 * n + 1
    cost = [[0] * nv for _ in range(nv)]
    for i in range(nv):
        for j in range(i + 1, nv):
            cost[i][j] = cost[j][i] = rng.randint(0, top)
    return Instance(n, cost, mode=mode, name=f"m{n}")


def descend_comparing(inst, tour, anchors, k_or, reference):
    """Follows or-opt moves from ``tour``, comparing the scan with
    ``reference`` at each anchor before applying its move. Anchors are
    positions, or callables of the tour giving one."""
    steps = 0
    for a in anchors:
        if callable(a):
            a = a(tour)
        mv = or_opt_scan(inst, tour, a, k_or)
        assert (mv.indices, mv.delta) == reference(inst, tour, a, k_or), (a, tour.seq)
        if mv.indices:
            apply_move(inst, tour, mv)
            steps += 1
    return steps


def oracle_result(inst, tour, a, k_or):
    ref = or_opt_oracle(inst, tour, a, k_or)
    return ref.indices, ref.delta


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    n=st.integers(13, 16),
    mode=st.sampled_from(["closed", "open"]),
    top=st.sampled_from([1, 2, 5, 1000]),
    k_or=st.sampled_from([3, 30]),
)
def test_screen_matches_oracle_on_non_metric_matrices(seed, n, mode, top, k_or):
    # Each pair starts next to its partner, so a segment holding a whole
    # pair may land anywhere; anchoring at pickups reaches the screen.
    rng = random.Random(seed)
    inst = random_matrix_instance(rng, n, mode, top)
    pairs = rng.sample(range(1, n + 1), n)
    tour = Tour(inst, [0] + [v for x in pairs for v in (x, x + n)] + [inst.end])
    anchors = [lambda t, x=x: t.pos[x] for x in rng.sample(pairs, 4)]
    descend_comparing(inst, tour, anchors, k_or, oracle_result)
    assert inst._screen is not None


@pytest.mark.parametrize("kind", ["integer", "float", "matrix"])
def test_screen_matches_full_pricing_on_long_tours(kind):
    # Random or-opt descents on tours of 30 to 100 pairs, which keep
    # scanning past non-improving anchors: the scan must give the full
    # loop's move and delta, float rounding included, while the per-tour
    # index follows every applied move. Near a local optimum the few
    # improving moves are the ones a screen could lose.
    rng = random.Random(470)
    scans = 0
    while scans < 2500:
        n = rng.randint(30, 100)
        mode = rng.choice(["closed", "open"])
        if kind == "matrix":
            inst = random_matrix_instance(rng, n, mode, 20)
        else:
            build = euclid_instance if kind == "integer" else float_instance
            inst = build(rng, n, mode=mode)
        tour = random_feasible_tour(rng, inst)
        stale = 0
        while stale < 4 * n and scans < 2500:
            a = rng.randint(1, 2 * n)
            mv = or_opt_scan(inst, tour, a, 30)
            assert (mv.indices, mv.delta) == or_opt_full_pricing(inst, tour, a, 30)
            scans += 1
            if mv.indices:
                apply_move(inst, tour, mv)
                stale = 0
            else:
                stale += 1


@pytest.mark.parametrize("span", [1e7, 1e9])
def test_screen_matches_full_pricing_at_large_spans(span):
    # Visits share a few far-apart locations, so many moves tie and
    # their computed deltas carry rounding error far above eps; the
    # screen must still keep every move the full loop accepts.
    rng = random.Random(460)
    for mode in ("closed", "open"):
        n = 20
        spots = [(rng.uniform(0, span), rng.uniform(0, span)) for _ in range(6)]
        pts = [rng.choice(spots) for _ in range(2 * n + 1)]
        inst = generate_pairs(pts, "C", rng, mode=mode, rounding="none")
        tour = random_feasible_tour(rng, inst)
        anchors = [rng.randint(1, 2 * n) for _ in range(300)]
        descend_comparing(inst, tour, anchors, 30, or_opt_full_pricing)
        inst = float_instance(rng, 40, mode=mode, span=span)
        tour = random_feasible_tour(rng, inst)
        anchors = [rng.randint(1, 80) for _ in range(200)]
        descend_comparing(inst, tour, anchors, 30, or_opt_full_pricing)


@pytest.mark.parametrize("mode", ["closed", "open"])
def test_screen_index_belongs_to_the_tour(monkeypatch, mode):
    # Two tours of one instance scanned in turn, at every anchor, twice:
    # each must give what it gives on an instance of its own, and build
    # its edge index once, since neither tour changes.
    rng = random.Random(480)
    inst = float_instance(rng, 30, mode=mode)
    tours = [random_feasible_tour(rng, inst) for _ in range(2)]
    anchors = range(1, 2 * inst.n_pairs + 1)
    alone = []
    for tour in tours:
        own = dataclasses.replace(inst)
        alone.append([or_opt_scan(own, tour.copy(), a, 30) for a in anchors])
    builds = []

    def counted(*args):
        builds.append(args)
        return edge_index(*args)

    monkeypatch.setattr(oropt, "edge_index", counted)
    for _ in range(2):
        for a in anchors:
            for tour, ref in zip(tours, alone):
                assert or_opt_scan(inst, tour, a, 30) == ref[a - 1]
    assert len(builds) == 2


@pytest.mark.parametrize("kind", [int, float])
def test_edge_maxima_are_prefix_and_suffix_maxima(kind):
    rng = random.Random(490)
    for n in (0, 1, 2, 5, 40):
        edge = [kind(rng.randint(0, 9)) for _ in range(n)]
        pre, suf = edge_maxima(edge)
        assert pre == [max(edge[:i], default=0) for i in range(n + 1)]
        assert suf == [max(edge[i:], default=0) for i in range(n + 1)]


costs = st.floats(0, 1e300, allow_nan=False, allow_infinity=False)


@settings(max_examples=500, deadline=None)
@given(a=costs, b=costs, c=costs, x=costs, y=costs, z=costs)
def test_dropped_candidates_compute_no_improvement(a, b, c, x, y, z):
    # The screen drops a candidate only when none of its three pair
    # differences is negative; rounding must not then make the scan's
    # sum, in its order of operations, come out negative.
    a, b = max(a, b), min(a, b)
    x, c = max(x, c), min(x, c)
    y, z = max(y, z), min(y, z)
    assert a - b - c + x + y - z >= 0


# ---------------------------------------------------------------------------
# Or-opt's length bound drops a side of a length, or the whole length,
# when k - M, a lower bound on every candidate's computed delta there,
# cannot beat the running best. It runs on the tours the screen can
# reach, those of 10 pairs or more.


class CountingList(list):
    """A list that counts its item reads."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


def or_opt_descent(inst, tour, k_or=30):
    """Applies or-opt's best move at each anchor until none improves."""
    improved = True
    while improved:
        improved = False
        for a in range(1, 2 * inst.n_pairs + 1):
            mv = or_opt_scan(inst, tour, a, k_or)
            if mv.indices:
                apply_move(inst, tour, mv)
                improved = True


def pass_edge_reads(inst, tour):
    """Moves and edge-cost reads of one or-opt pass over every anchor.
    Only slot pricing reads or-opt's edge list by item, so the reads
    count the slots priced."""
    or_opt_scan(inst, tour, 1, 30)  # builds the state if the tour has none
    edge, *rest = tour.scan_state
    tour.scan_state = [CountingList(edge), *rest]
    moves = [or_opt_scan(inst, tour, a, 30) for a in range(1, 2 * inst.n_pairs + 1)]
    return moves, tour.scan_state[0].reads


@pytest.mark.parametrize("mode", ["closed", "open"])
def test_length_bound_skips_lengths_on_locally_optimal_tours(mode):
    rng = random.Random(490)
    inst = euclid_instance(rng, 50, mode=mode)
    tour = random_feasible_tour(rng, inst)
    or_opt_descent(inst, tour)
    moves, reads = pass_edge_reads(inst, tour.copy())
    assert not any(mv.indices for mv in moves)
    # Bounds of minus infinity never drop anything: the scan then
    # prices what it priced without the bound.
    near, nu, nv = inst._screen
    unbounded = dataclasses.replace(inst)
    unbounded._screen = near, [-math.inf] * len(nu), [-math.inf] * len(nv)
    moves_unbounded, reads_unbounded = pass_edge_reads(unbounded, tour.copy())
    assert moves_unbounded == moves
    assert reads < 0.75 * reads_unbounded


@pytest.mark.parametrize("n", [5, 9])
def test_length_bound_never_runs_below_ten_pairs(n):
    rng = random.Random(491)
    for mode in ("closed", "open"):
        inst = euclid_instance(rng, n, mode=mode)
        tour = random_feasible_tour(rng, inst)
        or_opt_descent(inst, tour)
        # The last pass built the edge costs, but no maxima and no index.
        assert tour.scan_state[1:] == [None, None, None]
        assert inst._screen is None


def test_length_bound_keeps_the_zero_cost_edge_into_the_terminal():
    # Visits on a line in tour order, but for the segment (19, 20) of
    # two deliveries, which is visited before 18 and whose tail 20 lies
    # far out. The segment's one improving slot is the edge into the
    # open terminal, which costs 0 although every real visit is far
    # from 20: a bound that priced that edge at the nearest real visit
    # would drop the slot, and the scan would find nothing there.
    n = 10
    seq = list(range(2 * n - 2)) + [2 * n - 1, 2 * n, 2 * n - 2]
    x = {v: i for i, v in enumerate(seq)}
    x[2 * n] = 1000
    cost = [[abs(x[i] - x[j]) for j in range(2 * n + 1)] for i in range(2 * n + 1)]
    inst = Instance(n, cost, mode="open", name="far-delivery")
    tour = Tour(inst, seq + [inst.end])
    a = 2 * n - 2
    assert or_opt_scan(inst, tour, a, 30) == MoveDelta("or-opt", (a, 2, a, False), -976)
    for a in range(1, 2 * n + 1):
        mv = or_opt_scan(inst, tour, a, 30)
        assert (mv.indices, mv.delta) == oracle_result(inst, tour, a, 30)


@settings(max_examples=500, deadline=None)
@given(
    removed=st.tuples(costs, costs, costs),
    head=st.tuples(costs, costs, costs, costs),
    tail=st.tuples(costs, costs, costs, costs),
    edges=st.tuples(costs, costs),
)
def test_length_bound_is_below_every_computed_delta(removed, head, tail, edges):
    # With w(u,h) >= nu[h], w(h,v) >= nv[h] (and the same for t) and the
    # removed slot edge at most M, both orientations' sums, in the
    # scan's order, are at least k - M as computed.
    p_nx, p_h, t_nx = removed
    nu_h, w_uh, nv_h, w_hv = head
    nu_t, w_ut, nv_t, w_tv = tail
    nu_h, w_uh = min(nu_h, w_uh), max(nu_h, w_uh)
    nv_h, w_hv = min(nv_h, w_hv), max(nv_h, w_hv)
    nu_t, w_ut = min(nu_t, w_ut), max(nu_t, w_ut)
    nv_t, w_tv = min(nv_t, w_tv), max(nv_t, w_tv)
    base, big = min(edges), max(edges)
    d_rem = p_nx - p_h - t_nx
    k = min(d_rem + nu_h + nv_t, d_rem + nu_t + nv_h)
    assert d_rem + w_uh + w_tv - base >= k - big
    assert d_rem + w_ut + w_hv - base >= k - big
