"""Property test of ``apply_move`` on the moves the scans return.

Random feasible tours, integer and float costs, open and closed, take
the move of each scan in turn. Every result must be the empty move or
improve by more than ``inst.eps`` and realize its delta. After every
move the tour must stay a feasible permutation bracketed by the depot
and the terminal, with positions and cost in step with its sequence.
``four_opt_type1_any`` ignores precedence, so its move is realized on
the bare sequence and applied only when that stays feasible.

Or-opt's per-tour state must follow every move and every copy: after
each step, or-opt at the step's anchor must give the full loop's
result on the tour and on the copy it was last split from, and each
one's state must be absent or equal to a fresh build for its sequence.
Tours of 10 pairs or more reach the gain screen and its edge index.
"""

import random

from hypothesis import given, settings, strategies as st

from pdtsp_kit.neighborhoods import (
    bs_best,
    four_opt_best,
    four_opt_type1_any,
    or_opt_scan,
    relocate_pair_best,
    two_k_opt_best,
    two_opt_scan,
)
from pdtsp_kit.tour import apply_move, check_precedence, four_opt_splice, tour_cost
from helpers import (
    euclid_instance,
    float_instance,
    or_opt_full_pricing,
    or_opt_state,
    random_feasible_tour,
)

# Scan name -> call taking (inst, tour, a); ``a`` picks the pair or the
# anchor position of the scans that take one.
SCANS = {
    "relocate": lambda inst, t, a: relocate_pair_best(inst, t, 1 + a % inst.n_pairs),
    "two_opt": lambda inst, t, a: two_opt_scan(inst, t, a % (2 * inst.n_pairs + 1)),
    "or_opt": lambda inst, t, a: or_opt_scan(inst, t, 1 + a % (2 * inst.n_pairs), 30),
    "two_k_opt": lambda inst, t, a: two_k_opt_best(inst, t),
    "four_opt": lambda inst, t, a: four_opt_best(inst, t),
    "bs": lambda inst, t, a: bs_best(inst, t, 3),
    "type1_any": lambda inst, t, a: four_opt_type1_any(inst, t.seq),
}


def check_invariants(inst, tour):
    seq, nv = tour.seq, inst.n_visits
    assert len(seq) == nv + 1
    assert seq[0] == 0 and seq[-1] == inst.end
    assert sorted(seq[1:-1]) == list(range(1, nv))
    assert all(tour.pos[v] == t for t, v in enumerate(seq[:-1]))
    assert seq[tour.pos[inst.end]] == inst.end  # a closed tour's depot sits at 0
    assert not check_precedence(inst, seq)
    state = tour.scan_state
    assert state is None or state == or_opt_state(inst, seq, state)
    check_cost(inst, tour.cost, tour_cost(inst, seq))


def check_cost(inst, got, want):
    if inst.integral:
        assert got == want
    else:
        assert abs(got - want) <= inst.eps


def check_or_opt(inst, tour, anchor):
    a = 1 + anchor % (2 * inst.n_pairs)
    move = or_opt_scan(inst, tour, a, 30)
    assert (move.indices, move.delta) == or_opt_full_pricing(inst, tour, a, 30)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    n=st.integers(2, 20),
    integral=st.booleans(),
    mode=st.sampled_from(["closed", "open"]),
    steps=st.lists(
        st.tuples(st.sampled_from(sorted(SCANS) + ["copy"]), st.integers(0, 99)),
        max_size=12,
    ),
)
def test_scan_moves_keep_tour_invariants(seed, n, integral, mode, steps):
    rng = random.Random(seed)
    make = euclid_instance if integral else float_instance
    inst = make(rng, n, mode=mode)
    tour = random_feasible_tour(rng, inst)
    twin = tour
    check_invariants(inst, tour)
    for name, anchor in steps:
        check_or_opt(inst, tour, anchor)
        check_or_opt(inst, twin, anchor)
        check_invariants(inst, tour)
        check_invariants(inst, twin)
        if name == "copy":
            twin, tour = tour, tour.copy()
            continue
        move = SCANS[name](inst, tour, anchor)
        if not move.indices:
            assert move.indices == () and move.delta == 0
            continue
        assert move.delta < -inst.eps
        before = tour_cost(inst, tour.seq)
        if name == "type1_any":
            new = four_opt_splice(tour.seq, move.kind, move.indices)
            check_cost(inst, before + move.delta, tour_cost(inst, new))
            if check_precedence(inst, new):
                continue
        apply_move(inst, tour, move)
        check_cost(inst, before + move.delta, tour_cost(inst, tour.seq))
        check_invariants(inst, tour)
    check_or_opt(inst, tour, 0)
    check_or_opt(inst, twin, 0)
    check_invariants(inst, tour)
    check_invariants(inst, twin)
