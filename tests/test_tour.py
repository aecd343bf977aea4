"""Tour structure, feasibility and move application."""

import copy
import functools
import operator
import random

import pytest

from pdtsp_kit.instance import Instance
from pdtsp_kit.neighborhoods import or_opt_scan
from pdtsp_kit.tour import MoveDelta, Tour, apply_move, check_precedence, tour_cost
from helpers import euclid_instance, random_feasible_tour


def test_identity_tour():
    rng = random.Random(1)
    inst = euclid_instance(rng, 3)
    t = Tour.identity(inst)
    assert t.seq == [0, 1, 2, 3, 4, 5, 6, 0]
    assert t.is_feasible()
    assert t.cost == sum(
        inst.cost[a][b] for a, b in zip(t.seq, t.seq[1:])
    )
    assert [t.pos[v] for v in range(7)] == list(range(7))


def test_open_tour_terminal():
    rng = random.Random(2)
    inst = euclid_instance(rng, 2, mode="open")
    t = Tour.identity(inst)
    assert t.seq[-1] == 5
    # No return edge: cost stops at the last real visit.
    assert t.cost == sum(inst.cost[a][b] for a, b in zip(t.seq[:-1], t.seq[1:-1]))
    assert t.to_visits() == [0, 1, 2, 3, 4]
    again = Tour.from_visits(inst, t.to_visits())
    assert again.seq == t.seq and again.cost == t.cost


def test_closed_from_visits():
    rng = random.Random(3)
    inst = euclid_instance(rng, 2)
    t = Tour.from_visits(inst, [0, 2, 1, 4, 3, 0])
    assert t.to_visits() == [0, 2, 1, 4, 3, 0]
    assert t.is_feasible()


def test_structural_validation():
    rng = random.Random(4)
    inst = euclid_instance(rng, 2)
    with pytest.raises(ValueError):
        Tour(inst, [0, 1, 2, 3, 4])  # short
    with pytest.raises(ValueError):
        Tour(inst, [1, 0, 2, 3, 4, 0])  # depot not first
    with pytest.raises(ValueError):
        Tour(inst, [0, 1, 1, 3, 4, 0])  # duplicate
    # Precedence violations are allowed structurally.
    t = Tour(inst, [0, 3, 1, 2, 4, 0])
    assert t.violations() == [1]
    assert not t.is_feasible()


def test_check_precedence_orders_by_pickup_id():
    rng = random.Random(5)
    inst = euclid_instance(rng, 3)
    assert check_precedence(inst, [0, 4, 1, 6, 3, 2, 5, 0]) == [1, 3]


def test_apply_relocate_and_cost_bookkeeping():
    rng = random.Random(6)
    inst = euclid_instance(rng, 4)
    t = random_feasible_tour(rng, inst)
    before = t.cost
    # Relocate pair 1 consecutively after slot 0 of the remainder.
    mv = MoveDelta("relocate-pair", (1, 0, 0), 0)
    rho = [v for v in t.seq if v not in (1, 1 + 4)]
    expect = rho[:1] + [1, 5] + rho[1:]
    delta = tour_cost(inst, expect) - t.cost
    mv = MoveDelta("relocate-pair", (1, 0, 0), delta)
    apply_move(inst, t, mv)
    assert t.seq == expect
    assert t.cost == before + delta
    assert t.pos[1] == 1 and t.pos[5] == 2


def test_apply_split_relocate():
    rng = random.Random(7)
    inst = euclid_instance(rng, 3)
    t = Tour.identity(inst)
    rho = [0, 2, 3, 5, 6, 0]
    expect = rho[:2] + [1] + rho[2:4] + [4] + rho[4:]
    delta = tour_cost(inst, expect) - t.cost
    apply_move(inst, t, MoveDelta("relocate-pair", (1, 1, 3), delta))
    assert t.seq == expect
    assert t.cost == tour_cost(inst, t.seq)


def test_apply_two_opt_and_identity():
    rng = random.Random(8)
    inst = euclid_instance(rng, 3)
    t = Tour.identity(inst)
    before = list(t.seq)
    apply_move(inst, t, MoveDelta("2opt", (1, 3), 0))  # identity span
    assert t.seq == before
    expect = before[:2] + before[4:1:-1] + before[5:]
    delta = tour_cost(inst, expect) - t.cost
    apply_move(inst, t, MoveDelta("2opt", (1, 5), delta))
    assert t.seq == expect
    assert t.cost == tour_cost(inst, t.seq)


def test_apply_or_opt_reversed():
    rng = random.Random(9)
    inst = euclid_instance(rng, 3)
    t = Tour.identity(inst)
    # Move segment [2, 3] reversed to sit after slot 3 of the remainder.
    rho = [0, 1, 4, 5, 6, 0]
    expect = rho[:4] + [3, 2] + rho[4:]
    delta = tour_cost(inst, expect) - t.cost
    apply_move(inst, t, MoveDelta("or-opt", (2, 2, 3, True), delta))
    assert t.seq == expect
    assert t.cost == tour_cost(inst, t.seq)


def test_apply_seq_after_kinds():
    rng = random.Random(10)
    inst = euclid_instance(rng, 3)
    t = Tour.identity(inst)
    new = (0, 2, 1, 3, 5, 4, 6, 0)
    delta = tour_cost(inst, list(new)) - t.cost
    apply_move(inst, t, MoveDelta("bs", (3,), delta, new))
    assert t.seq == list(new)
    assert t.cost == tour_cost(inst, t.seq)
    assert t.pos[2] == 1


@pytest.mark.parametrize("kind", ["4opt-type1", "4opt-type2a", "4opt-type2b"])
def test_apply_four_opt(kind):
    rng = random.Random(11)
    inst = euclid_instance(rng, 4)
    t = Tour.identity(inst)
    i1, i2, j1, j2 = 1, 3, 5, 7
    s = t.seq
    # The patterns of the fouropt.py docstring; r() is a reversed block.
    P1, P2, P3, P4, P5 = s[:2], s[2:4], s[4:6], s[6:8], s[8:]
    expect = {
        "4opt-type1": P1 + P4 + P3 + P2 + P5,
        "4opt-type2a": P1 + P3[::-1] + P4[::-1] + P2 + P5,
        "4opt-type2b": P1 + P4 + P2[::-1] + P3[::-1] + P5,
    }[kind]
    delta = tour_cost(inst, expect) - t.cost
    apply_move(inst, t, MoveDelta(kind, (i1, i2, j1, j2), delta))
    assert t.seq == expect


def test_apply_rejects_empty_and_unknown():
    rng = random.Random(12)
    inst = euclid_instance(rng, 2)
    t = Tour.identity(inst)
    with pytest.raises(ValueError, match="empty"):
        apply_move(inst, t, MoveDelta("2opt", (), 0))
    with pytest.raises(ValueError, match="unknown"):
        apply_move(inst, t, MoveDelta("warp", (1,), 0))


def test_costs_add_edges_left_to_right():
    # From Python 3.12 on, ``sum`` adds floats with compensation and
    # gives 1e16 + 2 here; a left-to-right sum rounds each + 1 away.
    inst = Instance(1, [[0, 1e16, 1.0], [1e16, 0, 1.0], [1.0, 1.0, 0]], name="big")
    seq = [0, 1, 2, 0]
    edges = [1e16, 1.0, 1.0]
    want = functools.reduce(operator.add, edges, 0)
    assert tour_cost(inst, seq) == want
    assert Tour(inst, seq).cost == want


def test_copy_independent():
    rng = random.Random(13)
    inst = euclid_instance(rng, 3)
    t = random_feasible_tour(rng, inst)
    dup = t.copy()
    apply_move(inst, t, MoveDelta("2opt", (1, 3), 0))
    assert dup.seq is not t.seq and dup.pos is not t.pos
    assert dup.cost == tour_cost(inst, dup.seq)


def _edges(inst, seq):
    return [tour_cost(inst, seq[t : t + 2]) for t in range(len(seq) - 1)]


@pytest.mark.parametrize("mode", ["closed", "open"])
def test_edge_costs_follow_every_move_kind(mode):
    # Every move and ``recost`` clear the scan state, a move on a copy
    # leaves the original's state alone, and or-opt's next scan builds
    # the edge costs of the sequence it sees.
    rng = random.Random(14)
    inst = euclid_instance(rng, 4, mode=mode)
    t = random_feasible_tour(rng, inst)
    assert t.scan_state is None

    def edges_after_scan(tour):
        # With k_or = 0 the scan prices nothing and only builds its
        # state, so the tour need not be feasible, and the shuffled
        # and 4-opt steps below leave it infeasible.
        or_opt_scan(inst, tour, 1, 0)
        return tour.scan_state[0]

    assert edges_after_scan(t) == _edges(inst, t.seq)

    def shuffled():
        inner = t.seq[1:-1]
        rng.shuffle(inner)
        return tuple(t.seq[:1] + inner + t.seq[-1:])

    def flipped():
        # The nested-2-opt move made of the single flip (1, 6).
        return tuple(t.seq[:2] + t.seq[5:1:-1] + t.seq[6:])

    moves = [
        ("relocate-pair", (1, 0, 0), None),
        ("relocate-pair", (2, 1, 3), None),
        ("2opt", (1, 5), None),
        ("or-opt", (2, 2, 3, True), None),
        ("or-opt", (3, 1, 5, False), None),
        ("2k-opt", ((1, 6),), flipped),
        ("bs", (3,), shuffled),
        ("4opt-type1", (1, 3, 5, 7), None),
        ("4opt-type2a", (1, 3, 5, 7), None),
        ("4opt-type2b", (2, 3, 6, 8), None),
    ]
    for kind, indices, after in moves:
        seq_after = after() if after else None
        # A copy takes the move first; the original's state stays put.
        probe = t.copy()
        state = t.scan_state
        assert probe.scan_state is state
        before = copy.deepcopy(state)
        apply_move(inst, probe, MoveDelta(kind, indices, 0, seq_after))
        assert probe.scan_state is None
        assert t.scan_state is state and state == before
        delta = tour_cost(inst, probe.seq) - t.cost
        apply_move(inst, t, MoveDelta(kind, indices, delta, seq_after))
        assert t.seq == probe.seq
        assert t.scan_state is None, kind
        edge = edges_after_scan(t)
        assert edge == _edges(inst, t.seq), kind
        assert t.cost == tour_cost(inst, t.seq) == sum(edge)

    t.seq[1:-1] = t.seq[-2:0:-1]
    assert t.recost() == tour_cost(inst, t.seq)
    assert t.scan_state is None
