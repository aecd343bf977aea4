"""Data model, file format and generator tests."""

import math
import random

import pytest

from pdtsp_kit.instance import (
    FormatError,
    Instance,
    build_cost_matrix,
    generate_pairs,
    parse_instance,
    parse_solution,
    render_instance,
    render_solution,
    round_half_up,
)
from helpers import euclid_instance, float_instance


def exact_rounded_distance(ax, ay, bx, by):
    # Integer-only round-half-up of sqrt(s): r if 4*s < (2r+1)^2 else r+1.
    s = (ax - bx) ** 2 + (ay - by) ** 2
    r = math.isqrt(s)
    return r if 4 * s < (2 * r + 1) ** 2 else r + 1


def test_round_half_up():
    assert round_half_up(0.5) == 1
    assert round_half_up(1.4999) == 1
    assert round_half_up(2.5) == 3
    assert round_half_up(0.0) == 0


def test_build_cost_matrix_examples():
    assert build_cost_matrix([(0, 0), (3, 4)], "nearest") == [[0, 5], [5, 0]]
    assert build_cost_matrix([(0, 0), (1, 1)], "nearest") == [[0, 1], [1, 0]]
    exact = build_cost_matrix([(0, 0), (3, 4)], "none")
    assert exact[0][1] == pytest.approx(5.0)


def test_build_cost_matrix_matches_integer_arithmetic():
    rng = random.Random(11)
    pts = [(rng.randint(0, 500), rng.randint(0, 500)) for _ in range(30)]
    m = build_cost_matrix(pts, "nearest")
    for i, (ax, ay) in enumerate(pts):
        for j, (bx, by) in enumerate(pts):
            assert m[i][j] == exact_rounded_distance(ax, ay, bx, by)


def test_unrounded_triangle_holds_rounded_may_break():
    rng = random.Random(5)
    pts = [(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(12)]
    m = build_cost_matrix(pts, "none")
    k = len(pts)
    for a in range(k):
        for b in range(k):
            for c in range(k):
                assert m[a][c] <= m[a][b] + m[b][c] + 1e-9
    # Three nearly collinear points where both short legs round to zero.
    r = build_cost_matrix([(0, 0), (0.4, 0), (0.8, 0)], "nearest")
    assert r[0][2] > r[0][1] + r[1][2]


def test_instance_validation():
    with pytest.raises(ValueError):
        Instance(1, [[0, 1], [1, 0]])  # wrong size
    with pytest.raises(ValueError):
        Instance(1, [[0, 1, 2], [1, 0, 1], [3, 1, 0]])  # asymmetric
    with pytest.raises(ValueError):
        Instance(1, [[1, 1, 2], [1, 0, 1], [2, 1, 0]])  # diagonal
    with pytest.raises(ValueError):
        Instance(1, [[0, -1, 2], [-1, 0, 1], [2, 1, 0]])  # negative
    with pytest.raises(ValueError):
        Instance(1, [[0, 1, 2], [1, 0, 1], [2, 1, 0]], mode="loop")


def test_partner_and_end():
    inst = Instance(2, build_cost_matrix([(0, 0), (1, 0), (2, 0), (3, 0), (4, 0)]))
    assert inst.partner(1) == 3 and inst.partner(3) == 1
    assert inst.partner(2) == 4 and inst.partner(4) == 2
    with pytest.raises(ValueError):
        inst.partner(0)
    assert inst.end == 0
    opened = Instance(
        2, build_cost_matrix([(0, 0), (1, 0), (2, 0), (3, 0), (4, 0)]), mode="open"
    )
    assert opened.end == 5
    w = opened.work_cost()
    assert len(w) == 6 and all(row[5] == 0 for row in w) and w[5] == [0] * 6


def test_roundtrip_coords():
    rng = random.Random(3)
    for n in (1, 2, 5, 9):
        for mode in ("closed", "open"):
            inst = euclid_instance(rng, n, mode=mode)
            again = parse_instance(render_instance(inst))
            assert again == inst
            assert again.integral


def test_roundtrip_float_coords():
    rng = random.Random(4)
    inst = float_instance(rng, 4)
    again = parse_instance(render_instance(inst))
    assert again == inst
    assert not again.integral


def test_roundtrip_matrix():
    rng = random.Random(9)
    base = euclid_instance(rng, 3)
    bare = Instance(3, base.cost, mode="open", name="m3")
    again = parse_instance(render_instance(bare))
    assert again == bare
    assert again.coords is None


def test_parse_relabels_arbitrary_pairing():
    # Raw labels: pairs (2, 5) and (6, 1) and (3, 4) become canonical
    # (1, 4), (2, 5), (3, 6) in listing order.
    pts = [(0, 0), (10, 0), (20, 0), (30, 0), (40, 0), (50, 0), (60, 0)]
    lines = ["NAME scramble", "PAIRS 3", "MODE closed", "ROUNDING nearest",
             "EDGE_SOURCE coords", "COORDS"]
    lines += [f"{i} {x} {y}" for i, (x, y) in enumerate(pts)]
    lines += ["PAIRING", "2 5", "6 1", "3 4", "EOF"]
    inst = parse_instance("\n".join(lines))
    assert inst.n_pairs == 3
    # Canonical visit k carries the coordinates of its raw counterpart.
    assert inst.coords[1] == (20.0, 0.0)  # raw 2
    assert inst.coords[4] == (50.0, 0.0)  # raw 5
    assert inst.coords[2] == (60.0, 0.0)  # raw 6
    assert inst.coords[5] == (10.0, 0.0)  # raw 1
    assert inst.coords[3] == (30.0, 0.0)  # raw 3
    assert inst.coords[6] == (40.0, 0.0)  # raw 4
    assert inst.cost[1][4] == 30
    assert inst.cost[0][2] == 60


def test_parse_error_line_numbers():
    good = render_instance(euclid_instance(random.Random(1), 2))
    lines = good.splitlines()

    bad = lines[:]
    bad[1] = "PAIRS two"
    with pytest.raises(FormatError) as err:
        parse_instance("\n".join(bad))
    assert err.value.line_no == 2

    bad = lines[:]
    bad[2] = "MODE circular"
    with pytest.raises(FormatError) as err:
        parse_instance("\n".join(bad))
    assert err.value.line_no == 3

    with pytest.raises(FormatError):
        parse_instance("\n".join(lines[:-1]))  # EOF missing

    # Pairing uses a visit twice.
    pair_at = lines.index("PAIRING")
    bad = lines[:]
    bad[pair_at + 2] = "1 3"
    with pytest.raises(FormatError) as err:
        parse_instance("\n".join(bad))
    assert err.value.line_no == pair_at + 3

    bad = lines[:]
    bad[pair_at + 2] = "2 9"
    with pytest.raises(FormatError) as err:
        parse_instance("\n".join(bad))
    assert "out of range" in str(err.value)

    bad = lines[:]
    bad[pair_at + 2] = "2 2"
    with pytest.raises(FormatError):
        parse_instance("\n".join(bad))


def test_parse_rejects_asymmetric_matrix():
    text = "\n".join([
        "NAME bad", "PAIRS 1", "MODE closed", "ROUNDING none",
        "EDGE_SOURCE matrix", "MATRIX",
        "0 1 2", "1 0 1", "3 1 0",
        "PAIRING", "1 2", "EOF",
    ])
    with pytest.raises(FormatError) as err:
        parse_instance(text)
    assert "symmetric" in str(err.value)


def matrix_text(rows):
    return "\n".join(
        ["NAME m", "PAIRS 1", "MODE closed", "ROUNDING none", "EDGE_SOURCE matrix", "MATRIX"]
        + rows
        + ["PAIRING", "1 2", "EOF"]
    )


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "1e999"])
def test_parse_rejects_nonfinite_coordinate_with_line(bad):
    lines = render_instance(euclid_instance(random.Random(3), 2)).splitlines()
    at = lines.index("COORDS") + 2
    idx, _, y = lines[at].split()
    lines[at] = f"{idx} {bad} {y}"
    with pytest.raises(FormatError) as err:
        parse_instance("\n".join(lines))
    assert err.value.line_no == at + 1
    assert "finite" in str(err.value)


@pytest.mark.parametrize(
    "rows, line_no, words",
    [
        (["0 1 nan", "1 0 1", "nan 1 0"], 7, "finite"),
        (["0 1 2", "1 0 inf", "2 inf 0"], 8, "finite"),
        (["0 1 2", "1 0 -1", "2 -1 0"], 8, "nonnegative"),
        (["0 1 2", "1 5 1", "2 1 0"], 8, "diagonal"),
    ],
)
def test_parse_rejects_bad_matrix_entry_with_line(rows, line_no, words):
    with pytest.raises(FormatError) as err:
        parse_instance(matrix_text(rows))
    assert err.value.line_no == line_no
    assert words in str(err.value)


def test_generate_pairs_parity_and_groups():
    rng = random.Random(2)
    with pytest.raises(ValueError):
        generate_pairs([(0, 0), (1, 1)], "C", rng)  # one non-depot point
    with pytest.raises(ValueError):
        generate_pairs([(0, 0), (1, 1), (2, 2), (3, 3)], "C", rng)  # three
    with pytest.raises(ValueError):
        generate_pairs([(0, 0)], "C", rng)
    with pytest.raises(ValueError):
        generate_pairs([(0, 0), (1, 1), (2, 2)], "D", rng)
    generate_pairs([(0, 0), (1, 1), (2, 2)], "C", rng)  # even count is fine


def test_generate_pairs_nearest_pool_property():
    # Replay the assignment independently: points have unique coordinates,
    # so canonical coords map back to original indices exactly.
    rng = random.Random(21)
    cells = rng.sample(range(100 * 100), 41)
    pts = [(c % 100, c // 100) for c in cells]
    for group, pool in (("A", 5), ("B", 10)):
        inst = generate_pairs(pts, group, random.Random(77), name="g")
        where = {p: i for i, p in enumerate(pts)}
        n = inst.n_pairs
        unmatched = set(range(1, len(pts)))
        for k in range(1, n + 1):
            p_orig = where[tuple(int(v) for v in inst.coords[k])]
            d_orig = where[tuple(int(v) for v in inst.coords[k + n])]
            # Pickups are assigned in ascending original index order.
            assert p_orig == min(unmatched)
            unmatched.discard(p_orig)
            ranked = sorted(
                unmatched,
                key=lambda u: (
                    (pts[u][0] - pts[p_orig][0]) ** 2
                    + (pts[u][1] - pts[p_orig][1]) ** 2,
                    u,
                ),
            )
            assert d_orig in ranked[:pool]
            unmatched.discard(d_orig)
        assert not unmatched


def test_generate_pairs_always_valid():
    rng = random.Random(8)
    for trial in range(20):
        n = rng.randint(1, 12)
        pts = [(rng.randint(0, 50), rng.randint(0, 50)) for _ in range(2 * n + 1)]
        inst = generate_pairs(pts, "ABC"[trial % 3], rng)
        inst.validate()
        assert inst.n_pairs == n


def test_solution_roundtrip():
    text = render_solution(123, [0, 1, 3, 2, 4, 0])
    cost, visits = parse_solution(text)
    assert cost == 123 and visits == [0, 1, 3, 2, 4, 0]
    cost, visits = parse_solution("COST 10.5\nTOUR 0 2 1\n")
    assert cost == pytest.approx(10.5) and visits == [0, 2, 1]
    with pytest.raises(FormatError):
        parse_solution("COST x\nTOUR 0\n")
    with pytest.raises(FormatError):
        parse_solution("TOUR 0 1\n")
