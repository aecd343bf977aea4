"""End-to-end checks through the command line entry point."""

import argparse
import pathlib
import random

import pytest

import pdtsp_kit.cli as cli
from pdtsp_kit.cli import CSV_HEADER, CSV_TAG, load_refs, main, parse_seeds
from pdtsp_kit.instance import (
    parse_instance,
    parse_points,
    parse_solution,
    render_instance,
)
from pdtsp_kit.oracle import brute_force_optimal
from pdtsp_kit.tour import Tour


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out.splitlines(), captured.err


def gen_instances(capsys, tmp_path, *, n=5, count=2, seed=3, group="C"):
    d = tmp_path / "inst"
    code, out, _ = run_cli(
        capsys,
        [
            "gen",
            "--n", str(n),
            "--count", str(count),
            "--seed", str(seed),
            "--group", group,
            "--name", "t",
            "--out", str(d),
        ],
    )
    assert code == 0
    paths = [pathlib.Path(line.split(" ", 1)[1]) for line in out]
    assert len(paths) == count
    assert all(p.exists() for p in paths)
    return paths


def test_parse_seeds():
    assert parse_seeds("7") == [7]
    assert parse_seeds("1,2,5") == [1, 2, 5]
    assert parse_seeds("1..4") == [1, 2, 3, 4]


def test_load_refs(tmp_path):
    p = tmp_path / "refs.csv"
    p.write_text("# comment\nfoo-C0, 123\nbar-A1, 4.5  # trailing\n\n")
    assert load_refs(p) == {"foo-C0": 123, "bar-A1": 4.5}


def test_parse_seeds_rejects_empty_and_malformed_lists(capsys):
    for text in ("5..1", ",", "1..x"):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_seeds(text)
    with pytest.raises(SystemExit) as err:
        main(["solve", "unused.pdtsp", "--seeds", "5..1"])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--seeds: no seeds in '5..1'" in captured.err


def test_malformed_instance_reported_on_one_line(capsys, tmp_path):
    path = gen_instances(capsys, tmp_path, count=1)[0]
    lines = path.read_text().splitlines()
    at = lines.index("COORDS") + 2
    lines[at] = lines[at].rsplit(" ", 1)[0] + " nan"
    path.write_text("\n".join(lines) + "\n")
    code, out, err = run_cli(capsys, ["solve", str(path), "--method", "ls-only"])
    assert code == 2
    assert out == []
    assert err.splitlines() == [
        f"pdtsp: {path}: line {at + 1}: expected a finite number, got 'nan'"
    ]


def test_missing_instance_reported_on_one_line(capsys, tmp_path):
    path = tmp_path / "absent.pdtsp"
    code, _, err = run_cli(capsys, ["solve", str(path)])
    assert code == 2
    assert err.splitlines() == [f"pdtsp: {path}: No such file or directory"]


def test_malformed_reference_line_named(capsys, tmp_path):
    path = gen_instances(capsys, tmp_path, count=1, n=3)[0]
    refs = tmp_path / "refs.csv"
    refs.write_text("# name,cost\nfoo,12\nonlyname\n")
    code, out, err = run_cli(
        capsys, ["solve", str(path), "--method", "ls-only", "--ref", str(refs)]
    )
    assert code == 2
    assert out == []
    assert err.splitlines() == [
        f"pdtsp: {refs}: line 3: expected 'name,cost', got 'onlyname'"
    ]


@pytest.mark.parametrize("cost", ["nan", "inf", "-inf"])
def test_nonfinite_reference_cost_named(capsys, tmp_path, cost):
    path = gen_instances(capsys, tmp_path, count=1, n=3)[0]
    refs = tmp_path / "refs.csv"
    refs.write_text(f"foo,12\nbar,{cost}\n")
    code, out, err = run_cli(
        capsys, ["solve", str(path), "--method", "ls-only", "--ref", str(refs)]
    )
    assert code == 2
    assert out == []
    assert err.splitlines() == [
        f"pdtsp: {refs}: line 2: expected a finite number, got '{cost}'"
    ]


def test_gen_writes_parseable_files(capsys, tmp_path):
    paths = gen_instances(capsys, tmp_path)
    for p in paths:
        inst = parse_instance(p.read_text())
        assert inst.n_pairs == 5
        assert inst.name == p.stem
        assert render_instance(inst) == p.read_text()


def test_solve_csv_rows_and_solution_files(capsys, tmp_path):
    paths = gen_instances(capsys, tmp_path)
    sol_dir = tmp_path / "sol"
    code, out, _ = run_cli(
        capsys,
        [
            "solve", *map(str, paths),
            "--method", "ls-only",
            "--seeds", "1,2",
            "--out", str(sol_dir),
        ],
    )
    assert code == 0
    assert out[0] == CSV_TAG
    assert out[1] == CSV_HEADER
    rows = [line.split(",") for line in out[2:]]
    assert len(rows) == 4
    for p in paths:
        inst = parse_instance(p.read_text())
        for seed in (1, 2):
            row = next(
                r for r in rows if r[0] == inst.name and r[2] == str(seed)
            )
            assert row[1] == "ls-only"
            assert row[4] == ""  # no reference, no gap
            cost, visits = parse_solution(
                (sol_dir / f"{inst.name}-ls-only-s{seed}.sol").read_text()
            )
            assert cost == int(row[3])
            tour = Tour.from_visits(inst, visits)
            assert tour.is_feasible()
            assert tour.cost == cost


def test_solve_deterministic_modulo_timing(capsys, tmp_path):
    paths = gen_instances(capsys, tmp_path, count=1)
    snaps = []
    for _ in range(2):
        _, out, _ = run_cli(
            capsys,
            ["solve", str(paths[0]), "--method", "rr", "--seeds", "5", "--iters", "50"],
        )
        snaps.append([line.split(",")[:5] for line in out[2:]])
    assert snaps[0] == snaps[1]


def test_rr_fast_and_naive_agree_in_cli(capsys, tmp_path):
    paths = gen_instances(capsys, tmp_path, count=1)
    costs = []
    for method in ("rr", "rr-fast"):
        _, out, _ = run_cli(
            capsys,
            ["solve", str(paths[0]), "--method", method, "--seeds", "9", "--iters", "60"],
        )
        costs.append(out[2].split(",")[3])
    assert costs[0] == costs[1]


def test_gap_column_against_reference(capsys, tmp_path):
    paths = gen_instances(capsys, tmp_path, count=1, n=4)
    inst = parse_instance(paths[0].read_text())
    refs = tmp_path / "refs.csv"
    refs.write_text(f"{inst.name},100\n")
    _, out, _ = run_cli(
        capsys,
        ["solve", str(paths[0]), "--method", "ls-only", "--seeds", "1", "--ref", str(refs)],
    )
    row = out[2].split(",")
    cost = int(row[3])
    assert row[4] == f"{100.0 * (cost - 100) / 100:.4f}"


def test_oracle_method_matches_library(capsys, tmp_path):
    paths = gen_instances(capsys, tmp_path, count=1, n=4)
    inst = parse_instance(paths[0].read_text())
    _, out, _ = run_cli(
        capsys, ["solve", str(paths[0]), "--method", "oracle", "--seeds", "1"]
    )
    assert int(out[2].split(",")[3]) == brute_force_optimal(inst).cost


def test_hgs_smoke_with_no_improve_budget(capsys, tmp_path):
    paths = gen_instances(capsys, tmp_path, count=1, n=4)
    _, out, _ = run_cli(
        capsys,
        ["solve", str(paths[0]), "--method", "hgs", "--seeds", "1",
         "--budget-noimprove", "5"],
    )
    assert len(out) == 3
    assert out[2].split(",")[1] == "hgs"


def test_bench_aggregates(capsys, tmp_path):
    gen_instances(capsys, tmp_path, count=2, n=4)
    gen_instances(capsys, tmp_path, count=1, n=4, group="A", seed=8)
    inst_dir = tmp_path / "inst"
    refs = tmp_path / "refs.csv"
    lines = []
    for p in sorted(inst_dir.glob("*.pdtsp")):
        inst = parse_instance(p.read_text())
        lines.append(f"{inst.name},{brute_force_optimal(inst).cost}")
    refs.write_text("\n".join(lines) + "\n")
    code, out, _ = run_cli(
        capsys,
        ["bench", "--dir", str(inst_dir), "--method", "ls-only",
         "--seeds", "1,2", "--ref", str(refs)],
    )
    assert code == 0
    assert out[0] == CSV_TAG
    data = [l for l in out[2:] if not l.startswith("#")]
    assert len(data) == 6  # 3 instances x 2 seeds
    inst_aggs = [l for l in out if l.startswith("# agg instance=")]
    assert len(inst_aggs) == 3
    assert all("runs=2" in l and "mean_gap=" in l for l in inst_aggs)
    group_aggs = [l for l in out if l.startswith("# agg group=")]
    assert sorted(l.split()[2] for l in group_aggs) == ["group=A", "group=C"]
    # Group filter narrows the run to matching instances only.
    code, out, _ = run_cli(
        capsys,
        ["bench", "--dir", str(inst_dir), "--method", "ls-only",
         "--seeds", "1", "--group", "A"],
    )
    data = [l for l in out[2:] if not l.startswith("#")]
    assert len(data) == 1
    assert data[0].startswith("t-A0,")


def test_bench_empty_dir_fails(capsys, tmp_path):
    code, out, err = run_cli(capsys, ["bench", "--dir", str(tmp_path)])
    assert code == 1
    assert "no instances" in err


def test_bench_scaling_output(capsys, monkeypatch):
    monkeypatch.setattr(cli, "SCALING_SIZES", (4, 8))
    code, out, _ = run_cli(capsys, ["bench", "--scaling"])
    assert code == 0
    assert out[0] == CSV_TAG
    scaled = [l for l in out if l.startswith("# scaling n=")]
    assert [l.split()[2] for l in scaled] == ["n=4", "n=8"]
    assert sum(l.startswith("# scaling ratio=") for l in out) == 1


def test_gen_from_coords_file(capsys, tmp_path):
    coords = tmp_path / "pts.txt"
    rng = random.Random(6)
    lines = [f"{rng.randint(0, 50)} {rng.randint(0, 50)}" for _ in range(9)]
    coords.write_text("# depot first\n" + "\n".join(lines) + "\n")
    d = tmp_path / "from-coords"
    code, out, _ = run_cli(
        capsys,
        ["gen", "--coords", str(coords), "--out", str(d), "--name", "fixed"],
    )
    assert code == 0
    inst = parse_instance((d / "fixed-C0.pdtsp").read_text())
    assert inst.n_pairs == 4


@pytest.mark.parametrize(
    "text, line, msg",
    [
        ("0 0\n1 1\n# lone number\n7\n2 2\n", 4, "expected 'x y', got '7'"),
        ("0 0\n1 1\n2 x\n", 3, "expected a number, got 'x'"),
        ("# depot\n0 0\n1 1\n2 2\n\n3 3\n", 6,
         "need an even nonzero number of non-depot points, got 3"),
        ("0 0\n1 1\n", 2, "need an even nonzero number of non-depot points, got 1"),
    ],
)
def test_gen_malformed_coords_named(capsys, tmp_path, text, line, msg):
    coords = tmp_path / "pts.txt"
    coords.write_text(text)
    d = tmp_path / "never"
    code, out, err = run_cli(capsys, ["gen", "--coords", str(coords), "--out", str(d)])
    assert code == 2
    assert out == []
    assert err.splitlines() == [f"pdtsp: {coords}: line {line}: {msg}"]
    assert not d.exists()


def test_gen_reads_coords_once(capsys, tmp_path, monkeypatch):
    coords = tmp_path / "pts.txt"
    coords.write_text("0 0\n1 5\n4 2\n6 6\n2 9\n")
    reads = []

    def counted(text):
        reads.append(text)
        return parse_points(text)

    monkeypatch.setattr(cli, "parse_points", counted)
    d = tmp_path / "many"
    code, out, _ = run_cli(
        capsys, ["gen", "--coords", str(coords), "--count", "3", "--out", str(d)]
    )
    assert code == 0 and len(out) == 3
    assert len(reads) == 1
    insts = [parse_instance(p.read_text()) for p in sorted(d.iterdir())]
    assert all(inst.n_pairs == 2 for inst in insts)
    assert len({tuple(sorted(inst.coords)) for inst in insts}) == 1


def test_unknown_method_rejected(capsys, tmp_path):
    paths = gen_instances(capsys, tmp_path, count=1)
    with pytest.raises(SystemExit):
        main(["solve", str(paths[0]), "--method", "nope"])
