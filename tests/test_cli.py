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
from pdtsp_kit.metaheuristics import greedy_construct
from pdtsp_kit.oracle import MAX_PAIRS, brute_force_optimal
from pdtsp_kit.tour import Tour


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out.splitlines(), captured.err


def gen_instances(
    capsys, tmp_path, *, n=5, count=2, seed=3, group="C", rounding="nearest"
):
    d = tmp_path / "inst"
    code, out, _ = run_cli(
        capsys,
        [
            "gen",
            "--n", str(n),
            "--count", str(count),
            "--seed", str(seed),
            "--group", group,
            "--rounding", rounding,
            "--name", "t",
            "--out", str(d),
        ],
    )
    assert code == 0
    paths = [pathlib.Path(line.split(" ", 1)[1]) for line in out]
    assert len(paths) == count
    assert all(p.exists() for p in paths)
    return paths


def check_solutions(capsys, paths, sol_dir):
    """Runs ``pdtsp check`` on every solution file in ``sol_dir`` against
    the instance file of the name it starts with."""
    sols = sorted(sol_dir.glob("*.sol"))
    checked = 0
    for p in paths:
        for sol in sol_dir.glob(f"{p.stem}-*.sol"):
            code, out, err = run_cli(capsys, ["check", str(p), str(sol)])
            cost, _ = parse_solution(sol.read_text())
            assert (code, err) == (0, "")
            assert out == [f"{sol}: ok, cost {cli._format_value(cost)}"]
            checked += 1
    assert sols and checked == len(sols)


def test_parse_seeds():
    assert parse_seeds("7") == [7]
    assert parse_seeds("1,2,5") == [1, 2, 5]
    assert parse_seeds("1..4") == [1, 2, 3, 4]


def test_load_refs(tmp_path):
    p = tmp_path / "refs.csv"
    p.write_text("# comment\nfoo-C0, 123\nbar-A1, 4.5  # trailing\n\n")
    assert load_refs(p) == {"foo-C0": 123, "bar-A1": 4.5}
    for text, line, msg in [
        ("a,1\na,1,2\n", 2, "expected 'name,cost', got 'a,1,2'"),
        ("b, 3 ,junk\n", 1, "expected 'name,cost', got 'b, 3 ,junk'"),
        ("a,1\n# again\na,5\n", 3, "reference 'a' repeated"),
        (",5\n", 1, "expected 'name,cost', got ',5'"),
    ]:
        p.write_text(text)
        with pytest.raises(cli.InputError) as err:
            load_refs(p)
        assert str(err.value) == f"{p}: line {line}: {msg}"


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


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--kor", "0"], "argument --kor: must be at least 1, got '0'"),
        (["--kor", "1.5"], "argument --kor: expected an integer, got '1.5'"),
        (["--kbs", "13"], "argument --kbs: must be from 1 to 12, got '13'"),
        (["--kbs", "0"], "argument --kbs: must be from 1 to 12, got '0'"),
        (["--plarge", "2"], "argument --plarge: must be from 0 to 1, got '2'"),
        (["--plarge", "nan"], "argument --plarge: must be from 0 to 1, got 'nan'"),
        (
            ["--method", "rr", "--iters", "-1"],
            "argument --iters: must be at least 0, got '-1'",
        ),
        (["--tmax", "-1"], "argument --tmax: must be a positive number, got '-1'"),
        (["--tmax", "0"], "argument --tmax: must be a positive number, got '0'"),
        (["--tmax", "inf"], "argument --tmax: must be a positive number, got 'inf'"),
        (
            ["--budget-noimprove", "-3"],
            "argument --budget-noimprove: must be at least 1, got '-3'",
        ),
    ],
)
def test_out_of_range_solve_flags_are_usage_errors(capsys, tmp_path, flags, message):
    paths = gen_instances(capsys, tmp_path, count=1)
    out_dir = tmp_path / "sols"
    with pytest.raises(SystemExit) as err:
        main(["solve", str(paths[0]), "--out", str(out_dir)] + flags)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
    assert "Traceback" not in captured.err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--n", "0"], "argument --n: must be at least 1, got '0'"),
        (["--count", "0"], "argument --count: must be at least 1, got '0'"),
        (["--count", "-2"], "argument --count: must be at least 1, got '-2'"),
    ],
)
def test_out_of_range_gen_flags_are_usage_errors(capsys, tmp_path, flags, message):
    out_dir = tmp_path / "inst"
    with pytest.raises(SystemExit) as err:
        main(["gen", "--out", str(out_dir)] + flags)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
    assert not out_dir.exists()


def files_under(path):
    return sorted(p for p in path.rglob("*") if p.is_file())


@pytest.mark.parametrize("name", ["../esc,aped", "sub/x"])
def test_instance_name_that_steers_paths_or_fields_is_refused(capsys, tmp_path, name):
    # A name is part of each solution file's name and a CSV field.
    path = gen_instances(capsys, tmp_path, count=1)[0]
    lines = path.read_text().splitlines()
    lines[0] = f"NAME {name}"
    path.write_text("\n".join(lines) + "\n")
    out_dir = tmp_path / "out" / "sols"
    code, out, err = run_cli(
        capsys, ["solve", str(path), "--method", "ls-only", "--out", str(out_dir)]
    )
    assert code == 2
    assert out == []
    assert err.splitlines() == [
        f"pdtsp: {path}: line 1: NAME may not hold ',', '/' or '\\', got {name!r}"
    ]
    assert files_under(tmp_path) == [path]


# Besides what parse_instance refuses: names it would not read back.
@pytest.mark.parametrize("name", ["a/b", "a,b", "a\\b", "a b", "", "a#b"])
def test_gen_name_that_steers_paths_or_fields_is_a_usage_error(capsys, tmp_path, name):
    with pytest.raises(SystemExit) as err:
        main(["gen", "--name", name, "--out", str(tmp_path / "inst")])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    # argparse's usage lines, then the error on one line.
    assert captured.err.splitlines()[-1] == (
        "pdtsp gen: error: argument --name: must be a word without"
        f" '#', ',', '/' or '\\', got {name!r}"
    )
    assert "Traceback" not in captured.err
    assert files_under(tmp_path) == []


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
    paths += gen_instances(capsys, tmp_path, count=1, group="A", rounding="none")
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
    assert len(rows) == 6
    args = cli.build_parser().parse_args(["solve", "unused", "--method", "ls-only"])
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
            # Integer costs print as ints and float costs as their repr,
            # so both read back as the very cost the run returned.
            lib_cost = cli.run_method(inst, "ls-only", seed, args)[0]
            assert row[3] == repr(lib_cost)
            assert cost == lib_cost and type(cost) is type(lib_cost)
            tour = Tour.from_visits(inst, visits)
            assert tour.is_feasible()
            assert abs(tour.cost - cost) <= inst.eps
    check_solutions(capsys, paths, sol_dir)


@pytest.mark.parametrize("mode", ["closed", "open"])
def test_check_accepts_solved_tours_and_names_each_fault(capsys, tmp_path, mode):
    d = tmp_path / "inst"
    run_cli(capsys, ["gen", "--n", "5", "--mode", mode, "--rounding", "none",
                     "--name", "f", "--out", str(d)])
    run_cli(capsys, ["gen", "--n", "5", "--mode", mode, "--name", "i", "--out", str(d)])
    paths = sorted(d.glob("*.pdtsp"))
    sol_dir = tmp_path / "sol"
    code, _, _ = run_cli(
        capsys, ["solve", *map(str, paths), "--method", "rr", "--iters", "30",
                 "--seeds", "1,2", "--out", str(sol_dir)]
    )
    assert code == 0
    check_solutions(capsys, paths, sol_dir)

    path = d / "i-C0.pdtsp"
    n = 5
    cost, visits = parse_solution((sol_dir / "i-C0-rr-s1.sol").read_text())
    x = visits[1]  # a pickup: nothing can precede the first pickup's delivery
    swapped = [{x: x + n, x + n: x}.get(v, v) for v in visits]
    repeated = visits[:2] + visits[3:]
    repeated[2:2] = [x]
    faults = [
        (f"COST {cost + 1}", visits, 1, f"COST {cost + 1} but the tour costs {cost}"),
        (f"COST {cost}", swapped, 1, f"delivery {x + n} comes before its pickup {x}"),
        (f"COST {cost}", visits + [0], 1, "TOUR: tour needs 12 slots, got 13"),
        (f"COST {cost}", repeated, 1, "TOUR: tour must visit every customer exactly once"),
        (f"COST {cost}", visits + ["\nTOUR 0"], 2,
         "line 3: expected nothing after TOUR, got 'TOUR 0'"),
    ]
    bad = tmp_path / "bad.sol"
    for head, tour, status, msg in faults:
        bad.write_text(f"{head}\nTOUR " + " ".join(map(str, tour)) + "\n")
        assert run_cli(capsys, ["check", str(path), str(bad)]) == (
            status, [], f"pdtsp: {bad}: {msg}\n"
        )

    # Float costs pass within 1e-9 x largest cost x visits, and only there.
    path = d / "f-C0.pdtsp"
    inst = parse_instance(path.read_text())
    cost, visits = parse_solution((sol_dir / "f-C0-rr-s1.sol").read_text())
    tol = 1e-9 * max(map(max, inst.cost)) * inst.n_visits
    for off, status in [(0.5 * tol, 0), (-0.5 * tol, 0), (2 * tol, 1)]:
        bad.write_text(f"COST {cost + off!r}\nTOUR " + " ".join(map(str, visits)) + "\n")
        assert run_cli(capsys, ["check", str(path), str(bad)])[0] == status


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


@pytest.mark.parametrize("command", ["solve", "bench"])
def test_oracle_method_over_the_pair_cap_is_refused_up_front(capsys, tmp_path, command):
    path = gen_instances(capsys, tmp_path, count=1, n=MAX_PAIRS + 1)[0]
    target = [str(path)] if command == "solve" else ["--dir", str(path.parent)]
    sol_dir = tmp_path / "sols"
    code, out, err = run_cli(
        capsys, [command, *target, "--method", "oracle", "--out", str(sol_dir)]
    )
    assert code == 2
    assert out == []
    assert err.splitlines() == [
        f"pdtsp: t-C0: method oracle is limited to {MAX_PAIRS} pairs,"
        f" got {MAX_PAIRS + 1}"
    ]
    assert not sol_dir.exists()


@pytest.mark.parametrize("command", ["solve", "bench", "gen"])
def test_out_naming_an_existing_file_is_reported_on_one_line(
    capsys, tmp_path, command
):
    path = gen_instances(capsys, tmp_path, count=1, n=3)[0]
    afile = tmp_path / "afile"
    afile.write_text("keep\n")
    target = {
        "solve": ["solve", str(path), "--method", "ls-only"],
        "bench": ["bench", "--dir", str(path.parent), "--method", "ls-only"],
        "gen": ["gen", "--n", "3"],
    }[command]
    code, out, err = run_cli(capsys, [*target, "--out", str(afile)])
    assert code == 2
    assert out == []
    assert err.splitlines() == [f"pdtsp: {afile}: File exists"]
    assert afile.read_text() == "keep\n"


def test_hgs_smoke_with_no_improve_budget(capsys, tmp_path):
    paths = gen_instances(capsys, tmp_path, count=1, n=4)
    _, out, _ = run_cli(
        capsys,
        ["solve", str(paths[0]), "--method", "hgs", "--seeds", "1",
         "--budget-noimprove", "5"],
    )
    assert len(out) == 3
    assert out[2].split(",")[1] == "hgs"


def test_hgs_without_budget_gets_one_second_per_visit(capsys, tmp_path, monkeypatch):
    paths = gen_instances(capsys, tmp_path, count=1, n=3)
    budgets = []

    def fake_hgs(inst, params, rng, stats):
        budgets.append((params.tmax, params.max_no_improve))
        stats["ttb"] = 0.0
        return greedy_construct(inst, rng)

    monkeypatch.setattr(cli, "hgs_run", fake_hgs)
    code, out, _ = run_cli(
        capsys, ["solve", str(paths[0]), "--method", "hgs", "--seeds", "1"]
    )
    assert code == 0
    assert budgets == [(7.0, None)]  # 2 * 3 + 1 visits


@pytest.mark.parametrize(
    "flags, budget",
    [
        (["--tmax", "0.5"], (None, 0.5)),
        ([], (10000, None)),
        (["--iters", "30", "--tmax", "0.5"], (30, 0.5)),
    ],
)
def test_rr_iteration_budget_defaults_only_without_tmax(
    capsys, tmp_path, monkeypatch, flags, budget
):
    paths = gen_instances(capsys, tmp_path, count=1, n=3)
    budgets = []

    def fake_rr(inst, params, rng, stats):
        budgets.append((params.iters, params.tmax))
        stats["ttb"] = 0.0
        return greedy_construct(inst, rng)

    monkeypatch.setattr(cli, "rr_run", fake_rr)
    code, _, _ = run_cli(
        capsys, ["solve", str(paths[0]), "--method", "rr", "--seeds", "1", *flags]
    )
    assert code == 0
    assert budgets == [budget]


def test_bench_aggregates(capsys, tmp_path):
    gen_instances(capsys, tmp_path, count=2, n=4)
    gen_instances(capsys, tmp_path, count=1, n=4, group="A", seed=8)
    inst_dir = tmp_path / "inst"
    # Only a tail of a group letter and digits, as gen writes it, names
    # a group; these two are "?".
    text = (inst_dir / "t-C0.pdtsp").read_text()
    for name in ("berlin-Center", "my-Bakery"):
        (inst_dir / f"{name}.pdtsp").write_text(text.replace("NAME t-C0", f"NAME {name}"))
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
    assert len(data) == 10  # 5 instances x 2 seeds
    inst_aggs = [l for l in out if l.startswith("# agg instance=")]
    assert len(inst_aggs) == 5
    assert all("runs=2" in l and "mean_gap=" in l for l in inst_aggs)
    group_aggs = [l for l in out if l.startswith("# agg group=")]
    assert [l.split()[2:4] for l in group_aggs] == [
        ["group=?", "runs=4"], ["group=A", "runs=2"], ["group=C", "runs=4"]
    ]
    # Group filter narrows the run to matching instances only.
    code, out, _ = run_cli(
        capsys,
        ["bench", "--dir", str(inst_dir), "--method", "ls-only",
         "--seeds", "1", "--group", "A"],
    )
    data = [l for l in out[2:] if not l.startswith("#")]
    assert len(data) == 1
    assert data[0].startswith("t-A0,")
    for group in ("B", "C"):
        code, out, _ = run_cli(
            capsys,
            ["bench", "--dir", str(inst_dir), "--method", "ls-only",
             "--seeds", "1", "--group", group],
        )
        names = [l.split(",")[0] for l in out[2:] if not l.startswith("#")]
        assert (code, names) == ((0, ["t-C0", "t-C1"]) if group == "C" else (1, []))


def test_bench_empty_dir_fails(capsys, tmp_path):
    code, out, err = run_cli(capsys, ["bench", "--dir", str(tmp_path)])
    assert code == 1
    assert "no instances" in err


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


FAR_POINTS = "0 0\n1e200 0\n0 1e200\n"


def test_gen_overflowing_coords_named(capsys, tmp_path):
    coords = tmp_path / "far.txt"
    coords.write_text(FAR_POINTS)
    d = tmp_path / "never"
    code, out, err = run_cli(capsys, ["gen", "--coords", str(coords), "--out", str(d)])
    assert code == 2
    assert out == []
    assert err.splitlines() == [
        f"pdtsp: {coords}: coordinates too far apart: a distance overflows"
    ]
    assert not d.exists()


def test_solve_overflowing_coords_named(capsys, tmp_path):
    path = tmp_path / "far.pdtsp"
    lines = ["NAME far", "PAIRS 1", "MODE closed", "ROUNDING nearest",
             "EDGE_SOURCE coords", "COORDS"]
    lines += [f"{i} {p}" for i, p in enumerate(FAR_POINTS.splitlines())]
    lines += ["PAIRING", "1 2", "EOF"]
    path.write_text("\n".join(lines) + "\n")
    code, out, err = run_cli(capsys, ["solve", str(path), "--method", "ls-only"])
    assert code == 2
    assert out == []
    assert err.splitlines() == [
        f"pdtsp: {path}: line 6: coordinates too far apart: a distance overflows"
    ]


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
    for method in ("nope", "rr-fast"):
        with pytest.raises(SystemExit):
            main(["solve", str(paths[0]), "--method", method])
