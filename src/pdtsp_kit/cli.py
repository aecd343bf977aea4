"""Command line front end: solve instances, benchmark, generate, check.

Output is CSV on stdout with a fixed version comment first, one row per
(instance, method, seed) run. Costs and gaps are deterministic for a
given seed; only the timing columns vary between invocations. An input
file that cannot be read or parsed is reported as one line on stderr,
with the file and line, and the exit status is 2.
"""

from __future__ import annotations

import argparse
import math
import pathlib
import random
import sys
import time

from .instance import (
    GROUP_POOL,
    MODES,
    ROUNDINGS,
    FormatError,
    Instance,
    _format_value,
    _parse_number,
    generate_pairs,
    parse_instance,
    parse_points,
    parse_solution,
    render_instance,
    render_solution,
    valid_name,
)
from .metaheuristics import HgsParams, RrParams, greedy_construct, hgs_run, rr_run
from .neighborhoods import SearchParams
from .oracle import MAX_PAIRS, brute_force_optimal
from .search import local_search
from .tour import Tour

CSV_TAG = "# pdtsp-kit v1"
CSV_HEADER = "instance,method,seed,cost,gap,ttb,total"
METHODS = ("hgs", "rr", "ls-only", "oracle")


class InputError(Exception):
    """An unusable input file; ``main`` prints it on one line and exits 2."""


def parse_seeds(text: str) -> list:
    """Seed lists come as '7', '1,2,5' or '1..10' (inclusive).

    Serves as the argparse type of ``--seeds``, so a bad list is a
    usage error before anything runs.
    """
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            seeds = list(range(int(lo), int(hi) + 1))
        else:
            seeds = [int(tok) for tok in text.split(",") if tok]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a seed list: {text!r}") from None
    if not seeds:
        raise argparse.ArgumentTypeError(f"no seeds in {text!r}")
    return seeds


def _checked(kind, ok, need: str):
    """An argparse type: a ``kind`` value for which ``ok`` holds.

    The checks mirror ``SearchParams``, ``RrParams`` and
    ``parse_instance``, and budgets must be positive (a spent budget
    only returns the greedy tour), so an out-of-range flag is a usage
    error before anything runs or is written.
    """

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            what = "an integer" if kind is int else "a number"
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}") from None
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {need}, got {text!r}")
        return value

    return parse


_AT_LEAST_ONE = _checked(int, lambda v: v >= 1, "at least 1")
_NAME = _checked(str, valid_name, "a word without '#', ',', '/' or '\\'")


def _read_input(path, parse):
    """Parses a file's text, turning a missing file or a FormatError
    into an InputError that names the file."""
    try:
        return parse(pathlib.Path(path).read_text())
    except OSError as err:
        raise InputError(f"{path}: {err.strerror}") from None
    except FormatError as err:
        raise InputError(f"{path}: {err}") from None


def _make_dir(path) -> pathlib.Path:
    """Creates an output directory, turning a failure (say, ``path`` is
    an existing file) into an InputError that names it."""
    out_dir = pathlib.Path(path)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise InputError(f"{path}: {err.strerror}") from None
    return out_dir


def _parse_refs(text: str) -> dict:
    """Reference costs, one 'name,cost' line each, each name once."""
    refs = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = [field.strip() for field in line.split(",")]
        if len(fields) != 2 or not all(fields):
            raise FormatError(line_no, f"expected 'name,cost', got {line!r}")
        name, cost = fields
        if name in refs:
            raise FormatError(line_no, f"reference {name!r} repeated")
        refs[name] = _parse_number(cost, line_no)
    return refs


def load_refs(path) -> dict:
    return _read_input(path, _parse_refs)


def run_method(inst: Instance, method: str, seed: int, args):
    """One run; returns (cost, tour, ttb, total) with wall-clock times."""
    rng = random.Random(seed)
    sp = SearchParams(k_or=args.kor, k_bs=args.kbs, p_large=args.plarge)
    t0 = time.perf_counter()
    if method == "hgs":
        tmax = args.tmax
        if tmax is None and args.budget_noimprove is None:
            tmax = float(inst.n_visits)
        params = HgsParams(
            tmax=tmax, max_no_improve=args.budget_noimprove, search=sp
        )
        stats = {}
        tour = hgs_run(inst, params, rng, stats)
        ttb = stats["ttb"]
    elif method == "rr":
        iters = args.iters
        if iters is None and args.tmax is None:
            iters = 10000
        stats = {}
        tour = rr_run(inst, RrParams(iters=iters, tmax=args.tmax), rng, stats)
        ttb = stats["ttb"]
    elif method == "ls-only":
        tour = greedy_construct(inst, rng)
        local_search(inst, tour, sp, rng, use_large=True)
        ttb = time.perf_counter() - t0
    elif method == "oracle":
        tour = brute_force_optimal(inst)
        ttb = time.perf_counter() - t0
    else:
        raise ValueError(f"unknown method {method!r}")
    total = time.perf_counter() - t0
    return tour.cost, tour, ttb, total


def _emit_rows(instances, args, out):
    if args.method == "oracle":
        for inst in instances:
            if inst.n_pairs > MAX_PAIRS:
                raise InputError(
                    f"{inst.name}: method oracle is limited to {MAX_PAIRS} pairs,"
                    f" got {inst.n_pairs}"
                )
    refs = load_refs(args.ref) if args.ref else {}
    out_dir = _make_dir(args.out) if args.out else None
    print(CSV_TAG, file=out)
    print(CSV_HEADER, file=out)
    rows = []
    for inst in instances:
        for seed in args.seeds:
            cost, tour, ttb, total = run_method(inst, args.method, seed, args)
            ref = refs.get(inst.name)
            gap = "" if ref in (None, 0) else f"{100.0 * (cost - ref) / ref:.4f}"
            print(
                f"{inst.name},{args.method},{seed},{_format_value(cost)},"
                f"{gap},{ttb:.3f},{total:.3f}",
                file=out,
            )
            rows.append((inst.name, cost, ref, total))
            if out_dir is not None:
                sol = out_dir / f"{inst.name}-{args.method}-s{seed}.sol"
                sol.write_text(render_solution(cost, tour.to_visits()))
    return rows


def cmd_solve(args, out=None) -> int:
    out = out if out is not None else sys.stdout
    instances = [_read_input(p, parse_instance) for p in args.paths]
    _emit_rows(instances, args, out)
    return 0


def cmd_check(args, out=None) -> int:
    """Checks a solution file against its instance: the tour is one
    ``Tour.from_visits`` accepts, every pickup precedes its delivery,
    and COST is the tour's cost, exactly on integer instances and within
    1e-9 x largest cost x visits on float ones. A failed check prints
    one line on stderr and exits 1."""
    out = out if out is not None else sys.stdout
    inst = _read_input(args.instance, parse_instance)
    cost, visits = _read_input(args.solution, parse_solution)
    try:
        tour = Tour.from_visits(inst, visits)
    except ValueError as err:
        return _check_failed(args.solution, f"TOUR: {err}")
    late = tour.violations()
    if late:
        x = late[0]
        return _check_failed(
            args.solution, f"delivery {x + inst.n_pairs} comes before its pickup {x}"
        )
    if inst.integral:
        ok = cost == tour.cost
    else:
        ok = abs(cost - tour.cost) <= 1e-9 * max(map(max, inst.cost)) * inst.n_visits
    if not ok:
        return _check_failed(
            args.solution,
            f"COST {_format_value(cost)} but the tour costs {_format_value(tour.cost)}",
        )
    print(f"{args.solution}: ok, cost {_format_value(cost)}", file=out)
    return 0


def _check_failed(path, reason: str) -> int:
    print(f"pdtsp: {path}: {reason}", file=sys.stderr)
    return 1


def _instance_group(name: str) -> str:
    """The group of a name ending as ``gen`` writes it, ``-<group><index>``,
    or "?"."""
    tail = name.rsplit("-", 1)[-1]
    if tail[:1] in GROUP_POOL and tail[1:].isdigit() and tail.isascii():
        return tail[0]
    return "?"


def cmd_bench(args, out=None) -> int:
    out = out if out is not None else sys.stdout
    paths = sorted(pathlib.Path(args.dir).glob("*.pdtsp"))
    instances = [_read_input(p, parse_instance) for p in paths]
    if args.group:
        instances = [i for i in instances if _instance_group(i.name) == args.group]
    if not instances:
        print("no instances found", file=sys.stderr)
        return 1
    rows = _emit_rows(instances, args, out)

    by_inst = {}
    for name, cost, ref, total in rows:
        by_inst.setdefault(name, []).append((cost, ref, total))
    for name in sorted(by_inst):
        runs = by_inst[name]
        best = min(c for c, _, _ in runs)
        mean_t = sum(t for _, _, t in runs) / len(runs)
        gaps = [100.0 * (c - r) / r for c, r, _ in runs if r]
        line = f"# agg instance={name} runs={len(runs)} best={_format_value(best)}"
        if gaps:
            line += f" mean_gap={sum(gaps) / len(gaps):.4f}"
        line += f" mean_total={mean_t:.3f}"
        print(line, file=out)
    by_group = {}
    for name, cost, ref, total in rows:
        if ref:
            by_group.setdefault(_instance_group(name), []).append(
                100.0 * (cost - ref) / ref
            )
    for group in sorted(by_group):
        gaps = by_group[group]
        print(
            f"# agg group={group} runs={len(gaps)}"
            f" mean_gap={sum(gaps) / len(gaps):.4f}",
            file=out,
        )
    return 0


def cmd_gen(args, out=None) -> int:
    out = out if out is not None else sys.stdout
    coords = _read_input(args.coords, parse_points) if args.coords else None
    rng = random.Random(args.seed)
    for idx in range(args.count):
        pts = coords or [
            (rng.randint(0, 1000), rng.randint(0, 1000)) for _ in range(2 * args.n + 1)
        ]
        name = f"{args.name}-{args.group}{idx}"
        try:
            inst = generate_pairs(
                pts,
                args.group,
                rng,
                mode=args.mode,
                rounding=args.rounding,
                name=name,
            )
        except ValueError as err:
            # Only points read from --coords can fail here: their
            # distances may overflow.
            raise InputError(f"{args.coords}: {err}") from None
        path = _make_dir(args.out) / f"{name}.pdtsp"
        path.write_text(render_instance(inst))
        print(f"wrote {path}", file=out)
    return 0


def _add_run_flags(sub):
    sub.add_argument("--method", choices=METHODS, default="hgs")
    sub.add_argument(
        "--seeds", type=parse_seeds, default="1", help="e.g. 3, 1,2,5 or 1..10"
    )
    sub.add_argument(
        "--tmax",
        type=_checked(float, lambda v: 0 < v < math.inf, "a positive number"),
        default=None,
        help="wall clock budget, seconds",
    )
    sub.add_argument(
        "--budget-noimprove",
        type=_AT_LEAST_ONE,
        default=None,
        help="stop hgs after this many children without a new best",
    )
    sub.add_argument(
        "--iters",
        type=_checked(int, lambda v: v >= 0, "at least 0"),
        default=None,
        help="rr iteration budget; 10000 when neither it nor --tmax is given",
    )
    sub.add_argument("--kor", type=_AT_LEAST_ONE, default=30)
    sub.add_argument(
        "--kbs", type=_checked(int, lambda v: 1 <= v <= 12, "from 1 to 12"), default=3
    )
    sub.add_argument(
        "--plarge",
        type=_checked(float, lambda v: 0 <= v <= 1, "from 0 to 1"),
        default=0.1,
    )
    sub.add_argument("--ref", default=None, help="csv of instance,cost references")
    sub.add_argument("--out", default=None, help="directory for solution files")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="pdtsp", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run a method on instance files")
    solve.add_argument("paths", nargs="+")
    _add_run_flags(solve)
    solve.set_defaults(func=cmd_solve)

    bench = sub.add_parser("bench", help="run over a directory and aggregate")
    bench.add_argument("--dir", required=False, default=".")
    bench.add_argument("--group", choices=sorted(GROUP_POOL), default=None)
    _add_run_flags(bench)
    bench.set_defaults(func=cmd_bench)

    gen = sub.add_parser("gen", help="generate instances")
    gen.add_argument("--n", type=_AT_LEAST_ONE, default=10, help="pairs per instance")
    gen.add_argument("--count", type=_AT_LEAST_ONE, default=1)
    gen.add_argument("--group", choices=sorted(GROUP_POOL), default="C")
    gen.add_argument("--seed", type=int, default=1)
    gen.add_argument("--mode", choices=MODES, default="closed")
    gen.add_argument("--rounding", choices=ROUNDINGS, default="nearest")
    gen.add_argument("--coords", default=None, help="file of 'x y' lines, depot first")
    gen.add_argument("--name", type=_NAME, default="gen")
    gen.add_argument("--out", required=True, help="output directory")
    gen.set_defaults(func=cmd_gen)

    check = sub.add_parser("check", help="check a solution file against its instance")
    check.add_argument("instance")
    check.add_argument("solution")
    check.set_defaults(func=cmd_check)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as err:
        print(f"pdtsp: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
