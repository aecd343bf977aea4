"""Command line front end: solve instances, benchmark, generate.

Output is CSV on stdout with a fixed version comment first, one row per
(instance, method, seed) run. Costs and gaps are deterministic for a
given seed; only the timing columns vary between invocations. An input
file that cannot be read or parsed is reported as one line on stderr,
with the file and line, and the exit status is 2.
"""

from __future__ import annotations

import argparse
import pathlib
import random
import sys
import time

from .instance import (
    FormatError,
    Instance,
    _parse_number,
    generate_pairs,
    parse_instance,
    parse_points,
    render_instance,
    render_solution,
)
from .metaheuristics import HgsParams, RrParams, greedy_construct, hgs_run, rr_run
from .neighborhoods import SearchParams
from .oracle import brute_force_optimal
from .search import local_search, phase_one_sweep
from .tour import Tour

CSV_TAG = "# pdtsp-kit v1"
CSV_HEADER = "instance,method,seed,cost,gap,ttb,total"
METHODS = ("hgs", "rr", "rr-fast", "ls-only", "oracle")
SCALING_SIZES = (128, 256, 512)


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


def _fmt_cost(value) -> str:
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def _read_input(path, parse):
    """Parses a file's text, turning a missing file or a FormatError
    into an InputError that names the file."""
    try:
        return parse(pathlib.Path(path).read_text())
    except OSError as err:
        raise InputError(f"{path}: {err.strerror}") from None
    except FormatError as err:
        raise InputError(f"{path}: {err}") from None


def _parse_refs(text: str) -> dict:
    """Reference costs, one 'name,cost' line each."""
    refs = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split(",")
        cost = fields[1].strip() if len(fields) > 1 else ""
        if not cost:
            raise FormatError(line_no, f"expected 'name,cost', got {line!r}")
        refs[fields[0].strip()] = _parse_number(cost, line_no)
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
    elif method in ("rr", "rr-fast"):
        params = RrParams(
            iters=args.iters, tmax=args.tmax, fast=(method == "rr-fast")
        )
        stats = {}
        tour = rr_run(inst, params, rng, stats)
        ttb = stats["ttb"]
    elif method == "ls-only":
        tour = greedy_construct(inst, rng)
        local_search(inst, tour, sp, rng, use_large=True)
        ttb = time.perf_counter() - t0
    elif method == "oracle":
        warm = greedy_construct(inst, rng)
        local_search(inst, warm, sp, rng, use_large=True)
        res = brute_force_optimal(inst, seed=warm)
        tour = res.tour
        ttb = time.perf_counter() - t0
    else:
        raise ValueError(f"unknown method {method!r}")
    total = time.perf_counter() - t0
    return tour.cost, tour, ttb, total


def _emit_rows(instances, args, out):
    refs = load_refs(args.ref) if args.ref else {}
    out_dir = pathlib.Path(args.out) if args.out else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    print(CSV_TAG, file=out)
    print(CSV_HEADER, file=out)
    rows = []
    for inst in instances:
        for seed in args.seeds:
            cost, tour, ttb, total = run_method(inst, args.method, seed, args)
            ref = refs.get(inst.name)
            gap = "" if ref in (None, 0) else f"{100.0 * (cost - ref) / ref:.4f}"
            print(
                f"{inst.name},{args.method},{seed},{_fmt_cost(cost)},"
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


def _instance_group(name: str) -> str:
    tail = name.rsplit("-", 1)[-1]
    for letter in ("A", "B", "C"):
        if tail.startswith(letter):
            return letter
    return "?"


def cmd_bench(args, out=None) -> int:
    out = out if out is not None else sys.stdout
    if args.scaling:
        return _bench_scaling(args, out)
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
        line = f"# agg instance={name} runs={len(runs)} best={_fmt_cost(best)}"
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


def _bench_scaling(args, out) -> int:
    sizes = SCALING_SIZES
    times = []
    print(CSV_TAG, file=out)
    for n in sizes:
        rng = random.Random(7)
        pts = [(rng.uniform(0, 1000), rng.uniform(0, 1000)) for _ in range(2 * n + 1)]
        inst = generate_pairs(pts, "C", rng, name=f"scale-C{n}")
        tour = greedy_construct(inst, random.Random(1))
        order = list(range(1, n + 1))
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            phase_one_sweep(inst, tour, order, args.kor, apply_moves=False)
            best = min(best, time.perf_counter() - t0)
        times.append(best)
        print(f"# scaling n={n} visits={2 * n + 1} sweep={best:.4f}s", file=out)
    for a, b in zip(times, times[1:]):
        print(f"# scaling ratio={b / a:.2f}", file=out)
    return 0


def cmd_gen(args, out=None) -> int:
    out = out if out is not None else sys.stdout
    coords = _read_input(args.coords, parse_points) if args.coords else None
    out_dir = pathlib.Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(args.seed)
    for idx in range(args.count):
        pts = coords or [
            (rng.randint(0, 1000), rng.randint(0, 1000)) for _ in range(2 * args.n + 1)
        ]
        name = f"{args.name}-{args.group}{idx}"
        inst = generate_pairs(
            pts,
            args.group,
            rng,
            mode=args.mode,
            rounding=args.rounding,
            name=name,
        )
        path = out_dir / f"{name}.pdtsp"
        path.write_text(render_instance(inst))
        print(f"wrote {path}", file=out)
    return 0


def _add_run_flags(sub):
    sub.add_argument("--method", choices=METHODS, default="hgs")
    sub.add_argument(
        "--seeds", type=parse_seeds, default="1", help="e.g. 3, 1,2,5 or 1..10"
    )
    sub.add_argument("--tmax", type=float, default=None, help="wall clock budget, seconds")
    sub.add_argument(
        "--budget-noimprove",
        type=int,
        default=None,
        help="stop hgs after this many children without a new best",
    )
    sub.add_argument("--iters", type=int, default=10000, help="rr iteration budget")
    sub.add_argument("--kor", type=int, default=30)
    sub.add_argument("--kbs", type=int, default=3)
    sub.add_argument("--plarge", type=float, default=0.1)
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
    bench.add_argument("--group", choices=["A", "B", "C"], default=None)
    bench.add_argument(
        "--scaling",
        action="store_true",
        help="time phase-1 sweeps on growing synthetic instances instead",
    )
    _add_run_flags(bench)
    bench.set_defaults(func=cmd_bench)

    gen = sub.add_parser("gen", help="generate instances")
    gen.add_argument("--n", type=int, default=10, help="pairs per instance")
    gen.add_argument("--count", type=int, default=1)
    gen.add_argument("--group", choices=["A", "B", "C"], default="C")
    gen.add_argument("--seed", type=int, default=1)
    gen.add_argument("--mode", choices=["closed", "open"], default="closed")
    gen.add_argument("--rounding", choices=["none", "nearest"], default="nearest")
    gen.add_argument("--coords", default=None, help="file of 'x y' lines, depot first")
    gen.add_argument("--name", default="gen")
    gen.add_argument("--out", required=True, help="output directory")
    gen.set_defaults(func=cmd_gen)
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
