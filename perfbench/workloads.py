"""Benchmark inputs and the fixed-work solves run on them.

Instance text is generated here, in plain Python and without the
library, so the inputs depend only on the workload name and the pool
index taken from ``--seed``. The library parses that text like any
user file. Every solve has an iteration or no-improvement budget and
no time limit, so its cost and tour depend only on its inputs.

Reference costs and tour fingerprints are recorded for a pool of input
sets per workload; ``--seed`` picks one of them by its remainder.
"""

from __future__ import annotations

import importlib
import math
import pathlib
import random
import sys
from dataclasses import dataclass

POOL_SIZE = 8
SPAN = 1000


@dataclass(frozen=True)
class Spec:
    """One generated instance: size, tour mode, cost rounding and pairing group."""

    n_pairs: int
    mode: str
    rounding: str
    group: str


@dataclass(frozen=True)
class Solve:
    """One solver call: method, index of its instance, solver seed and budget.

    The budget is ``max_no_improve`` for "hgs", ``iters`` for "rr" and
    unused for "ls", which is one greedy construction and one full
    descent with the large neighborhoods.
    """

    method: str
    inst: int
    seed: int
    budget: int = 0


@dataclass(frozen=True)
class Workload:
    """Instances to generate and the solves of one round.

    ``pools`` is the number of input sets ``--seed`` chooses from. A
    workload whose run time differs from instance to instance by more
    than its bound can absorb has one.
    """

    name: str
    specs: tuple
    solves: tuple
    pools: int = POOL_SIZE

    def pool(self, seed: int) -> int:
        return seed % self.pools


# See perfbench/README.md for why each workload exists and which layer
# it weighs. small-exact's HGS budget lets the population grow past
# mu + lam, so that survivor selection runs.
SMALL_INSTANCES = 24


def _small_specs():
    # Sizes cycle 5, 6, 7, 8 with each size both open and closed.
    return tuple(
        Spec(5 + (k // 2) % 4, ("open", "closed")[k % 2], "nearest", "C")
        for k in range(SMALL_INSTANCES)
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "hgs-closed",
            tuple(Spec(50, "closed", "nearest", g) for g in "ABC"),
            tuple(Solve("hgs", i, seed, 5) for seed in (1, 2) for i in range(3)),
            # The time of one HGS run follows its instance, and a run has
            # room for six; so every seed gets the same input set.
            pools=1,
        ),
        Workload(
            "rr-mixed",
            tuple(Spec(100, m, "nearest", g) for m in ("closed", "open") for g in "BC"),
            tuple(Solve("rr", i, 1, 600) for i in range(4)),
        ),
        Workload(
            "ls-float-open",
            (Spec(200, "open", "none", "B"), Spec(200, "open", "none", "C")),
            tuple(Solve("ls", i, seed) for seed in (1, 2) for i in range(2)),
            # One n = 200 descent can take twice as long on one instance
            # as on another, and a run has room for four.
            pools=1,
        ),
        Workload(
            "small-exact",
            _small_specs(),
            tuple(
                solve
                for i in range(SMALL_INSTANCES)
                for solve in (Solve("hgs", i, i, 50), Solve("rr", i, i, 200))
            ),
        ),
    )
}

GROUP_POOL = {"A": 5, "B": 10, "C": None}


def _fmt(v) -> str:
    return str(v) if isinstance(v, int) else repr(v)


def instance_text(spec: Spec, rng: random.Random, name: str) -> str:
    """Random points in a SPAN square and a group-A/B/C pairing, as instance text.

    Integer instances get integer coordinates, float instances uniform
    real ones. Each still-unmatched vertex, in index order, is paired
    with one of its 5 (A), 10 (B) or all (C) nearest unmatched vertices.
    """
    nv = 2 * spec.n_pairs + 1
    if spec.rounding == "nearest":
        pts = [(rng.randint(0, SPAN), rng.randint(0, SPAN)) for _ in range(nv)]
    else:
        pts = [(rng.uniform(0, SPAN), rng.uniform(0, SPAN)) for _ in range(nv)]
    pool = GROUP_POOL[spec.group]
    unmatched = set(range(1, nv))
    pairs = []
    for v in range(1, nv):
        if v not in unmatched:
            continue
        unmatched.discard(v)
        x, y = pts[v]
        near = sorted(
            unmatched, key=lambda u: (math.hypot(pts[u][0] - x, pts[u][1] - y), u)
        )
        if pool is not None:
            near = near[:pool]
        d = near[rng.randrange(len(near))]
        unmatched.discard(d)
        pairs.append((v, d))
    lines = [
        f"NAME {name}",
        f"PAIRS {spec.n_pairs}",
        f"MODE {spec.mode}",
        f"ROUNDING {spec.rounding}",
        "EDGE_SOURCE coords",
        "COORDS",
    ]
    lines += [f"{i} {_fmt(x)} {_fmt(y)}" for i, (x, y) in enumerate(pts)]
    lines.append("PAIRING")
    lines += [f"{p} {d}" for p, d in pairs]
    lines.append("EOF")
    return "\n".join(lines) + "\n"


def workload_texts(workload: Workload, pool: int) -> list:
    rng = random.Random(f"{workload.name}:{pool}")
    return [
        instance_text(spec, rng, f"{workload.name}-{pool}-{k}")
        for k, spec in enumerate(workload.specs)
    ]


def load_library(root: pathlib.Path) -> "Library":
    """Imports pdtsp_kit from ``root/src`` and no other place."""
    src = (root / "src").resolve()
    if not (src / "pdtsp_kit" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no pdtsp_kit sources under {src}")
    sys.path.insert(0, str(src))
    pkg = importlib.import_module("pdtsp_kit")
    if not pathlib.Path(pkg.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"perfbench: imported pdtsp_kit from {pkg.__file__}")
    return Library()


class Library:
    """The library modules. Solves look functions up on them at call time,
    so tracing wrappers installed on the modules are seen."""

    def __init__(self):
        for mod in (
            "instance",
            "tour",
            "search",
            "metaheuristics",
            "oracle",
            "neighborhoods",
            "neighborhoods.relocate",
        ):
            setattr(self, mod.replace(".", "_"), importlib.import_module(f"pdtsp_kit.{mod}"))


def run_solve(lib: Library, solve: Solve, inst):
    """Runs one solve; returns (tour, ttb seconds or None, stats dict)."""
    mh = lib.metaheuristics
    rng = random.Random(solve.seed)
    stats: dict = {}
    if solve.method == "hgs":
        tour = mh.hgs_run(inst, mh.HgsParams(max_no_improve=solve.budget), rng, stats)
    elif solve.method == "rr":
        tour = mh.rr_run(inst, mh.RrParams(iters=solve.budget), rng, stats)
    elif solve.method == "ls":
        tour = mh.greedy_construct(inst, rng)
        lib.search.local_search(
            inst, tour, lib.neighborhoods.SearchParams(), rng, use_large=True
        )
        return tour, None, stats
    else:
        raise ValueError(f"unknown solve method {solve.method!r}")
    return tour, stats["ttb"], stats
