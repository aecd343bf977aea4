"""Per-layer spans recorded by wrapping the library's public functions.

The wrappers replace the names the library's callers look up (for
example ``pdtsp_kit.search.or_opt_scan``, which ``pair_step`` reads at
call time) and restore them afterwards. Each span adds its duration to
its parent's child time, so a layer's self time is its span time minus
the time of the wrapped calls it made. Wrappers change no argument and
no result, which the traced run checks by comparing tours.
"""

from __future__ import annotations

import random
import statistics
import time

from hostspeed import Sampler
from workloads import Spec, instance_text

SCANS = ("relocate", "two_opt", "or_opt", "two_k_opt", "four_opt", "bs")
MOVE_KINDS = ("relocate-pair", "2opt", "or-opt", "2k-opt", "4opt", "bs")

# stat name -> [(library module attribute on Library, function name)]
TARGETS = {
    "neighborhoods.relocate": [("search", "relocate_pair_best")],
    "neighborhoods.two_opt": [("search", "two_opt_scan")],
    "neighborhoods.or_opt": [("search", "or_opt_scan")],
    "neighborhoods.two_k_opt": [("search", "two_k_opt_best")],
    "neighborhoods.four_opt": [("search", "four_opt_best")],
    "neighborhoods.bs": [("search", "bs_best")],
    "neighborhoods.best_insertion": [
        ("metaheuristics", "best_insertion"),
        ("neighborhoods_relocate", "best_insertion"),
    ],
    "neighborhoods.four_opt_type1_any": [("metaheuristics", "four_opt_type1_any")],
    "tour.apply_move": [("search", "apply_move")],
    "search.pair_step": [("search", "pair_step")],
    "search.phase_one_sweep": [("search", "phase_one_sweep")],
    "search.large_step": [("search", "large_step")],
    "search.local_search": [
        ("search", "local_search"),
        ("metaheuristics", "local_search"),
    ],
    "metaheuristics.greedy_construct": [("metaheuristics", "greedy_construct")],
    "metaheuristics.lox_crossover": [("metaheuristics", "lox_crossover")],
    "metaheuristics.mutate_and_repair": [("metaheuristics", "mutate_and_repair")],
    "metaheuristics.population": [
        ("metaheuristics", "biased_fitness"),
        ("metaheuristics", "edge_set"),
        ("metaheuristics", "jaccard"),
    ],
    "metaheuristics.hgs_run": [("metaheuristics", "hgs_run")],
    "metaheuristics.rr_run": [("metaheuristics", "rr_run")],
    "instance.parse_instance": [("instance", "parse_instance")],
}


class Stat:
    __slots__ = ("calls", "self_s", "improving", "applied", "kinds")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.improving = 0
        self.applied = 0
        self.kinds = dict.fromkeys(MOVE_KINDS, 0)


def _count_improving(stat, args, result):
    stat.improving += result.improves(args[0].eps)


def _count_kind(stat, args, result):
    kind = args[2].kind
    stat.kinds["4opt" if kind.startswith("4opt") else kind] += 1


def _count_applied(stat, args, result):
    stat.applied += bool(result)


HOOKS = {f"neighborhoods.{s}": _count_improving for s in SCANS}
HOOKS["tour.apply_move"] = _count_kind
HOOKS["search.large_step"] = _count_applied


class Tracer:
    """Installs span wrappers on a Library and keeps their statistics."""

    def __init__(self):
        self.stats = {name: Stat() for name in TARGETS}
        self.stats["tour.Tour"] = Stat()
        self._stack = []
        self._restore = []

    def _wrap(self, name, fn):
        stat = self.stats[name]
        hook = HOOKS.get(name)
        stack = self._stack
        clock = time.perf_counter

        def span(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                stat.calls += 1
                stat.self_s += dt - child
                if stack:
                    stack[-1] += dt
            if hook is not None:
                hook(stat, args, result)
            return result

        return span

    def install(self, lib) -> None:
        for name, sites in TARGETS.items():
            for mod_attr, fn_name in sites:
                mod = getattr(lib, mod_attr)
                orig = getattr(mod, fn_name)
                self._restore.append((mod, fn_name, orig))
                setattr(mod, fn_name, self._wrap(name, orig))
        tour_cls = lib.tour.Tour
        self._restore.append((tour_cls, "__init__", tour_cls.__init__))
        tour_cls.__init__ = self._wrap("tour.Tour", tour_cls.__init__)

    def uninstall(self) -> None:
        while self._restore:
            obj, attr, orig = self._restore.pop()
            setattr(obj, attr, orig)


def layer_metrics(stats: dict, traced_wall: float, solve_stats: list) -> dict:
    """Flattens span statistics into the per-layer metric names."""
    out = {}

    def share(s):
        return s / traced_wall if traced_wall > 0 else 0.0

    def per_call_us(st):
        return 1e6 * st.self_s / st.calls if st.calls else 0.0

    for scan in SCANS:
        st = stats[f"neighborhoods.{scan}"]
        key = f"neighborhoods.{scan}"
        out[f"{key}.calls"] = st.calls
        out[f"{key}.self_s"] = st.self_s
        out[f"{key}.share"] = share(st.self_s)
        out[f"{key}.us_per_call"] = per_call_us(st)
        out[f"{key}.improving_frac"] = st.improving / st.calls if st.calls else 0.0
    st = stats["neighborhoods.best_insertion"]
    out["neighborhoods.best_insertion.calls"] = st.calls
    out["neighborhoods.best_insertion.self_s"] = st.self_s
    out["neighborhoods.best_insertion.share"] = share(st.self_s)
    out["neighborhoods.best_insertion.us_per_call"] = per_call_us(st)
    for name in (
        "neighborhoods.four_opt_type1_any",
        "tour.Tour",
        "tour.apply_move",
        "search.pair_step",
        "search.phase_one_sweep",
        "search.local_search",
        "search.large_step",
        "metaheuristics.greedy_construct",
        "metaheuristics.lox_crossover",
        "metaheuristics.mutate_and_repair",
        "instance.parse_instance",
    ):
        out[f"{name}.calls"] = stats[name].calls
        out[f"{name}.self_s"] = stats[name].self_s
    for kind, count in stats["tour.apply_move"].kinds.items():
        out[f"tour.apply_move.kind.{kind}"] = count
    st = stats["search.large_step"]
    out["search.large_step.applied_frac"] = st.applied / st.calls if st.calls else 0.0
    st = stats["metaheuristics.population"]
    out["metaheuristics.population.self_s"] = st.self_s
    out["metaheuristics.population.share"] = share(st.self_s)
    out["metaheuristics.hgs_run.self_s"] = stats["metaheuristics.hgs_run"].self_s
    out["metaheuristics.hgs_run.children"] = sum(s.get("children", 0) for s in solve_stats)
    out["metaheuristics.rr_run.self_s"] = stats["metaheuristics.rr_run"].self_s
    out["metaheuristics.rr_run.iters"] = sum(s.get("iters", 0) for s in solve_stats)
    return out


PASS_SIZES = (50, 100, 200)
PASS_REPEATS = 3
K_OR = 30
K_BS = 3


def pass_table(lib) -> dict:
    """Milliseconds per full pass of each scan over a locally optimal tour.

    Instances are fixed (group C, integer costs, closed, span 1000), so
    the table is comparable across runs and with the baseline table in
    ROADMAP.md. Each entry is the median of PASS_REPEATS passes, without
    the host probes' time and rescaled by the host speed measured while
    that size was worked on.
    """
    nb = lib.neighborhoods
    out = {}
    with Sampler() as sampler:
        for n in PASS_SIZES:
            start = len(sampler.samples)
            text = instance_text(
                Spec(n, "closed", "nearest", "C"), random.Random(f"pass:{n}"), f"pass-{n}"
            )
            inst = lib.instance.parse_instance(text)
            rng = random.Random(1)
            tour = lib.metaheuristics.greedy_construct(inst, rng)
            lib.search.local_search(inst, tour, nb.SearchParams(), rng, use_large=True)
            anchors = range(1, 2 * n + 1)
            passes = {
                "relocate": lambda: [
                    nb.relocate_pair_best(inst, tour, x) for x in range(1, n + 1)
                ],
                "two_opt": lambda: [nb.two_opt_scan(inst, tour, i) for i in anchors],
                "or_opt": lambda: [nb.or_opt_scan(inst, tour, a, K_OR) for a in anchors],
                "two_k_opt": lambda: nb.two_k_opt_best(inst, tour),
                "four_opt": lambda: nb.four_opt_best(inst, tour),
                "bs": lambda: nb.bs_best(inst, tour, K_BS),
            }
            raw = {}
            for scan, run in passes.items():
                times = []
                for _ in range(PASS_REPEATS):
                    spent = sampler.spent
                    t0 = time.perf_counter()
                    run()
                    times.append(time.perf_counter() - t0 - (sampler.spent - spent))
                raw[scan] = statistics.median(times)
            speed = sampler.factor_since(start)
            for scan, t in raw.items():
                out[f"neighborhoods.{scan}.pass_ms.n{n}"] = 1e3 * speed * t
    return out
