"""Fixed-work benchmark of pdtsp-kit.

Usage, from the repository root:

    python3 perfbench/run.py --workload hgs-closed --seed 3 --seconds 25 --trace 0

The workload's instance text is generated from ``--seed``, parsed with
``parse_instance`` and solved by a fixed list of solves (one "round").
Untraced runs repeat the round for ``--seconds`` and report the
end-to-end metrics named in BENCHMARK.json. Traced runs (``--trace 1``)
run the round once untraced and once under span wrappers, check that
both give identical tours, add a per-scan pass table and report the
per-layer metrics. Every tour is checked independently of the library.
The last line of standard output is one JSON object; lines before it
starting with "#" are for people.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

from checker import check_tour, fingerprint
from hostspeed import Sampler, probe
from tracer import PASS_REPEATS, Tracer, layer_metrics, pass_table
from workloads import WORKLOADS, load_library, run_solve, workload_texts

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_DIR = HERE / "reference"
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60
CALIB_PROBES = 50


@dataclass
class Result:
    wall: float  # seconds, without the host sampler's own time
    ttb: float
    cost: object
    seq: list
    stats: dict
    error: str | None


@dataclass
class Round:
    results: list
    speed: float  # host speed factor while the round ran
    probe_s: float  # time the host probes took during the round

    @property
    def wall(self) -> float:
        return sum(r.wall for r in self.results)

    @property
    def norm_wall(self) -> float:
        return self.speed * self.wall


def run_round(lib, workload, insts, sampler: Sampler | None = None) -> Round:
    """Runs every solve of the workload once, checking each output.

    Solve wall times leave out the time of the host probes that ran
    during them. Without an active sampler the speed factor comes from
    one probe at the end.
    """
    sampler = sampler or Sampler()
    start = len(sampler.samples)
    start_spent = sampler.spent
    out = []
    for solve in workload.solves:
        inst = insts[solve.inst]
        spent = sampler.spent
        t0 = time.perf_counter()
        try:
            tour, ttb, stats = run_solve(lib, solve, inst)
        except Exception as exc:  # a raising solve is a failed run, not a crash
            tour, failure = None, repr(exc)
        wall = time.perf_counter() - t0 - (sampler.spent - spent)
        if tour is None:
            out.append(Result(wall, 0.0, None, [], {}, failure))
            continue
        error = check_tour(inst, tour.seq, tour.cost)
        if error is None and "cost" in stats and stats["cost"] != tour.cost:
            error = f"stats cost {stats['cost']} differs from tour cost {tour.cost}"
        ttb = wall if ttb is None else ttb
        out.append(Result(wall, ttb, tour.cost, list(tour.seq), stats, error))
    return Round(out, sampler.factor_since(start), sampler.spent - start_spent)


def calibrate() -> float:
    """A fixed pure-Python loop timed at start; it tells host drift from
    code changes when runs are compared."""
    return sum(probe() for _ in range(CALIB_PROBES))


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        return (git / head[5:]).read_text().strip() if head.startswith("ref: ") else head
    except OSError:
        return "unknown"


def environment(workload, seed: int, calib_s: float) -> dict:
    import numpy

    return {
        "workload": workload.name,
        "seed": seed,
        "pool": workload.pool(seed),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(),
        "bench.calib_s": calib_s,
    }


def setup_times(workload: str, seed: int) -> list:
    """(raw, rescaled) seconds of cold set-ups, each timed in a fresh
    interpreter by setup_probe.py."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=PROBE_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: set-up probe failed: {proc.stderr.strip()}")
        raw, rescaled = proc.stdout.split()[-2:]
        times.append((float(raw), float(rescaled)))
    return times


def load_reference(workload, pool: int, texts) -> dict:
    """The recorded entry for this input set; refuses one recorded for other text."""
    data = json.loads((REFERENCE_DIR / f"{workload.name}.json").read_text())
    if data["pool_size"] != workload.pools:
        raise SystemExit("perfbench: reference pool size differs; rerun record.py")
    entry = data["entries"][pool]
    if entry["instances"] != [fingerprint(t) for t in texts]:
        raise SystemExit("perfbench: instance text differs from the recorded one")
    if len(entry["runs"]) != len(workload.solves):
        raise SystemExit("perfbench: recorded runs do not match the workload")
    return entry


def tour_changes(rounds, ref) -> int:
    """Solves whose tour differs, in any round, from the recorded one."""
    changed = 0
    for k, run in enumerate(ref["runs"]):
        if any(
            rnd.results[k].error is None and fingerprint(rnd.results[k].seq) != run["fp"]
            for rnd in rounds
        ):
            changed += 1
    return changed


def cost_pct_ref(workload, rnd: Round, ref) -> float:
    """Mean reported cost as a percent of each instance's reference cost."""
    pct = [
        100.0 * r.cost / ref["refs"][solve.inst]
        for solve, r in zip(workload.solves, rnd.results)
        if r.error is None
    ]
    return statistics.fmean(pct) if pct else 0.0


def untraced(lib, workload, insts, ref, seed, seconds) -> tuple:
    setup = setup_times(workload.name, seed)
    rounds = []
    t_start = time.perf_counter()
    with Sampler() as sampler:
        while True:
            rounds.append(run_round(lib, workload, insts, sampler))
            elapsed = time.perf_counter() - t_start
            if elapsed * (len(rounds) + 1) / len(rounds) > seconds:
                break
    flat = [r for rnd in rounds for r in rnd.results]
    failed = sum(r.error is not None for r in flat)
    n_rounds = f"median of {len(rounds)} rounds"
    per_round = f"{len(workload.solves)} solves, identical in every round"
    values = {
        "wall_norm_s": (statistics.median(rnd.norm_wall for rnd in rounds), n_rounds),
        "cost_pct_ref": (cost_pct_ref(workload, rounds[0], ref), f"mean of {per_round}"),
        "ok_frac": ((len(flat) - failed) / len(flat), f"{len(flat)} solves"),
        "setup_s": (statistics.median(s for _, s in setup), f"median of {len(setup)} set-ups"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "1 process",
        ),
    }
    notes = {
        "raw_wall_s": statistics.median(rnd.wall for rnd in rounds),
        "host_speed_factor": statistics.median(rnd.speed for rnd in rounds),
        "host_samples": len(sampler.samples),
        "raw_setup_s": statistics.median(s for s, _ in setup),
        "ttb_s": statistics.median(sum(r.ttb for r in rnd.results) for rnd in rounds),
        "gap_pct": values["cost_pct_ref"][0] - 100.0,
        "fail_frac": failed / len(flat),
        "bench.tours_changed": tour_changes(rounds, ref),
    }
    return values, notes, flat


def traced(lib, workload, texts, insts, ref, calib_s) -> tuple:
    tracer = Tracer()
    with Sampler() as sampler:
        plain = run_round(lib, workload, insts, sampler)
        tracer.install(lib)
        try:
            for text in texts:
                lib.instance.parse_instance(text)
            spans = run_round(lib, workload, insts, sampler)
        finally:
            tracer.uninstall()
    mismatched = sum(
        a.cost != b.cost or a.seq != b.seq for a, b in zip(plain.results, spans.results)
    )
    # Span self times include the host probes that interrupted them, so
    # shares are taken of the round's time with the probes included.
    metrics = layer_metrics(
        tracer.stats, spans.wall + spans.probe_s, [r.stats for r in spans.results]
    )
    metrics.update(pass_table(lib))
    metrics["bench.tours_changed"] = tour_changes([plain, spans], ref)
    metrics["bench.trace_overhead_frac"] = spans.norm_wall / plain.norm_wall - 1.0
    metrics["bench.calib_s"] = calib_s
    metrics["bench.ttb_s"] = sum(r.ttb for r in plain.results)
    values = {}
    for name, v in metrics.items():
        if ".pass_ms." in name:
            values[name] = (v, f"median of {PASS_REPEATS} passes")
        else:
            values[name] = (v, "1 loop at start" if name == "bench.calib_s" else "1 traced round")
    notes = {"traced_tours_mismatched": mismatched}
    return values, notes, plain.results + spans.results


def emit(spec_metrics, values, correct, attempted, failed) -> None:
    missing = [m["name"] for m in spec_metrics if m["name"] not in values]
    extra = sorted(set(values) - {m["name"] for m in spec_metrics})
    if missing or extra:
        raise SystemExit(f"perfbench: metrics out of sync: missing {missing}, extra {extra}")
    for m in spec_metrics:
        value, samples = values[m["name"]]
        print(f"# {m['name']} = {value:.6g} {m['unit']} ({samples})")
    metrics = {
        m["name"]: {"value": values[m["name"]][0], "unit": m["unit"]} for m in spec_metrics
    }
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = WORKLOADS[args.workload]
    pool = workload.pool(args.seed)
    texts = workload_texts(workload, pool)
    ref = load_reference(workload, pool, texts)
    calib_s = calibrate()
    lib = load_library(ROOT)
    insts = [lib.instance.parse_instance(t) for t in texts]
    print("# env " + json.dumps(environment(workload, args.seed, calib_s)))

    if args.trace:
        values, notes, results = traced(lib, workload, texts, insts, ref, calib_s)
        spec_metrics = spec["per_layer"]
    else:
        values, notes, results = untraced(lib, workload, insts, ref, args.seed, args.seconds)
        spec_metrics = spec["end_to_end"]
    failed = sum(r.error is not None for r in results)
    for r in results:
        if r.error is not None:
            print(f"# failed: {r.error}")
    print("# notes " + json.dumps(notes))
    correct = failed == 0 and not notes.get("traced_tours_mismatched")
    emit(spec_metrics, values, correct, len(results), failed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
