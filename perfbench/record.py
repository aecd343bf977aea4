"""Records the benchmark's reference data under perfbench/reference/.

Usage, from the repository root:

    python3 perfbench/record.py WORKLOAD [WORKLOAD ...]

For every input set of the workload's pool, this runs one round of the
workload, checks it, and stores the cost and a fingerprint of each
solve's tour, plus a fingerprint of each instance text. It also stores
a reference cost per instance: the exact optimum from
``brute_force_optimal`` for small-exact, and for the others the best
cost seen, over the round and one longer search per instance. A
reference already recorded for the same instance text is kept (and
lowered if the round beats it), so rerunning after a change that is
meant to alter tours only costs one round per input set. None of this
is on the timed path. Each workload has its own file, so workloads can
be recorded in parallel.
"""

from __future__ import annotations

import json
import pathlib
import random
import sys

from checker import fingerprint
from run import REFERENCE_DIR, run_round
from workloads import WORKLOADS, load_library, workload_texts

HERE = pathlib.Path(__file__).resolve().parent


def reference_search(lib, workload: str, inst):
    """A longer search than the benchmark's own, for a best-known cost."""
    mh = lib.metaheuristics
    rng = random.Random(1000)
    if workload == "hgs-closed":
        return mh.hgs_run(inst, mh.HgsParams(max_no_improve=60), rng).cost
    if workload == "rr-mixed":
        return mh.rr_run(inst, mh.RrParams(iters=4000), rng).cost
    if workload == "ls-float-open":
        return mh.rr_run(inst, mh.RrParams(iters=2000), rng).cost
    raise ValueError(workload)


def record_pool_entry(lib, workload, pool: int, known: dict) -> dict:
    """``known`` maps instance text fingerprints to recorded reference costs."""
    texts = workload_texts(workload, pool)
    insts = [lib.instance.parse_instance(t) for t in texts]
    results = run_round(lib, workload, insts).results
    for r in results:
        if r.error is not None:
            raise SystemExit(f"{workload.name} pool {pool}: {r.error}")
    best = [None] * len(insts)
    for solve, r in zip(workload.solves, results):
        if best[solve.inst] is None or r.cost < best[solve.inst][0]:
            best[solve.inst] = (r.cost, r.seq)
    refs = []
    for text, inst, (cost, seq) in zip(texts, insts, best):
        prior = known.get(fingerprint(text))
        if prior is not None:
            cost = min(cost, prior)
        elif workload.name == "small-exact":
            seed = lib.tour.Tour(inst, seq)
            cost = lib.oracle.brute_force_optimal(inst, seed=seed).cost
        else:
            cost = min(cost, reference_search(lib, workload.name, inst))
        refs.append(cost)
    return {
        "instances": [fingerprint(t) for t in texts],
        "refs": refs,
        "runs": [{"cost": r.cost, "fp": fingerprint(r.seq)} for r in results],
    }


def main(argv) -> int:
    if not argv or any(name not in WORKLOADS for name in argv):
        raise SystemExit(f"usage: record.py WORKLOAD ...; workloads: {sorted(WORKLOADS)}")
    lib = load_library(HERE.parent)
    REFERENCE_DIR.mkdir(exist_ok=True)
    for name in argv:
        path = REFERENCE_DIR / f"{name}.json"
        known = {}
        if path.exists():
            for entry in json.loads(path.read_text())["entries"]:
                known.update(zip(entry["instances"], entry["refs"]))
        entries = []
        workload = WORKLOADS[name]
        for pool in range(workload.pools):
            entries.append(record_pool_entry(lib, workload, pool, known))
            print(f"{name} pool {pool}: refs {entries[-1]['refs']}", flush=True)
        data = {"pool_size": workload.pools, "entries": entries}
        path.write_text(json.dumps(data, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
