"""Times one cold set-up in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED

Set-up is the package import, ``parse_instance`` of every instance of
the workload and the first ``work_cost()`` of each. Generating the
instance text happens before the clock starts. Prints the seconds it
took, then the same rescaled to the reference host speed by host probes
taken just before and just after.
"""

import pathlib
import sys
import time

from hostspeed import probe, speed_factor
from workloads import WORKLOADS, load_library, workload_texts

HOST_PROBES = 3


def main() -> None:
    workload = WORKLOADS[sys.argv[1]]
    texts = workload_texts(workload, workload.pool(int(sys.argv[2])))
    before = [probe() for _ in range(HOST_PROBES)]
    t0 = time.perf_counter()
    lib = load_library(pathlib.Path(__file__).resolve().parent.parent)
    for text in texts:
        lib.instance.parse_instance(text).work_cost()
    dt = time.perf_counter() - t0
    after = [probe() for _ in range(HOST_PROBES)]
    print(dt, dt * speed_factor(before + after))


if __name__ == "__main__":
    main()
