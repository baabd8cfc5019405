"""Show that the seeded couplings cost about the same.

    python3 perfbench/calibrate.py

For each coupling in ``workloads.COUPLINGS``, times every seeded command
(the one command per workload that takes the coupling) :data:`REPEATS` times
in this process, after one untimed warm-up, and prints the median wall time
and its deviation from the mean over the couplings.
"""

from __future__ import annotations

import statistics
import sys

import run
import workloads

REPEATS = 7


def main() -> int:
    cli = run.import_cli()
    run.run_command(cli, run.WARMUP)
    for name, build in workloads.WORKLOADS.items():
        medians = {}
        for coupling in workloads.COUPLINGS:
            seeded = [c for c in build(coupling) if c.lam == coupling]
            if not seeded:
                continue
            times = [sum(run.run_command(cli, c.argv).seconds for c in seeded)
                     for _ in range(REPEATS)]
            medians[coupling] = statistics.median(times)
        if not medians:
            continue
        mean = statistics.mean(medians.values())
        for coupling, median in medians.items():
            print(f"{name:13s} lambda={coupling:>4s} {median:8.3f} s  {median / mean - 1:+.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
