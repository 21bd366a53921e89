"""What the cycle collector costs one benchmark ``fleet_churn`` unit.

Runs the workload's set-up and then one full ``FLEET`` run (4,000
resumed sessions in 4 shards), exactly as ``perf/run.py --workload
fleet_churn`` does, with a ``gc.callbacks`` hook timing every collection
of the unit.  Prints, per generation, the number of collections, their
total time and the objects they freed, then the whole unit's wall time and
the fleet ledger digest, which must equal the pinned one.

    python benchmarks/gc_probe.py [--seed 0]

Full (generation 2) collections walk every tracked container, so their
time grows with the long-lived objects the process keeps, such as each
live AES-GCM key's tables.  The hook itself runs on each collection, so
compare two trees with this script on both, one run after the other.
"""

from __future__ import annotations

import argparse
import gc
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perf.workloads import FLEET_DIGESTS, FleetChurn  # noqa: E402


class CollectorClock:
    """Counts, times and tallies the freed objects of every collection."""

    def __init__(self) -> None:
        self.count = [0, 0, 0]
        self.seconds = [0.0, 0.0, 0.0]
        self.collected = [0, 0, 0]
        self._start = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._start = time.perf_counter()
            return
        generation = info["generation"]
        self.count[generation] += 1
        self.seconds[generation] += time.perf_counter() - self._start
        self.collected[generation] += info["collected"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    workload = FleetChurn()
    workload.setup(args.seed)
    clock = CollectorClock()
    gc.callbacks.append(clock)
    start = time.perf_counter()
    try:
        workload.unit()
    finally:
        gc.callbacks.remove(clock)
    wall = time.perf_counter() - start

    for generation in range(3):
        print(f"gen{generation}: {clock.count[generation]:6d} collections "
              f"{clock.seconds[generation]:8.3f} s "
              f"{clock.collected[generation]:8d} objects freed")
    print(f"all:  {sum(clock.count):6d} collections {sum(clock.seconds):8.3f} s "
          f"of {wall:.3f} s wall")
    digest = workload.reports[-1]["digests"]["fleet"]
    pinned = FLEET_DIGESTS.get(args.seed)
    print(f"fleet digest {digest}"
          + ("" if pinned is None else " (pinned)" if digest == pinned else
             f" DIFFERS from the pinned {pinned}"))
    if workload.problems:
        print("problems:", "; ".join(workload.problems))
    return 1 if workload.problems else 0


if __name__ == "__main__":
    sys.exit(main())
