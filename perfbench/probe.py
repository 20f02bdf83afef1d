"""Probes that need a fresh interpreter: set-up time and peak memory.

    python3 -I perfbench/probe.py <workload> setup
    python3 -I perfbench/probe.py <workload> memory

The first form prints the seconds taken from before ``import zcdft`` (which
imports numpy) to the end of the workload's fixed warm-up operation, and
then the factor to the nominal host from passes of the reference load made
afterwards in the same interpreter. The interpreter's own start-up is not
included.

The second form runs the first MEMORY_BLOCKS blocks of the workload drawn
from a fixed seed, operations only, and prints the process's peak RSS in MB.
It runs apart from the measuring process so that the reference checks, whose
FFT work arrays are larger than anything the library allocates, cannot set
the peak. The seed is fixed so that the peak, which follows the largest
length drawn, does not change with ``--seed``.
"""

import resource
import sys
from pathlib import Path
from random import Random
from time import perf_counter

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from workloads import GENERATORS, WARMUP_CASE  # noqa: E402  (pure Python, no numpy)

MEMORY_BLOCKS = 2
LOAD_PASSES = 9


def main() -> None:
    workload = sys.argv[1]
    t0 = perf_counter()
    import zcdft  # noqa: F401
    import ops

    ops.attempt(workload, WARMUP_CASE[workload])
    seconds = perf_counter() - t0
    if sys.argv[2] == "setup":
        import calibrate  # only now: its numpy import must not be timed

        calibrate.pass_ns()  # the first pass also loads the load's own code
        print(seconds, calibrate.scale(LOAD_PASSES))
        return
    blocks = GENERATORS[workload](Random("peak-rss"))
    for _ in range(MEMORY_BLOCKS):
        for case in next(blocks):
            ops.attempt(workload, case)
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)


if __name__ == "__main__":
    main()
