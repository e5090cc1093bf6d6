"""Host-speed probe for the soak-chaos workload, run as its own process.

``workloads.py`` starts it after set-up, writes one line to its standard
input per probe and reads back the seconds a fixed memory-bound
pure-Python loop took: the median of three passes of 20 000 random
lookups in a 400 000-entry dict. The table lives in this process, so the
measuring process's resident set stays the program's own. The process
ends when its standard input closes.
"""

import random
import sys
import time

ENTRIES = 400_000
LOOKUPS = 20_000


def main() -> int:
    rng = random.Random(7)
    table = {i: (i, float(i)) for i in range(ENTRIES)}
    keys = [rng.randrange(ENTRIES) for _ in range(LOOKUPS)]
    for _ in sys.stdin:
        times = []
        for _ in range(3):
            start = time.perf_counter()
            total = 0.0
            for key in keys:
                total += table[key][1]
            times.append(time.perf_counter() - start)
        print(repr(sorted(times)[1]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
