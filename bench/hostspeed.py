"""Host speed reference for the benchmark's timings.

The benchmark runs on shared hosts whose throughput swings by tens of percent
from one second to the next, for every process alike. `reference_seconds()`
times a fixed unit of interpreter and small-array work that does not touch
abcdirect. The benchmark times it next to every timed run and scales the run's
time by `REFERENCE_S / reference`: the time the run would have taken had the
host run the reference work at its nominal speed. A change to abcdirect moves
the run's time and not the reference, so it shows in full; a slow or fast
moment of the host moves both and cancels.
"""

import heapq
import time

import numpy as np

#: steps of one reference unit
REFERENCE_STEPS = 20000
#: nominal seconds of one reference unit: its median on a 2-vCPU Intel Xeon
#: virtual machine, the host the benchmark's bounds were set on
REFERENCE_S = 0.02


def reference_work(steps: int = REFERENCE_STEPS) -> float:
    """Deterministic mix of float arithmetic, dict and heap updates and small
    numpy calls, the kinds of work the solvers do per evaluation."""
    heap, table, acc, x = [], {}, 0.0, 0.5
    v = np.linspace(0.0, 1.0, 12)
    for i in range(steps):
        x = 3.9 * x * (1.0 - x)
        heapq.heappush(heap, (x, i))
        table[i & 1023] = x
        if i & 7 == 0:
            acc += float(np.dot(v, v * x))
            if len(heap) > 256:
                heapq.heappop(heap)
    return acc + len(table)


def reference_seconds() -> float:
    """Seconds one reference unit takes now."""
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0
