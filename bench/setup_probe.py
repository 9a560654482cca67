"""Set-up cost of one workload, measured in a fresh interpreter.

    python3 bench/setup_probe.py SRC_DIR '[["S5", null], ["ackley", 12]]'

Times the import of `abcdirect` (numpy included) and building every listed
problem with `get_function`, then the host speed reference (`hostspeed.py`),
and prints the three as one JSON object.
"""

import json
import statistics
import sys
import time

if __name__ == "__main__":
    sys.path.insert(0, sys.argv[1])
    problems = json.loads(sys.argv[2])
    t0 = time.perf_counter()
    import abcdirect  # noqa: F401
    from abcdirect.functions import get_function
    t1 = time.perf_counter()
    for name, dim in problems:
        get_function(name, dim)
    t2 = time.perf_counter()
    from hostspeed import reference_seconds  # after the timed import
    print(json.dumps({"import_s": t1 - t0, "problems_s": t2 - t1,
                      "reference_s": statistics.median(
                          reference_seconds() for _ in range(3))}))
