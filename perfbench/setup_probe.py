"""Set-up probe: started in a fresh interpreter by ``run.py``.

    python3 perfbench/setup_probe.py <workload> <seed>

Imports numpy and the package, builds the workload's engine and
programs and attaches its streams, then prints ``ready <seconds>``: the
time from its first statement to that point, minus the input generation,
which is not set-up.  Timing inside the child leaves out the start of
the interpreter itself, which the program does not control and which
spreads with the host's process-start cost.
"""

import time

t_start = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402,F401  (the package imports it; part of set-up)

t0 = time.perf_counter()
import engines  # noqa: E402

w = engines.WORKLOADS[sys.argv[1]]
stream = w.make_stream(engines.part_seed(int(sys.argv[2]), 0, 0))  # round 0, part 0
gen_s = time.perf_counter() - t0

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
engine, _ = engines.build_engine(w, stream)
print(f"ready {time.perf_counter() - t_start - gen_s:.9f}", flush=True)
