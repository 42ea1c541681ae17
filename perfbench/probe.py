"""Set-up probe: a fresh process that imports the program and sets one workload up.

    python3 perfbench/probe.py <workload> <seed>

Prints "ready" once the workload could run its first operation; run.py
times it from process start to that line.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import import_program, unset_blas_thread_vars  # noqa: E402

unset_blas_thread_vars()
dstc = import_program()

from workloads import WORKLOADS  # noqa: E402

workload = WORKLOADS[sys.argv[1]](dstc, int(sys.argv[2]), reference=None)
try:
    workload.setup()
    print("ready", flush=True)
finally:
    workload.close()
