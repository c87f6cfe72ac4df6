"""Time one set-up of a workload in this fresh interpreter; print the seconds.

Set-up is the import of streamtrees, then spec parse, generator build and
learner build for a single-cell workload, or config build and validation for
the grid. Interpreter start-up is not included.

    python3 perfbench/setup_probe.py WORKLOAD VARIANT SECONDS
"""

import sys
import time

start = time.perf_counter()

import workloads  # noqa: E402

workload = workloads.WORKLOADS[sys.argv[1]]
variant = int(sys.argv[2])
if isinstance(workload, workloads.CellWorkload):
    workload.build(variant)
else:
    workload.config(variant, workload.seeds(int(sys.argv[3])), workload.cell_instances, "unused")
print(time.perf_counter() - start)
