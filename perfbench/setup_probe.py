"""Set-up time of one workload, measured in a fresh process: import drsplit,
build or generate the instances and assemble their Problems.  Prints one
JSON object.  run.py starts this several times and reports the median.

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402

workload = workloads.WORKLOADS[sys.argv[1]]
instances = workloads.build_instances(workload, int(sys.argv[2]))
problems = {k: workloads.build_problem(v) for k, v in instances.items()}
print(json.dumps({"setup_s": time.perf_counter() - T0}))
