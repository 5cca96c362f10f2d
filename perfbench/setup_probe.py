"""Set-up probe: a fresh process imports the package and builds one
workload's inputs, then prints "ready".  run.py times it from spawn to that
line and reports the median as setup_s.

    python3 perfbench/setup_probe.py WORKLOAD SEED [--smoke]

Expects the environment run.py sets up: PYTHONPATH at the package sources
and the BLAS thread count.
"""

import sys

import workloads

workloads.WORKLOADS[sys.argv[1]].prepare(int(sys.argv[2]), "--smoke" in sys.argv[3:])
print("ready", flush=True)
