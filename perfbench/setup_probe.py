"""Set-up probe: import covmin and build one workload's inputs, then exit.

    python3 perfbench/setup_probe.py <workload> <seed>

run.py times this script in fresh interpreters to measure ``setup_s``.
"""

import sys

import workloads

workloads.build(sys.argv[1], int(sys.argv[2]))
