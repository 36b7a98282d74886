"""Run one workload's set-up in a fresh process, then print ``ready``.

``run.py`` times this process from spawn to the ``ready`` line to measure
``setup_s``: interpreter start, ``import fuzzycr`` and building the systems
the workload needs. Usage: ``python3 bench/setup_probe.py <workload>``.
"""

import sys

from workloads import WORKLOADS

if __name__ == "__main__":
    WORKLOADS[sys.argv[1]]().prepare()
    print("ready", flush=True)
