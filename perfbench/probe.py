"""Set-up probe: `import transient_lab` plus one workload's one-time set-up.

    python3 perfbench/probe.py WORKLOAD SEED WORKDIR

Runs in a fresh interpreter and prints the seconds
from before the first import to the end of the set-up.
"""

import time

START = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

# sys.path[0] is this script's directory; the library sits beside it
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(sys.path[0])), "src"))

import transient_lab  # noqa: E402,F401
from workloads import WORKLOAD_TYPES  # noqa: E402

WORKLOAD_TYPES[sys.argv[1]](int(sys.argv[2]), sys.argv[3])
print(time.perf_counter() - START)
