"""Set-up time seen by one fresh interpreter: import kccdyn, then load and
lift every definition a workload uses.

    python3 benchmark/setup_probe.py SRC_DIR TARGET [TARGET ...]

prints the elapsed seconds on the last line of stdout.
"""

import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])

from kccdyn import cli, kcc  # noqa: E402

for target in sys.argv[2:]:
    kcc.lift(cli.load_definition(target).field)
print(time.perf_counter() - start)
