"""Time one set-up of a workload in a fresh interpreter.

    python3 perfbench/setup_time.py SRC WORKLOAD SEED WORKDIR

Imports vhcomplex from SRC, loads the fixtures and builds the workload's
inputs in WORKDIR, then prints the seconds taken.  run.py calls this
between passes, so that set-ups sample the same machine state as the
passes and leave the measuring process's memory alone.
"""

import time

start = time.perf_counter()

import sys                      # noqa: E402
from pathlib import Path        # noqa: E402

# import from bytecode after the first set-up, whatever the environment says
sys.dont_write_bytecode = False
import workloads                # noqa: E402

src, name, seed, workdir = sys.argv[1:]
workloads.build(name, workloads.import_library(Path(src)), int(seed),
                Path(workdir))
print(time.perf_counter() - start)
