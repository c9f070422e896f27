"""Time the benchmark's set-up in a fresh interpreter.

Usage: ``python3 perfbench/setup_probe.py WORKDIR SCALE JOBS QUEUE``
prints the host seconds spent importing ``repro``, building the Session
and opening its result store (and, with QUEUE=1, its job queue).
"""

import pathlib
import sys
import time

start = time.perf_counter()
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent
                       / "src"))

from repro.api import Session  # noqa: E402

work, scale, jobs, queue = sys.argv[1:5]
work = pathlib.Path(work)
session = Session(store=work / "results.sqlite", jobs=int(jobs), scale=scale,
                  queue=work / "queue.sqlite" if queue == "1" else None)
elapsed = time.perf_counter() - start
session.close()
print(repr(elapsed))
