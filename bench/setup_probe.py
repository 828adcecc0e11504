"""Child process for setup_s and cli.import_s: time a fresh import.

    python bench/setup_probe.py [WORKLOAD WORKDIR]

Run with PYTHONPATH pointing at the checkout's src/ and BLAS pinned to one
thread.  Prints one JSON object: the time to import effectkit and
effectkit.cli, and, given a workload, the time of that workload's first
call.  Building the first call's input is not timed.
"""

import json
import sys
import time

t0 = time.perf_counter()
import effectkit  # noqa: E402
import effectkit.cli  # noqa: E402,F401

import_s = time.perf_counter() - t0
result = {"import_s": import_s, "effectkit": effectkit.__file__}
if len(sys.argv) == 3:
    from pathlib import Path

    from workloads import warmup

    first_call = warmup(sys.argv[1], Path(sys.argv[2]))
    t1 = time.perf_counter()
    first_call()
    result["first_call_s"] = time.perf_counter() - t1
print(json.dumps(result))
