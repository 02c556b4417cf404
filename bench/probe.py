"""Set-up probe: one fresh interpreter's time to import the CLI and finish
one warm-up op.

    python bench/probe.py SRC_DIR EXPECTED_CODE ARGV_JSON

Prints {"setup_s": ..., "code": ..., "ok": ...} as its only line.  The
clock starts before anything but `time` is imported.
"""

import time

t0 = time.perf_counter()

import sys  # noqa: E402

sys.path.insert(0, sys.argv[1])

import io  # noqa: E402
import json  # noqa: E402

from kuniform.cli import run  # noqa: E402

real_stdout, sys.stdout = sys.stdout, io.StringIO()
try:
    code, _ = run(json.loads(sys.argv[3]))
finally:
    sys.stdout = real_stdout
setup_s = time.perf_counter() - t0
print(json.dumps({"setup_s": setup_s, "code": code, "ok": code == int(sys.argv[2])}))
