"""Run `lissbraid.cli` under the span tracer and write the spans out.

Usage: python3 bench_child.py OUT.json MEMORY CLI-ARGS...

Behaves like `python -m lissbraid.cli CLI-ARGS...` (same output, exit
code and tracebacks) and writes {"import_ns": ..., "spans": [...]} to
OUT.json when the command ends.  MEMORY 1 also records tracemalloc
peaks.
"""

import json
import sys
import time

from bench_trace import Tracer

out_path, memory, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
t0 = time.perf_counter_ns()
import lissbraid.cli  # noqa: E402
import_ns = time.perf_counter_ns() - t0

tracer = Tracer(memory=memory)
tracer.install()
try:
    code = tracer.run_op(0, "cli.main", lissbraid.cli.main, argv)
finally:
    tracer.uninstall()
    with open(out_path, "w", encoding="utf-8") as fh:
        # drop the root span; its children become roots
        spans = [[*s[:2], s[2] - 1 if s[2] > 0 else -1, *s[3:]] for s in tracer.spans[1:]]
        json.dump({"import_ns": import_ns, "spans": spans}, fh)
sys.exit(code)
