"""Time one set-up: import loewner and build a workload's batch.

Usage: python3 perfbench/setup_probe.py <workload> <seed>

Prints the elapsed seconds, measured from the first statement of this
process, as its only line.  The benchmark runs it in fresh processes because
a user pays the import on every command-line run.
"""

import time

_T0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

_HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(_HERE.parent / "src"), str(_HERE)]

import loewner  # noqa: E402,F401
import workloads  # noqa: E402

workloads.build(sys.argv[1], int(sys.argv[2]))
print(repr(time.perf_counter() - _T0))
