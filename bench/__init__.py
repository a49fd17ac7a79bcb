"""The benchmark of record for the CLARE clause-retrieval service.

Everything here drives the program (`src/repro`) from outside: it
generates seeded knowledge bases, spawns one server subprocess per
workload, drives it closed-loop over the wire, checks every answer
against an oracle and reports end-to-end and per-layer metrics.  See
``bench/README.md`` for the workloads and the metric names.
"""

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

# The program under test runs straight from ``src/``; the benchmark's
# command names no path outside ``bench/``, so the package adds it.
_SRC = str(ROOT / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
