"""Reference work for scaling wall times to a fixed machine speed.

The host's speed drifts by up to 2x over tens of seconds (other tenants
share the cores), far more than the differences a regression gate must
see.  The benchmark therefore times fixed reference work next to what it
measures and multiplies each measured time by nominal / reference:

* operations: fraction-free elimination on a fixed 40 x 40 integer matrix
  (Python big-integer arithmetic like the program's own), NOMINAL_S;
* set-up: a fresh interpreter importing a fixed list of standard-library
  modules (process start and imports like the program's own set-up),
  NOMINAL_IMPORT_S, for the part before the cold calls, and the loop
  above for the cold calls.

Scaled times read as times on a machine where the references take their
nominal values; unscaled times are reported next to them.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
from time import perf_counter

NOMINAL_S = 0.010
NOMINAL_IMPORT_S = 0.120
_IMPORTS = ("import argparse, concurrent.futures, dataclasses, decimal, email.message, "
            "fractions, json, random, typing, unittest, xml.dom.minidom")
_N = 40
_MATRIX = [
    [(7 * i + 13 * j) % 19 - 9 + (120 if i == j else 0) for j in range(_N)]
    for i in range(_N)
]


def reference_seconds() -> float:
    """Wall seconds of one pass of the fixed elimination."""
    t0 = perf_counter()
    m = [row[:] for row in _MATRIX]
    prev = 1
    for k in range(_N - 1):
        p = m[k][k]
        row_k = m[k]
        for i in range(k + 1, _N):
            row_i = m[i]
            f = row_i[k]
            for j in range(k + 1, _N):
                row_i[j] = (p * row_i[j] - f * row_k[j]) // prev
        prev = p
    return perf_counter() - t0


def reference_median(samples: int = 3) -> float:
    return statistics.median(reference_seconds() for _ in range(samples))


def import_reference_seconds(samples: int = 3) -> float:
    """Median wall seconds of a fresh isolated interpreter doing _IMPORTS."""
    times = []
    for _ in range(samples):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-I", "-c", _IMPORTS], check=True, timeout=60)
        times.append(perf_counter() - t0)
    return statistics.median(times)
