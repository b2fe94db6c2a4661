"""Traced stand-in for ``python -m waring``: installs the tracer, calls
``waring.cli.main(argv)`` as one operation, and writes its spans, its
start-up times and its exit code to the file named by BENCH_SPANS.

BENCH_SPAWN_T holds the parent's wall-clock time just before the spawn,
so interpreter start-up is the time from then to the first line here.
"""

import time

_start = time.time()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from time import perf_counter  # noqa: E402

_t0 = perf_counter()
import waring.cli  # noqa: E402

_import_s = perf_counter() - _t0

from tracer import Tracer  # noqa: E402


def main() -> int:
    tracer = Tracer()
    tracer.install()
    tracer.begin_op(0)
    try:
        code = waring.cli.main(sys.argv[1:])
    finally:
        tracer.end_op()
        dump = tracer.dump()
        dump["overhead_s"] = tracer.overhead
        dump["interpreter_s"] = _start - float(os.environ["BENCH_SPAWN_T"])
        dump["import_s"] = _import_s
        with open(os.environ["BENCH_SPANS"], "w", encoding="utf-8") as fh:
            json.dump(dump, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
