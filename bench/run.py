"""waring benchmark: one command, four workloads, every output checked.

    python3 bench/run.py --workload certify-mix --seed 1 --seconds 20 --trace 0

The package is taken from ``src/`` next to this directory.  Workloads
(workloads.py): certify-mix, certify-large, apolar-kernel, cli-cold.

--trace 0 prints the end-to-end metrics: setup_s (median over five fresh
processes, each from spawn to the end of ``import waring`` plus one cold
call per input shape), ops_per_s, latency_p50_ms, latency_tail_ms (at the
workload's fixed tail percentile) and peak_rss_mb.  --trace 1 prints the
per-layer metrics of a traced run instead.  Times are scaled to a fixed
machine speed by reference work timed alongside (refloop.py); the
unscaled figures are printed too.  The last line of standard output is
one JSON object, {"correct", "attempted", "failed", "metrics"}; the lines
before it, and .bench_out/result-*.json, record the environment and the
details.

Environment: WARING_THREADS is removed so certify stays single-threaded,
BLAS thread pools get one thread, every process of a run is pinned to one
CPU, and processes run one at a time.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from refloop import NOMINAL_IMPORT_S, NOMINAL_S, import_reference_seconds, reference_median
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SETUP_SAMPLES = 5
DEADLINE_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("WARING_THREADS", None)
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def source_record() -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "waring").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or None
    except OSError:
        commit = None
    return {"commit": commit, "src_sha256": digest.hexdigest()[:16]}


class Worker:
    """A worker process; `ready_s` is the time from spawn to its READY line,
    `warm_s` the part of it the cold calls took."""

    def __init__(self, args, setup_only: bool, deadline: float):
        cmd = [sys.executable, str(ROOT / "bench" / "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--root", str(ROOT)]
        if setup_only:
            cmd.append("--setup-only")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(),
                                     cwd=ROOT, text=True)
        self.timer = threading.Timer(max(1.0, deadline - time.monotonic()), self.proc.kill)
        self.timer.start()
        line = self.proc.stdout.readline().split()
        self.ready_s = time.perf_counter() - t0 if line[:1] == ["READY"] else None
        self.warm_s = float(line[1]) if self.ready_s is not None else None

    def finish(self) -> dict | None:
        result = None
        for line in self.proc.stdout:
            if line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
        self.proc.wait()
        self.timer.cancel()
        return result if self.proc.returncode == 0 else None

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.timer.cancel()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "waring" / "__init__.py").is_file():
        print(f"error: no waring package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    # one CPU for every process of the run, so the reference loop times the
    # CPU the operations run on; children inherit the affinity
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    # bytecode is built once, outside any timing, as an installed package would be
    compileall.compile_dir(str(ROOT / "src" / "waring"), quiet=1)

    def references():
        return import_reference_seconds(), reference_median()

    setups = []  # (scaled, unscaled) seconds from spawn to READY
    workers = []
    try:
        samples = SETUP_SAMPLES if not args.trace else 1
        before = references()
        for k in range(samples):
            w = Worker(args, k < samples - 1, deadline)
            workers.append(w)
            if w.ready_s is None:
                break
            if k < samples - 1:
                w.finish()
                after = references()
            else:
                after = before  # the measuring worker is running now
            # start-up and imports scale with the import reference, the
            # cold calls (Python computation) with the reference loop
            imports_ref, loop_ref = ((a + b) / 2 for a, b in zip(before, after))
            scaled = ((w.ready_s - w.warm_s) * NOMINAL_IMPORT_S / imports_ref
                      + w.warm_s * NOMINAL_S / loop_ref)
            setups.append((scaled, w.ready_s))
            before = after
        result = w.finish()
    finally:
        for w in workers:
            w.stop()
    if result is None or len(setups) < samples:
        print("error: a benchmark process failed", file=sys.stderr)
        return 1

    metrics = result["metrics"]
    if not args.trace:
        metrics = {"setup_s": {"value": statistics.median(s for s, _ in setups), "unit": "s"},
                   **metrics}
        result["details"]["setup_samples_s"] = [raw for _, raw in setups]
        result["details"]["unscaled"]["setup_s"] = statistics.median(raw for _, raw in setups)
    env = {
        **result["env"], "nproc": os.cpu_count(), **source_record(),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "blas_threads": 1, "waring_threads": None, "cpu": cpu,
    }
    record = {"env": env, "attempted": result["attempted"], "failed": result["failed"],
              "failures": result["failures"], "metrics": metrics,
              "details": result["details"]}
    out = ROOT / ".bench_out" / f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1))

    print("# env " + json.dumps(env))
    for name, m in metrics.items():
        print(f"# {name:48s} {m['value']:14.6g} {m['unit']}")
    d = result["details"]
    if not args.trace:
        for name, v in d["unscaled"].items():
            print(f"# {name + ' unscaled':48s} {v:14.6g} {metrics[name]['unit']}")
        print(f"# latency_tail_ms is p{d['tail_percentile']:.1f}: "
              f"{d['tail_samples_beyond']} of {d['samples']} samples beyond it")
        print(f"# failed_frac {d['failed_frac']:.4f} ({result['failed']} of {result['attempted']})")
    else:
        for g in d["breakdown"]:
            shares = ", ".join(f"{k} {v:.0%}" for k, v in g["self_share"].items())
            print(f"# {g['label']:28s} {g['ops']:5d} ops {g['op_ms']:9.2f} ms/op  self: {shares}")
    for f in result["failures"]:
        print(f"# FAILED {f}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
