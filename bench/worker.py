"""One benchmark process: set-up, then the measured operations.

Started by run.py.  Prints ``READY <seconds of cold calls>`` once set-up is
done (``import waring`` plus the workload's cold calls), then, unless
--setup-only, runs the workload closed-loop with one caller and prints
``RESULT <json>``.

Untraced (--trace 0): operations run until their summed wall time reaches
--seconds.  Traced (--trace 1): an untraced pass of --seconds / 3, then an
untraced and a traced pass over exactly the same operations; those two
give the tracing overhead and the traced pass the per-layer numbers.

Every quarter second of operations the reference loop (refloop.py) is
timed, and each operation's wall time is scaled by NOMINAL_S over the
median of the five reference samples nearest to it.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import math
import os
import resource
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import workloads
from refloop import NOMINAL_S, reference_seconds
from tracer import SPAN_NAMES, Tracer, add_totals, self_by_op

REFERENCE_EVERY_S = 0.25


@dataclass
class Record:
    label: str
    wall: float  # seconds
    scaled: float = 0.0  # seconds at the reference speed
    bookkeeping: float = 0.0  # tracer seconds inside `wall`
    error: str | None = None
    child: dict | None = None  # traced CLI child's spans


def measure(ops, seconds=None, count=None, tracer=None) -> list[Record]:
    """Closed loop over `ops` from the first, until `seconds` of operation
    wall time or `count` operations; failures are recorded, not raised."""
    records: list[Record] = []
    refs: list[tuple[int, float]] = []  # (operation index, reference seconds)
    spent = 0.0
    since_ref = REFERENCE_EVERY_S
    i = 0
    while (spent < seconds) if count is None else (i < count):
        if since_ref >= REFERENCE_EVERY_S:
            refs.append((i, reference_seconds()))
            since_ref = 0.0
        op = ops[i]
        if tracer is not None:
            tracer.begin_op(i)
        t0 = perf_counter()
        try:
            out = op.run()
            err = None
        except Exception as exc:  # a raising call is a counted failure
            out, err = None, f"raised {type(exc).__name__}: {exc}"
        rec = Record(op.label, perf_counter() - t0)
        if tracer is not None:
            rec.bookkeeping = tracer.end_op()
        if err is None:
            try:
                err = op.check(out)
            except Exception as exc:  # unreadable output is a wrong output
                err = f"unreadable output: {type(exc).__name__}: {exc}"
        rec.error = err
        if isinstance(out, workloads.CliResult) and out.spans is not None:
            rec.child = json.loads(out.spans.read_text())
            out.spans.unlink()
            for s in rec.child["spans"]:
                s[4] = i
            rec.bookkeeping += rec.child["overhead_s"]
        records.append(rec)
        spent += rec.wall
        since_ref += rec.wall
        i += 1
    refs.append((i, reference_seconds()))
    starts = [k for k, _ in refs]
    for j, rec in enumerate(records):
        at = bisect.bisect_right(starts, j) - 1
        near = [s for _, s in refs[max(0, at - 2):at + 3]]
        rec.scaled = rec.wall * NOMINAL_S / statistics.median(near)
    return records


def latency_metrics(times: list[float], tail_pct: float) -> tuple[float, float, float, int]:
    """(ops per second, p50 ms, tail ms, samples beyond the tail); the tail
    is the nearest-rank value at the workload's tail percentile."""
    lat = sorted(times)
    rank = max(1, math.ceil(tail_pct / 100 * len(lat)))
    return (len(lat) / sum(lat), statistics.median(lat) * 1000,
            lat[rank - 1] * 1000, len(lat) - rank)


def end_to_end(records: list[Record], peak_rss_kb, tail_pct) -> tuple[dict, dict]:
    n = len(records)
    ops, p50, tail, beyond = latency_metrics([r.scaled for r in records], tail_pct)
    raw_ops, raw_p50, raw_tail, _ = latency_metrics([r.wall for r in records], tail_pct)
    metrics = {
        "ops_per_s": (ops, "1/s"),
        "latency_p50_ms": (p50, "ms"),
        "latency_tail_ms": (tail, "ms"),
        "peak_rss_mb": (peak_rss_kb / 1024, "MB"),
    }
    details = {
        "unscaled": {"ops_per_s": raw_ops, "latency_p50_ms": raw_p50,
                     "latency_tail_ms": raw_tail},
        "tail_percentile": tail_pct,
        "tail_samples_beyond": beyond,
        "samples": n,
        "failed_frac": sum(1 for r in records if r.error) / n,
        "latencies_ms": [[r.label, round(r.wall * 1000, 4), round(r.scaled * 1000, 4)]
                         for r in records],
    }
    return metrics, details


def per_layer(untraced: list[Record], traced: list[Record], tracer) -> tuple[dict, list]:
    n = len(traced)
    totals: dict = {}
    add_totals(totals, tracer.spans)
    counters = dict(tracer.counters)
    by_op = self_by_op(tracer.spans)
    children = [r.child for r in traced if r.child is not None]
    for i, r in enumerate(traced):
        if r.child is None:
            continue
        add_totals(totals, r.child["spans"])
        for key, v in r.child["counters"].items():
            counters[key] = max(counters[key], v) if key == "rank_max_bits" else counters[key] + v
        by_op[i] = dict(self_by_op(r.child["spans"]).get(i, {}), **{
            "cli.interpreter": r.child["interpreter_s"], "cli.import": r.child["import_s"]})
    metrics = {}
    for name in SPAN_NAMES:
        calls, total, own = totals.get(name, (0, 0.0, 0.0))
        metrics[f"{name}.calls"] = (calls / n, "1/op")
        metrics[f"{name}.total_ms"] = (total * 1000 / n, "ms/op")
        metrics[f"{name}.self_ms"] = (own * 1000 / n, "ms/op")
    certify_calls = totals.get("invariants.certify", (0,))[0]
    rank_calls = counters["certify_rank_calls"]

    def child_mean_ms(key):
        return 1000 * sum(c[key] for c in children) / len(children) if children else 0.0

    metrics.update({
        "exactla.rank.cells": (counters["rank_cells"] / n, "cells/op"),
        "exactla.rank.max_bits": (counters["rank_max_bits"], "bits"),
        "youngflat.power_span_basis.misses": (counters["power_span_misses"] / n, "1/op"),
        "invariants.certify.rank_calls_per_op": (
            rank_calls / certify_calls if certify_calls else 0.0, "1/op"),
        "invariants.certify.repeat_rank_frac": (
            counters["certify_repeat_ranks"] / rank_calls if rank_calls else 0.0, "ratio"),
        "cli.interpreter_ms": (child_mean_ms("interpreter_s"), "ms"),
        "cli.import_ms": (child_mean_ms("import_s"), "ms"),
        "trace.overhead_frac": (
            sum(r.scaled for r in traced) / sum(r.scaled for r in untraced) - 1, "ratio"),
        "trace.op_ms": (1000 * sum(r.wall - r.bookkeeping for r in traced) / n, "ms"),
    })
    # where each kind of operation spends its time, for the printed report
    groups: dict = {}
    for i, r in enumerate(traced):
        g = groups.setdefault(r.label, {"ops": 0, "op_s": 0.0, "self": {}})
        g["ops"] += 1
        g["op_s"] += r.wall - r.bookkeeping
        for name, s in by_op.get(i, {}).items():
            g["self"][name] = g["self"].get(name, 0.0) + s
    breakdown = []
    for label, g in sorted(groups.items()):
        top = sorted(g["self"].items(), key=lambda kv: -kv[1])[:4]
        breakdown.append({
            "label": label,
            "ops": g["ops"],
            "op_ms": 1000 * g["op_s"] / g["ops"],
            "self_share": {k: v / g["op_s"] for k, v in top},
        })
    return metrics, breakdown


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--root", required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)
    root = Path(args.root)

    import numpy
    import waring

    if Path(waring.__file__).resolve().parent != (root / "src" / "waring").resolve():
        print(f"error: imported waring from {waring.__file__}", file=sys.stderr)
        return 3
    t0 = perf_counter()
    for call in workloads.warmups(args.workload, waring):
        call()
    print(f"READY {perf_counter() - t0!r}", flush=True)
    if args.setup_only:
        return 0

    runner = None
    if args.workload == "cli-cold":
        runner = workloads.CliRunner(root, root / ".bench_out", dict(os.environ))
    ops = workloads.OpStream(args.workload, waring, args.seed, runner, keep=bool(args.trace))
    gc.collect()

    if not args.trace:
        records = measure(ops, seconds=args.seconds)
        rss = runner.max_rss_kb if runner else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics, details = end_to_end(records, rss, workloads.TAIL_PERCENTILE[args.workload])
    else:
        # the first pass also generates the inputs; the overhead compares
        # the second (untraced) and third (traced) passes over the same ops
        first = measure(ops, seconds=args.seconds / 3)
        untraced = measure(ops, count=len(first))
        tracer = Tracer()
        tracer.install()
        if runner:
            runner.traced = True
        traced = measure(ops, count=len(first), tracer=tracer)
        metrics, breakdown = per_layer(untraced, traced, tracer)
        details = {"samples": len(traced), "breakdown": breakdown}
        records = first + untraced + traced
    failures = [f"{r.label}: {r.error}" for r in records if r.error]
    result = {
        "attempted": len(records),
        "failed": len(failures),
        "failures": failures[:10],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "details": details,
        "env": {"python": sys.version.split()[0], "numpy": numpy.__version__},
    }
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
