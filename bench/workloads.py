"""The benchmark's workloads: a fixed schedule of input shapes per workload,
seeded inputs of those shapes, one cold call per shape for set-up, and the
check of every output against the known answer.

Schedules are fixed; the seed only draws the points and coefficients, so
every seed runs the same mix.  Each (nvars, degree, r) row of a certify
schedule appears twice per cycle, generated with r and with r + 1 summands.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import check
from gen import fixed_case, make_case

HEIGHT = 5

# (nvars, degree, r): the special strategy rows plus small quaternary rows
CERTIFY_MIX = (
    (3, 3, 3), (3, 4, 4), (3, 5, 4), (3, 5, 5), (3, 5, 6), (3, 6, 7), (3, 6, 8),
    (3, 6, 9), (3, 7, 8), (3, 7, 9), (3, 7, 10), (4, 3, 3), (4, 4, 2), (4, 4, 3),
)
# generic-pair rows with large matrices
CERTIFY_LARGE = ((5, 5, 6), (4, 7, 8), (5, 8, 10), (6, 6, 12), (3, 9, 12), (3, 11, 20))
# (nvars, degree, split a, summands): kernel of the (a, d-a) catalecticant
APOLAR = (
    (3, 6, 3, 7), (3, 8, 4, 12), (3, 9, 4, 12), (4, 5, 2, 7), (4, 6, 3, 12),
    (4, 7, 3, 15), (5, 6, 3, 20),
)
# (argv, nvars, degree, summands, r): one cycle of CLI calls, one at a time.
# Per half: three fast calls, four sextic certifies (twisted build with a
# cold power-span basis) and one octic twisted export, so the median and
# the tail both fall inside the sextic certifies' band.
_CERT5 = ("certify", "--r", "5")
_CERT7 = ("certify", "--r", "7")
_PROFILE = ("rank-profile",)
_YF = ("matrix", "--kind", "yf", "--format", "json")
_TWISTED = ("matrix", "--kind", "twisted", "--format", "json")
CLI_COLD = (
    (_CERT5, 3, 5, 5, 5), (_CERT7, 3, 6, 7, 7), (_PROFILE, 3, 7, 9, 0),
    (_CERT7, 3, 6, 8, 7), (_YF, 3, 5, 6, 0), (_CERT7, 3, 6, 7, 7),
    (_CERT7, 3, 6, 8, 7), (_TWISTED, 3, 8, 12, 0),
    (_CERT5, 3, 5, 6, 5), (_CERT7, 3, 6, 8, 7), (_PROFILE, 3, 7, 10, 0),
    (_CERT7, 3, 6, 7, 7), (_YF, 3, 5, 5, 0), (_CERT7, 3, 6, 8, 7),
    (_CERT7, 3, 6, 7, 7), (_TWISTED, 3, 8, 12, 0),
)

WORKLOADS = ("certify-mix", "certify-large", "apolar-kernel", "cli-cold")
# Fixed per workload so runs and commits compare like with like.  Each sits
# in the middle of the cost band of one slow row of the schedule (a value
# on the edge between two rows flips between them from run to run) and
# leaves at least ten samples beyond it in a 20-second run at the
# throughput of the commit that defined the benchmark.
TAIL_PERCENTILE = {"certify-mix": 92, "certify-large": 87.5, "apolar-kernel": 93,
                   "cli-cold": 68}


def tested_flattenings(nvars: int, degree: int, r: int) -> tuple[str, ...]:
    """Flattenings whose generic rank the input must have (see gen.py): the
    catalecticants always, and the ternary Young or twisted flattening where
    certify, rank-profile or matrix reads it."""
    if nvars == 3 and degree % 2:
        return ("cat", "yf")
    if nvars == 3 and (degree == 8 or (degree == 6 and r in (7, 8))):
        return ("cat", "twisted")
    return ("cat",)


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


def _form(waring, case):
    return waring.HomogForm(case.nvars, case.degree, case.comps)


def _case(rng, nvars, degree, r_gen, r):
    return make_case(rng, nvars, degree, r_gen, HEIGHT, r,
                     tested_flattenings(nvars, degree, r))


def _certify_op(waring, case) -> Op:
    form = _form(waring, case)
    return Op(
        f"certify n{case.nvars} d{case.degree} r{case.r}",
        lambda: waring.certify(form, case.r),
        lambda report: check.check_certify(case, report.to_json()),
    )


def _kernel_op(waring, case) -> Op:
    form = _form(waring, case)
    return Op(
        f"kernel n{case.nvars} d{case.degree} a{case.r}",
        lambda: waring.kernel_base_locus_hint(form, case.r),
        lambda forms: check.check_kernel(case, forms),
    )


class OpStream:
    """A workload's operations, generated on first use from one seeded
    stream: operation i is the same for a given seed however long the run.
    Without `keep`, an operation is dropped once a later one is generated,
    so memory does not grow with the length of the run."""

    def __init__(self, name: str, waring, seed: int, runner=None, keep=False):
        self.rng = random.Random(f"{name}:{seed}")
        self.keep = keep
        self.ops: list[Op | None] = []
        if name in ("certify-mix", "certify-large"):
            rows = CERTIFY_MIX if name == "certify-mix" else CERTIFY_LARGE
            cycle = [(nv, d, r, r + extra) for nv, d, r in rows for extra in (0, 1)]
            self.make = lambda nv, d, r, s: _certify_op(waring, _case(self.rng, nv, d, s, r))
        elif name == "apolar-kernel":
            cycle = [(nv, d, a, s) for nv, d, a, s in APOLAR]
            self.make = lambda nv, d, a, s: _kernel_op(waring, _case(self.rng, nv, d, s, a))
        else:
            cycle = CLI_COLD
            self.make = lambda argv, nv, d, s, r: runner.op(argv, _case(self.rng, nv, d, s, r))
        self.cycle = cycle

    def __getitem__(self, i: int) -> Op:
        while len(self.ops) <= i:
            if self.ops and not self.keep:
                self.ops[-1] = None
            self.ops.append(self.make(*self.cycle[len(self.ops) % len(self.cycle)]))
        return self.ops[i]


def warmups(name: str, waring) -> list[Callable[[], object]]:
    """One cold call per distinct (call kind, nvars, degree), on a fixed
    single-power input: fills the package's caches without rank-heavy work."""
    if name in ("certify-mix", "certify-large"):
        rows = CERTIFY_MIX if name == "certify-mix" else CERTIFY_LARGE
        firsts = {}
        for nv, d, r in rows:
            firsts.setdefault((nv, d), r)
        return [
            lambda form=_form(waring, fixed_case(nv, d)), r=r: waring.certify(form, r)
            for (nv, d), r in firsts.items()
        ]
    if name == "apolar-kernel":
        return [
            lambda form=_form(waring, fixed_case(nv, d)), a=a: waring.kernel_base_locus_hint(form, a)
            for nv, d, a, _ in APOLAR
        ]

    def form(nv, d):
        return _form(waring, fixed_case(nv, d))

    return [
        lambda: waring.certify(form(3, 5), 5),
        lambda: waring.certify(form(3, 6), 7),
        lambda: waring.rank_profile(form(3, 7)),
        lambda: waring.young_flattening(form(3, 5)),
        lambda: waring.symmetric_twisted_flattening(form(3, 8), 3),
    ]


# -- cli-cold ------------------------------------------------------------------------


def polynomial_json(case) -> dict:
    """The documented polynomial JSON, tensor convention, written here so the
    input does not pass through the program before the timed call."""
    terms = []
    for t in sorted(case.comps):
        e = [0] * case.nvars
        for i in t:
            e[i] += 1
        terms.append({"c": str(case.comps[t]), "e": e})
    return {"vars": case.nvars, "degree": case.degree, "convention": "tensor",
            "terms": terms}


@dataclass
class CliResult:
    code: int
    stdout: Path
    spans: Path | None


class CliRunner:
    """Starts one fresh interpreter per call and waits for it to end.

    Untraced calls run ``python -m waring``; traced calls run the
    benchmark's launcher, which installs the tracer and calls
    ``waring.cli.main``.  Peak RSS is read per child from wait4."""

    TIMEOUT_S = 60

    def __init__(self, root: Path, out_dir: Path, env: dict):
        self.root = root
        self.out_dir = out_dir
        self.env = env
        self.traced = False
        self.max_rss_kb = 0
        self._count = 0

    def op(self, argv, case) -> Op:
        path = self.out_dir / f"cli-input-{self._count}.json"
        self._count += 1
        path.write_text(json.dumps(polynomial_json(case)))
        full = (*argv, "--input", str(path))
        command = f"matrix {argv[2]}" if argv[0] == "matrix" else argv[0]
        return Op(
            f"cli {command} n{case.nvars} d{case.degree}",
            lambda: self.call(full),
            lambda res: self.check(argv, case, res),
        )

    def call(self, argv) -> CliResult:
        stdout = self.out_dir / "cli-stdout.txt"
        env = self.env
        spans = None
        if self.traced:
            spans = self.out_dir / "cli-spans.json"
            env = dict(env, BENCH_SPANS=str(spans), BENCH_SPAWN_T=repr(time.time()))
            cmd = [sys.executable, str(self.root / "bench" / "launch.py"), *argv]
        else:
            cmd = [sys.executable, "-m", "waring", *argv]
        with open(stdout, "wb") as out, open(self.out_dir / "cli-stderr.txt", "wb") as err:
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=self.root)
            timer = threading.Timer(self.TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.max_rss_kb = max(self.max_rss_kb, usage.ru_maxrss)
        return CliResult(proc.returncode, stdout, spans)

    def check(self, argv, case, res: CliResult):
        cmd = argv[0]
        want_code = 10 if cmd == "certify" and case.r_gen > case.r else 0
        if res.code != want_code:
            return f"exit code {res.code}, expected {want_code}"
        payload = json.loads(res.stdout.read_text())
        if cmd == "certify":
            return check.check_certify(case, payload)
        if cmd == "rank-profile":
            return check.check_rank_profile(case, payload)
        if argv[2] == "yf":  # ternary quintic: skew 18x18 of rank 2 per summand
            return check.check_matrix(case, payload, (18, 18), 2 * case.r_gen, -1)
        # ternary octic: symmetric 60x60 twisted flattening of rank 3 per summand
        return check.check_matrix(case, payload, (60, 60), 3 * case.r_gen, 1)
