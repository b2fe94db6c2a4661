"""Outside-in tracer for the waring package.

`Tracer.install` replaces each traced public function by a wrapper at every
place the function is bound (the package modules import names with
``from .x import y``, so one function can be bound in several modules) and
wraps the `ExactMatrix` methods on the class.  Nothing inside the package
is edited.  A wrapper records a span only while an operation is open:
name, start, end, parent span and operation id.  Spans stay in memory
until the run ends.

Time the tracer spends on its own bookkeeping is accumulated and
subtracted from every span that contains it, so self times are those of
the program, and the difference between a traced and an untraced run of
the same operations is the tracing overhead.
"""

from __future__ import annotations

import functools
import sys
from fractions import Fraction
from time import perf_counter

FUNCTIONS = {
    "flattenings": ("cat_matrix", "rank_profile"),
    "youngflat": (
        "young_flattening",
        "symmetric_twisted_flattening",
        "flattening_from_power_rule",
        "power_span_basis",
    ),
    "invariants": ("certify", "aronhold", "sextic_det33"),
    "decompose": ("kernel_base_locus_hint",),
    "forms": ("polynomial_from_json", "to_polynomial_json"),
    "cli": ("main",),
}
# ExactMatrix methods, reported under the `exactla` layer
METHODS = ("rank", "kernel_basis", "rref", "determinant", "pfaffian", "inverse")

SPAN_NAMES = tuple(
    [f"{mod}.{fn}" for mod, fns in FUNCTIONS.items() for fn in fns]
    + [f"exactla.{m}" for m in METHODS]
)

# span fields
NAME, START, END, PARENT, OP, OVH_START, OVH_END = range(7)


def entry_bits(x) -> int:
    if isinstance(x, Fraction):
        return max(abs(x.numerator).bit_length(), x.denominator.bit_length())
    return abs(int(x)).bit_length()


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = None
        self.overhead = 0.0
        self.counters = {
            "rank_cells": 0,
            "rank_max_bits": 0,
            "certify_rank_calls": 0,
            "certify_repeat_ranks": 0,
            "power_span_misses": 0,
        }
        self._seen: dict[int, set] = {}
        self._psb = None
        self._op_overhead = 0.0
        self._op_misses = 0

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        import waring.cli  # noqa: F401  (loads every traced module)

        modules = [
            m for name, m in list(sys.modules.items())
            if name == "waring" or name.startswith("waring.")
        ]
        for modname, names in FUNCTIONS.items():
            mod = sys.modules["waring." + modname]
            for fname in names:
                orig = getattr(mod, fname)
                if fname == "power_span_basis":
                    self._psb = orig
                wrapper = self._wrap(f"{modname}.{fname}", orig)
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, attr, wrapper)
        cls = sys.modules["waring.exactla"].ExactMatrix
        for meth in METHODS:
            orig = cls.__dict__[meth]
            setattr(cls, meth, self._wrap(f"exactla.{meth}", orig, meth == "rank"))

    def _wrap(self, name, fn, is_rank=False):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            t = perf_counter()
            if is_rank:
                tracer._count_rank(args[0])
            stack = tracer.stack
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op, 0.0, 0.0]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            now = perf_counter()
            tracer.overhead += now - t
            span[OVH_START] = tracer.overhead
            span[START] = now
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                span[END] = end
                span[OVH_END] = tracer.overhead
                stack.pop()
                tracer.overhead += perf_counter() - end

        if hasattr(fn, "cache_info"):
            traced.cache_info = fn.cache_info
        return traced

    def _count_rank(self, m) -> None:
        c = self.counters
        c["rank_cells"] += m.nrows * m.ncols
        bits = max((entry_bits(x) for row in m.rows for x in row), default=0)
        c["rank_max_bits"] = max(c["rank_max_bits"], bits)
        owner = next(
            (i for i in reversed(self.stack) if self.spans[i][NAME] == "invariants.certify"),
            None,
        )
        if owner is None:
            return
        c["certify_rank_calls"] += 1
        seen = self._seen.setdefault(owner, set())
        key = hash((m.shape, m.rows))
        if key in seen:
            c["certify_repeat_ranks"] += 1
        else:
            seen.add(key)

    # -- operations --------------------------------------------------------------

    def _misses(self) -> int:
        return self._psb.cache_info().misses if self._psb is not None else 0

    def begin_op(self, op_id) -> None:
        self._op_misses = self._misses()
        self._op_overhead = self.overhead
        self.op = op_id

    def end_op(self) -> float:
        """Close the operation; returns the bookkeeping seconds spent in it."""
        self.op = None
        self._seen.clear()
        self.counters["power_span_misses"] += self._misses() - self._op_misses
        return self.overhead - self._op_overhead

    def dump(self) -> dict:
        return {"spans": self.spans, "counters": self.counters}


def span_durations(spans):
    """Per-span (duration, self time) in seconds, bookkeeping removed."""
    dur = [(s[END] - s[START]) - (s[OVH_END] - s[OVH_START]) for s in spans]
    child = [0.0] * len(spans)
    for s, d in zip(spans, dur):
        if s[PARENT] >= 0:
            child[s[PARENT]] += d
    return [(d, d - c) for d, c in zip(dur, child)]


def add_totals(totals: dict, spans) -> None:
    """Accumulate calls / total / self seconds per span name into `totals`."""
    for s, (d, own) in zip(spans, span_durations(spans)):
        t = totals.setdefault(s[NAME], [0, 0.0, 0.0])
        t[0] += 1
        t[1] += d
        t[2] += own


def self_by_op(spans) -> dict:
    """{op id: {span name: self seconds}}."""
    out: dict = {}
    for s, (_, own) in zip(spans, span_durations(spans)):
        per = out.setdefault(s[OP], {})
        per[s[NAME]] = per.get(s[NAME], 0.0) + own
    return out
