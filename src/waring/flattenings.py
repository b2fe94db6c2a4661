"""Catalecticant matrices, rank profiles, and Grassmann skew-flattenings.

The rank of any of these matrices, divided by its value at a rank-one
point, certifies a lower bound on border rank; everything here is exact.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Mapping, Sequence

from .exactla import ExactMatrix
from .forms import HomogForm, fraction_from_str, fraction_to_str
from .indexing import (
    binomial,
    merge_sorted,
    monomial_tuples,
    sorted_concat_sign,
    subsets,
)


def cat_matrix(form: HomogForm, a: int) -> ExactMatrix:
    """Catalecticant of the (a, d-a) split.

    Rows are indexed by sorted degree-(d-a) tuples, columns by sorted
    degree-a tuples, both in lex order; the entry at (row, col) is the
    tensor component of the form at the merged tuple.
    """
    d = form.degree
    if not 1 <= a <= d - 1:
        raise ValueError(f"need 1 <= a <= {d - 1}, got {a}")
    rows = monomial_tuples(form.nvars, d - a)
    cols = monomial_tuples(form.nvars, a)
    comps = form.comps
    zero = Fraction(0)
    return ExactMatrix(
        [
            [comps.get(merge_sorted(beta, alpha), zero) for alpha in cols]
            for beta in rows
        ]
    )


def rank_profile(form: HomogForm) -> list[int]:
    """Exact catalecticant ranks for a = 1 .. floor(d/2).

    Ranks for larger a repeat by the transpose symmetry of the splits.
    """
    if form.degree < 2:
        raise ValueError("rank profile needs degree >= 2")
    return [cat_matrix(form, a).rank() for a in range(1, form.degree // 2 + 1)]


def cat_border_rank_lb(form: HomogForm) -> int:
    """Largest catalecticant rank: a certified border-rank lower bound."""
    if form.degree < 2:
        return 0 if form.is_zero() else 1
    return max(rank_profile(form))


def ternary_membership_consistent(
    form: HomogForm, r: int
) -> tuple[bool, dict]:
    """Rank-profile membership test for forms in three variables.

    Returns (consistent, report).  Consistency means every catalecticant
    rank equals min(r, C(a+2, 2)) for a = 1..floor(d/2); inside the
    validity window (r <= C(delta+1, 2) for even degree 2*delta, one more
    for odd) a consistent profile certifies membership in the r-th secant
    variety, outside it the report flags the window and the profile is
    informational only.
    """
    if form.nvars != 3:
        raise ValueError("membership test requires exactly 3 variables")
    d = form.degree
    delta = d // 2
    window = binomial(delta + 1, 2) + (1 if d % 2 else 0)
    profile = rank_profile(form)
    expected = [min(r, binomial(a + 2, 2)) for a in range(1, delta + 1)]
    consistent = profile == expected
    report = {
        "r": r,
        "profile": profile,
        "expected": expected,
        "window_bound": window,
        "within_window": r <= window,
        "consistent": consistent,
    }
    return consistent, report


# -- Grassmann skew-flattenings ---------------------------------------------------


class SkewTensor:
    """Element of the k-th exterior power of an m-dimensional space."""

    __slots__ = ("nvars", "step", "comps")

    def __init__(
        self,
        nvars: int,
        step: int,
        comps: Mapping[tuple[int, ...], Fraction] | None = None,
    ):
        if not 0 <= step <= nvars:
            raise ValueError("need 0 <= step <= nvars")
        clean: dict[tuple[int, ...], Fraction] = {}
        if comps:
            for key, val in comps.items():
                t = tuple(key)
                if len(t) != step or list(t) != sorted(set(t)):
                    raise ValueError(f"index set {t} must be strictly increasing")
                if any(i < 0 or i >= nvars for i in t):
                    raise ValueError(f"index set {t} out of range")
                v = Fraction(val)
                if v:
                    clean[t] = v
        self.nvars = nvars
        self.step = step
        self.comps = clean

    def component(self, t: Sequence[int]) -> Fraction:
        return self.comps.get(tuple(t), Fraction(0))

    def __add__(self, other: "SkewTensor") -> "SkewTensor":
        if (self.nvars, self.step) != (other.nvars, other.step):
            raise ValueError("mixed shapes")
        comps = dict(self.comps)
        for t, v in other.comps.items():
            comps[t] = comps.get(t, Fraction(0)) + v
        return SkewTensor(self.nvars, self.step, comps)

    def scale(self, c) -> "SkewTensor":
        c = Fraction(c)
        return SkewTensor(
            self.nvars, self.step, {t: c * v for t, v in self.comps.items()}
        )

    def is_zero(self) -> bool:
        return not self.comps


def wedge_of_vectors(vectors: Sequence[Sequence], nvars: int) -> SkewTensor:
    """Decomposable wedge v1 ^ ... ^ vk; components are k x k minors."""
    k = len(vectors)
    rows = [[Fraction(x) for x in v] for v in vectors]
    comps = {}
    for idx in subsets(nvars, k):
        minor = ExactMatrix([[row[j] for j in idx] for row in rows]).determinant()
        if minor:
            comps[idx] = minor
    return SkewTensor(nvars, k, comps)


def random_skew_sum(
    nvars: int, step: int, r: int, seed: int, height: int = 5
) -> tuple[SkewTensor, list[list[list[Fraction]]]]:
    """Deterministic sum of r random decomposable wedges."""
    rng = random.Random(seed)
    total = SkewTensor(nvars, step, {})
    groups = []
    for _ in range(r):
        while True:
            vecs = [
                [Fraction(rng.randint(-height, height)) for _ in range(nvars)]
                for _ in range(step)
            ]
            w = wedge_of_vectors(vecs, nvars)
            if not w.is_zero():
                break
        groups.append(vecs)
        total = total + w
    return total, groups


def grass_skew_flattening(t: SkewTensor, a: int) -> ExactMatrix:
    """Contraction matrix from a-th to (k-a)-th wedge powers.

    The entry at (row J, col I) is zero when I and J meet, otherwise the
    sign of the shuffle sorting the concatenation (I, J) times the
    component at the union.
    """
    k = t.step
    if not 1 <= a <= k - 1:
        raise ValueError(f"need 1 <= a <= {k - 1}, got {a}")
    rows = subsets(t.nvars, k - a)
    cols = subsets(t.nvars, a)
    zero = Fraction(0)
    out = []
    for J in rows:
        row = []
        for I in cols:
            s = sorted_concat_sign(I, J)
            row.append(s * t.comps.get(merge_sorted(I, J), zero) if s else zero)
        out.append(row)
    return ExactMatrix(out)


def grass_border_rank_lb(t: SkewTensor, a: int) -> int:
    """ceil(rank / C(k, a)): a border-rank lower bound on the Grassmannian."""
    r = grass_skew_flattening(t, a).rank()
    unit = binomial(t.step, a)
    return -(-r // unit)


# -- SkewTensor JSON ---------------------------------------------------------------


def to_skew_json(t: SkewTensor) -> dict:
    return {
        "vars": t.nvars,
        "step": t.step,
        "terms": [
            {"c": fraction_to_str(t.comps[idx]), "idx": list(idx)}
            for idx in sorted(t.comps)
        ],
    }


def skew_from_json(obj: Mapping) -> SkewTensor:
    try:
        nvars = int(obj["vars"])
        step = int(obj["step"])
        raw = obj["terms"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed skew tensor JSON: {exc}") from exc
    comps: dict[tuple[int, ...], Fraction] = {}
    for term in raw:
        try:
            c = fraction_from_str(term["c"])
            idx = tuple(int(i) for i in term["idx"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed term {term!r}: {exc}") from exc
        comps[idx] = comps.get(idx, Fraction(0)) + c
    return SkewTensor(nvars, step, comps)
