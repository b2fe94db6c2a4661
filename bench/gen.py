"""Seeded inputs whose answers are known from how they were made.

Every input is a sum of d-th powers of integer points of bounded height
with nonzero integer coefficients.  Genericity rule, fixed before any
run and computed here, never by the program under test:

* a point is redrawn when it is zero or proportional to one already drawn;
* the whole set is redrawn when one of the flattenings the input is meant
  for has less than its generic rank, min(rank at a power x summands,
  rows, cols), computed modulo a prime from the benchmark's own
  construction.  Small-height draws do land in special position (three
  collinear points among four, say), where a lower border rank is the
  right answer; this rule keeps the expected answer exact.

Inputs are never filtered, redrawn or resized because of what the
program does with them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations_with_replacement
from math import gcd, prod

import numpy as np

COEFFS = (-3, -2, -1, 1, 2, 3)
PRIME = 2_147_483_629  # below 2^31, so products of residues fit in int64


@dataclass(frozen=True)
class Case:
    """One generated input: the form and the points it was built from."""

    nvars: int
    degree: int
    points: tuple[tuple[int, ...], ...]
    coeffs: tuple[int, ...]
    comps: dict  # sorted index tuple -> integer tensor component
    r: int = 0  # secant index asked about (certify) or catalecticant split (kernel)

    @property
    def r_gen(self) -> int:
        return len(self.points)


def direction(v) -> tuple[int, ...]:
    """Primitive integer representative with a positive leading entry."""
    g = 0
    for x in v:
        g = gcd(g, x)
    w = [x // g for x in v]
    if next(x for x in w if x) < 0:
        w = [-x for x in w]
    return tuple(w)


def draw_points(rng: random.Random, nvars: int, count: int, height: int):
    """`count` pairwise non-proportional nonzero points in [-height, height]^nvars."""
    points: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    while len(points) < count:
        v = tuple(rng.randint(-height, height) for _ in range(nvars))
        if not any(v):
            continue
        key = direction(v)
        if key in seen:
            continue
        seen.add(key)
        points.append(v)
    return tuple(points)


def power_sum_components(nvars: int, degree: int, points, coeffs) -> dict:
    """Tensor components of sum_i c_i l_i^d: the component at a sorted
    index tuple t is sum_i c_i prod_k l_i[t_k]."""
    comps = {}
    for t in combinations_with_replacement(range(nvars), degree):
        v = sum(c * prod(p[k] for k in t) for c, p in zip(coeffs, points))
        if v:
            comps[t] = v
    return comps


# -- reference flattenings modulo PRIME ------------------------------------------------


def rank_mod_p(m: np.ndarray) -> int:
    """Rank over GF(PRIME), a lower bound on the rank over Q."""
    m = m % PRIME
    rank = 0
    for col in range(m.shape[1]):
        nz = np.flatnonzero(m[rank:, col])
        if not nz.size:
            continue
        piv = rank + nz[0]
        m[[rank, piv]] = m[[piv, rank]]
        m[rank] = m[rank] * pow(int(m[rank, col]), PRIME - 2, PRIME) % PRIME
        below = m[rank + 1:]
        below -= np.outer(below[:, col], m[rank]) % PRIME
        below %= PRIME
        rank += 1
        if rank == m.shape[0]:
            break
    return rank


def veronese(p, degree) -> list[int]:
    return [prod(p[k] for k in t) for t in combinations_with_replacement(range(len(p)), degree)]


def cat_reference(case: Case, a: int) -> np.ndarray:
    rows = combinations_with_replacement(range(case.nvars), case.degree - a)
    cols = list(combinations_with_replacement(range(case.nvars), a))
    return np.array([
        [case.comps.get(tuple(sorted(b + c)), 0) % PRIME for c in cols] for b in rows
    ], dtype=np.int64)


def _sum_of_terms(case: Case, term) -> np.ndarray:
    total = None
    for c, p in zip(case.coeffs, case.points):
        t = (c * term(p)) % PRIME
        total = t if total is None else (total + t) % PRIME
    return total


def yf_reference(case: Case) -> np.ndarray:
    """Ternary odd-degree Young flattening, sum_i c_i W(l_i) (x) v(l_i) v(l_i)^T,
    where W(l) is v -> v ^ l on C^3 (rank 2) and v the degree-(d-1)/2 Veronese."""
    delta = (case.degree - 1) // 2

    def term(p):
        l0, l1, l2 = p
        wedge = np.array([[l1, -l0, 0], [l2, 0, -l0], [0, l2, -l1]], dtype=np.int64)
        v = np.array(veronese(p, delta), dtype=np.int64) % PRIME
        return np.kron(wedge, np.outer(v, v) % PRIME)

    return _sum_of_terms(case, term)


def twisted_reference(case: Case) -> np.ndarray:
    """Ternary symmetric twisted flattening of degree 2p + 2,
    sum_i c_i v(l_i) v(l_i)^T (x) S^2 C(l_i), with C(l) the skew contraction
    on wedge pairs (rank 2, so S^2 C has rank 3) and v the degree-p Veronese."""
    p_deg = (case.degree - 2) // 2
    pairs = list(combinations_with_replacement(range(3), 2))

    def term(p):
        l0, l1, l2 = p
        base = [[0, l0, l1], [-l0, 0, l2], [-l1, -l2, 0]]
        sym2 = np.zeros((6, 6), dtype=np.int64)
        for ai, (a1, a2) in enumerate(pairs):
            for b1 in range(3):
                for b2 in range(3):
                    sym2[pairs.index(tuple(sorted((b1, b2)))), ai] += base[b1][a1] * base[b2][a2]
        v = np.array(veronese(p, p_deg), dtype=np.int64) % PRIME
        return np.kron(np.outer(v, v) % PRIME, sym2)

    return _sum_of_terms(case, term)


def is_generic(case: Case, flattenings) -> bool:
    """Every named flattening ("cat": every split, "yf", "twisted") has its
    generic rank on this input."""
    r = case.r_gen
    checks = []
    if "cat" in flattenings:
        checks += [(cat_reference(case, a), 1) for a in range(1, case.degree // 2 + 1)]
    if "yf" in flattenings:
        checks.append((yf_reference(case), 2))
    if "twisted" in flattenings:
        checks.append((twisted_reference(case), 3))
    return all(rank_mod_p(m) == min(unit * r, *m.shape) for m, unit in checks)


def make_case(rng, nvars, degree, r_gen, height, r=0, generic_for=("cat",)) -> Case:
    while True:
        points = draw_points(rng, nvars, r_gen, height)
        coeffs = tuple(rng.choice(COEFFS) for _ in points)
        comps = power_sum_components(nvars, degree, points, coeffs)
        case = Case(nvars, degree, points, coeffs, comps, r)
        if is_generic(case, generic_for):
            return case


def fixed_case(nvars, degree) -> Case:
    """Seed-independent single power, used for the untimed cold calls in set-up."""
    return make_case(random.Random("warm"), nvars, degree, 1, 3, 0, ())
