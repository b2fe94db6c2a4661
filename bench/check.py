"""Output checker: compares what waring returns with the answer known from
how the input was generated (see gen.py).  Each check returns None when
the output is right and a short reason when it is not.

Expected ranks hold because gen.py keeps only inputs on which the tested
flattenings have their generic rank; rank upper bounds (rank at a power
times the number of summands) are proofs.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb, prod

import numpy as np

from gen import PRIME, rank_mod_p


def rank_at_power(kind: str, nvars: int) -> int:
    """Rank of a flattening at a d-th power: cat 1, YF C(n, n/2), twisted 3."""
    n = nvars - 1
    return {"cat": 1, "yf": comb(n, n // 2), "twisted": 3}[kind]


def dim_forms(nvars: int, degree: int) -> int:
    return comb(degree + nvars - 1, nvars - 1)


def check_certify(case, report: dict):
    """`report` is CertificateReport.to_json() or the CLI's JSON output."""
    if report["r"] != case.r or report["degree"] != case.degree:
        return "report is about another (r, degree)"
    want = "EXCLUDED" if case.r_gen > case.r else "CONSISTENT"
    if report["verdict"] != want:
        return f"verdict {report['verdict']}, expected {want}"
    if report["certified_border_rank_lower_bound"] > case.r_gen:
        return "certified lower bound exceeds the generating rank"
    for t in report["tests"]:
        if t["rank"] > rank_at_power(t["kind"], case.nvars) * case.r_gen:
            return f"{t['kind']} rank {t['rank']} exceeds its bound at rank {case.r_gen}"
    return None


def expected_profile(case) -> list[int]:
    d, nv = case.degree, case.nvars
    return [
        min(case.r_gen, dim_forms(nv, a), dim_forms(nv, d - a))
        for a in range(1, d // 2 + 1)
    ]


def check_rank_profile(case, payload: dict):
    if payload["profile"] != expected_profile(case):
        return f"profile {payload['profile']}, expected {expected_profile(case)}"
    if payload["cat_border_rank_lb"] != max(payload["profile"]):
        return "cat lower bound is not the largest catalecticant rank"
    if payload["yf_border_rank_lb"] > case.r_gen:
        return "YF lower bound exceeds the generating rank"
    return None


def check_matrix(case, payload: dict, shape, rank, symmetry: int):
    """Exported flattening: shape, rank, and (skew) symmetry of the entries
    (symmetry +1 symmetric, -1 skew, 0 none)."""
    if list(payload["shape"]) != list(shape):
        return f"shape {payload['shape']}, expected {list(shape)}"
    if payload["rank"] != rank:
        return f"rank {payload['rank']}, expected {rank}"
    rows = [[Fraction(x) for x in row] for row in payload["entries"]]
    if len(rows) != shape[0] or any(len(r) != shape[1] for r in rows):
        return "entries do not match the shape"
    if symmetry and any(
        rows[i][j] != symmetry * rows[j][i]
        for i in range(shape[0]) for j in range(i, shape[1])
    ):
        return "entries lack the declared symmetry"
    return None


def check_kernel(case, forms):
    """Degree-a apolar forms of a power sum of generic points are exactly
    the degree-a forms through the points: the right number of them,
    linearly independent, each vanishing exactly at every point."""
    a = case.r
    want = dim_forms(case.nvars, a) - case.r_gen
    if len(forms) != want:
        return f"{len(forms)} kernel forms, expected {want}"
    tuples = list(combinations_with_replacement(range(case.nvars), a))
    rows = []
    for g in forms:
        if (g.nvars, g.degree) != (case.nvars, a):
            return "kernel form of the wrong shape"
        # monomial coefficient = tensor component * multinomial
        coef = {
            t: Fraction(c) * (math.factorial(a) // prod(math.factorial(t.count(i)) for i in set(t)))
            for t, c in g.comps.items()
        }
        for p in case.points:
            if sum(c * prod(p[k] for k in t) for t, c in coef.items()) != 0:
                return "kernel form does not vanish at a generating point"
        rows.append([coef.get(t, Fraction(0)) for t in tuples])
    # rank mod a prime is a lower bound on the rank over Q
    residues = np.array(
        [[x.numerator * pow(x.denominator, -1, PRIME) % PRIME for x in row] for row in rows],
        dtype=np.int64,
    )
    if rows and rank_mod_p(residues) != want:
        return "kernel forms are linearly dependent"
    return None


# -- decompositions ------------------------------------------------------------------


def projective_distance(u, v) -> float:
    """Norm of the 2x2 minors of the normalized vectors, |u ^ v| / (|u| |v|).

    Equal to sin of the angle between the lines, computed without the
    cancellation of sqrt(1 - cos^2), whose floor is about 1.5e-8.
    """
    nu = math.sqrt(sum(abs(x) ** 2 for x in u))
    nv = math.sqrt(sum(abs(x) ** 2 for x in v))
    a = [x / nu for x in u]
    b = [x / nv for x in v]
    s = 0.0
    for i in range(len(a)):
        for j in range(i + 1, len(a)):
            s += abs(a[i] * b[j] - a[j] * b[i]) ** 2
    return math.sqrt(s)


def parse_scalar(x):
    """Scalar of WaringDecomposition.to_json: "p/q" string, float or complex repr."""
    if isinstance(x, str):
        return complex(x.strip("()")) if "j" in x else Fraction(x)
    return float(x)


def check_decomposition(case, payload: dict, tol_point=1e-6, tol_resid=1e-8):
    """`payload` is WaringDecomposition.to_json() or the CLI's JSON output."""
    summands = [
        (parse_scalar(s["coef"]), [parse_scalar(v) for v in s["form"]])
        for s in payload["summands"]
    ]
    if len(summands) != case.r_gen:
        return f"{len(summands)} summands, expected {case.r_gen}"
    unmatched = list(range(len(summands)))
    for p in case.points:
        dists = [(projective_distance(p, summands[k][1]), k) for k in unmatched]
        best, k = min(dists)
        if best > tol_point:
            return f"generating point {p} missed by {best:.2e}"
        unmatched.remove(k)
    tuples = list(combinations_with_replacement(range(case.nvars), case.degree))
    if payload["exact"]:
        if not all(
            isinstance(x, Fraction) for c, l in summands for x in [c, *l]
        ):
            return "exact=True with non-rational output"
        for t in tuples:
            v = sum(c * prod(l[k] for k in t) for c, l in summands)
            if v != case.comps.get(t, 0):
                return "exact decomposition does not rebuild the input"
        return None
    scale = max(abs(v) for v in case.comps.values())
    resid = 0.0
    for t in tuples:
        v = sum(complex(c) * prod(complex(l[k]) for k in t) for c, l in summands)
        resid = max(resid, abs(v - case.comps.get(t, 0)))
    resid /= scale
    if resid > tol_resid or payload["residual"] > tol_resid:
        return f"residual {max(resid, payload['residual']):.2e}"
    return None
