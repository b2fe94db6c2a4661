"""Waring decomposition: exact kernel extraction plus numeric root isolation.

Binary forms are decomposed through the kernel of a catalecticant; general
ternary quintics of rank seven through the kernel of the Young flattening.
Everything up to and including the polynomial systems is exact; floating
point enters only for the roots (of a univariate polynomial, or the
eigenvectors of the quintic's multiplication matrices), and the
reconstruction residual is always reported honestly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
import math
from typing import Sequence

import numpy as np

from .exactla import ExactMatrix
from .flattenings import cat_matrix, rank_profile
from .forms import HomogForm, LinearForm, from_monomial_coeffs, power_form
from .indexing import (
    exponents_of,
    merge_sorted,
    monomial_position,
    monomial_tuples,
)
from .youngflat import euler_kernel_vectors, young_flattening


class DecompositionError(ValueError):
    """Raised when the input is outside the algorithm's generic regime."""

    def __init__(self, message: str, details: dict | None = None):
        super().__init__(message)
        self.details = details or {}


@dataclass(frozen=True)
class WaringDecomposition:
    """Summands (coefficient, normalized linear form), with the max-norm
    reconstruction residual relative to the input's largest component.
    The exact flag is set only when every root was rational and the
    reconstruction was verified exactly."""

    degree: int
    summands: tuple[tuple[object, tuple[object, ...]], ...]
    residual: float
    exact: bool
    info: dict = field(default_factory=dict, compare=False)

    def to_json(self) -> dict:
        def scalar(x):
            if isinstance(x, Fraction):
                return str(x)
            if isinstance(x, complex):
                return float(x.real) if abs(x.imag) == 0 else repr(x)
            return float(x)

        return {
            "summands": [
                {"coef": scalar(c), "form": [scalar(v) for v in l]}
                for c, l in self.summands
            ],
            "residual": float(self.residual),
            "exact": bool(self.exact),
        }


# -- numeric helpers -----------------------------------------------------------------


def _np_roots(coeffs_desc: list[complex]) -> list[complex]:
    arr = np.array(coeffs_desc, dtype=complex)
    if arr.size <= 1:
        return []
    return [complex(z) for z in np.roots(arr)]


def _normalize_point(coords: Sequence, zero_tol: float = 1e-10) -> tuple:
    """Scale so the first (significantly) nonzero coordinate is 1.

    Exact coordinates are normalized exactly; floating-point ones treat
    entries below zero_tol relative to the largest coordinate as zero.
    """
    vals = list(coords)
    if all(isinstance(v, (Fraction, int)) for v in vals):
        lead = next((v for v in vals if v != 0), None)
        if lead is None:
            raise ValueError("zero point")
        return tuple(Fraction(v) / lead for v in vals)
    cvals = [complex(v) for v in vals]
    mag = max(abs(v) for v in cvals)
    if mag == 0:
        raise ValueError("zero point")
    lead = next(v for v in cvals if abs(v) > zero_tol * mag)
    out = []
    for v in cvals:
        w = v / lead
        if abs(w) <= zero_tol:
            w = 0.0
        if isinstance(w, complex) and abs(w.imag) <= zero_tol * (1 + abs(w.real)):
            w = w.real
        out.append(w)
    return tuple(out)


def _sort_key(point: tuple) -> tuple:
    key = []
    for v in point:
        if isinstance(v, Fraction):
            key.append((float(v), 0.0))
        elif isinstance(v, complex):
            key.append((v.real, v.imag))
        else:
            key.append((float(v), 0.0))
    return tuple(key)


def _divide_root(desc: Sequence[Fraction], x: Fraction) -> list[Fraction] | None:
    """Quotient of a polynomial (descending coefficients) by u - x when x is
    an exact root of it, else None (synthetic division)."""
    acc = Fraction(0)
    quotient = []
    for c in desc:
        acc = acc * x + c
        quotient.append(acc)
    return quotient[:-1] if acc == 0 else None


def _lift_rational_roots(
    desc: Sequence[Fraction], roots: Sequence[complex]
) -> list[Fraction] | None:
    """Exact rational roots of the polynomial, one per numeric root, or None.

    A candidate (a continued-fraction approximant of the numeric root) is
    accepted only when it lies within 1e-6 (relative) of that root and is
    an exact root of the polynomial that remains; the root is then divided
    out exactly, so each rational root is used once.
    """
    rest = list(desc)
    lifted = []
    for z in roots:
        x = z.real
        if abs(z.imag) > 1e-6 * (1 + abs(x)):
            return None
        for bound in (1, 10, 1000, 10**6, 10**9, 10**12):
            cand = Fraction(x).limit_denominator(bound)
            if abs(cand - x) > 1e-6 * (1 + abs(x)):
                continue
            quotient = _divide_root(rest, cand)
            if quotient is not None:
                rest = quotient
                lifted.append(cand)
                break
        else:
            return None
    return lifted


# -- binary forms ---------------------------------------------------------------------


def decompose_binary(form: HomogForm, r: int, root_tol: float = 1e-8) -> WaringDecomposition:
    """Decompose a binary form as a sum of r d-th powers.

    The kernel of the (r, d-r) catalecticant must be one-dimensional; its
    generator is a degree-r binary form whose roots are the points of the
    decomposition (companion-matrix eigenvalues of the dehomogenization,
    plus the root at infinity when the leading coefficient vanishes).
    Coefficients are then fit on the d+1 component equations.

    Each numeric root is lifted to a rational root of the kernel
    polynomial that lies within 1e-6 of it, and the lifted root is divided
    out exactly before the next one is lifted, so no rational root is used
    twice.  When every root lifts, the fit is exact and verified; otherwise
    the result is floating point with its residual, and info holds the
    smallest distance between two numeric roots (min_root_separation) and
    the condition number of the power matrix the fit solves
    (cond_vandermonde).
    """
    if form.nvars != 2:
        raise ValueError("binary decomposition needs exactly 2 variables")
    d = form.degree
    if not 1 <= r <= d - 1:
        raise ValueError(f"need 1 <= r <= {d - 1}")
    m = cat_matrix(form, r)
    kernel = m.kernel_basis()
    rank = m.ncols - len(kernel)
    if rank != r or len(kernel) != 1:
        raise DecompositionError(
            f"form not of generic rank {r}: catalecticant rank {rank}, "
            f"kernel dimension {len(kernel)}",
            {"rank": rank, "kernel_dim": len(kernel)},
        )
    # kernel coordinates follow the degree-r tuples (0..0), (0..01), ... so
    # index j is the coefficient of u^(r-j) in the dehomogenized generator
    kappa = list(kernel[0])
    lead_zeros = 0
    for c in kappa:
        if c == 0:
            lead_zeros += 1
        else:
            break
    if lead_zeros >= 2:
        raise DecompositionError(
            "border-rank/rank gap: decomposition as r distinct powers does "
            "not exist (repeated root at infinity)",
            {"kernel": [str(c) for c in kappa]},
        )
    finite = kappa[lead_zeros:]
    roots = _np_roots([complex(c) for c in finite])
    for i in range(len(roots)):
        for j in range(i + 1, len(roots)):
            if abs(roots[i] - roots[j]) < root_tol * (1 + abs(roots[i])):
                raise DecompositionError(
                    "border-rank/rank gap: decomposition as r distinct powers "
                    "does not exist (repeated root)",
                    {"roots": [repr(z) for z in roots]},
                )

    info = {"min_root_separation": min(
        (abs(y - z) for i, y in enumerate(roots) for z in roots[i + 1:]),
        default=math.inf,
    )}
    exact_roots = _lift_rational_roots(finite, roots)
    points: list[tuple] = []
    if lead_zeros == 1:
        points.append((Fraction(1), Fraction(0)) if exact_roots is not None else (1.0, 0.0))
    if exact_roots is not None:
        points.extend(
            _normalize_point((u, Fraction(1))) for u in exact_roots
        )
        return _fit_exact(form, points, d) or _fit_numeric(form, points, d, info)
    points.extend(_normalize_point((z, 1.0)) for z in roots)
    return _fit_numeric(form, points, d, info)


def _fit_exact(form: HomogForm, points: list[tuple], d: int) -> WaringDecomposition | None:
    """The exact fit, verified, or None when the points do not fit."""
    tuples = monomial_tuples(form.nvars, d)
    cols = []
    for p in points:
        l = power_form(LinearForm(tuple(Fraction(v) for v in p)), d)
        cols.append([l.comps.get(t, Fraction(0)) for t in tuples])
    a = ExactMatrix([[cols[j][i] for j in range(len(points))] for i in range(len(tuples))])
    rhs = form.component_vector()
    sol = a.solve(rhs)
    if sol is None or a.mat_vec(sol) != rhs:
        return None
    summands = sorted(zip(sol, points), key=lambda cl: _sort_key(cl[1]))
    return WaringDecomposition(
        degree=d,
        summands=tuple((c, tuple(p)) for c, p in summands),
        residual=0.0,
        exact=True,
    )


def _fit_numeric(
    form: HomogForm, points: list[tuple], d: int, info: dict
) -> WaringDecomposition:
    """Least-squares fit; info gains cond(power matrix) as cond_vandermonde."""
    tuples = monomial_tuples(form.nvars, d)
    a = np.zeros((len(tuples), len(points)), dtype=complex)
    for j, p in enumerate(points):
        lp = [complex(v) for v in p]
        for i, t in enumerate(tuples):
            prod = 1.0 + 0j
            for k in t:
                prod *= lp[k]
            a[i, j] = prod
    b = np.array([complex(x) for x in form.component_vector()])
    sol, *_ = np.linalg.lstsq(a, b, rcond=None)
    info["cond_vandermonde"] = float(np.linalg.cond(a))
    resid_vec = a @ sol - b
    scale = max(1e-300, float(np.max(np.abs(b))))
    residual = float(np.max(np.abs(resid_vec))) / scale
    pairs = sorted(zip(sol.tolist(), points), key=lambda cl: _sort_key(cl[1]))
    cleaned = []
    for c, p in pairs:
        if abs(c.imag) < 1e-12 * (1 + abs(c.real)):
            c = c.real
        cleaned.append((c, tuple(p)))
    return WaringDecomposition(
        degree=d,
        summands=tuple(cleaned),
        residual=residual,
        exact=False,
        info=info,
    )


# -- ternary quintics ------------------------------------------------------------------


def _section_quadrics(section: Sequence[Fraction]) -> list[dict]:
    """Split a kernel vector into its three quadric components, stored as
    plain coefficient dictionaries over sorted exponent pairs."""
    pairs = monomial_tuples(3, 2)
    quadrics = []
    for i in range(3):
        q = {}
        for k, beta in enumerate(pairs):
            c = section[i * len(pairs) + k]
            if c:
                q[beta] = c
        quadrics.append(q)
    return quadrics


def _minor_polys(quadrics: list[dict]) -> list[dict]:
    """The three cubic minors x_i q_j - x_j q_i as plain coefficient dicts."""
    minors = []
    for (i, j) in ((0, 1), (0, 2), (1, 2)):
        poly: dict[tuple[int, ...], Fraction] = {}
        for beta, c in quadrics[j].items():
            key = merge_sorted(beta, (i,))
            poly[key] = poly.get(key, Fraction(0)) + c
        for beta, c in quadrics[i].items():
            key = merge_sorted(beta, (j,))
            poly[key] = poly.get(key, Fraction(0)) - c
        minors.append({k: v for k, v in poly.items() if v})
    return minors


# Chart forms h for the quotient-ring stage, tried in order until A_h is
# invertible (h vanishes at none of the seven points).
_CHARTS = ((0, 0, 1), (1, 0, 0), (0, 1, 0), (1, 1, 1), (1, -2, 3), (3, 1, -2))
# A fixed generic combination of the multiplication matrices: its
# eigenvalues separate the points, its eigenvectors diagonalize all three.
_MIX = (1.0, 0.7548776662466927, 0.5698402909980532)


def _quotient_points(minors: list[dict]) -> tuple[list[tuple], dict]:
    """The seven common zeros of the cubic minors, by the eigenvalue method
    on the quotient ring R/I (I the ideal the minors generate).

    E, the annihilator of I_4 = span{x_i * minor_j} in the dual of the
    quartics, is computed exactly; for seven distinct points it is spanned
    by the evaluations at them.  A_i[e, b] = e(x_i * b) over the cubic
    monomials b, so on 7 columns where A_h is invertible the matrices
    A_h^-1 A_i share their eigenvectors, with eigenvalue p_i / h(p) at
    the point p.
    """
    pos4 = monomial_position(3, 4)
    cubics = monomial_tuples(3, 3)
    gens = []
    for minor in minors:
        for i in range(3):
            row = [Fraction(0)] * len(pos4)
            for t, c in minor.items():
                row[pos4[merge_sorted(t, (i,))]] += c
            gens.append(row)
    annihilator = ExactMatrix(gens).kernel_basis()
    if len(annihilator) != 7:
        raise DecompositionError(
            f"degenerate configuration: annihilator of I_4 has dimension "
            f"{len(annihilator)} (expected 7)",
            {"annihilator_dim": len(annihilator), "charts_tried": []},
        )
    mult = [
        [[e[pos4[merge_sorted(b, (i,))]] for b in cubics] for e in annihilator]
        for i in range(3)
    ]
    tried = []
    for h in _CHARTS:
        tried.append(h)
        a_h = ExactMatrix([
            [sum(hi * m[r][c] for hi, m in zip(h, mult)) for c in range(len(cubics))]
            for r in range(7)
        ])
        _, cols = a_h.rref()
        if len(cols) == 7:
            break
    else:
        raise DecompositionError(
            "degenerate configuration: no chart form gives an invertible A_h",
            {"annihilator_dim": 7, "charts_tried": tried},
        )
    square = np.array(a_h.to_float_rows())[:, cols]
    ops = [np.linalg.solve(square, np.array(m, dtype=float)[:, cols]) for m in mult]
    vals, vecs = np.linalg.eig(sum(c * op for c, op in zip(_MIX, ops)))
    left = np.linalg.inv(vecs)
    coords = [np.diag(left @ op @ vecs) for op in ops]
    points = [tuple(complex(coords[i][k]) for i in range(3)) for k in range(7)]
    gaps = [abs(vals[k] - vals[l]) for k in range(7) for l in range(k + 1, 7)]
    info = {
        "chart": h,
        "cond_a_h": float(np.linalg.cond(square)),
        "min_eig_separation": float(min(gaps) / max(1.0, max(abs(vals)))),
    }
    return points, info


def decompose_quintic(form: HomogForm) -> WaringDecomposition:
    """Decompose a general ternary quintic as a sum of seven fifth powers.

    Steps: build the 18x18 skew Young flattening; require a 4-dimensional
    kernel; quotient by the universal 3-dimensional kernel to extract a
    section of three quadrics (q0, q1, q2); form the cubic minors
    x_i q_j - x_j q_i, which vanish exactly where (q0, q1, q2) is parallel
    to the point.  All of this is exact.  The points are then read off the
    quotient ring of the minors' ideal I:
      1. the exact annihilator E of I_4 = span{x_i * minor_j} (dimension 7);
      2. the 7x10 matrices A_i[e, b] = e(x_i * b) over cubic monomials b;
      3. a chart form h and 7 columns on which A_h has exact rank 7;
      4. the common eigenvectors of A_h^-1 A_i (numpy), whose eigenvalues
         are the coordinates of the points.
    Coefficients are fit on the 21 component equations.  info holds the
    quadrics, the chart, the condition number of A_h on its 7 columns, the
    minimum relative eigenvalue separation and the condition number of the
    power matrix of the fit (cond_vandermonde).
    """
    if form.nvars != 3 or form.degree != 5:
        raise ValueError("quintic decomposition needs a ternary quintic")
    yf = young_flattening(form)
    kernel = yf.matrix.kernel_basis()
    if len(kernel) != 4:
        raise DecompositionError(
            f"form not generic of rank 7: kernel dimension {len(kernel)}",
            {
                "kernel_dim": len(kernel),
                "yf_rank": 18 - len(kernel),
                "rank_profile": rank_profile(form),
            },
        )
    euler = euler_kernel_vectors(5)
    ref = ExactMatrix(list(euler))
    rref_rows, pivots = ref.rref()

    def reduce_mod_euler(vec):
        v = [Fraction(x) for x in vec]
        for row, pc in zip(rref_rows, pivots):
            f = v[pc]
            if f:
                v = [a - f * b for a, b in zip(v, row)]
        return v

    section = None
    for vec in kernel:
        v = reduce_mod_euler(vec)
        if any(v):
            lead = next(x for x in v if x)
            section = [x / lead for x in v]
            break
    if section is None:
        raise DecompositionError(
            "kernel reduced to the universal subspace; no section available",
            {"kernel_dim": len(kernel)},
        )
    quadrics = _section_quadrics(section)

    points, info = _quotient_points(_minor_polys(quadrics))
    info["quadrics"] = quadrics
    normalized = [_normalize_point(p) for p in points]
    return _fit_numeric(form, normalized, 5, info=info)


def kernel_base_locus_hint(form: HomogForm, a: int) -> list[HomogForm]:
    """Exact kernel of the (a, d-a) catalecticant, returned as degree-a
    forms (the apolar forms of that degree); their common zeros contain
    the points of any length-<=rank decomposition.  No root solving is
    attempted here."""
    m = cat_matrix(form, a)
    tuples = monomial_tuples(form.nvars, a)
    out = []
    for vec in m.kernel_basis():
        terms = [
            (exponents_of(t, form.nvars), c)
            for t, c in zip(tuples, vec)
            if c
        ]
        out.append(from_monomial_coeffs(form.nvars, a, terms))
    return out
