"""Koszul patterns, Young flattenings, and twisted flattenings.

The Young flattening of a degree-(2*delta+1) form is a block matrix whose
blocks follow the Koszul wedge pattern and whose block entries are tensor
components of the form (equivalently, catalecticants of its partial
derivatives up to one global scale).  At a d-th power of a linear form its
rank is C(n, floor(n/2)), so rank thresholds certify border-rank lower
bounds beyond what catalecticants see.

Twisted flattenings (the symmetric family for even degree and its (p, q)
generalization) are defined by their value on powers.  Every entry of that
value at l^d is a degree-d polynomial in the coefficients of l with integer
coefficients, so the entry at an arbitrary form is the same polynomial read
against the form's tensor components: the matrix is a fixed contraction of
the form, built without any basis of powers.  The power-rule extension
through a spanning set of d-th powers (``flattening_from_power_rule``) is
kept as an independent reference for that construction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Callable, Sequence

from .exactla import ExactMatrix
from .forms import HomogForm, LinearForm, power_form, random_linear_form
from .indexing import (
    binomial,
    complement_subset,
    merge_sorted,
    monomial_position,
    monomial_tuples,
    exponents_of,
    sorted_concat_sign,
    subset_position,
    subsets,
)

# -- Koszul patterns -----------------------------------------------------------


@dataclass(frozen=True)
class KoszulPattern:
    """Symbolic matrix of the wedge map v -> v ^ w between wedge powers.

    Rows are the (a+1)-subsets and columns the a-subsets of {0..n}, both
    in lex order.  The cell at (J, I) is (i, sign) when J = I + {i}, with
    sign = (-1)^(position of i in sorted J), and absent otherwise.
    """

    n: int
    a: int
    rows: tuple[tuple[int, ...], ...]
    cols: tuple[tuple[int, ...], ...]
    cells: dict[tuple[tuple[int, ...], tuple[int, ...]], tuple[int, int]]

    def instantiate(self, w: Sequence) -> ExactMatrix:
        """Matrix of v -> v ^ w at the coordinate vector w of C^(n+1).

        Any vector is allowed, the zero vector included (it gives the zero
        matrix); pass a LinearForm's .coeffs to evaluate at a linear form.
        """
        if len(w) != self.n + 1:
            raise ValueError("variable count mismatch")
        coords = [Fraction(c) for c in w]
        zero = Fraction(0)
        out = []
        for J in self.rows:
            row = []
            for I in self.cols:
                cell = self.cells.get((J, I))
                row.append(cell[1] * coords[cell[0]] if cell else zero)
            out.append(row)
        return ExactMatrix(out)

    def volume_identified(self) -> "KoszulPattern":
        """Rows relabeled by complementary subsets (square case n = 2a only).

        Row J becomes row J^c with the sign of the permutation (J, J^c);
        this is the identification making the pattern skew for odd a and
        symmetric for even a.
        """
        if self.n != 2 * self.a:
            raise ValueError("volume identification needs n = 2a")
        new_rows = subsets(self.n + 1, self.a)
        cells: dict = {}
        for (J, I), (var, sign) in self.cells.items():
            K = complement_subset(J, self.n + 1)
            eps = sorted_concat_sign(J, K)
            cells[(K, I)] = (var, eps * sign)
        return KoszulPattern(self.n, self.a, new_rows, self.cols, cells)


def koszul_matrix(n: int, a: int) -> KoszulPattern:
    """Pattern of the map from a-th to (a+1)-th wedge power of C^(n+1)."""
    if not 0 <= a <= n:
        raise ValueError(f"need 0 <= a <= {n}, got {a}")
    rows = subsets(n + 1, a + 1)
    cols = subsets(n + 1, a)
    cells = {}
    for J in rows:
        for pos, i in enumerate(J):
            I = tuple(x for x in J if x != i)
            cells[(J, I)] = (i, -1 if pos & 1 else 1)
    return KoszulPattern(n, a, rows, cols, cells)


# -- Young flattenings ---------------------------------------------------------


@dataclass(frozen=True)
class YoungFlattening:
    """A built Young-flattening matrix together with its structure."""

    nvars: int
    degree: int
    delta: int
    wedge_step: int
    structure: str  # "skew" | "symmetric" | "rectangular"
    matrix: ExactMatrix

    @property
    def rank_unit(self) -> int:
        """Rank of the matrix at a d-th power of a linear form."""
        return binomial(self.nvars - 1, self.wedge_step)


def yf_column_layout(nvars: int, degree: int):
    """(wedge subsets, monomial tuples) indexing the flattening columns."""
    delta = (degree - 1) // 2
    a = (nvars - 1) // 2
    return subsets(nvars, a), monomial_tuples(nvars, delta)


def young_flattening(form: HomogForm) -> YoungFlattening:
    """Block Koszul matrix of the form, square and skew/symmetric when the
    variable count is odd (n = 2a) and the degree is odd; rectangular
    otherwise.

    Columns are indexed wedge-major by (a-subset I, degree-delta tuple
    beta), rows by ((a+1)-subset J, degree-(d-1-delta) tuple gamma); the
    entry is sign * component(gamma + beta + (i,)) when J = I + {i}.  For
    n = 2a the rows are relabeled by complementary subsets with the sign
    of the permutation (J, J^c), which squares the matrix.
    """
    n = form.nvars - 1
    d = form.degree
    if d < 1:
        raise ValueError("flattening needs degree >= 1")
    a = n // 2
    delta = (d - 1) // 2
    codelta = d - 1 - delta
    cols_w = subsets(n + 1, a)
    cols_m = monomial_tuples(n + 1, delta)
    rows_w = subsets(n + 1, a + 1)
    rows_m = monomial_tuples(n + 1, codelta)
    ncols = len(cols_w) * len(cols_m)
    square = n == 2 * a

    comps = form.comps
    zero = Fraction(0)
    nrows = (len(subsets(n + 1, a)) if square else len(rows_w)) * len(rows_m)
    data = [[zero] * ncols for _ in range(nrows)]
    wpos = subset_position(n + 1, a)
    nm = len(rows_m)

    for J in rows_w:
        if square:
            K = complement_subset(J, n + 1)
            eps = sorted_concat_sign(J, K)
            row_block = wpos[K] * nm
        else:
            eps = 1
            row_block = subset_position(n + 1, a + 1)[J] * nm
        for pos, i in enumerate(J):
            I = tuple(x for x in J if x != i)
            sign = eps * (-1 if pos & 1 else 1)
            col_block = wpos[I] * len(cols_m)
            for gi, gamma in enumerate(rows_m):
                row = data[row_block + gi]
                base = merge_sorted(gamma, (i,))
                for bi, beta in enumerate(cols_m):
                    v = comps.get(merge_sorted(base, beta), zero)
                    if v:
                        row[col_block + bi] = sign * v
    matrix = ExactMatrix(data)
    if square and d % 2 == 1:
        structure = "skew" if a % 2 else "symmetric"
    else:
        structure = "rectangular"
    return YoungFlattening(form.nvars, d, delta, a, structure, matrix)


def yf_border_rank_lb(form: HomogForm) -> int:
    """ceil(rank / C(n, a)): the certified border-rank lower bound."""
    yf = young_flattening(form)
    return -(-yf.matrix.rank() // yf.rank_unit)


def euler_kernel_vectors(degree: int) -> list[tuple[Fraction, ...]]:
    """Universal kernel vectors of the ternary Young flattening.

    For every alpha of degree delta-1 the vector sending the column
    (I = {i}, beta) to 1 when beta = sorted(alpha + (i,)) lies in the
    kernel for every form of the given odd degree; these come from the
    tautological line sub-bundle and must be quotiented away before a
    decomposition can be read off the kernel.
    """
    delta = (degree - 1) // 2
    if delta < 1:
        raise ValueError("need degree >= 3")
    cols_m = monomial_tuples(3, delta)
    mpos = monomial_position(3, delta)
    nm = len(cols_m)
    vectors = []
    for alpha in monomial_tuples(3, delta - 1):
        v = [Fraction(0)] * (3 * nm)
        for i in range(3):
            beta = merge_sorted(alpha, (i,))
            v[i * nm + mpos[beta]] = Fraction(1)
        vectors.append(tuple(v))
    return vectors


# -- power-span expansion ---------------------------------------------------------


@dataclass(frozen=True)
class PowerBasis:
    """Linear forms whose d-th powers span the space of degree-d forms,
    with the exact inverse of the power-component matrix."""

    nvars: int
    degree: int
    forms: tuple[LinearForm, ...]
    inverse: ExactMatrix

    def expand(self, form: HomogForm) -> list[Fraction]:
        """Coefficients c with form = sum c_i * l_i^degree, exactly."""
        if (form.nvars, form.degree) != (self.nvars, self.degree):
            raise ValueError("form does not match basis")
        return [Fraction(x) for x in self.inverse.mat_vec(form.component_vector())]


def _canonical_direction(coords) -> tuple[int, ...]:
    """Primitive integer representative with positive leading entry."""
    g = 0
    for c in coords:
        g = gcd(g, int(c))
    v = [int(c) // g for c in coords]
    lead = next(x for x in v if x)
    if lead < 0:
        v = [-x for x in v]
    return tuple(v)


@lru_cache(maxsize=32)
def power_span_basis(
    nvars: int, degree: int, seed: int = 0, height: int = 7, max_tries: int = 25
) -> PowerBasis:
    """Random d-th powers spanning the degree-d forms exactly.

    Draws projectively distinct integer forms (proportional draws would
    give identical powers) and stores the exact inverse of their component
    matrix; a singular draw is redrawn.  Retries are bounded; exhaustion
    is reported.
    """
    tuples = monomial_tuples(nvars, degree)
    size = len(tuples)
    rng = random.Random(seed)
    for _ in range(max_tries):
        forms: list[LinearForm] = []
        seen: set[tuple[int, ...]] = set()
        attempts = 0
        while len(forms) < size and attempts < 100 * size:
            attempts += 1
            l = random_linear_form(rng, nvars, height)
            key = _canonical_direction(l.coeffs)
            if key in seen:
                continue
            seen.add(key)
            forms.append(LinearForm(tuple(Fraction(x) for x in key)))
        if len(forms) < size:
            continue
        cols = [power_form(l, degree).component_vector() for l in forms]
        rows = [[cols[j][i] for j in range(size)] for i in range(size)]
        try:
            inverse = ExactMatrix(rows).inverse()
        except ValueError:
            continue
        return PowerBasis(nvars, degree, tuple(forms), inverse)
    raise RuntimeError(
        f"no spanning set of {size} powers found in {max_tries} tries "
        f"(nvars={nvars}, degree={degree}, seed={seed})"
    )


@dataclass(frozen=True)
class PowerRule:
    """A flattening defined by its value on d-th powers.

    ``at_power`` maps a linear form l to the exact matrix of the
    flattening at l^degree; the declared shape is constant over l.
    """

    nvars: int
    degree: int
    nrows: int
    ncols: int
    at_power: Callable[[LinearForm], ExactMatrix]
    name: str = "power-rule"


def flattening_from_power_rule(
    form: HomogForm,
    rule: PowerRule,
    seed: int = 0,
    basis: PowerBasis | None = None,
) -> ExactMatrix:
    """Extend a rule on powers to an arbitrary form by linearity.

    Writes form = sum c_i l_i^d in a power-span basis and returns
    sum c_i * rule(l_i), exactly.  The result is independent of the
    chosen basis.
    """
    if rule.degree != form.degree or rule.nvars != form.nvars:
        raise ValueError("rule does not match the form")
    if basis is None:
        basis = power_span_basis(form.nvars, form.degree, seed)
    acc = [[Fraction(0)] * rule.ncols for _ in range(rule.nrows)]
    for c, l in zip(basis.expand(form), basis.forms):
        if not c:
            continue
        m = rule.at_power(l)
        if m.shape != (rule.nrows, rule.ncols):
            raise ValueError(
                f"rule produced shape {m.shape}, declared {rule.nrows, rule.ncols}"
            )
        for mi, ai in zip(m.rows, acc):
            for j, v in enumerate(mi):
                if v:
                    ai[j] += c * v
    return ExactMatrix(acc)


def young_power_rule(nvars: int, degree: int) -> PowerRule:
    """The Young flattening seen as a rule on powers (cross-check hook)."""
    probe = young_flattening(power_form(LinearForm((1,) * nvars), degree))
    nr, nc = probe.matrix.shape

    def at_power(l: LinearForm) -> ExactMatrix:
        return young_flattening(power_form(l, degree)).matrix

    return PowerRule(nvars, degree, nr, nc, at_power, name=f"yf-{degree}")


# -- twisted flattenings for ternary forms -----------------------------------------

# Wedge coordinates for three variables: labels 0,1,2 stand for the
# 2-subsets 01, 02, 12.  The contraction (wedge pair) -> (wedge pair)
# induced by a linear form l is the skew rank-2 matrix below.


def _wedge_contraction(l: LinearForm) -> list[list[Fraction]]:
    l0, l1, l2 = l.coeffs
    z = Fraction(0)
    return [[z, l0, l1], [-l0, z, l2], [-l1, -l2, z]]


def _sym_power_form_matrix(base: list[list[Fraction]], t: int) -> list[list]:
    """Weighted t-th symmetric power of a 3x3 contraction.

    Entry (B, A) is e(B)! times the z^B coefficient of the product of the
    columns of ``base`` selected by A; with this weighting the matrix is
    symmetric when the base form is symmetric and skew when it is skew
    and t is odd.
    """
    if t == 0:
        return [[Fraction(1)]]
    tuples = monomial_tuples(3, t)
    out = []
    cols = []
    for A in tuples:
        # expand the product of linear forms prod_j sum_B base[B][a_j] z_B
        poly: dict[tuple[int, ...], Fraction] = {(): Fraction(1)}
        for aj in A:
            nxt: dict[tuple[int, ...], Fraction] = {}
            for mono, coeff in poly.items():
                for b in range(3):
                    v = base[b][aj]
                    if v:
                        key = merge_sorted(mono, (b,))
                        nxt[key] = nxt.get(key, Fraction(0)) + coeff * v
            poly = nxt
        cols.append(poly)
    for B in tuples:
        weight = _exponent_factorial(B)
        row = [poly.get(B, Fraction(0)) * weight for poly in cols]
        out.append(row)
    return out


def _exponent_factorial(t: tuple[int, ...]) -> int:
    e = exponents_of(t, 3)
    out = 1
    for k in e:
        for j in range(2, k + 1):
            out *= j
    return out


def twisted_power_rule(u: int, t: int) -> PowerRule:
    """Rule sending l to the matrix of
    (monomial of degree u, wedge-pair power of order t) contractions at
    l^(2u + t).  Rank at a power is t + 1; the matrix is symmetric for
    even t and skew for odd t.
    """
    degree = 2 * u + t
    mono = monomial_tuples(3, u)
    nw = len(monomial_tuples(3, t)) if t else 1
    size = len(mono) * nw

    def at_power(l: LinearForm) -> ExactMatrix:
        uvec = []
        for m in mono:
            prod = Fraction(1)
            for i in m:
                prod *= l.coeffs[i]
            uvec.append(prod)
        wmat = _sym_power_form_matrix(_wedge_contraction(l), t)
        data = []
        for mr in range(len(mono)):
            for br in range(nw):
                wrow = wmat[br]
                tr = uvec[mr]
                row = []
                for mc in range(len(mono)):
                    f = tr * uvec[mc]
                    for bc in range(nw):
                        row.append(f * wrow[bc])
                data.append(row)
        return ExactMatrix(data)

    return PowerRule(3, degree, size, size, at_power, name=f"twisted-u{u}-t{t}")


@lru_cache(maxsize=None)
def _wedge_power_cells(t: int) -> tuple[tuple[tuple, ...], ...]:
    """``_sym_power_form_matrix(_wedge_contraction(l), t)`` as polynomials
    in l: cell [B][A] is a tuple of (kappa, c) pairs, kappa a sorted index
    tuple of degree t and c an integer, whose value at l is the sum of
    c * l^kappa.
    """
    # base[b][a] = sum over v of units[v][b][a] * l_v
    units = [_wedge_contraction(LinearForm([int(i == v) for i in range(3)]))
             for v in range(3)]
    tuples = monomial_tuples(3, t)
    cols = []
    for A in tuples:
        # (z monomial, l monomial) -> coefficient of prod_j sum_b base[b][a_j] z_b
        poly: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {((), ()): 1}
        for a in A:
            nxt: dict = {}
            for (zm, lm), c in poly.items():
                for b in range(3):
                    for v in range(3):
                        x = int(units[v][b][a])
                        if x:
                            key = (merge_sorted(zm, (b,)), merge_sorted(lm, (v,)))
                            nxt[key] = nxt.get(key, 0) + c * x
            poly = nxt
        cols.append(poly)
    return tuple(
        tuple(
            tuple((lm, _exponent_factorial(B) * c)
                  for (zm, lm), c in sorted(poly.items()) if zm == B and c)
            for poly in cols
        )
        for B in tuples
    )


def _contracted_twisted(form: HomogForm, u: int, t: int) -> ExactMatrix:
    """``twisted_power_rule(u, t)`` at the form, read off its components.

    At l^d the entry ((m_r, B), (m_c, A)) is l^(m_r + m_c) times wedge
    cell [B][A], a polynomial in l of total degree d with integer
    coefficients; by linearity its value at any form is
    sum c * comps[sorted(m_r + m_c + kappa)] over the cell's (kappa, c).
    """
    cells = _wedge_power_cells(t)
    mono = monomial_tuples(3, u)
    comps = form.comps
    zero = Fraction(0)
    data = []
    for mr in mono:
        for cell_row in cells:
            row = []
            for mc in mono:
                pair = mr + mc
                for cell in cell_row:
                    v = zero
                    for kappa, c in cell:
                        x = comps.get(tuple(sorted(pair + kappa)))
                        if x:
                            v += c * x
                    row.append(v)
            data.append(row)
    return ExactMatrix(data)


def symmetric_twisted_flattening(form: HomogForm, p: int) -> ExactMatrix:
    """Symmetric twisted flattening of an even-degree ternary form.

    Requires degree = 2p + 2; the matrix is C(p+2, 2)*6 square and
    symmetric, has rank 3 at a d-th power, and rank at most 3r on the
    r-th secant variety.  It is the contraction of the form's components
    with the pattern of ``twisted_power_rule(p, 2)``; no basis of powers
    is drawn.
    """
    if form.nvars != 3:
        raise ValueError("twisted flattening requires exactly 3 variables")
    if p < 1 or form.degree != 2 * p + 2:
        raise ValueError(
            f"degree {form.degree} does not match 2p+2 with p={p}"
        )
    return _contracted_twisted(form, p, 2)


def q_twisted_flattening(form: HomogForm, p: int, q: int) -> ExactMatrix:
    """Twisted flattening of degree p + 4q - 1 with rank p at powers.

    The contraction of the form's components with the pattern of
    ``twisted_power_rule(2q, p - 1)``, which pairs degree-2q monomial
    contractions with the (p-1)-st symmetric power of the wedge
    contraction; no basis of powers is drawn.  Skew for even p and
    symmetric for odd p, so sub-Pfaffians of size rp + 2 (resp. minors
    of size rp + 1) cut the r-th secant variety.
    """
    if form.nvars != 3:
        raise ValueError("twisted flattening requires exactly 3 variables")
    if p < 1 or q < 1:
        raise ValueError("need p >= 1 and q >= 1")
    if form.degree != p + 4 * q - 1:
        raise ValueError(
            f"degree {form.degree} does not match p + 4q - 1 for p={p}, q={q}"
        )
    return _contracted_twisted(form, 2 * q, p - 1)


def x_power_yf_rank(a: int, b: int, alpha: int, beta: int) -> int:
    """Closed-form rank of the (a, b)-flattening at a d-th power:
    (b - alpha + 1)(a - b - beta + 1)(a + beta - alpha + 2) / 2."""
    if a < b or b < 0:
        raise ValueError("need a >= b >= 0")
    if not 0 <= alpha <= b:
        raise ValueError("need 0 <= alpha <= b")
    if not 0 <= beta <= a - b:
        raise ValueError("need 0 <= beta <= a - b")
    num = (b - alpha + 1) * (a - b - beta + 1) * (a + beta - alpha + 2)
    return num // 2
