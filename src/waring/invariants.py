"""Named invariants and packaged border-rank certificates.

``strategy`` transcribes, per (n, d, r), which exact rank tests are the
strongest known for the r-th secant variety (catalecticant minors,
sub-Pfaffian thresholds, the determinantal sextic hypersurface, the
Aronhold quartic) together with how much the tests cut out (ideal,
scheme, irreducible component).  ``certify`` runs them; a rank above its
threshold is a mathematical proof that the form lies outside the secant
variety, while a consistent report is never a membership proof.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction

from .exactla import ExactMatrix
from .flattenings import cat_matrix
from .forms import HomogForm, fraction_to_str, to_polynomial_json
from .indexing import binomial
from .youngflat import symmetric_twisted_flattening, young_flattening

REDUCIBLE_CAVEAT = (
    "rank locus may be reducible; consistency only places the form on some "
    "component, not necessarily the secant variety"
)

# Aronhold invariant: Pfaffian of the principal 8x8 submatrix of the 9x9
# Young flattening of a ternary cubic obtained by dropping this row and
# column.  All nine principal 8-Pfaffians agree up to scale; index 8 was
# checked at build time to give a nonzero polynomial.
ARONHOLD_DELETED_INDEX = 8


def aronhold(form: HomogForm) -> Fraction:
    """Degree-4 invariant cutting out the rank-3 locus of ternary cubics."""
    if form.nvars != 3 or form.degree != 3:
        raise ValueError("Aronhold invariant needs a ternary cubic")
    return _aronhold_pfaffian(young_flattening(form).matrix)


def _aronhold_pfaffian(m: ExactMatrix) -> Fraction:
    keep = [i for i in range(9) if i != ARONHOLD_DELETED_INDEX]
    return m.principal_submatrix(keep).pfaffian()


def aronhold_rank_test(form: HomogForm) -> bool:
    """True when the cubic's Young flattening has rank at most 6 (the
    closed condition equivalent to lying on the Aronhold hypersurface)."""
    if form.nvars != 3 or form.degree != 3:
        raise ValueError("Aronhold rank test needs a ternary cubic")
    return young_flattening(form).matrix.rank() <= 6


def sextic_det33(form: HomogForm) -> Fraction:
    """Determinant of the middle 10x10 catalecticant of a ternary sextic;
    its vanishing is the degree-10 equation of the rank-9 locus."""
    if form.nvars != 3 or form.degree != 6:
        raise ValueError("this determinant needs a ternary sextic")
    return cat_matrix(form, 3).determinant()


@dataclass(frozen=True)
class RankTest:
    """One exact rank test: EXCLUDED when rank exceeds the threshold."""

    kind: str  # "cat" | "yf" | "twisted"
    label: str
    threshold: int
    a: int | None = None  # catalecticant split, when kind == "cat"
    invariant: str | None = None  # "aronhold" | "det33" reported alongside


@dataclass(frozen=True)
class StrategyRow:
    n: int
    d: int
    r: int
    tests: tuple[RankTest, ...]
    status: str  # "ideal" | "scheme" | "irreducible-component" | "set"
    source: str
    notes: tuple[str, ...] = ()
    known_sharp: bool = True


def _cat_test(a: int, d: int, r: int, size_word: str = "minors") -> RankTest:
    return RankTest(
        kind="cat",
        label=f"size {r + 1} {size_word} of the ({a},{d - a}) catalecticant",
        threshold=r,
        a=a,
    )


def strategy(n: int, d: int, r: int) -> StrategyRow:
    """Best known equation set for the (n, d, r) secant variety.

    Cases not covered by a special row fall back to the generic pair:
    the middle catalecticant with threshold r and the Young flattening
    with threshold C(n, floor(n/2)) * r.
    """
    if n < 1 or d < 2 or r < 1:
        raise ValueError("need n >= 1, d >= 2, r >= 1")
    delta = d // 2
    a_mid = delta
    yf_unit = binomial(n, n // 2)

    if d == 2:
        return StrategyRow(
            n, d, r, (_cat_test(1, 2, r),), "ideal", "symmetric matrices"
        )
    if n == 1:
        if r <= d // 2:
            return StrategyRow(
                n, d, r, (_cat_test(a_mid, d, r),), "ideal", "binary forms"
            )
        return StrategyRow(
            n, d, r, (), "ideal", "binary forms",
            notes=("secant variety fills the ambient space",),
        )
    if r == 2:
        # for cubics the (2,1) catalecticant is the transpose of the (1,2)
        pair = (1,) if d == 3 else (1, 2)
        return StrategyRow(
            n, d, r, tuple(_cat_test(a, d, 2) for a in pair),
            "ideal", "second secant",
        )
    if d == 3 and r == 3:
        if n == 2:
            return StrategyRow(
                n, d, r,
                (RankTest("yf", "size 8 sub-Pfaffians of the Young flattening "
                                "(Aronhold quartic)", 6, invariant="aronhold"),),
                "ideal", "Aronhold hypersurface",
            )
        return StrategyRow(
            n, d, r,
            (_cat_test(1, d, 3),),
            "ideal", "third secant of cubics",
            notes=("full ideal also needs the inherited Aronhold equations",),
        )
    if n == 2 and d == 5 and r <= 6:
        status = "scheme" if r == 6 else "irreducible-component"
        notes = () if r == 6 else (REDUCIBLE_CAVEAT,)
        return StrategyRow(
            n, d, r,
            (RankTest("yf", f"size {2 * r + 2} sub-Pfaffians of the quintic "
                            "Young flattening", 2 * r),),
            status, "quintic sub-Pfaffians", notes=notes,
        )
    if n == 2 and d == 6 and r in (7, 8):
        return StrategyRow(
            n, d, r,
            (
                _cat_test(3, 6, r),
                RankTest(
                    "twisted",
                    f"size {3 * r + 1} minors of the symmetric twisted flattening",
                    3 * r,
                ),
            ),
            "irreducible-component", "sextic Young flattenings",
            notes=(REDUCIBLE_CAVEAT,),
        )
    if n == 2 and d == 6 and r == 9:
        return StrategyRow(
            n, d, r,
            (RankTest("cat", "determinant of the (3,3) catalecticant", 9, a=3,
                      invariant="det33"),),
            "ideal", "determinantal hypersurface",
        )
    if n == 2 and d == 7 and r <= 10:
        return StrategyRow(
            n, d, r,
            (RankTest("yf", f"size {2 * r + 2} sub-Pfaffians of the septic "
                            "Young flattening", 2 * r),),
            "irreducible-component", "septic sub-Pfaffians",
            notes=(REDUCIBLE_CAVEAT,),
        )
    if r == 3 and d >= 4:
        return StrategyRow(
            n, d, r,
            (_cat_test(1, d, 3), _cat_test(a_mid, d, 3)),
            "scheme", "third secant",
        )
    if n == 2 and r in (4, 5, 6) and (d >= 6 or (d == 4 and r in (4, 5))):
        return StrategyRow(
            n, d, r,
            (_cat_test(a_mid, d, r),),
            "scheme", "middle catalecticant",
        )
    if n == 2:
        window = binomial(delta + 1, 2) + (1 if d % 2 else 0)
        if r <= window:
            tests = tuple(
                RankTest(
                    "cat",
                    f"rank of the ({a},{d - a}) catalecticant equals "
                    f"min(r, {binomial(a + 2, 2)})",
                    min(r, binomial(a + 2, 2)),
                    a=a,
                )
                for a in range(1, delta + 1)
            )
            return StrategyRow(
                n, d, r, tests, "scheme", "rank-profile membership window",
                notes=("open conditions (exact ranks) also required for membership",),
            )
    known_sharp = not (n == 2 and (d, r) in ((7, 11), (9, 17), (9, 18)))
    tests = [_cat_test(a_mid, d, r)]
    if d % 2 == 1 and r * yf_unit < binomial((d - 1) // 2 + n, n) * binomial(n + 1, n // 2):
        tests.append(
            RankTest("yf", f"size {yf_unit * r + 1} minors of the Young flattening",
                     yf_unit * r)
        )
    if d % 2 == 1 and r <= binomial((d - 1) // 2 + n, n):
        status = "irreducible-component"
        notes: tuple[str, ...] = (REDUCIBLE_CAVEAT,)
    elif d % 2 == 0 and r <= binomial(d // 2 + n - 1, n):
        status = "irreducible-component"
        notes = (REDUCIBLE_CAVEAT,)
    else:
        status = "set"
        notes = ()
    if not known_sharp:
        notes = notes + ("NOT-KNOWN-SHARP: no stronger equations are known",)
    return StrategyRow(
        n, d, r, tuple(tests), status, "generic flattening pair",
        notes=notes, known_sharp=known_sharp,
    )


@dataclass(frozen=True)
class TestResult:
    label: str
    kind: str
    shape: tuple[int, int]
    rank: int
    threshold: int
    excluded: bool
    invariant_name: str | None = None
    invariant_value: Fraction | None = None


@dataclass(frozen=True)
class CertificateReport:
    digest: str
    n: int
    d: int
    r: int
    status: str
    source: str
    notes: tuple[str, ...]
    results: tuple[TestResult, ...]
    excluded: bool
    border_rank_lb: int

    @property
    def verdict(self) -> str:
        return "EXCLUDED" if self.excluded else "CONSISTENT"

    def to_json(self) -> dict:
        return {
            "input_digest": self.digest,
            "n": self.n,
            "degree": self.d,
            "r": self.r,
            "verdict": self.verdict,
            "cuts_out": self.status,
            "source": self.source,
            "notes": list(self.notes),
            "certified_border_rank_lower_bound": self.border_rank_lb,
            "consistent_is_not_membership_proof": True,
            "tests": [
                {
                    "label": t.label,
                    "kind": t.kind,
                    "matrix_shape": list(t.shape),
                    "rank": t.rank,
                    "threshold": t.threshold,
                    "verdict": "EXCLUDED" if t.excluded else "CONSISTENT",
                    **(
                        {t.invariant_name: fraction_to_str(t.invariant_value)}
                        if t.invariant_name is not None
                        else {}
                    ),
                }
                for t in self.results
            ],
        }


def _form_digest(form: HomogForm) -> str:
    payload = json.dumps(to_polynomial_json(form, "tensor"), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def certify(form: HomogForm, r: int) -> CertificateReport:
    """Run the strategy tests for (n, d, r) on the form.

    EXCLUDED means some exact rank exceeded its threshold, which certifies
    that the form has border rank > r.  The report also carries the best
    certified lower bound from the catalecticant and Young flattening
    ranks.  Tests run one after another, in the order of the strategy row,
    which is also the report order.  Each flattening is built and ranked
    once per call: the tests, their invariants (det33, Aronhold) and the
    lower bound all read the same matrices and ranks.
    """
    n = form.nvars - 1
    d = form.degree
    row = strategy(n, d, r)
    built: dict[tuple[str, int | None], tuple[ExactMatrix, int]] = {}

    def flattening(kind: str, a: int | None = None) -> tuple[ExactMatrix, int]:
        if (kind, a) not in built:
            if kind == "cat":
                m = cat_matrix(form, a)
            elif kind == "yf":
                m = young_flattening(form).matrix
            elif kind == "twisted":
                m = symmetric_twisted_flattening(form, (d - 2) // 2)
            else:
                raise ValueError(f"unknown test kind {kind!r}")
            built[kind, a] = (m, m.rank())
        return built[kind, a]

    results = []
    for test in row.tests:
        m, rank = flattening(test.kind, test.a)
        value = None
        if test.invariant == "det33":
            value = m.determinant()
        elif test.invariant == "aronhold":
            value = _aronhold_pfaffian(m)
        results.append(TestResult(
            test.label, test.kind, m.shape, rank, test.threshold,
            rank > test.threshold, test.invariant, value,
        ))
    lb = max(flattening("cat", a)[1] for a in range(1, d // 2 + 1))
    if n == 2 or (n % 2 == 0 and d % 2 == 1):
        # the Young flattening has rank C(n, n/2) at a d-th power
        lb = max(lb, -(-flattening("yf")[1] // binomial(n, n // 2)))
    return CertificateReport(
        digest=_form_digest(form),
        n=n,
        d=d,
        r=r,
        status=row.status,
        source=row.source,
        notes=row.notes,
        results=tuple(results),
        excluded=any(t.excluded for t in results),
        border_rank_lb=lb,
    )
