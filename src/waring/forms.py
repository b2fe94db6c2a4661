"""Homogeneous polynomials stored as symmetric-tensor components.

A degree-d form in n+1 variables keeps one rational component per sorted
index tuple (i1 <= ... <= id); the monomial coefficient of x^e is the
component times the multinomial d!/(e0!...en!).  The tensor convention is
canonical here because flattening matrices read their entries off the
components directly; monomial coefficients are an I/O view.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .indexing import (
    exponents_of,
    monomial_tuples,
    multinomial,
    tuple_of_exponents,
)

Rational = Fraction


@dataclass(frozen=True)
class LinearForm:
    """A nonzero linear form, kept as its coefficient vector."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "coeffs", tuple(Fraction(c) for c in self.coeffs)
        )
        if not self.coeffs or all(c == 0 for c in self.coeffs):
            raise ValueError("linear form must have a nonzero coefficient")

    @property
    def nvars(self) -> int:
        return len(self.coeffs)

    def scale(self, c) -> "LinearForm":
        return LinearForm(tuple(Fraction(c) * x for x in self.coeffs))


class HomogForm:
    """Homogeneous polynomial of fixed degree in nvars variables."""

    __slots__ = ("nvars", "degree", "comps")

    def __init__(
        self,
        nvars: int,
        degree: int,
        comps: Mapping[tuple[int, ...], Fraction] | None = None,
    ):
        if nvars < 1 or degree < 0:
            raise ValueError("need nvars >= 1 and degree >= 0")
        clean: dict[tuple[int, ...], Fraction] = {}
        if comps:
            for key, val in comps.items():
                t = tuple(key)
                if len(t) != degree or any(i < 0 or i >= nvars for i in t):
                    raise ValueError(f"bad index tuple {t} for degree {degree}")
                if tuple(sorted(t)) != t:
                    raise ValueError(f"index tuple {t} is not sorted")
                v = Fraction(val)
                if v:
                    clean[t] = v
        self.nvars = nvars
        self.degree = degree
        self.comps = clean

    # -- queries ---------------------------------------------------------------

    def component(self, t: Sequence[int]) -> Fraction:
        """Tensor component at a (not necessarily sorted) index tuple."""
        return self.comps.get(tuple(sorted(t)), Fraction(0))

    def monomial_coeff(self, e: Sequence[int]) -> Fraction:
        return self.component(tuple_of_exponents(e)) * multinomial(e)

    def monomial_terms(self) -> list[tuple[tuple[int, ...], Fraction]]:
        """Nonzero (exponent vector, coefficient) pairs, lex order on tuples."""
        out = []
        for t in sorted(self.comps):
            e = exponents_of(t, self.nvars)
            out.append((e, self.comps[t] * multinomial(e)))
        return out

    def is_zero(self) -> bool:
        return not self.comps

    def __eq__(self, other) -> bool:
        if not isinstance(other, HomogForm):
            return NotImplemented
        return (
            self.nvars == other.nvars
            and self.degree == other.degree
            and self.comps == other.comps
        )

    def __repr__(self) -> str:
        return f"HomogForm(nvars={self.nvars}, degree={self.degree}, terms={len(self.comps)})"

    # -- arithmetic --------------------------------------------------------------

    def __add__(self, other: "HomogForm") -> "HomogForm":
        if (self.nvars, self.degree) != (other.nvars, other.degree):
            raise ValueError("mixed degrees or variable counts")
        comps = dict(self.comps)
        for t, v in other.comps.items():
            comps[t] = comps.get(t, Fraction(0)) + v
        return HomogForm(self.nvars, self.degree, comps)

    def __sub__(self, other: "HomogForm") -> "HomogForm":
        return self + other.scale(-1)

    def scale(self, c) -> "HomogForm":
        c = Fraction(c)
        return HomogForm(
            self.nvars, self.degree, {t: c * v for t, v in self.comps.items()}
        )

    def partial_derivative(self, i: int) -> "HomogForm":
        """d/dx_i; in the tensor convention the component at J is
        degree * component(J + (i,))."""
        if self.degree < 1:
            raise ValueError("cannot differentiate a constant form")
        if i < 0 or i >= self.nvars:
            raise ValueError("variable index out of range")
        d = self.degree
        out: dict[tuple[int, ...], Fraction] = {}
        for t, v in self.comps.items():
            if i in t:
                rest = list(t)
                rest.remove(i)
                key = tuple(rest)
                out[key] = out.get(key, Fraction(0)) + d * v
        return HomogForm(self.nvars, d - 1, out)

    def evaluate(self, point: Sequence) -> Fraction:
        if len(point) != self.nvars:
            raise ValueError("point has wrong length")
        p = [Fraction(x) for x in point]
        total = Fraction(0)
        for t, v in self.comps.items():
            prod = v * multinomial(exponents_of(t, self.nvars))
            for i in t:
                prod *= p[i]
            total += prod
        return total

    def component_vector(self) -> list[Fraction]:
        """Components listed over all sorted tuples in lex order."""
        return [
            self.comps.get(t, Fraction(0))
            for t in monomial_tuples(self.nvars, self.degree)
        ]

    def max_abs_component(self) -> Fraction:
        if not self.comps:
            return Fraction(0)
        return max(abs(v) for v in self.comps.values())


def zero_form(nvars: int, degree: int) -> HomogForm:
    return HomogForm(nvars, degree, {})


def from_monomial_coeffs(
    nvars: int,
    degree: int,
    terms: Iterable[tuple[Sequence[int], Fraction]],
) -> HomogForm:
    """Build a form from (exponent vector, monomial coefficient) pairs."""
    comps: dict[tuple[int, ...], Fraction] = {}
    for e, c in terms:
        e = tuple(e)
        if len(e) != nvars:
            raise ValueError(f"exponent vector {e} has wrong length")
        if sum(e) != degree:
            raise ValueError(f"exponent vector {e} does not have degree {degree}")
        t = tuple_of_exponents(e)
        comps[t] = comps.get(t, Fraction(0)) + Fraction(c) / multinomial(e)
    return HomogForm(nvars, degree, comps)


def power_form(l: LinearForm, degree: int) -> HomogForm:
    """The d-th power of a linear form; component at (i1..id) is the product
    of the corresponding coefficients."""
    comps: dict[tuple[int, ...], Fraction] = {}
    for t in monomial_tuples(l.nvars, degree):
        prod = Fraction(1)
        for i in t:
            prod *= l.coeffs[i]
        if prod:
            comps[t] = prod
    return HomogForm(l.nvars, degree, comps)


def power_sum(forms: Iterable[LinearForm], degree: int, coeffs=None) -> HomogForm:
    forms = list(forms)
    if coeffs is None:
        coeffs = [Fraction(1)] * len(forms)
    total = zero_form(forms[0].nvars, degree)
    for c, l in zip(coeffs, forms):
        total = total + power_form(l, degree).scale(c)
    return total


def random_linear_form(
    rng: random.Random, nvars: int, height: int = 10
) -> LinearForm:
    while True:
        coords = tuple(rng.randint(-height, height) for _ in range(nvars))
        if any(coords):
            return LinearForm(tuple(Fraction(c) for c in coords))


def random_power_sum(
    nvars: int, degree: int, r: int, seed: int, height: int = 10
) -> tuple[HomogForm, list[LinearForm]]:
    """Deterministic sum of r random d-th powers with integer coordinates
    bounded by the height; returns the sum and the summands.

    Draws are not checked for degeneracy (e.g. proportional summands);
    genericity failures surface as rank assertions downstream and are
    handled by reseeding there.
    """
    if r < 1:
        raise ValueError("need r >= 1")
    rng = random.Random(seed)
    forms = [random_linear_form(rng, nvars, height) for _ in range(r)]
    return power_sum(forms, degree), forms


def random_form(nvars: int, degree: int, seed: int, height: int = 10) -> HomogForm:
    """Random form with integer tensor components in [-height, height]."""
    rng = random.Random(seed)
    comps = {
        t: Fraction(rng.randint(-height, height))
        for t in monomial_tuples(nvars, degree)
    }
    return HomogForm(nvars, degree, comps)


# -- rational string and JSON serialization -------------------------------------


def fraction_to_str(x) -> str:
    return str(Fraction(x))


def fraction_from_str(s: str) -> Fraction:
    return Fraction(str(s).strip())


def to_polynomial_json(form: HomogForm, convention: str = "monomial") -> dict:
    """Serialize under the documented polynomial JSON contract."""
    if convention == "monomial":
        terms = [
            {"c": fraction_to_str(c), "e": list(e)}
            for e, c in form.monomial_terms()
        ]
    elif convention == "tensor":
        terms = [
            {
                "c": fraction_to_str(form.comps[t]),
                "e": list(exponents_of(t, form.nvars)),
            }
            for t in sorted(form.comps)
        ]
    else:
        raise ValueError(f"unknown convention {convention!r}")
    return {
        "vars": form.nvars,
        "degree": form.degree,
        "convention": convention,
        "terms": terms,
    }


def polynomial_from_json(obj: Mapping) -> HomogForm:
    try:
        nvars = int(obj["vars"])
        degree = int(obj["degree"])
        convention = obj.get("convention", "monomial")
        raw_terms = obj["terms"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed polynomial JSON: {exc}") from exc
    if convention not in ("monomial", "tensor"):
        raise ValueError(f"unknown convention {convention!r}")
    pairs = []
    for term in raw_terms:
        try:
            c = fraction_from_str(term["c"])
            e = tuple(int(k) for k in term["e"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed term {term!r}: {exc}") from exc
        if len(e) != nvars or any(k < 0 for k in e):
            raise ValueError(f"bad exponent vector {e}")
        if sum(e) != degree:
            raise ValueError(f"exponent vector {e} does not sum to degree {degree}")
        pairs.append((e, c))
    if convention == "monomial":
        return from_monomial_coeffs(nvars, degree, pairs)
    comps: dict[tuple[int, ...], Fraction] = {}
    for e, c in pairs:
        t = tuple_of_exponents(e)
        comps[t] = comps.get(t, Fraction(0)) + c
    return HomogForm(nvars, degree, comps)


# -- inline polynomial text format ----------------------------------------------

_TOKEN = re.compile(r"\s*([+-]|\d+/\d+|\d+|x\d+|\^|\*)")


def parse_polynomial(text: str, nvars: int | None = None) -> HomogForm:
    """Parse inline syntax like "3/2*x0^2*x1 - x2^3".

    Terms are separated by + or -; each term is an optional rational
    coefficient and '*'-separated powers of variables x0, x1, ...  A sign
    directly after a sign, two factors with no '*' between them, and a
    sign or '*' with nothing after it raise ValueError.  The degree is the
    common total degree of the terms and the variable count defaults to
    one more than the largest index used.
    """
    pos = 0
    tokens: list[str] = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ValueError(f"cannot parse polynomial near {text[pos:pos+12]!r}")
            break
        tokens.append(m.group(1))
        pos = m.end()
    if not tokens:
        raise ValueError("empty polynomial")

    terms: list[tuple[dict[int, int], Fraction]] = []
    i = 0

    def parse_term(start: int) -> int:
        nonlocal terms
        coeff = Fraction(1)
        powers: dict[int, int] = {}
        k = start
        saw_factor = False
        expect_factor = True
        while k < len(tokens):
            tok = tokens[k]
            if tok in "+-" and not expect_factor:
                break
            if tok == "*":
                if expect_factor:
                    raise ValueError("factor expected before '*'")
                expect_factor = True
                k += 1
                continue
            if not expect_factor:
                raise ValueError(f"'*' expected before {tok!r}")
            if re.fullmatch(r"\d+(/\d+)?", tok):
                coeff *= Fraction(tok)
                saw_factor = True
                expect_factor = False
                k += 1
            elif tok.startswith("x"):
                idx = int(tok[1:])
                exp = 1
                if k + 1 < len(tokens) and tokens[k + 1] == "^":
                    if k + 2 >= len(tokens) or not tokens[k + 2].isdigit():
                        raise ValueError("exponent expected after '^'")
                    exp = int(tokens[k + 2])
                    k += 2
                powers[idx] = powers.get(idx, 0) + exp
                saw_factor = True
                expect_factor = False
                k += 1
            else:
                raise ValueError(f"unexpected token {tok!r}")
        if not saw_factor:
            raise ValueError("empty term")
        if expect_factor:
            raise ValueError("factor expected after '*'")
        terms.append((powers, coeff))
        return k

    sign = 0  # the pending sign: +1, -1, or 0 when none
    while i < len(tokens):
        if tokens[i] in ("+", "-"):
            if sign:
                raise ValueError(f"term expected before {tokens[i]!r}")
            sign = -1 if tokens[i] == "-" else 1
            i += 1
            continue
        j = parse_term(i)
        powers, coeff = terms[-1]
        terms[-1] = (powers, coeff * (sign or 1))
        sign = 0
        i = j
    if tokens[-1] in ("+", "-"):
        raise ValueError(f"term expected after {tokens[-1]!r}")

    degrees = {sum(p.values()) for p, _ in terms}
    if len(degrees) != 1:
        raise ValueError(f"terms have mixed degrees {sorted(degrees)}")
    degree = degrees.pop()
    max_idx = max((max(p) for p, _ in terms if p), default=-1)
    if nvars is None:
        nvars = max_idx + 1
    if max_idx >= nvars:
        raise ValueError(f"variable x{max_idx} exceeds nvars={nvars}")
    pairs = []
    for powers, coeff in terms:
        e = [0] * nvars
        for idx, exp in powers.items():
            e[idx] += exp
        pairs.append((tuple(e), coeff))
    return from_monomial_coeffs(nvars, degree, pairs)
