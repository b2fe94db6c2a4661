import json
import random
from fractions import Fraction as F

import pytest

from waring.forms import (
    HomogForm,
    LinearForm,
    from_monomial_coeffs,
    parse_polynomial,
    polynomial_from_json,
    power_form,
    power_sum,
    random_power_sum,
    to_polynomial_json,
    zero_form,
)


def test_monomial_to_tensor_scaling():
    # 6*x0*x1*x2 has tensor component 1 at (0,1,2)
    f = from_monomial_coeffs(3, 3, [((1, 1, 1), F(6))])
    assert f.component((0, 1, 2)) == 1
    # x0^3 stays 1
    g = from_monomial_coeffs(3, 3, [((3, 0, 0), F(1))])
    assert g.component((0, 0, 0)) == 1
    # 3*x0^2*x1 with coefficient 3 gives component 1
    h = from_monomial_coeffs(3, 3, [((2, 1, 0), F(3))])
    assert h.component((0, 0, 1)) == 1


def test_monomial_round_trip():
    rng = random.Random(5)
    for _ in range(10):
        f = HomogForm(
            3,
            4,
            {
                t: F(rng.randint(-9, 9), rng.randint(1, 5))
                for t in [(0, 0, 1, 2), (1, 1, 2, 2), (0, 1, 2, 2), (0, 0, 0, 0)]
            },
        )
        rebuilt = from_monomial_coeffs(3, 4, f.monomial_terms())
        assert rebuilt == f


def test_degree_mismatch_rejected():
    with pytest.raises(ValueError):
        from_monomial_coeffs(2, 3, [((1, 1), F(1))])


def test_partial_derivative_basic():
    cube = parse_polynomial("x0^3", nvars=3)
    dx0 = cube.partial_derivative(0)
    assert dx0.monomial_terms() == [((2, 0, 0), F(3))]
    assert cube.partial_derivative(1).is_zero()


def test_partial_derivative_tensor_component():
    # derivative of x0*x1*x2 by x2 is x0*x1, whose tensor component at
    # (0,1) is 1/2; the component rule gives 3 * component(0,1,2) = 1/2
    f = parse_polynomial("x0*x1*x2")
    d = f.partial_derivative(2)
    assert d.component((0, 1)) == F(1, 2)
    assert d.monomial_terms() == [((1, 1, 0), F(1))]


def test_euler_identity():
    rng = random.Random(9)
    for seed in range(5):
        f, _ = random_power_sum(3, 4, 3, seed=seed)
        total = zero_form(3, 4)
        for i in range(3):
            m = {}
            d = f.partial_derivative(i)
            # multiply by x_i inside the tensor convention via monomials
            terms = [
                (tuple(e[k] + (1 if k == i else 0) for k in range(3)), c)
                for e, c in d.monomial_terms()
            ]
            total = total + from_monomial_coeffs(3, 4, terms)
        assert total == f.scale(4)


def test_power_form_examples():
    cube = power_form(LinearForm((F(1), F(0), F(0))), 3)
    assert cube == parse_polynomial("x0^3", nvars=3)
    square = power_form(LinearForm((F(1), F(1))), 2)
    assert square == parse_polynomial("x0^2 + 2*x0*x1 + x1^2")


def test_power_form_scaling_law():
    l = LinearForm((F(2), F(-3), F(1)))
    for d in (2, 3, 5):
        assert power_form(l.scale(F(5, 7)), d) == power_form(l, d).scale(F(5, 7) ** d)


def test_random_power_sum_deterministic():
    a, fa = random_power_sum(3, 5, 4, seed=123)
    b, fb = random_power_sum(3, 5, 4, seed=123)
    assert a == b
    assert fa == fb
    c, _ = random_power_sum(3, 5, 4, seed=124)
    assert a != c


def test_evaluate():
    assert parse_polynomial("x0^3", nvars=3).evaluate([2, 0, 0]) == 8
    assert zero_form(3, 4).evaluate([1, 2, 3]) == 0
    square = power_form(LinearForm((F(1), F(1))), 2)
    assert square.evaluate([1, 1]) == 4


def test_evaluate_power_sum_identity():
    rng = random.Random(3)
    phi, forms = random_power_sum(3, 4, 3, seed=8)
    for _ in range(5):
        p = [F(rng.randint(-4, 4)) for _ in range(3)]
        expected = sum(
            (sum(c * x for c, x in zip(l.coeffs, p))) ** 4 for l in forms
        )
        assert phi.evaluate(p) == expected


def test_json_round_trip_both_conventions():
    f, _ = random_power_sum(3, 4, 2, seed=6)
    f = f.scale(F(3, 7))
    for convention in ("monomial", "tensor"):
        obj = to_polynomial_json(f, convention)
        text = json.dumps(obj)
        assert polynomial_from_json(json.loads(text)) == f


def test_json_validation():
    with pytest.raises(ValueError):
        polynomial_from_json({"vars": 2, "degree": 2, "terms": [{"c": "1", "e": [1, 0]}]})
    with pytest.raises(ValueError):
        polynomial_from_json({"vars": 2, "terms": []})
    with pytest.raises(ValueError):
        polynomial_from_json(
            {"vars": 2, "degree": 2, "convention": "weird", "terms": []}
        )


def test_parse_polynomial():
    f = parse_polynomial("3/2*x0^2*x1 - x2^3 + x0*x1*x2")
    assert f.monomial_coeff((2, 1, 0)) == F(3, 2)
    assert f.monomial_coeff((0, 0, 3)) == -1
    assert f.monomial_coeff((1, 1, 1)) == 1
    with pytest.raises(ValueError):
        parse_polynomial("x0^2 + x1")  # mixed degrees
    with pytest.raises(ValueError):
        parse_polynomial("x0 + ")
    with pytest.raises(ValueError):
        parse_polynomial("x0*")
    # a sign right after a sign, and factors with no '*' between them
    for text in ("- - x0", "x0 + - x1", "x0 x1", "2 3 x0"):
        with pytest.raises(ValueError):
            parse_polynomial(text)
    assert parse_polynomial("-x0 + 2*x1").monomial_coeff((1, 0)) == -1
    with pytest.raises(ValueError):
        parse_polynomial("x3", nvars=2)


def test_linear_form_must_be_nonzero():
    with pytest.raises(ValueError):
        LinearForm((F(0), F(0)))
