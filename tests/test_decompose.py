import math
import random
from fractions import Fraction as F

import pytest

from waring.decompose import (
    DecompositionError,
    decompose_binary,
    decompose_quintic,
    kernel_base_locus_hint,
)
from waring.forms import (
    LinearForm,
    parse_polynomial,
    power_form,
    power_sum,
    random_form,
    random_power_sum,
)
from helpers import distinct_power_sum, projective_distance


def test_binary_cube_sum():
    f = parse_polynomial("x0^3 + x1^3", nvars=2)
    dec = decompose_binary(f, 2)
    assert dec.exact and dec.residual == 0.0
    points = sorted(p for _, p in dec.summands)
    assert points == [(F(0), F(1)), (F(1), F(0))]
    assert all(c == 1 for c, _ in dec.summands)


def test_binary_round_trips_exact():
    for seed in range(10):
        d = 5 + (seed % 6)
        r = 2 + seed % max(1, d // 2 - 1)
        phi, gens = distinct_power_sum(2, d, r, seed=500 + seed)
        dec = decompose_binary(phi, r)
        assert dec.exact, (d, r, seed)
        assert dec.residual == 0.0
        recon = power_sum(
            [LinearForm(tuple(F(x) for x in p)) for _, p in dec.summands],
            d,
            [c for c, _ in dec.summands],
        )
        assert recon == phi
        gen_dirs = [tuple(l.coeffs) for l in gens]
        for _, p in dec.summands:
            assert min(projective_distance(p, g) for g in gen_dirs) < 1e-9


def test_binary_repeated_root_error():
    g = parse_polynomial("x0^2*x1", nvars=2)
    with pytest.raises(DecompositionError, match="rank gap"):
        decompose_binary(g, 2)


def test_binary_kernel_dimension_error():
    cube = parse_polynomial("x0^3", nvars=2)
    with pytest.raises(DecompositionError, match="generic rank"):
        decompose_binary(cube, 2)


def test_binary_point_at_infinity():
    # x0^3 + (x0+x1)^3: both points have nonzero second coordinate, so flip
    # roles to force one at infinity: x1^3 + x0^3 includes (1, 0)
    phi = power_sum([LinearForm((F(1), F(0))), LinearForm((F(1), F(1)))], 4)
    dec = decompose_binary(phi, 2)
    assert dec.exact
    assert (F(1), F(0)) in [p for _, p in dec.summands]


def test_binary_numeric_fit_reports_conditioning():
    # (x0 + sqrt2 x1)^4 + (x0 - sqrt2 x1)^4: irrational roots, numeric fit
    phi = parse_polynomial("2*x0^4 + 24*x0^2*x1^2 + 8*x1^4")
    dec = decompose_binary(phi, 2)
    assert not dec.exact
    assert dec.residual < 1e-12
    for key in ("min_root_separation", "cond_vandermonde"):
        assert math.isfinite(dec.info[key]), key
    assert dec.info["min_root_separation"] > 0


def test_binary_determinism():
    phi, _ = distinct_power_sum(2, 9, 4, seed=77)
    a = decompose_binary(phi, 4)
    b = decompose_binary(phi, 4)
    assert a.summands == b.summands


def test_quintic_round_trip():
    phi, gens = distinct_power_sum(3, 5, 7, seed=42)
    dec = decompose_quintic(phi)
    assert len(dec.summands) == 7
    assert dec.residual < 1e-8
    gen_dirs = [tuple(l.coeffs) for l in gens]
    used = set()
    for _, p in dec.summands:
        dists = [projective_distance(p, g) for g in gen_dirs]
        best = min(range(7), key=lambda i: dists[i])
        assert dists[best] < 1e-8
        used.add(best)
    assert used == set(range(7))


def test_quintic_fixed_point_condition():
    phi, _ = distinct_power_sum(3, 5, 7, seed=43)
    dec = decompose_quintic(phi)
    quadrics = dec.info["quadrics"]

    def q_eval(q, p):
        return sum(complex(c) * p[t[0]] * p[t[1]] for t, c in q.items())

    for _, p in dec.summands:
        vec = [q_eval(q, p) for q in quadrics]
        # (q0, q1, q2) at the point is parallel to the point itself
        assert projective_distance(vec, p) < 1e-7


def test_quintic_chart_fallback():
    # every coordinate vanishes at one of the points, so the charts x2, x0
    # and x1 all fail and x0 + x1 + x2 is used
    pts = [(1, 2, 0), (0, 1, 3), (3, 0, 1), (1, 1, 1), (2, -1, 3), (-1, 3, 2), (4, 1, -2)]
    phi = power_sum([LinearForm(tuple(F(x) for x in p)) for p in pts], 5)
    dec = decompose_quintic(phi)
    assert dec.info["chart"] == (1, 1, 1)
    assert dec.residual < 1e-8
    for _, p in dec.summands:
        assert min(projective_distance(p, g) for g in pts) < 1e-8


def test_quintic_special_configuration_error():
    # two collinear triples: the Young flattening has its generic kernel,
    # but the minors' annihilator in degree 4 is 10-dimensional
    pts = [(-2, -1, -1), (-4, -3, 2), (2, -2, 4), (5, 5, 0), (1, 4, -1), (3, -1, -1), (-2, -1, -3)]
    phi = power_sum([LinearForm(tuple(F(x) for x in p)) for p in pts], 5)
    with pytest.raises(DecompositionError, match="annihilator") as err:
        decompose_quintic(phi)
    assert err.value.details["annihilator_dim"] == 10


def test_quintic_six_powers_error():
    phi, _ = distinct_power_sum(3, 5, 6, seed=2)
    with pytest.raises(DecompositionError, match="kernel dimension 6"):
        decompose_quintic(phi)


def test_quintic_rejects_wrong_shape():
    with pytest.raises(ValueError):
        decompose_quintic(random_form(3, 4, seed=1))
    with pytest.raises(ValueError):
        decompose_quintic(random_form(2, 5, seed=1))


def test_quintic_determinism():
    phi, _ = distinct_power_sum(3, 5, 7, seed=44)
    a = decompose_quintic(phi)
    b = decompose_quintic(phi)
    assert a.summands == b.summands


def test_decomposition_json():
    phi, _ = distinct_power_sum(2, 7, 3, seed=3)
    dec = decompose_binary(phi, 3)
    obj = dec.to_json()
    assert obj["exact"] is True
    assert obj["residual"] == 0.0
    assert len(obj["summands"]) == 3
    for s in obj["summands"]:
        assert isinstance(s["coef"], str)  # exact rational string


def test_kernel_base_locus_hint_point():
    l = LinearForm((F(2), F(-1), F(3)))
    hints = kernel_base_locus_hint(power_form(l, 4), 1)
    assert len(hints) == 2
    for h in hints:
        assert h.evaluate(list(l.coeffs)) == 0


def test_kernel_base_locus_hint_conics():
    phi, gens = distinct_power_sum(3, 4, 3, seed=6)
    conics = kernel_base_locus_hint(phi, 2)
    assert len(conics) == 3
    for conic in conics:
        for l in gens:
            assert conic.evaluate(list(l.coeffs)) == 0


def test_kernel_base_locus_hint_full_rank():
    phi = random_form(3, 4, seed=9)
    assert kernel_base_locus_hint(phi, 2) == []
