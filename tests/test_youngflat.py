import random
from fractions import Fraction as F
from math import comb

import pytest

from waring.exactla import ExactMatrix
from waring.flattenings import cat_matrix
from waring.forms import (
    LinearForm,
    power_form,
    random_form,
    random_linear_form,
    random_power_sum,
)
from waring.geom import dim_sab
from waring.youngflat import (
    euler_kernel_vectors,
    flattening_from_power_rule,
    koszul_matrix,
    power_span_basis,
    q_twisted_flattening,
    symmetric_twisted_flattening,
    twisted_power_rule,
    x_power_yf_rank,
    yf_border_rank_lb,
    young_flattening,
    young_power_rule,
)
from helpers import (
    K2_REFERENCE,
    K4_REFERENCE,
    pattern_cells,
    signed_permutation_match,
)


def test_koszul_cells_basic():
    pat = koszul_matrix(2, 1)
    assert pat.cells[((0, 1), (1,))] == (0, 1)
    assert pat.cells[((0, 1), (0,))] == (1, -1)
    with pytest.raises(ValueError):
        koszul_matrix(2, 3)


def test_koszul_instantiate_at_zero():
    pat = koszul_matrix(2, 1)
    m = pat.instantiate((0, 0, 0))
    assert m == ExactMatrix.zeros(3, 3)


def test_koszul_matches_reference_patterns():
    assert signed_permutation_match(pattern_cells(koszul_matrix(2, 1)), K2_REFERENCE, 3)
    assert signed_permutation_match(pattern_cells(koszul_matrix(4, 2)), K4_REFERENCE, 10)
    # the volume-identified squares match too and carry the right symmetry
    ident2 = koszul_matrix(2, 1).volume_identified()
    assert signed_permutation_match(pattern_cells(ident2), K2_REFERENCE, 3)
    assert ident2.instantiate((1, 2, 3)).is_skew_symmetric()
    ident4 = koszul_matrix(4, 2).volume_identified()
    assert signed_permutation_match(pattern_cells(ident4), K4_REFERENCE, 10)
    assert ident4.instantiate((1, 2, 3, 4, 5)).is_symmetric()


def test_young_flattening_ternary_cubic_blocks():
    """The 9x9 flattening of a ternary cubic is the wedge-pattern block
    matrix with 3x3 component blocks, up to a signed permutation."""
    phi = random_form(3, 3, seed=5)
    yf = young_flattening(phi)
    assert yf.matrix.shape == (9, 9)
    assert yf.structure == "skew"
    assert yf.matrix.is_skew_symmetric()

    def block(i):
        return [
            [phi.component(tuple(sorted((a, b, i)))) for b in range(3)]
            for a in range(3)
        ]

    reference = [[F(0)] * 9 for _ in range(9)]
    for (bi, bj), (var, sgn) in K2_REFERENCE.items():
        for a in range(3):
            for b in range(3):
                reference[bi * 3 + a][bj * 3 + b] = sgn * block(var)[a][b]
    ref = ExactMatrix(reference)
    assert ref.is_skew_symmetric()
    assert ref.rank() == yf.matrix.rank()
    mine = sorted(sorted(abs(x) for x in row) for row in yf.matrix.rows)
    theirs = sorted(sorted(abs(x) for x in row) for row in ref.rows)
    assert mine == theirs


def test_young_flattening_rank_at_powers():
    for n in (1, 2, 3, 4):
        for d in (2, 3, 4, 5):
            l = random_linear_form(random.Random(10 * n + d), n + 1, 8)
            yf = young_flattening(power_form(l, d))
            assert yf.matrix.rank() == comb(n, n // 2), (n, d)
            assert yf.rank_unit == comb(n, n // 2)


def test_young_flattening_five_variable_cubic():
    phi = random_form(5, 3, seed=2)
    yf = young_flattening(phi)
    assert yf.matrix.shape == (50, 50)
    assert yf.structure == "symmetric"
    assert yf.matrix.is_symmetric()
    # blocks follow the identified wedge pattern with 5x5 component blocks
    ident = koszul_matrix(4, 2).volume_identified()
    rpos = {K: i for i, K in enumerate(ident.rows)}
    cpos = {I: j for j, I in enumerate(ident.cols)}
    cells = {(rpos[K], cpos[I]): cell for (K, I), cell in ident.cells.items()}
    for bi in range(10):
        for bj in range(10):
            blk = [
                [yf.matrix[(5 * bi + a, 5 * bj + b)] for b in range(5)]
                for a in range(5)
            ]
            if (bi, bj) not in cells:
                assert all(x == 0 for row in blk for x in row)
            else:
                var, sgn = cells[(bi, bj)]
                for a in range(5):
                    for b in range(5):
                        want = sgn * phi.component(tuple(sorted((a, b, var))))
                        assert blk[a][b] == want


def test_young_flattening_even_degree_rectangular():
    phi = random_form(3, 4, seed=1)
    yf = young_flattening(phi)
    assert yf.structure == "rectangular"
    assert yf.matrix.shape == (18, 9)


def test_yf_border_rank_lb():
    l = LinearForm((F(1), F(4), F(-3)))
    assert yf_border_rank_lb(power_form(l, 5)) == 1
    phi7, _ = random_power_sum(3, 5, 7, seed=3)
    assert yf_border_rank_lb(phi7) == 7
    phi10, _ = random_power_sum(3, 7, 10, seed=3)
    assert yf_border_rank_lb(phi10) == 10


def test_yf_rank_bound_on_power_sums():
    for seed, (d, r) in enumerate([(3, 2), (5, 4), (5, 9), (7, 6)]):
        phi, _ = random_power_sum(3, d, r, seed=60 + seed)
        assert young_flattening(phi).matrix.rank() <= 2 * r


def test_euler_vectors_kill_every_flattening():
    for seed in range(6):
        phi = random_form(3, 5, seed=seed)  # arbitrary, not low rank
        m = young_flattening(phi).matrix
        for v in euler_kernel_vectors(5):
            assert all(x == 0 for x in m.mat_vec(list(v)))
    # degree 7 as well
    phi = random_form(3, 7, seed=0)
    m = young_flattening(phi).matrix
    for v in euler_kernel_vectors(7):
        assert all(x == 0 for x in m.mat_vec(list(v)))


def test_rank7_quintic_kernel_dimension():
    phi, _ = random_power_sum(3, 5, 7, seed=8)
    m = young_flattening(phi).matrix
    assert m.rank() == 14
    assert len(m.kernel_basis()) == 4


def test_power_span_basis():
    b = power_span_basis(2, 1, seed=0)
    assert len(b.forms) == 2
    b6 = power_span_basis(3, 2, seed=0)
    assert len(b6.forms) == 6
    # expansion reconstructs a power exactly
    l = LinearForm((F(3), F(-1), F(2)))
    f = power_form(l, 2)
    coeffs = b6.expand(f)
    from waring.forms import power_sum

    assert power_sum(list(b6.forms), 2, coeffs) == f


def test_power_rule_cross_check():
    phi, _ = random_power_sum(3, 5, 5, seed=12)
    rule = young_power_rule(3, 5)
    assert flattening_from_power_rule(phi, rule) == young_flattening(phi).matrix


def test_power_rule_at_power_is_rule_value():
    rule = young_power_rule(3, 3)
    basis = power_span_basis(3, 3, seed=0)
    l = basis.forms[0]
    f = power_form(l, 3)
    assert flattening_from_power_rule(f, rule, basis=basis) == rule.at_power(l)


def test_power_rule_basis_independence():
    phi, _ = random_power_sum(3, 6, 4, seed=9)
    rule = twisted_power_rule(2, 2)
    m1 = flattening_from_power_rule(phi, rule, seed=0)
    m2 = flattening_from_power_rule(phi, rule, seed=31337)
    assert m1 == m2


# (flattening, (u, t) of its power rule, degree) for symmetric p = 1..4 and
# q-twisted (p, q) = (1,1), (2,1), (3,1), (1,2), (2,2)
TWISTED_CASES = [
    (lambda f, p=p: symmetric_twisted_flattening(f, p), (p, 2), 2 * p + 2)
    for p in (1, 2, 3, 4)
] + [
    (lambda f, p=p, q=q: q_twisted_flattening(f, p, q), (2 * q, p - 1), p + 4 * q - 1)
    for p, q in ((1, 1), (2, 1), (3, 1), (1, 2), (2, 2))
]


def test_twisted_contraction_matches_power_rule():
    """The contraction build equals the rule at powers, and on a random
    form equals the extension of the rule through a power-span basis;
    since powers span and both sides are linear, this pins it down."""
    rng = random.Random(11)
    for build, (u, t), d in TWISTED_CASES:
        rule = twisted_power_rule(u, t)
        for _ in range(3):
            l = random_linear_form(rng, 3, 9)
            assert build(power_form(l, d)) == rule.at_power(l), (u, t)
        if d <= 6:
            phi = random_form(3, d, seed=u + 10 * t)
            assert build(phi) == flattening_from_power_rule(phi, rule), (u, t)


def test_symmetric_twisted_flattening():
    for p in (1, 2, 3):
        l = random_linear_form(random.Random(p), 3, 9)
        m = symmetric_twisted_flattening(power_form(l, 2 * p + 2), p)
        assert m.shape == (comb(p + 2, 2) * 6,) * 2
        assert m.rank() == 3
    phi, _ = random_power_sum(3, 6, 3, seed=4)
    m = symmetric_twisted_flattening(phi, 2)
    assert m.is_symmetric()
    assert m.rank() <= 9
    seven, _ = random_power_sum(3, 6, 7, seed=5)
    assert symmetric_twisted_flattening(seven, 2).rank() <= 21
    with pytest.raises(ValueError):
        symmetric_twisted_flattening(random_form(3, 5, seed=1), 2)


def test_q_twisted_flattening():
    cases = {(1, 1): "symmetric", (2, 1): "skew", (3, 1): "symmetric", (2, 2): "skew"}
    for (p, q), structure in cases.items():
        d = p + 4 * q - 1
        l = random_linear_form(random.Random(3 * p + q), 3, 9)
        m = q_twisted_flattening(power_form(l, d), p, q)
        assert m.rank() == p, (p, q)
        if structure == "skew":
            assert m.is_skew_symmetric()
        else:
            assert m.is_symmetric()
    with pytest.raises(ValueError):
        q_twisted_flattening(random_form(3, 5, seed=0), 3, 1)


def test_q_twisted_quintic_matches_young_flattening_family():
    # (p, q) = (2, 1) is the 18x18 skew quintic flattening in another basis
    for seed in range(3):
        phi, _ = random_power_sum(3, 5, seed + 3, seed=70 + seed)
        m = q_twisted_flattening(phi, 2, 1)
        yf = young_flattening(phi).matrix
        assert m.shape == yf.shape == (18, 18)
        assert m.rank() == yf.rank()
        assert m.is_skew_symmetric()


def test_q_twisted_rank_bound_on_sums():
    for k in (2, 3):
        phi, _ = random_power_sum(3, 5, k, seed=80 + k)
        assert q_twisted_flattening(phi, 2, 1).rank() <= 2 * k
    phi, _ = random_power_sum(3, 6, 4, seed=90)
    assert q_twisted_flattening(phi, 3, 1).rank() <= 12


def test_x_power_rank_formula():
    assert x_power_yf_rank(3, 2, 2, 1) == 2
    assert x_power_yf_rank(4, 2, 2, 2) == 3
    for a in range(0, 9):
        for b in range(0, a + 1):
            assert x_power_yf_rank(a, b, 0, 0) == dim_sab(a, b)
    with pytest.raises(ValueError):
        x_power_yf_rank(2, 3, 0, 0)
    with pytest.raises(ValueError):
        x_power_yf_rank(3, 2, 3, 0)
    with pytest.raises(ValueError):
        x_power_yf_rank(3, 2, 0, 2)
