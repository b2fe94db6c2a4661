import random
from fractions import Fraction as F

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from waring.exactla import ExactMatrix
from waring.flattenings import cat_matrix
from waring.forms import random_power_sum
from helpers import (
    random_skew_matrix,
    reference_inverse,
    reference_kernel,
    reference_rref,
    reference_solve,
)


def test_rank_identity_and_zero():
    assert ExactMatrix.identity(3).rank() == 3
    assert ExactMatrix.zeros(2, 2).rank() == 0


def test_rank_of_cube_point_flattening():
    # the 9x9 wedge-pattern matrix of a ternary cube has exactly two
    # nonzero entries (the 000-component blocks) and rank 2
    rows = [[F(0)] * 9 for _ in range(9)]
    rows[3][6] = F(1)
    rows[6][3] = F(-1)
    assert ExactMatrix(rows).rank() == 2


def test_rank_transpose_and_subadditivity():
    rng = random.Random(1)
    for _ in range(25):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        a = ExactMatrix([[rng.randint(-5, 5) for _ in range(nc)] for _ in range(nr)])
        b = ExactMatrix([[rng.randint(-5, 5) for _ in range(nc)] for _ in range(nr)])
        assert a.rank() == a.transpose().rank()
        assert (a + b).rank() <= a.rank() + b.rank()


def test_rank_deterministic():
    rows = [[F(1, 3), F(2)], [F(1), F(5)], [F(2, 3), F(4)]]
    ranks = {ExactMatrix(rows).rank() for _ in range(5)}
    assert ranks == {2}


def test_kernel_identity_empty_and_zero_full():
    assert ExactMatrix.identity(4).kernel_basis() == []
    basis = ExactMatrix.zeros(2, 3).kernel_basis()
    assert len(basis) == 3


def test_kernel_vectors_annihilate_exactly():
    rng = random.Random(7)
    for _ in range(20):
        nr, nc = rng.randint(1, 6), rng.randint(2, 7)
        m = ExactMatrix(
            [[F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(nc)] for _ in range(nr)]
        )
        basis = m.kernel_basis()
        assert len(basis) == nc - m.rank()
        for v in basis:
            assert all(x == 0 for x in m.mat_vec(list(v)))


def test_determinant_examples():
    assert ExactMatrix.identity(3).determinant() == 1
    assert ExactMatrix([[2, 0], [0, 3]]).determinant() == 6
    with pytest.raises(ValueError):
        ExactMatrix([[1, 2, 3], [4, 5, 6]]).determinant()


def test_determinant_agrees_with_pivotless_cases():
    m = ExactMatrix([[0, 1], [1, 0]])
    assert m.determinant() == -1
    singular = ExactMatrix([[1, 2], [2, 4]])
    assert singular.determinant() == 0


def test_pfaffian_canonical_blocks():
    assert ExactMatrix([[0, 1], [-1, 0]]).pfaffian() == 1
    four = ExactMatrix(
        [
            [0, 1, 0, 0],
            [-1, 0, 0, 0],
            [0, 0, 0, 1],
            [0, 0, -1, 0],
        ]
    )
    assert four.pfaffian() == 1


def test_pfaffian_squares_to_determinant():
    for seed in range(12):
        m = ExactMatrix(random_skew_matrix(6, seed))
        assert m.pfaffian() ** 2 == m.determinant()


def test_pfaffian_odd_dimension_zero():
    m = ExactMatrix(random_skew_matrix(5, 3))
    assert m.pfaffian() == 0


def test_pfaffian_rejects_non_skew_with_location():
    bad = ExactMatrix([[0, 1], [1, 0]])
    with pytest.raises(ValueError, match=r"\(0, 1\)"):
        bad.pfaffian()
    bad_diag = ExactMatrix([[1]])
    with pytest.raises(ValueError, match=r"\(0, 0\)"):
        bad_diag.pfaffian()


def test_pfaffian_signed_permutation_covariance():
    rng = random.Random(11)
    for seed in range(8):
        m = ExactMatrix(random_skew_matrix(6, 20 + seed))
        perm = list(range(6))
        rng.shuffle(perm)
        signs = [rng.choice((1, -1)) for _ in range(6)]
        p = ExactMatrix(
            [[signs[i] if perm[i] == j else 0 for j in range(6)] for i in range(6)]
        )
        conj = p @ m @ p.transpose()
        assert conj.pfaffian() == p.determinant() * m.pfaffian()


def test_principal_submatrix():
    eye = ExactMatrix.identity(3)
    assert eye.principal_submatrix([0, 1]) == ExactMatrix.identity(2)
    assert eye.principal_submatrix(range(3)) == eye
    with pytest.raises(IndexError):
        eye.principal_submatrix([0, 5])


def test_inverse_and_solve():
    m = ExactMatrix([[2, 1], [1, 1]])
    inv = m.inverse()
    assert inv @ m == ExactMatrix.identity(2)
    sol = m.solve([F(3), F(2)])
    assert m.mat_vec(sol) == [F(3), F(2)]
    assert ExactMatrix([[1, 1], [1, 1]]).solve([F(0), F(1)]) is None
    with pytest.raises(ValueError):
        ExactMatrix([[1, 2], [2, 4]]).inverse()


def test_inverse_matches_fraction_entries():
    rng = random.Random(2)
    for _ in range(10):
        n = rng.randint(1, 5)
        rows = [[F(rng.randint(-8, 8), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)]
        m = ExactMatrix(rows)
        if m.determinant() == 0:
            continue
        assert m @ m.inverse() == ExactMatrix.identity(n)


@st.composite
def rational_matrices(draw, square=False):
    """A product of an nr x k and a k x nc rational matrix, so rank <= k
    and rank-deficient draws are common."""
    nr, k, nc = (draw(st.integers(1, 6)) for _ in range(3))
    if square:
        nc = nr
    entry = st.fractions(min_value=-3, max_value=3, max_denominator=3)

    def factor(rows, cols):
        return draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                             min_size=rows, max_size=rows))

    a, b = factor(nr, k), factor(k, nc)
    return [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(nc)]
            for i in range(nr)]


@settings(max_examples=50, deadline=None)
@given(rational_matrices())
def test_rank_and_kernel_agree_with_sympy(rows):
    m = ExactMatrix(rows)
    rank = m.rank()
    assert rank == sympy.Matrix(rows).rank()
    assert rank + len(m.kernel_basis()) == m.ncols


def _to_fraction(x):
    return F(int(x.p), int(x.q))


def assert_reduced_reads_match_reference(rows, *rhs_list):
    """rref, kernel_basis, solve and inverse equal the Fraction
    Gauss-Jordan reference exactly (inverse: or both raise)."""
    m = ExactMatrix(rows)
    reduced = reference_rref(rows)
    assert m.rref() == reduced
    assert m.kernel_basis() == reference_kernel(reduced)
    for rhs in rhs_list:
        assert m.solve(rhs) == reference_solve(rows, rhs)
    try:
        expected = reference_inverse(rows)
    except ValueError:
        with pytest.raises(ValueError):
            m.inverse()
    else:
        assert m.inverse().rows == tuple(tuple(r) for r in expected)


# (nvars, degree, split a, summands): the benchmark's apolar-kernel shapes
APOLAR_SHAPES = (
    (3, 6, 3, 7), (3, 8, 4, 12), (3, 9, 4, 12), (4, 5, 2, 7), (4, 6, 3, 12),
    (4, 7, 3, 15), (5, 6, 3, 20),
)


@pytest.mark.parametrize("nvars, d, a, s", APOLAR_SHAPES)
def test_reduced_reads_match_reference_on_catalecticants(nvars, d, a, s):
    phi, _ = random_power_sum(nvars, d, s, seed=nvars * d + a, height=5)
    rows = cat_matrix(phi, a).rows
    # one consistent right-hand side (a column) and one generic one
    assert_reduced_reads_match_reference(
        rows, [r[-1] for r in rows], [F(i % 3 - 1, 2) for i in range(len(rows))]
    )


def test_reduced_reads_match_reference_on_edge_cases():
    # no rows (a matrix without rows has width 0), no columns, all zero
    for rows in ([], [[], []], [[0] * 4] * 3, [[F(0)] * 2] * 5):
        assert_reduced_reads_match_reference(rows, [F(1)] * len(rows), [0] * len(rows))
    for n in range(1, 5):
        eye = ExactMatrix.identity(n).rows
        assert_reduced_reads_match_reference(eye, [F(j, 3) for j in range(n)])
        assert ExactMatrix(eye).inverse() == ExactMatrix.identity(n)


@settings(max_examples=50, deadline=None)
@given(rational_matrices(), st.data())
def test_reduced_reads_match_reference(rows, data):
    entry = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    rhs = data.draw(st.lists(entry, min_size=len(rows), max_size=len(rows)))
    assert_reduced_reads_match_reference(rows, rhs)


@settings(max_examples=30, deadline=None)
@given(rational_matrices(square=True))
def test_determinant_agrees_with_sympy(rows):
    assert ExactMatrix(rows).determinant() == _to_fraction(sympy.Matrix(rows).det())


@settings(max_examples=30, deadline=None)
@given(rational_matrices(), st.data())
def test_solve_agrees_with_sympy(rows, data):
    m = ExactMatrix(rows)
    entry = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    if data.draw(st.booleans()):
        # a right-hand side in the column space
        y = data.draw(st.lists(entry, min_size=m.ncols, max_size=m.ncols))
        rhs = m.mat_vec(y)
    else:
        rhs = data.draw(st.lists(entry, min_size=m.nrows, max_size=m.nrows))
    a = sympy.Matrix(rows)
    consistent = a.rank() == a.row_join(sympy.Matrix(rhs)).rank()
    x = m.solve(rhs)
    assert (x is not None) == consistent
    if x is not None:
        assert m.mat_vec(x) == list(rhs)


@settings(max_examples=30, deadline=None)
@given(rational_matrices(square=True))
def test_inverse_agrees_with_sympy(rows):
    m = ExactMatrix(rows)
    if sympy.Matrix(rows).det() == 0:
        with pytest.raises(ValueError):
            m.inverse()
    else:
        assert m @ m.inverse() == ExactMatrix.identity(m.nrows)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 8), st.integers(0, 10**6))
def test_pfaffian_squares_to_sympy_determinant(n, seed):
    rows = random_skew_matrix(n, seed)
    det = _to_fraction(sympy.Matrix(rows).det()) if n else F(1)
    assert ExactMatrix(rows).pfaffian() ** 2 == det
