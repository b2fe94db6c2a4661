import random
from fractions import Fraction as F

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from waring.exactla import ExactMatrix
from helpers import random_skew_matrix


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
def rational_matrices(draw):
    """A product of an nr x k and a k x nc rational matrix, so rank <= k
    and rank-deficient draws are common."""
    nr, k, nc = (draw(st.integers(1, 6)) for _ in range(3))
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
