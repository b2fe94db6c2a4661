"""Exact dense linear algebra over the rationals.

Scalars are arbitrary-precision rationals (``fractions.Fraction``, always
in lowest terms with positive denominator); integers are accepted
anywhere a scalar is and mix exactly.  Rank and determinant run
fraction-free (Bareiss) elimination on integer rows obtained by clearing
denominators, so no rounding can ever occur and identical inputs give
bit-identical results.  Matrices are immutable after construction.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

Scalar = Fraction | int


class ExactMatrix:
    """Immutable dense matrix of exact rationals."""

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, rows: Iterable[Sequence[Scalar]]):
        frozen = tuple(tuple(r) for r in rows)
        if frozen:
            width = len(frozen[0])
            for r in frozen:
                if len(r) != width:
                    raise ValueError("ragged rows")
        else:
            width = 0
        self.rows = frozen
        self.nrows = len(frozen)
        self.ncols = width

    # -- construction helpers -------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "ExactMatrix":
        return cls([[0] * ncols for _ in range(nrows)])

    # -- basic protocol --------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def __getitem__(self, idx: tuple[int, int]) -> Scalar:
        i, j = idx
        return self.rows[i][j]

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.shape != other.shape:
            return False
        return all(
            self.rows[i][j] == other.rows[i][j]
            for i in range(self.nrows)
            for j in range(self.ncols)
        )

    def __hash__(self):
        return hash((self.shape, tuple(tuple(Fraction(x) for x in r) for r in self.rows)))

    def __repr__(self) -> str:
        return f"ExactMatrix({self.nrows}x{self.ncols})"

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        return ExactMatrix(
            [
                [self.rows[i][j] + other.rows[i][j] for j in range(self.ncols)]
                for i in range(self.nrows)
            ]
        )

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        return ExactMatrix(
            [
                [self.rows[i][j] - other.rows[i][j] for j in range(self.ncols)]
                for i in range(self.nrows)
            ]
        )

    def scale(self, c: Scalar) -> "ExactMatrix":
        return ExactMatrix([[c * x for x in r] for r in self.rows])

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        cols = other.ncols
        out = []
        for i in range(self.nrows):
            ri = self.rows[i]
            out.append(
                [
                    sum(ri[k] * other.rows[k][j] for k in range(self.ncols))
                    for j in range(cols)
                ]
            )
        return ExactMatrix(out)

    def mat_vec(self, v: Sequence[Scalar]) -> list[Scalar]:
        if len(v) != self.ncols:
            raise ValueError("length mismatch")
        return [sum(r[k] * v[k] for k in range(self.ncols)) for r in self.rows]

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(
            [[self.rows[i][j] for i in range(self.nrows)] for j in range(self.ncols)]
        )

    def is_skew_symmetric(self) -> bool:
        if self.nrows != self.ncols:
            return False
        return self._skew_defect() is None

    def is_symmetric(self) -> bool:
        if self.nrows != self.ncols:
            return False
        return all(
            self.rows[i][j] == self.rows[j][i]
            for i in range(self.nrows)
            for j in range(i + 1, self.ncols)
        )

    def _skew_defect(self) -> tuple[int, int] | None:
        """First entry (row-major) violating m = -m^T, or None."""
        for i in range(self.nrows):
            if self.rows[i][i] != 0:
                return (i, i)
            for j in range(i + 1, self.ncols):
                if self.rows[i][j] != -self.rows[j][i]:
                    return (i, j)
        return None

    # -- integer normal form ---------------------------------------------------

    def _integer_rows(self) -> tuple[list[list[int]], list[int]]:
        """Rows scaled by the lcm of their denominators; returns (rows, scales)."""
        out: list[list[int]] = []
        scales: list[int] = []
        for r in self.rows:
            lcm = 1
            for x in r:
                if isinstance(x, Fraction):
                    d = x.denominator
                    lcm = lcm // gcd(lcm, d) * d
            if lcm == 1:
                out.append([int(x) for x in r])
            else:
                out.append([int(x * lcm) for x in r])
            scales.append(lcm)
        return out, scales

    # -- rank, determinant, kernel, Pfaffian ------------------------------------

    def rank(self) -> int:
        """Exact rank over Q via fraction-free (Bareiss) elimination.

        Rows are scaled to integers first; the pivot is the first row with
        a nonzero entry in the current column, so results are deterministic.
        """
        m, _ = self._integer_rows()
        nr, nc = self.nrows, self.ncols
        rank = 0
        prev = 1
        for col in range(nc):
            pivot_row = -1
            for i in range(rank, nr):
                if m[i][col]:
                    pivot_row = i
                    break
            if pivot_row < 0:
                continue
            if pivot_row != rank:
                m[rank], m[pivot_row] = m[pivot_row], m[rank]
            p = m[rank][col]
            prow = m[rank]
            for i in range(rank + 1, nr):
                ri = m[i]
                f = ri[col]
                # every entry of the trailing block is rescaled by p/prev,
                # even in rows with nothing to eliminate (f == 0)
                if f:
                    for j in range(col + 1, nc):
                        ri[j] = (p * ri[j] - f * prow[j]) // prev
                    ri[col] = 0
                else:
                    for j in range(col + 1, nc):
                        ri[j] = (p * ri[j]) // prev
            prev = p
            rank += 1
            if rank == nr:
                break
        return rank

    def determinant(self) -> Fraction:
        """Exact determinant (square matrices only)."""
        if self.nrows != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        n = self.nrows
        if n == 0:
            return Fraction(1)
        m, scales = self._integer_rows()
        sign = 1
        prev = 1
        for col in range(n):
            pivot_row = -1
            for i in range(col, n):
                if m[i][col]:
                    pivot_row = i
                    break
            if pivot_row < 0:
                return Fraction(0)
            if pivot_row != col:
                m[col], m[pivot_row] = m[pivot_row], m[col]
                sign = -sign
            p = m[col][col]
            prow = m[col]
            for i in range(col + 1, n):
                ri = m[i]
                f = ri[col]
                for j in range(col + 1, n):
                    ri[j] = (p * ri[j] - f * prow[j]) // prev
                ri[col] = 0
            prev = p
        det = Fraction(sign * m[n - 1][n - 1])
        for s in scales:
            det /= s
        return det

    def rref(self) -> tuple[list[list[Fraction]], list[int]]:
        """Reduced row echelon form over Q; returns (rows, pivot columns)."""
        m = [[Fraction(x) for x in r] for r in self.rows]
        pivots: list[int] = []
        r = 0
        for col in range(self.ncols):
            pivot_row = -1
            for i in range(r, self.nrows):
                if m[i][col]:
                    pivot_row = i
                    break
            if pivot_row < 0:
                continue
            m[r], m[pivot_row] = m[pivot_row], m[r]
            p = m[r][col]
            m[r] = [x / p for x in m[r]]
            for i in range(self.nrows):
                if i != r and m[i][col]:
                    f = m[i][col]
                    m[i] = [a - f * b for a, b in zip(m[i], m[r])]
            pivots.append(col)
            r += 1
            if r == self.nrows:
                break
        return m, pivots

    def kernel_basis(self) -> list[tuple[Fraction, ...]]:
        """Exact basis of the right kernel; cols - rank vectors with m @ v = 0."""
        m, pivots = self.rref()
        pivot_set = set(pivots)
        free_cols = [c for c in range(self.ncols) if c not in pivot_set]
        basis = []
        for fc in free_cols:
            v = [Fraction(0)] * self.ncols
            v[fc] = Fraction(1)
            for r, pc in enumerate(pivots):
                v[pc] = -m[r][fc]
            basis.append(tuple(v))
        return basis

    def solve(self, rhs: Sequence[Scalar]) -> list[Fraction] | None:
        """One exact solution of m @ x = rhs, or None when inconsistent."""
        if len(rhs) != self.nrows:
            raise ValueError("length mismatch")
        aug = ExactMatrix(
            [list(self.rows[i]) + [rhs[i]] for i in range(self.nrows)]
        )
        m, pivots = aug.rref()
        for r, pc in enumerate(pivots):
            if pc == self.ncols:
                return None
        x = [Fraction(0)] * self.ncols
        for r, pc in enumerate(pivots):
            x[pc] = m[r][self.ncols]
        return x

    def inverse(self) -> "ExactMatrix":
        """Exact inverse: the right half of the rref of [A | I].

        Raises ValueError when the matrix is singular.
        """
        if self.nrows != self.ncols:
            raise ValueError("inverse of a non-square matrix")
        n = self.nrows
        if n == 0:
            return ExactMatrix([])
        aug = ExactMatrix(
            [
                list(self.rows[i]) + [1 if j == i else 0 for j in range(n)]
                for i in range(n)
            ]
        )
        m, pivots = aug.rref()
        if pivots != list(range(n)):
            raise ValueError("matrix is singular")
        return ExactMatrix([row[n:] for row in m[:n]])

    def pfaffian(self) -> Fraction:
        """Exact Pfaffian of an even-dimensional skew-symmetric matrix.

        Skewness is checked entrywise; the sign convention makes the
        block-diagonal form diag([[0,1],[-1,0]], ...) have Pfaffian +1.
        Elimination is congruence-based (Parlett-Reid style); the pivot in
        each step is the first nonzero entry of the current row, scanning
        left to right.
        """
        if self.nrows != self.ncols:
            raise ValueError("pfaffian of a non-square matrix")
        defect = self._skew_defect()
        if defect is not None:
            raise ValueError(
                f"matrix is not skew-symmetric at entry {defect}"
            )
        n = self.nrows
        if n % 2:
            return Fraction(0)
        if n == 0:
            return Fraction(1)
        m = [[Fraction(x) for x in r] for r in self.rows]
        pf = Fraction(1)
        for k in range(0, n, 2):
            jpiv = -1
            for j in range(k + 1, n):
                if m[k][j]:
                    jpiv = j
                    break
            if jpiv < 0:
                return Fraction(0)
            if jpiv != k + 1:
                for row in m:
                    row[k + 1], row[jpiv] = row[jpiv], row[k + 1]
                m[k + 1], m[jpiv] = m[jpiv], m[k + 1]
                pf = -pf
            p = m[k][k + 1]
            pf *= p
            # Clear row/column k beyond k+1 by congruence with row k+1;
            # Pf(M) then factors as p * Pf(trailing block).
            for j in range(k + 2, n):
                f = m[k][j]
                if f:
                    f /= p
                    for i in range(n):
                        m[i][j] -= f * m[i][k + 1]
                    for jj in range(n):
                        m[j][jj] -= f * m[k + 1][jj]
        return pf

    def principal_submatrix(self, keep: Iterable[int]) -> "ExactMatrix":
        """Rows and columns restricted to the same index set, in sorted order."""
        idx = sorted(set(keep))
        for i in idx:
            if i < 0 or i >= self.nrows or i >= self.ncols:
                raise IndexError(f"index {i} out of range")
        return ExactMatrix([[self.rows[i][j] for j in idx] for i in idx])

    def submatrix(self, row_idx: Iterable[int], col_idx: Iterable[int]) -> "ExactMatrix":
        ri = list(row_idx)
        ci = list(col_idx)
        return ExactMatrix([[self.rows[i][j] for j in ci] for i in ri])

    def to_fraction_rows(self) -> list[list[Fraction]]:
        return [[Fraction(x) for x in r] for r in self.rows]

    def to_float_rows(self) -> list[list[float]]:
        return [[float(x) for x in r] for r in self.rows]

