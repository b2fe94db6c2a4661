"""Exact dense linear algebra over the rationals.

Scalars are arbitrary-precision rationals (``fractions.Fraction``, always
in lowest terms with positive denominator); integers are accepted
anywhere a scalar is and mix exactly.  Matrices are immutable after
construction.

Every elimination except the Pfaffian runs on one integer core,
``_eliminate``: fraction-free (Bareiss) elimination of the rows scaled to
integers by clearing their denominators.  Its forward pass gives ``rank``
and ``determinant``.  With its reduce-above pass it is fraction-free
Gauss-Jordan, which leaves the rows equal to D * rref for one integer D
(the last pivot); ``rref`` is those rows divided by D once at the end,
and ``kernel_basis``, ``solve`` and ``inverse`` read their entries off
them the same way.  No rounding can occur and identical inputs give
bit-identical results.  The Pfaffian is a congruence elimination over
``Fraction``.
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

    # -- rank, determinant, rref, kernel, solve, inverse, Pfaffian -------------

    def _reduced(self) -> tuple[list[list[int]], list[int], int]:
        """Integer rows equal to D * rref, with the pivot columns and D."""
        m, _ = self._integer_rows()
        pivots, d, _ = _eliminate(m, self.ncols, reduce_above=True)
        return m, pivots, d

    def rank(self) -> int:
        """Exact rank over Q (forward Bareiss pass only)."""
        m, _ = self._integer_rows()
        return len(_eliminate(m, self.ncols, reduce_above=False)[0])

    def determinant(self) -> Fraction:
        """Exact determinant (square matrices only)."""
        if self.nrows != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        m, scales = self._integer_rows()
        pivots, d, sign = _eliminate(m, self.ncols, reduce_above=False)
        if len(pivots) < self.nrows:
            return Fraction(0)
        det = Fraction(sign * d)
        for s in scales:
            det /= s
        return det

    def rref(self) -> tuple[list[list[Fraction]], list[int]]:
        """Reduced row echelon form over Q; returns (rows, pivot columns)."""
        m, pivots, d = self._reduced()
        return [[Fraction(x, d) for x in r] for r in m], pivots

    def kernel_basis(self) -> list[tuple[Fraction, ...]]:
        """Exact basis of the right kernel; cols - rank vectors with m @ v = 0."""
        m, pivots, d = self._reduced()
        pivot_set = set(pivots)
        basis = []
        for fc in range(self.ncols):
            if fc in pivot_set:
                continue
            v = [Fraction(0)] * self.ncols
            v[fc] = Fraction(1)
            for r, pc in enumerate(pivots):
                v[pc] = Fraction(-m[r][fc], d)
            basis.append(tuple(v))
        return basis

    def solve(self, rhs: Sequence[Scalar]) -> list[Fraction] | None:
        """One exact solution of m @ x = rhs, or None when inconsistent."""
        if len(rhs) != self.nrows:
            raise ValueError("length mismatch")
        n = self.ncols
        aug = ExactMatrix([list(r) + [b] for r, b in zip(self.rows, rhs)])
        m, pivots, d = aug._reduced()
        if pivots and pivots[-1] == n:
            return None
        x = [Fraction(0)] * n
        for r, pc in enumerate(pivots):
            x[pc] = Fraction(m[r][n], d)
        return x

    def inverse(self) -> "ExactMatrix":
        """Exact inverse: the right half of the rref of [A | I].

        Raises ValueError when the matrix is singular.
        """
        if self.nrows != self.ncols:
            raise ValueError("inverse of a non-square matrix")
        n = self.nrows
        aug = ExactMatrix(
            [list(r) + [1 if j == i else 0 for j in range(n)] for i, r in enumerate(self.rows)]
        )
        m, pivots, d = aug._reduced()
        if pivots != list(range(n)):
            raise ValueError("matrix is singular")
        return ExactMatrix([[Fraction(x, d) for x in r[n:]] for r in m])

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



def _eliminate(
    m: list[list[int]], ncols: int, reduce_above: bool
) -> tuple[list[int], int, int]:
    """Fraction-free (Bareiss) elimination of integer rows, in place.

    The pivot is the first row with a nonzero entry in the current column,
    so results are deterministic.  The forward pass clears below each
    pivot; every division by the previous pivot is exact (Sylvester's
    identity).  With reduce_above it also clears above, which is
    fraction-free Gauss-Jordan: every pivot then equals the last one, D,
    and the rows equal D * rref.  Returns (pivot columns, D, sign of the
    row permutation).
    """
    nr = len(m)
    pivots: list[int] = []
    prev = 1
    sign = 1
    for col in range(ncols):
        rank = len(pivots)
        pivot_row = -1
        for i in range(rank, nr):
            if m[i][col]:
                pivot_row = i
                break
        if pivot_row < 0:
            continue
        if pivot_row != rank:
            m[rank], m[pivot_row] = m[pivot_row], m[rank]
            sign = -sign
        prow = m[rank]
        p = prow[col]
        for i in range(rank + 1, nr):
            ri = m[i]
            f = ri[col]
            # every entry of the trailing block is rescaled by p/prev,
            # even in rows with nothing to eliminate (f == 0)
            if f:
                for j in range(col + 1, ncols):
                    ri[j] = (p * ri[j] - f * prow[j]) // prev
                ri[col] = 0
            else:
                for j in range(col + 1, ncols):
                    ri[j] = (p * ri[j]) // prev
        if reduce_above:
            # the whole row, so earlier pivots move from prev to p as well
            for i in range(rank):
                f = m[i][col]
                m[i] = [(p * a - f * b) // prev for a, b in zip(m[i], prow)]
        prev = p
        pivots.append(col)
        if rank + 1 == nr:
            break
    return pivots, prev, sign
