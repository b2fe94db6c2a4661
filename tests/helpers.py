"""Shared test utilities: signed-permutation matching, reference patterns,
projective distances, and non-degenerate random draws."""

from collections import defaultdict, deque
from fractions import Fraction
import math
from math import gcd

from waring.forms import LinearForm, power_sum, random_linear_form
import random

# The two reference wedge-map displays (symbolic (variable, sign) cells).
K2_REFERENCE = {
    (0, 1): (2, 1), (0, 2): (1, -1),
    (1, 0): (2, -1), (1, 2): (0, 1),
    (2, 0): (1, 1), (2, 1): (0, -1),
}

_K4_ROWS = [
    {7: (4, 1), 8: (3, -1), 9: (2, 1)},
    {5: (4, -1), 6: (3, 1), 9: (1, -1)},
    {4: (4, 1), 6: (2, -1), 8: (1, 1)},
    {4: (3, -1), 5: (2, 1), 7: (1, -1)},
    {2: (4, 1), 3: (3, -1), 9: (0, 1)},
    {1: (4, -1), 3: (2, 1), 8: (0, -1)},
    {1: (3, 1), 2: (2, -1), 7: (0, 1)},
    {0: (4, 1), 3: (1, -1), 6: (0, 1)},
    {0: (3, -1), 2: (1, 1), 5: (0, -1)},
    {0: (2, 1), 1: (1, -1), 4: (0, 1)},
]
K4_REFERENCE = {
    (i, j): cell for i, row in enumerate(_K4_ROWS) for j, cell in row.items()
}


def pattern_cells(pattern):
    """KoszulPattern -> {(row index, col index): (var, sign)}."""
    rpos = {J: i for i, J in enumerate(pattern.rows)}
    cpos = {I: j for j, I in enumerate(pattern.cols)}
    return {
        (rpos[J], cpos[I]): cell for (J, I), cell in pattern.cells.items()
    }


def signed_permutation_match(mine: dict, target: dict, size: int):
    """Row/column permutation with per-row and per-column signs mapping one
    symbolic pattern onto the other, or None when no such map exists."""

    def rowvars(cells, r):
        return sorted(v for (i, _), (v, _) in cells.items() if i == r)

    mine_rows = {r: rowvars(mine, r) for r in range(size)}
    targ_rows = {r: rowvars(target, r) for r in range(size)}
    cand = {
        r: [t for t in range(size) if targ_rows[t] == mine_rows[r]]
        for r in range(size)
    }
    order = sorted(range(size), key=lambda r: len(cand[r]))
    rowmap: dict[int, int] = {}
    used: set[int] = set()

    def assign(k):
        if k == len(order):
            return True
        r = order[k]
        for t in cand[r]:
            if t not in used:
                rowmap[r] = t
                used.add(t)
                if assign(k + 1):
                    return True
                used.discard(t)
                del rowmap[r]
        return False

    if not assign(0):
        return None

    colmap: dict[int, int] = {}
    usedc: set[int] = set()
    for c in range(size):
        pattern = {rowmap[i]: v for (i, j), (v, _) in mine.items() if j == c}
        found = None
        for tc in range(size):
            if tc in usedc:
                continue
            tpattern = {i: v for (i, j), (v, _) in target.items() if j == tc}
            if tpattern == pattern:
                found = tc
                break
        if found is None:
            return None
        colmap[c] = found
        usedc.add(found)

    adj = defaultdict(list)
    for (i, j), (_, s) in mine.items():
        ratio = target[(rowmap[i], colmap[j])][1] * s
        adj[("r", i)].append((("c", j), ratio))
        adj[("c", j)].append((("r", i), ratio))
    color: dict = {}
    for node in list(adj):
        if node in color:
            continue
        color[node] = 1
        dq = deque([node])
        while dq:
            cur = dq.popleft()
            for nxt, ratio in adj[cur]:
                want = color[cur] * ratio
                if nxt in color:
                    if color[nxt] != want:
                        return None
                else:
                    color[nxt] = want
                    dq.append(nxt)
    return rowmap, colmap, color


def projective_distance(u, v) -> float:
    """Sine of the angle between the lines through u and v: the norm of the
    2x2 minors of the normalized vectors.  Unlike sqrt(1 - cos^2), whose
    cancellation floor is about 1.5e-8, it is 0 on equal directions."""
    a = [complex(x) for x in u]
    b = [complex(x) for x in v]
    na = math.sqrt(sum(abs(x) ** 2 for x in a))
    nb = math.sqrt(sum(abs(x) ** 2 for x in b))
    if na == 0 or nb == 0:
        return 1.0
    a = [x / na for x in a]
    b = [x / nb for x in b]
    return math.sqrt(sum(
        abs(a[i] * b[j] - a[j] * b[i]) ** 2
        for i in range(len(a)) for j in range(i + 1, len(a))
    ))


def primitive_direction(coords):
    g = 0
    for c in coords:
        g = gcd(g, int(c))
    v = [int(c) // g for c in coords]
    lead = next(x for x in v if x)
    if lead < 0:
        v = [-x for x in v]
    return tuple(v)


def distinct_power_sum(nvars, degree, r, seed, height=10):
    """Sum of r random powers whose points are projectively distinct."""
    rng = random.Random(seed)
    forms = []
    seen = set()
    while len(forms) < r:
        l = random_linear_form(rng, nvars, height)
        key = primitive_direction(l.coeffs)
        if key in seen:
            continue
        seen.add(key)
        forms.append(l)
    return power_sum(forms, degree), forms


def random_skew_matrix(n, seed, height=6):
    rng = random.Random(seed)
    a = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            a[i][j] = Fraction(rng.randint(-height, height))
            a[j][i] = -a[i][j]
    return a


# -- Fraction Gauss-Jordan: the reference for ExactMatrix's reduced reads -----


def reference_rref(rows):
    """Reduced row echelon form by Gauss-Jordan in Fraction arithmetic;
    returns (rows, pivot columns)."""
    m = [[Fraction(x) for x in r] for r in rows]
    nrows, ncols = len(m), len(m[0]) if m else 0
    pivots = []
    r = 0
    for col in range(ncols):
        pivot_row = -1
        for i in range(r, nrows):
            if m[i][col]:
                pivot_row = i
                break
        if pivot_row < 0:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        p = m[r][col]
        m[r] = [x / p for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][col]:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    return m, pivots


def reference_kernel(reduced):
    """Kernel basis read off reference_rref's output, one vector per free
    column."""
    m, pivots = reduced
    ncols = len(m[0]) if m else 0
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -m[r][fc]
        basis.append(tuple(v))
    return basis


def reference_solve(rows, rhs):
    ncols = len(rows[0]) if rows else 0
    m, pivots = reference_rref([list(r) + [b] for r, b in zip(rows, rhs)])
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = m[r][ncols]
    return x


def reference_inverse(rows):
    """Right half of the rref of [A | I]; ValueError when A is singular or
    not square."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("inverse of a non-square matrix")
    m, pivots = reference_rref(
        [list(r) + [1 if j == i else 0 for j in range(n)] for i, r in enumerate(rows)]
    )
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in m]
