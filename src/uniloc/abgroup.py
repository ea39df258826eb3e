"""Integer matrices, Smith normal form, finitely presented abelian groups.

All arithmetic is exact on Python ints; there are no modular shortcuts.
The Smith normal form backs the `snf` command and the cokernel of a
relation matrix, whose group structure is read off the diagonal.
"""

from __future__ import annotations


from .errors import InputError, record


@record
class IntMatrix:
    """Immutable integer matrix, row-major entries."""

    rows: int
    cols: int
    entries: tuple

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise InputError("negative matrix dimensions")
        if len(self.entries) != self.rows * self.cols:
            raise InputError("entry count does not match rows*cols")
        if not all(isinstance(e, int) for e in self.entries):
            raise InputError("matrix entries must be integers")

    @classmethod
    def from_rows(cls, rows) -> "IntMatrix":
        rows = [list(r) for r in rows]
        n = len(rows)
        m = len(rows[0]) if rows else 0
        if any(len(r) != m for r in rows):
            raise InputError("ragged rows")
        return cls(n, m, tuple(x for r in rows for x in r))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    def at(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def to_rows(self):
        return [list(self.entries[i * self.cols:(i + 1) * self.cols]) for i in range(self.rows)]

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise InputError("shape mismatch in matrix product")
        a, b = self.to_rows(), other.to_rows()
        prod = [
            [sum(a[i][k] * b[k][j] for k in range(self.cols)) for j in range(other.cols)]
            for i in range(self.rows)
        ]
        return IntMatrix.from_rows(prod) if self.rows else IntMatrix(0, other.cols, ())

    def diagonal(self):
        return [self.at(i, i) for i in range(min(self.rows, self.cols))]


def det(M: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination.

    >>> det(IntMatrix.from_rows([[2, 4], [6, 8]]))
    -8
    """
    if M.rows != M.cols:
        raise InputError("determinant needs a square matrix")
    n = M.rows
    if n == 0:
        return 1
    a = M.to_rows()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _min_abs_pivot(a, t, rows, cols):
    # smallest nonzero |entry| in the trailing submatrix, ties by position
    best = None
    for i in range(t, rows):
        for j in range(t, cols):
            v = a[i][j]
            if v != 0 and (best is None or abs(v) < abs(a[best[0]][best[1]])):
                best = (i, j)
    return best


def smith_normal_form(M: IntMatrix):
    """Diagonalize M over the integers.

    Returns (D, U, W) with U*M*W = D, U and W square unimodular, D
    diagonal with non-negative entries in a divisibility chain
    d1 | d2 | ... .  Pivot policy: smallest absolute value, ties broken
    by row-major position, which makes the output deterministic.

    >>> D, U, W = smith_normal_form(IntMatrix.from_rows([[2, 4], [6, 8]]))
    >>> D.to_rows()
    [[2, 0], [0, 4]]
    """
    rows, cols = M.rows, M.cols
    a = M.to_rows()
    u = IntMatrix.identity(rows).to_rows()
    w = IntMatrix.identity(cols).to_rows()

    def row_op(i, k, q):
        # row i -= q * row k
        for j in range(cols):
            a[i][j] -= q * a[k][j]
        for j in range(rows):
            u[i][j] -= q * u[k][j]

    def col_op(j, k, q):
        # col j -= q * col k
        for i in range(rows):
            a[i][j] -= q * a[i][k]
        for i in range(cols):
            w[i][j] -= q * w[i][k]

    t = 0
    while t < min(rows, cols):
        pos = _min_abs_pivot(a, t, rows, cols)
        if pos is None:
            break
        while True:
            pos = _min_abs_pivot(a, t, rows, cols)
            i, j = pos
            if i != t:
                a[t], a[i] = a[i], a[t]
                u[t], u[i] = u[i], u[t]
            if j != t:
                for r in range(rows):
                    a[r][t], a[r][j] = a[r][j], a[r][t]
                for r in range(cols):
                    w[r][t], w[r][j] = w[r][j], w[r][t]
            p = a[t][t]
            dirty = False
            for i in range(t + 1, rows):
                if a[i][t] != 0:
                    row_op(i, t, a[i][t] // p)
                    if a[i][t] != 0:
                        dirty = True
            for j in range(t + 1, cols):
                if a[t][j] != 0:
                    col_op(j, t, a[t][j] // p)
                    if a[t][j] != 0:
                        dirty = True
            if dirty:
                continue
            # pivot must divide the whole trailing block for the chain
            fix = None
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if a[i][j] % p != 0:
                        fix = i
                        break
                if fix is not None:
                    break
            if fix is None:
                break
            row_op(t, fix, -1)  # add the offending row onto the pivot row
        t += 1

    for i in range(min(rows, cols)):
        if a[i][i] < 0:
            for j in range(cols):
                a[i][j] = -a[i][j]
            for j in range(rows):
                u[i][j] = -u[i][j]

    D = IntMatrix(rows, cols, tuple(x for r in a for x in r))
    U = IntMatrix(rows, rows, tuple(x for r in u for x in r))
    W = IntMatrix(cols, cols, tuple(x for r in w for x in r))
    return D, U, W


@record
class GroupStructure:
    """Finitely generated abelian group: Z^free_rank + sum of Z/d_i."""

    free_rank: int
    invariant_factors: tuple  # each >= 2, d1 | d2 | ...

    def __post_init__(self):
        if self.free_rank < 0:
            raise InputError("negative free rank")
        fs = self.invariant_factors
        if any(d < 2 for d in fs):
            raise InputError("invariant factors must be >= 2")
        if any(fs[i + 1] % fs[i] != 0 for i in range(len(fs) - 1)):
            raise InputError("invariant factors must form a divisibility chain")

    def __repr__(self):
        parts = ["Z"] * self.free_rank + ["Z/%d" % d for d in self.invariant_factors]
        return " + ".join(parts) if parts else "0"


def cokernel_structure(M: IntMatrix) -> GroupStructure:
    """Structure of Z^cols / rowspan(M).

    >>> cokernel_structure(IntMatrix.from_rows([[1, 1]]))
    Z
    >>> cokernel_structure(IntMatrix.from_rows([[2]]))
    Z/2
    >>> cokernel_structure(IntMatrix.from_rows([[3, 0], [0, 0]]))
    Z + Z/3
    """
    return diagonal_structure(smith_normal_form(M)[0])


def diagonal_structure(D: IntMatrix) -> GroupStructure:
    """Structure of Z^cols / rowspan(D), D a Smith normal form."""
    diag = D.diagonal()
    rank = sum(1 for d in diag if d != 0)
    return GroupStructure(D.cols - rank, tuple(d for d in diag if d > 1))
