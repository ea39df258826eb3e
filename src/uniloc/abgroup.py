"""Integer matrices, Smith normal form, finitely presented abelian groups.

All arithmetic is exact on Python ints; there are no modular shortcuts.
The Smith normal form backs the `snf` command and the cokernel of a
relation matrix, whose group structure is read off the diagonal.  The
`snf` matrix file is read and weighed here too (snf_text).
"""

from __future__ import annotations

from math import isqrt
from operator import mul

from .errors import InputError, json_text, quote, record
from .verdict import PRINT_DIGITS, check_printable, read_number

# the most rows or columns `snf` takes: W alone has cols^2 entries.  In process
# on a shared 2-core host, `snf` on the seeded n x n matrix (random.Random(n),
# randint(-9, 9) row by row) answers in 0.53 s at n = 90 and 0.74 s at n = 100
# (median of 5; runs spread 1.6x), so 90 stays inside the 1 s budget per call.
SNF_DIM_BOUND = 90
# the most n^2 * h^(3/2) `snf` takes, n = max(rows, cols) and h the bits of
# the Hadamard bound of the rows, which bounds every minor (see
# _past_cost_bound).  D, U
# and W have entries of up to about h and 2h bits, so the time grows with
# n and faster than linearly with h.  On seeded n x n matrices with d-digit
# entries, in process on a shared 2-core host (median of 3), a whole `snf`
# call takes 0.48-0.60 s at n = 80, d = 3 and at n = 90, d = 2 (2.0*10^8),
# and 0.62-0.71 s as a fresh process at n = 90 with entries in [-132, 132]
# (2.1*10^8).  Past the bound: 0.50-0.60 s at n = 70, d = 5 (2.4*10^8),
# 0.88-0.93 s at n = 90, d = 3 (3.0*10^8), 0.64-0.72 s at n = 60, d = 10
# (3.5*10^8), 1.5 s at n = 40, d = 50 (8.8*10^8) and 0.82 s at n = 5,
# d = 4299 (4.8*10^8, refused at print).  A 1 x 90 row of 1000-digit
# entries takes 0.74 s (1.5*10^9), of 4299-digit ones more than 8 s.
SNF_COST_BOUND = 21 * 10 ** 7


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
        columns = [other.entries[j::other.cols] for j in range(other.cols)]
        return IntMatrix(self.rows, other.cols, tuple(
            sum(map(mul, self.entries[i * self.cols:(i + 1) * self.cols], col))
            for i in range(self.rows) for col in columns))

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
    # smallest nonzero |entry| in the trailing submatrix, ties by position;
    # no entry is smaller than a unit, so the first unit ends the scan
    best, least = None, 0
    for i in range(t, rows):
        row = a[i]
        for j in range(t, cols):
            v = abs(row[j])
            if v and (best is None or v < least):
                if v == 1:
                    return i, j
                best, least = (i, j), v
    return best


def _xgcd(a, b):
    # (g, s, t) with g = gcd(a, b) = s*a + t*b > 0, for a > 0
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return (a, s0, t0) if a > 0 else (-a, -s0, -t0)


def smith_normal_form(M: IntMatrix):
    """Diagonalize M over the integers.

    Returns (D, U, W) with U*M*W = D, U and W square unimodular, D
    diagonal with non-negative entries in a divisibility chain
    d1 | d2 | ... .

    Row i of M and of U is one list [M_i | U_i], so each row operation,
    swap and negation runs once for both.  Two phases:

    1. Row Hermite normal form H (Kannan and Bachem, SIAM J. Comput. 8,
       1979; Cohen, GTM 138, sec. 2.4).  The rows of M join one at a time
       the Hermite form of the rows before them, and after each row every
       entry above a pivot is reduced modulo that pivot.  The reduced
       form of k rows is unique, so its entries depend on those rows
       alone, not on the history of the elimination.  For nonsingular
       n x n M the row transform is then H*M^-1 = H*adj(M)/det(M), at
       most n times the Hadamard bound of M.  While row k joins, each
       operation runs from the pivot column c it works on up to U's
       column k only.  Every row it adds from is zero left of c: a
       Hermite row with pivot c, or row k, cleared up to c.  Every row
       so far is a combination of rows 0..k of M, so its U part is zero
       past column k.
    2. The smallest |entry| of the trailing block is the pivot, ties
       broken by row-major position, which makes the output
       deterministic; row and column operations clear its row and column
       until each pivot divides the block after it.  A unit pivot ends
       the scan for the smallest entry and divides every entry.

    On the seeded 40 x 40 matrix with entries in [-9, 9], |det M| has 180
    bits and U and W end with 176 and 180.  The second phase alone, run
    on M, gives them 4909 and 4211.

    >>> D, U, W = smith_normal_form(IntMatrix.from_rows([[2, 4], [6, 8]]))
    >>> D.to_rows()
    [[2, 0], [0, 4]]
    """
    rows, cols = M.rows, M.cols
    a = [r + [0] * i + [1] + [0] * (rows - 1 - i) for i, r in enumerate(M.to_rows())]
    w = IntMatrix.identity(cols).to_rows()

    def row_op(i, k, q, lo=0, hi=cols + rows):
        # row i -= q * row k, over the columns [lo, hi) of [M | U]
        a[i][lo:hi] = [x - q * y for x, y in zip(a[i][lo:hi], a[k][lo:hi])]

    def col_op(j, k, q):
        # col j -= q * col k
        for m in (a, w):
            for r in m:
                r[j] -= q * r[k]

    # phase 1: the rows before row k are in Hermite form, the first
    # len(piv) of them with pivots in columns piv, the rest zero
    piv = []
    for k in range(rows):
        hi = cols + k + 1
        i = 0
        for c in range(cols):
            e = a[k][c]
            if e == 0:
                continue
            while i < len(piv) and piv[i] < c:
                i += 1
            if i == len(piv) or piv[i] != c:
                # a new pivot: move row k to its place in the form
                if e < 0:
                    a[k] = [-x for x in a[k]]
                a.insert(i, a.pop(k))
                piv.insert(i, c)
                break
            p = a[i][c]
            if e % p == 0:
                row_op(k, i, e // p, c, hi)
                continue
            # [row i; row k] <- [[s, t], [-e/g, p/g]] [row i; row k]
            g, s, t = _xgcd(p, e)
            p, e = p // g, e // g
            x, y = a[i][c:hi], a[k][c:hi]
            a[i][c:hi] = [s * v + t * z for v, z in zip(x, y)]
            a[k][c:hi] = [p * z - e * v for v, z in zip(x, y)]
        # reduce the entries above each pivot into [0, pivot)
        for j, c in enumerate(piv):
            p = a[j][c]
            for h in range(j):
                if not 0 <= a[h][c] < p:
                    row_op(h, j, a[h][c] // p, c, hi)

    # phase 2
    t = 0
    while t < min(rows, cols):
        pos = _min_abs_pivot(a, t, rows, cols)
        if pos is None:
            break
        while True:
            i, j = pos
            if i != t:
                a[t], a[i] = a[i], a[t]
            if j != t:
                for m in (a, w):
                    for r in m:
                        r[t], r[j] = r[j], r[t]
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
                pos = _min_abs_pivot(a, t, rows, cols)
                continue
            # pivot must divide the trailing block for the chain; a unit does
            fix = None
            for i in range(t + 1, rows if abs(p) != 1 else 0):
                for j in range(t + 1, cols):
                    if a[i][j] % p != 0:
                        fix = i
                        break
                if fix is not None:
                    break
            if fix is None:
                break
            row_op(t, fix, -1)  # add the offending row onto the pivot row
            pos = _min_abs_pivot(a, t, rows, cols)
        t += 1

    for i in range(min(rows, cols)):
        if a[i][i] < 0:
            a[i] = [-x for x in a[i]]

    D = IntMatrix(rows, cols, tuple(x for r in a for x in r[:cols]))
    U = IntMatrix(rows, rows, tuple(x for r in a for x in r[cols:]))
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


# the command line ------------------------------------------------------------

def _reads_as_int(token: str) -> bool:
    """Whether read_number reads token as an int: a sign, then at most
    PRINT_DIGITS decimal digits with single underscores between them.
    ASCII digits are tested as bytes, an order of magnitude faster than
    str.isdecimal."""
    body = token[1:] if token[:1] in "+-" else token
    digits = body.replace("_", "")
    return ((digits.encode().isdigit() if digits.isascii() else digits.isdecimal())
            and len(digits) <= PRINT_DIGITS and "__" not in body and body[:1] != "_" != body[-1:])


def _square_bits_floor(token: str) -> int:
    """A floor on the bits of x * x for the int x that token spells, from
    its d significant digits alone: x * x >= 10 ** (2 * (d - 1)), of at
    least 2 * (d - 1) * log2(10) bits, and 3.321928 < log2(10).  A token
    with a digit other than ASCII counts for none."""
    digits = token.lstrip("+-").replace("_", "").lstrip("0")
    d = len(digits) if digits.isascii() else 0
    return 2 * (d - 1) * 3321928 // 10 ** 6 + 1 if d else 0


def _past_cost_bound(rows: int, cols: int, row_bits, floor: bool = False):
    """The InputError for a matrix past SNF_COST_BOUND, else None.

    h bounds the bits of the product of the min(rows, cols) longest row
    norms, the Hadamard bound of every minor; row_bits holds the bits of
    each row's squared norm, or a floor on them, and then h is a floor.
    """
    h = (sum(sorted(row_bits, reverse=True)[:min(rows, cols)]) + 1) // 2
    n = max(rows, cols)
    if n ** 4 * h ** 3 <= SNF_COST_BOUND ** 2:
        return None
    return InputError("a %d x %d matrix with a Hadamard bound of %s%d bits has n^2 * h^1.5 "
                      "%s %d, past abgroup.SNF_COST_BOUND = %d"
                      % (rows, cols, "at least " if floor else "", h, ">=" if floor else "=",
                         isqrt(n ** 4 * h ** 3), SNF_COST_BOUND))


def _read_row(number: int, line: str, row, cols: int) -> list:
    """The entries of row, the tokens of matrix row number (line)."""
    if len(row) != cols:
        raise InputError("row %s does not have %d entries" % (quote(line), cols))
    try:
        return [read_number(t, "matrix row %d" % number) for t in row]
    except ValueError:
        raise InputError("non-integer entry in row %s" % quote(line)) from None


def _parse_matrix(text: str, path: str) -> IntMatrix:
    """The matrix of an `snf` file: a "rows cols" line, then the rows."""
    lines = [ln for ln in (l.split("#", 1)[0].strip() for l in text.splitlines()) if ln]
    if not lines:
        raise InputError("empty matrix file %s" % quote(path, str))
    head = lines[0].split()
    if len(head) != 2 or not all(t.isdecimal() for t in head):
        raise InputError('first line must be "rows cols"')
    rows, cols = (read_number(t, "the matrix header") for t in head)
    if max(rows, cols) > SNF_DIM_BOUND:
        raise InputError("a %s x %s matrix is above abgroup.SNF_DIM_BOUND = %d rows or columns"
                         % (quote(str(rows), str), quote(str(cols), str), SNF_DIM_BOUND))
    if len(lines) - 1 != rows:
        raise InputError("expected %d matrix rows, found %d" % (rows, len(lines) - 1))
    tokens = [ln.split() for ln in lines[1:]]
    # a floor on h from each row's longest token, before any int is built:
    # a file past the bound on it is past it on h too.  When every token
    # reads, it is refused unread; otherwise the first row that does not
    # read is read alone, for the error the full read below would give
    error = _past_cost_bound(rows, cols, [_square_bits_floor(max(row, key=len))
                                          for row in tokens], floor=True)
    if error:
        bad = next((k for k, row in enumerate(tokens)
                    if len(row) != cols or not all(map(_reads_as_int, row))), None)
        if bad is None:
            raise error
        _read_row(bad + 1, lines[bad + 1], tokens[bad], cols)
    entries = [_read_row(number, ln, row, cols)
               for number, (ln, row) in enumerate(zip(lines[1:], tokens), 1)]
    # O(rows * cols), before any elimination
    error = _past_cost_bound(rows, cols, [sum(x * x for x in row).bit_length() for row in entries])
    if error:
        raise error
    return IntMatrix(rows, cols, tuple(x for row in entries for x in row))


def snf_text(text: str, path: str, as_json: bool) -> str:
    """What `snf` prints for the matrix file text read from path, in JSON
    or in text."""
    M = _parse_matrix(text, path)
    D, U, W = smith_normal_form(M)
    if (U @ M) @ W != D:
        raise AssertionError("transform identity U*M*W = D failed")
    check_printable((x for T in (D, U, W) for x in T.entries), "the Smith normal form")
    structure = diagonal_structure(D)
    rows = {"D": D.to_rows(), "U": U.to_rows(), "W": W.to_rows()}
    factors = list(structure.invariant_factors)
    if as_json:
        return json_text(dict(rows, schema=1, diagonal=D.diagonal(), cokernel={
            "free_rank": structure.free_rank, "invariant_factors": factors}))
    lines = ["D = U * M * W with"]
    for tag, mat in rows.items():
        lines.append("%s:" % tag)
        lines.extend("  " + " ".join(map(str, row)) for row in mat)
    lines.append("diagonal: %s" % (D.diagonal(),))
    lines.append("cokernel: free rank %d, invariant factors %s" % (structure.free_rank, factors))
    return "\n".join(lines)
