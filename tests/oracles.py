"""Independent reference computations for the test suite.

Deliberately different algorithms from the package: cofactor expansion
instead of Bareiss, Hermite form instead of Smith form, antichains
instead of closed sets, the full scans that the package prunes, the
group law in Fraction arithmetic instead of integer pairs, and the Segre
embedding by substitution instead of a monomial map.
Agreement between the two sides is the test.  The Smith normal form
reference is the exception: it is the package's own schedule in its
earlier form, one list for M and one for U, each operation over whole
rows, and the package must match its D, U and W entry for entry.
"""

from fractions import Fraction
from itertools import combinations, product
from math import gcd, isqrt

from uniloc.errors import InputError


def det_cofactor(rows):
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * det_cofactor(minor)
    return total


def gcd_of_k_minors(rows, k):
    n = len(rows)
    m = len(rows[0]) if rows else 0
    g = 0
    for ri in combinations(range(n), k):
        for ci in combinations(range(m), k):
            sub = [[rows[i][j] for j in ci] for i in ri]
            g = gcd(g, abs(det_cofactor(sub)))
    return g


def hnf(rows):
    """Row Hermite normal form of the integer lattice spanned by rows.

    Echelon shape, positive pivots, entries above a pivot reduced into
    [0, pivot).  Two spanning sets give equal lattices iff equal HNFs.
    """
    mat = [list(map(int, r)) for r in rows]
    if not mat:
        return []
    cols = len(mat[0])
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        for i in range(r + 1, len(mat)):
            while mat[i][c] != 0:
                q = mat[r][c] // mat[i][c]
                mat[r] = [a - q * b for a, b in zip(mat[r], mat[i])]
                mat[r], mat[i] = mat[i], mat[r]
        if mat[r][c] < 0:
            mat[r] = [-a for a in mat[r]]
        for i in range(r):
            q = mat[i][c] // mat[r][c]
            if q:
                mat[i] = [a - q * b for a, b in zip(mat[i], mat[r])]
        r += 1
    return [row for row in mat[:r] if any(row)]


def _cleared(rows):
    den = 1
    for row in rows:
        for x in row:
            d = Fraction(x).denominator
            den = den * d // gcd(den, d)
    ints = [[int(Fraction(x) * den) for x in row] for row in rows]
    return ints, den


def same_rational_lattice(rows_a, rows_b) -> bool:
    """Equality of Q-lattices given by Fraction row spans."""
    a, da = _cleared(rows_a)
    b, db = _cleared(rows_b)
    return hnf([[x * db for x in r] for r in a]) == \
        hnf([[x * da for x in r] for r in b])


def lattice_member(rows, v) -> bool:
    """Is the rational vector v in the Q-lattice spanned by rows?"""
    both, _ = _cleared(list(rows) + [v])
    base = both[:-1]
    return hnf(base) == hnf(both)


# Smith normal form, one list for M and one for U, whole rows -----------------

def _min_abs_pivot(a, t, rows, cols):
    # smallest nonzero |entry| in the trailing submatrix, ties by position
    best = None
    for i in range(t, rows):
        for j in range(t, cols):
            v = a[i][j]
            if v != 0 and (best is None or abs(v) < abs(a[best[0]][best[1]])):
                best = (i, j)
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


def smith_normal_form_reference(rows_of_m, cols):
    """(D, U, W) as lists of rows for the rows x cols matrix rows_of_m,
    U*M*W = D: reduced row Hermite form, then the smallest-pivot
    diagonal loop, every operation applied to M, U and W separately."""
    rows = len(rows_of_m)
    a = [list(r) for r in rows_of_m]
    u = [[int(i == j) for j in range(rows)] for i in range(rows)]
    w = [[int(i == j) for j in range(cols)] for i in range(cols)]

    def row_op(i, k, q):
        # row i -= q * row k
        ai, ak, ui, uk = a[i], a[k], u[i], u[k]
        for j in range(cols):
            ai[j] -= q * ak[j]
        for j in range(rows):
            ui[j] -= q * uk[j]

    def col_op(j, k, q):
        # col j -= q * col k
        for i in range(rows):
            a[i][j] -= q * a[i][k]
        for i in range(cols):
            w[i][j] -= q * w[i][k]

    # phase 1: the rows before row k are in Hermite form, the first
    # len(piv) of them with pivots in columns piv, the rest zero
    piv = []
    for k in range(rows):
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
                    u[k] = [-x for x in u[k]]
                a.insert(i, a.pop(k))
                u.insert(i, u.pop(k))
                piv.insert(i, c)
                break
            p = a[i][c]
            if e % p == 0:
                row_op(k, i, e // p)
                continue
            # [row i; row k] <- [[s, t], [-e/g, p/g]] [row i; row k]
            g, s, t = _xgcd(p, e)
            p, e = p // g, e // g
            for m in (a, u):
                x, y = m[i], m[k]
                m[i] = [s * v + t * z for v, z in zip(x, y)]
                m[k] = [p * z - e * v for v, z in zip(x, y)]
        # reduce the entries above each pivot into [0, pivot)
        for j, c in enumerate(piv):
            p = a[j][c]
            for h in range(j):
                if not 0 <= a[h][c] < p:
                    row_op(h, j, a[h][c] // p)

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
                pos = _min_abs_pivot(a, t, rows, cols)
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
            pos = _min_abs_pivot(a, t, rows, cols)
        t += 1

    for i in range(min(rows, cols)):
        if a[i][i] < 0:
            a[i] = [-x for x in a[i]]
            u[i] = [-x for x in u[i]]
    return a, u, w


def rank_by_fractions(mat) -> int:
    """Rank over Q by Gauss-Jordan elimination in Fractions."""
    rows = [[Fraction(x) for x in r] for r in mat if any(r)]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col] / rows[rank][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


# quadratic ideals as lattices over the standard basis (1, w) ----------------

def quad_w_square(order):
    """w^2 = c0 + c1*w for the module generator w of the maximal order."""
    d = order.d
    if order.discriminant % 2:
        return ((d - 1) // 4, 1)
    return (d, 0)


def quad_ideal_rows(I):
    """Fraction rows spanning the ideal in the (1, w) basis."""
    parity = I.order.discriminant % 2
    shift = (I.b - parity) // 2
    return [
        [Fraction(I.a) * I.scale, Fraction(0)],
        [Fraction(shift) * I.scale, Fraction(I.scale)],
    ]


def quad_product_rows(I, J):
    """Rows spanning the module product I*J, from all generator products."""
    c0, c1 = quad_w_square(I.order)
    parity = I.order.discriminant % 2
    s1 = (I.b - parity) // 2
    s2 = (J.b - parity) // 2
    sc = I.scale * J.scale
    raw = [
        [I.a * J.a, 0],
        [I.a * s2, I.a],
        [J.a * s1, J.a],
        [s1 * s2 + c0, s1 + s2 + c1],
    ]
    return [[Fraction(x) * sc, Fraction(y) * sc] for x, y in raw]


def quad_principal_rows(order, x, y):
    """Rows spanning (x + y*w) as a module: the element and w times it."""
    c0, c1 = quad_w_square(order)
    x, y = Fraction(x), Fraction(y)
    return [[x, y], [y * c0, x + y * c1]]


def first_hit_generator(I):
    """Brute-force generator of a principal ideal, or None.

    Scans the primitive part's coordinates (x, y) in the (1, w) basis by
    |y|, then |x|, then the signs (+,+), (+,-), (-,+), (-,-), and returns
    the first element of norm N(I) that lies in I, scaled back.  The box
    is large enough for every such element, so None means not principal.
    """
    order, scale = I.order, I.scale
    c0, c1 = quad_w_square(order)
    rows = quad_ideal_rows(I)
    target = I.a  # norm of the primitive part
    d = order.d
    ymax = isqrt(4 * target // abs(d)) + 1
    xmax = isqrt(target) + (ymax + 1) // 2 + 1
    for y in range(0, ymax + 1):
        for x in range(0, xmax + 1):
            for sx, sy in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                if (x == 0 and sx < 0) or (y == 0 and sy < 0) or x == y == 0:
                    continue
                u, v = sx * x, sy * y
                # N(u + v*w) = u^2 + c1*u*v - c0*v^2
                if u * u + c1 * u * v - c0 * v * v != target:
                    continue
                cand = [Fraction(u) * scale, Fraction(v) * scale]
                if lattice_member(rows, cand):
                    return cand
    return None


def least_positive_root(D, ell):
    """The b in (-ell, ell] with b^2 = D mod 4*ell by linear search: the
    least positive one, else the first."""
    hit = None
    for b in range(-ell + 1, ell + 1):
        if (b * b - D) % (4 * ell) == 0:
            if b > 0:
                return b
            if hit is None:
                hit = b
    return hit


def reduced_forms_brute(D):
    """Reduced primitive forms of discriminant D < 0 by testing every
    b in (-a, a] for every a <= sqrt(|D|/3)."""
    out = []
    for a in range(1, isqrt(abs(D) // 3) + 1):
        for b in range(-a + 1, a + 1):
            if (b * b - D) % (4 * a) != 0:
                continue
            c = (b * b - D) // (4 * a)
            if c < a or (a == c and b < 0) or gcd(gcd(a, abs(b)), c) != 1:
                continue
            out.append((a, b, c))
    return sorted(out)


def squarefree_brute(n):
    """No square i*i > 1 divides n, by trial division up to sqrt(n)."""
    return n % 4 != 0 and all(n % (i * i) for i in range(3, isqrt(n) + 1, 2))


def shell_degrees(m, box):
    """Multidegrees with |a_j| <= box by radius shell, lexicographic inside
    each shell."""
    for r in range(box + 1):
        for a in product(range(-r, r + 1), repeat=m):
            if max((abs(x) for x in a), default=0) == r:
                yield a


def first_shell_witness(dim, m, box):
    """Brute-force bounded search: the first degree of the shell scan with
    dim(a) > 0, or None."""
    return next((a for a in shell_degrees(m, box) if dim(a) > 0), None)


# finite posets ----------------------------------------------------------------

def count_antichains(P) -> int:
    """Independent count for enumerate_closed: closed sets match antichains
    of their minimal elements one to one."""
    count = 0
    for k in range(len(P.nodes) + 1):
        for combo in combinations(P.nodes, k):
            if all(a not in P.below(b) and b not in P.below(a)
                   for a, b in combinations(combo, 2)):
                count += 1
    return count


def closed_sets_brute(P):
    """Every upward closed subset, by testing each subset of P.nodes in
    the order of combinations(P.nodes, k) for k = 0, 1, ..."""
    out = []
    for k in range(len(P.nodes) + 1):
        for combo in combinations(P.nodes, k):
            S = set(combo)
            if all(n in S or not (P.below(n) & S) for n in P.nodes):
                out.append(frozenset(combo))
    return out


# multigraded Cech cohomology ---------------------------------------------------

def nonzero_patterns_brute(dim, m):
    """(sign pattern, dim) for every one of the 3^m sign patterns with
    dim > 0: the zero vector first, then the rest in lexicographic order."""
    patterns = [(0,) * m] + [s for s in product((-1, 0, 1), repeat=m) if any(s)]
    dims = [(s, dim(s)) for s in patterns]
    return [(s, d) for s, d in dims if d > 0]


def piece_key_brute(A, gens, s):
    """For each subset W of the generators, smallest first and then in
    combinations order, whether the degree-s piece of A_W is nonzero: no
    negative coordinate outside W, and no relation inside W together with
    the positive support.  The sign-pattern scan once keyed its candidates
    by this tuple, at 2^g piece tests per candidate."""
    negative = {v for v, x in zip(A.variables, s) if x < 0}
    positive = {v for v, x in zip(A.variables, s) if x > 0}
    return tuple(negative <= set(W) and not any(set(r) <= set(W) | positive
                                                for r in A.relations)
                 for k in range(len(gens) + 1) for W in combinations(gens, k))


# elliptic curves y^2 = x^3 + a*x + b ------------------------------------------
# A point is None (the point at infinity) or a pair (x, y) of Fractions.

# the curves of the benchmark's classify draw, the catalogued three among
# them, each with a point on it
ELL_CURVES = (
    (0, -4, (2, 2)),        # rank one: infinite order
    (-1, 0, (0, 0)),        # 2-torsion, like (1, 0) and (-1, 0)
    (0, 1, (2, 3)),         # order 6
    (-43, 166, (-5, 16)),   # order 7
    (-132, 481, (2, 15)),   # order 6
)

def ec_contains_brute(a, b, P):
    if P is None:
        return True
    x, y = P
    return y * y == x ** 3 + a * x + b


def _ec_require(a, b, *points):
    for P in points:
        if not ec_contains_brute(a, b, P):
            raise InputError("point %r is not on the curve" % (P,))


def _ec_slope_brute(a, P, Q):
    """Tangent slope at P if P == Q, else the chord slope through P and Q."""
    (x1, y1), (x2, y2) = P, Q
    if P == Q:
        return (3 * x1 * x1 + a) / (2 * y1)
    return (y2 - y1) / (x2 - x1)


def ec_add_brute(a, b, P, Q):
    """P + Q by the chord-and-tangent formulas, one Fraction operation at a
    time."""
    _ec_require(a, b, P, Q)
    if P is None:
        return Q
    if Q is None:
        return P
    if P[0] == Q[0] and P[1] == -Q[1]:
        return None
    lam = _ec_slope_brute(a, P, Q)
    x3 = lam * lam - P[0] - Q[0]
    return (x3, lam * (P[0] - x3) - P[1])


def ec_line_brute(a, b, P, Q):
    """(X, Y, Z coefficients, kind) of the line through P and Q: the
    vertical X - x*Z if Q = -P (a tangent at a 2-torsion point too), else
    the chord, which is the tangent if P == Q."""
    _ec_require(a, b, P, Q)
    if P is None or Q is None:
        raise InputError("chords are drawn between affine points")
    if P[0] == Q[0] and P[1] == -Q[1]:
        return (Fraction(1), Fraction(0), -P[0], "vertical")
    lam = _ec_slope_brute(a, P, Q)
    return (lam, Fraction(-1), P[1] - lam * P[0], "chord")


def ec_multiples_brute(a, b, P, n):
    """O and +-P, ..., +-nP without repeats, by repeated addition."""
    out, Q = [None], None
    for _ in range(n):
        Q = ec_add_brute(a, b, Q, P)
        out += [Q, Q and (Q[0], -Q[1])]
    return list(dict.fromkeys(out))


# the images of X, Y, U, V under the Segre embedding, as exponents of S0,S1,T0,T1
SEGRE_IMAGES = ((1, 0, 1, 0), (0, 1, 1, 0), (0, 1, 0, 1), (1, 0, 0, 1))


def _times_brute(f, g):
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return out


def embed_by_substitution(terms):
    """The image of {X,Y,U,V exponents: coefficient} as {S0,S1,T0,T1
    exponents: coefficient}: X -> S0*T0, Y -> S1*T0, U -> S1*T1,
    V -> S0*T1 substituted into every term, multiplied out one factor at
    a time, and the terms added up; zero coefficients are dropped."""
    total = {}
    for expo, c in terms.items():
        term = {(0, 0, 0, 0): Fraction(c)}
        for image, e in zip(SEGRE_IMAGES, expo):
            for _ in range(e):
                term = _times_brute(term, {image: 1})
        for e, x in term.items():
            total[e] = total.get(e, 0) + x
    return {e: c for e, c in total.items() if c}
