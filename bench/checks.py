"""Independent answer checks for the benchmark.

Everything here recomputes what an answer must be without calling
uniloc: ideal lattices and Lagrange-Gauss reduction for quadratic
orders, Fraction arithmetic for elliptic curves, the bidegree rule for
the Segre cone, a hand-written table for the two monomial rings, sign
patterns for Cech dimensions, and matrix identities for Smith normal
forms.  The one shared piece is the Hermite normal form in
tests/oracles.py, which decides lattice membership.

A check returns one of three outcomes: DECIDED (a definite answer that
matches), UNDECIDED (an honest unknown, exit 4, or the exit 3 refusal)
or FAILED (anything else), together with a reason for the report.
"""

from __future__ import annotations

import importlib.util
import re
from fractions import Fraction
from itertools import combinations
from math import gcd, isqrt
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

DECIDED = "decided"
UNDECIDED = "undecided"
FAILED = "failed"

YES, NO, UNKNOWN = "yes", "no", "unknown"
INFINITE = "infinite"


def load_oracles():
    """tests/oracles.py, loaded by path so the benchmark needs no package."""
    path = ROOT / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("bench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ORACLES = load_oracles()


# small number theory --------------------------------------------------------

def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def is_squarefree(n: int) -> bool:
    n = abs(n)
    f = 2
    while f * f <= n:
        if n % (f * f) == 0:
            return False
        f += 1
    return True


def fundamental_disc(d: int) -> int:
    return d if d % 4 == 1 else 4 * d


def kronecker(D: int, ell: int) -> int:
    """(D/ell) for a prime ell, by Euler's criterion."""
    if ell == 2:
        if D % 2 == 0:
            return 0
        return 1 if D % 8 in (1, 7) else -1
    r = D % ell
    if r == 0:
        return 0
    return 1 if pow(r, (ell - 1) // 2, ell) == 1 else -1


def positive_root(D: int, ell: int) -> int:
    """The b in (-ell, ell] with b^2 = D mod 4*ell that the CLI calls p<ell>.

    That is the positive root when one exists, else the non-positive one.
    """
    if ell % 4 == 3 and ell > 3 and D % ell:
        r = pow(D % ell, (ell + 1) // 4, ell)
        if r * r % ell != D % ell:
            raise ValueError("%d is not a square mod %d" % (D, ell))
        # one of r, ell - r has the parity of D
        return r if (r - D) % 2 == 0 else ell - r
    roots = [b for b in range(-ell + 1, ell + 1) if (b * b - D) % (4 * ell) == 0]
    positive = [b for b in roots if b > 0]
    return positive[0] if positive else roots[-1]


# quadratic orders as lattices in the basis (1, w) ---------------------------

class QuadField:
    """Arithmetic of the maximal order of Q(sqrt(d)), d < 0 squarefree."""

    def __init__(self, d: int):
        self.d = d
        self.D = fundamental_disc(d)
        self.parity = self.D % 2
        # w^2 = c0 + c1*w
        self.c0, self.c1 = ((d - 1) // 4, 1) if self.parity else (d, 0)

    def norm(self, v):
        x, y = v
        if self.parity:
            return x * x + x * y + y * y * Fraction(1 - self.d, 4)
        return x * x - self.d * y * y

    def form4(self, u, v):
        """4 times the norm's bilinear form, in integers."""
        (x1, y1), (x2, y2) = u, v
        if self.parity:  # 4N(x + yw) = (2x + y)^2 - d*y^2
            return 4 * x1 * x2 + 2 * (x1 * y2 + x2 * y1) + (1 - self.d) * y1 * y2
        return 4 * (x1 * x2 - self.d * y1 * y2)

    def mul(self, u, v):
        x1, y1 = u
        x2, y2 = v
        return (x1 * x2 + self.c0 * y1 * y2, x1 * y2 + x2 * y1 + self.c1 * y1 * y2)

    def lattice_mul(self, A, B):
        return basis2([self.mul(u, v) for u in A for v in B])

    def shortest(self, rows):
        """Lagrange-Gauss reduction: a nonzero vector of least norm, and
        that norm."""
        u, v = tuple(rows[0]), tuple(rows[1])
        nu, nv = self.form4(u, u), self.form4(v, v)
        if nv < nu:
            u, v, nu, nv = v, u, nv, nu
        while True:
            mu = (2 * self.form4(u, v) + nu) // (2 * nu)  # nearest integer
            v = (v[0] - mu * u[0], v[1] - mu * u[1])
            nv = self.form4(v, v)
            if nv >= nu:
                return u, nu // 4
            u, v, nu, nv = v, u, nv, nu

    def from_sqrt_form(self, p: Fraction, q: Fraction):
        """p + q*sqrt(d) in the (1, w) basis."""
        if self.parity:  # sqrt(d) = 2w - 1
            return (p - q, 2 * q)
        return (p, q)


def _xgcd(a, b):
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


def basis2(vectors):
    """A basis [[a, 0], [s, g]] of the full-rank lattice the integer
    vectors (x, y) span: g generates the y-coordinates, a the x-axis."""
    x0, g, axis = 0, 0, 0
    for x, y in vectors:
        if y == 0:
            axis = gcd(axis, x)
            continue
        if g == 0:
            x0, g = x, y
            continue
        d, s, t = _xgcd(g, y)
        axis = gcd(axis, (y * x0 - g * x) // d)  # the combination with y = 0
        x0, g = s * x0 + t * x, d
    if g < 0:
        x0, g = -x0, -g
    axis = abs(axis)
    return [[axis, 0], [x0 % axis, g]]


def prime_ideal(F: QuadField, ell: int, conjugate: bool):
    """(kind, norm, lattice rows) of the prime the CLI names p<ell>[bar]."""
    sym = kronecker(F.D, ell)
    if sym == -1:
        return "inert", ell * ell, [[ell, 0], [0, ell]]
    b = positive_root(F.D, ell)
    if conjugate and sym == 1:
        b = -b
    shift = (b - F.parity) // 2
    return ("ramified" if sym == 0 else "split"), ell, ORACLES.hnf([[ell, 0], [shift, 1]])


def class_order(F: QuadField, rows, norm: int, norm_cap: int):
    """Least n with p^n principal, with a generator, or None past norm_cap.

    p^n is principal exactly when its least nonzero norm equals N(p)^n,
    since every nonzero element of an ideal has norm at least the ideal's.
    """
    power = rows
    n = 1
    while True:
        gen, least = F.shortest(power)
        if least == norm ** n:
            return n, gen
        n += 1
        if norm ** n > norm_cap:
            return None
        power = F.lattice_mul(power, rows)


def search_work(F: QuadField, gen) -> int:
    """How far out a generator lies: the lattice points a row-by-row scan
    of |y| then |x| passes before reaching it.  Used to stratify draws."""
    x, y = (int(c) for c in gen)
    c = gcd(x, y) or 1
    x, y = x // c, y // c
    return abs(y) * isqrt(int(F.norm((x, y)))) + abs(x)


_SQRT = re.compile(r"^(?P<p>-?\d+(?:/\d+)?(?=[+-]))?(?P<sign>[+-])?"
                   r"(?:(?P<q>\d+(?:/\d+)?)\*)?sqrt\((?P<d>-?\d+)\)$")


def parse_quad_element(text: str, d: int):
    """Read a rendered element back as p + q*sqrt(d) with rationals p, q."""
    text = text.strip()
    half = Fraction(1)
    if text.startswith("(") and text.endswith(")/2"):
        text, half = text[1:-3], Fraction(1, 2)
    if "sqrt" not in text:
        return Fraction(text) * half, Fraction(0)
    m = _SQRT.match(text)
    if not m or int(m.group("d")) != d:
        raise ValueError("cannot read quadratic element %r" % (text,))
    p = Fraction(m.group("p")) if m.group("p") else Fraction(0)
    q = Fraction(m.group("q")) if m.group("q") else Fraction(1)
    if m.group("sign") == "-":
        q = -q
    return p * half, q * half


def quad_expectation(d: int, primes, norm_cap: int = 10 ** 40):
    """Expected answer for quad:<d> at primes [(ell, conjugate), ...].

    Returns None when a prime's class order pushes N(p)^n past norm_cap.
    """
    F = QuadField(d)
    per_prime = []
    for ell, conjugate in primes:
        kind, norm, rows = prime_ideal(F, ell, conjugate)
        if kind == "inert":
            per_prime.append({"ell": ell, "kind": kind, "order": 1,
                              "norm": norm, "rows": rows, "work": 0})
            continue
        found = class_order(F, rows, norm, norm_cap)
        if found is None:
            return None
        n, gen = found
        power = rows
        for _ in range(n - 1):
            power = F.lattice_mul(power, rows)
        per_prime.append({"ell": ell, "kind": kind, "order": n, "norm": norm,
                          "rows": power, "work": search_work(F, gen)})
    return {"kind": "quad", "d": d, "triple": (YES, YES, YES),
            "primes": per_prime}


def check_quad_witness(exp, doc):
    witness = doc.get("witness") or {}
    details = witness.get("details", [])
    if witness.get("type") != "denominators" or len(details) != len(exp["primes"]):
        return "witness is not one denominator per prime"
    F = QuadField(exp["d"])
    for want, got in zip(exp["primes"], details):
        n = want["order"]
        if got.get("class_order") != n:
            return "class order %r, expected %d" % (got.get("class_order"), n)
        p, q = parse_quad_element(got["generator"], exp["d"])
        if p * p - exp["d"] * q * q != want["norm"] ** n:
            return "generator %s does not have norm N(p)^%d" % (got["generator"], n)
        if not ORACLES.lattice_member(want["rows"], list(F.from_sqrt_form(p, q))):
            return "generator %s is not in p^%d" % (got["generator"], n)
    return None


# elliptic curves over Q -----------------------------------------------------

def ec_add(a, P, Q):
    if P is None:
        return Q
    if Q is None:
        return P
    if P[0] == Q[0] and P[1] == -Q[1]:
        return None
    if P == Q:
        lam = (3 * P[0] * P[0] + a) / (2 * P[1])
    else:
        lam = (Q[1] - P[1]) / (Q[0] - P[0])
    x = lam * lam - P[0] - Q[0]
    return (x, lam * (P[0] - x) - P[1])


def ec_multiple(a, P, k):
    acc = None
    for _ in range(k):
        acc = ec_add(a, acc, P)
    return acc


def ec_order(a, P):
    """Torsion order by repeated addition; past 12 (Mazur) it is infinite."""
    Q = P
    for n in range(1, 13):
        if Q is None:
            return n
        Q = ec_add(a, Q, P)
    return INFINITE


def ell_expectation(a, b, P):
    a, b = Fraction(a), Fraction(b)
    if P is not None:
        P = (Fraction(P[0]), Fraction(P[1]))
    if P is not None and P[1] ** 2 != P[0] ** 3 + a * P[0] + b:
        return {"kind": "error", "exit": 2}
    order = ec_order(a, P)
    triple = (YES, NO, NO) if order == INFINITE else (YES, YES, YES)
    return {"kind": "ell", "triple": triple, "order": order}


def check_ell_witness(exp, doc):
    if doc.get("torsion") != exp["order"]:
        return "torsion %r, expected %r" % (doc.get("torsion"), exp["order"])
    return None


# the Segre cone: the bidegree rule ------------------------------------------

def segre_expectation(d: int, e: int):
    if d == 0 or e == 0:
        if d + e == 1:
            return {"kind": "segre", "triple": (NO, NO, NO), "witness": "cohomology"}
        # one-sided nonlinear f: the rule needs an algebraically closed field
        return {"kind": "segre", "triple": (UNKNOWN, UNKNOWN, UNKNOWN), "witness": None}
    if d != e:
        return {"kind": "segre", "triple": (YES, NO, NO), "witness": "torsion"}
    return {"kind": "segre", "triple": (YES, YES, YES), "witness": "principal"}


def check_witness_type(exp, doc):
    got = (doc.get("witness") or {}).get("type")
    if got != exp["witness"]:
        return "witness type %r, expected %r" % (got, exp["witness"])
    return None


# twoplanes and dim3hyper: a hand-written table ------------------------------

# keyed by ring and the set of variables generating the prime; a missing
# key is a prime the ring does not have, answered by an input error
TABLE = {
    ("twoplanes", frozenset("X")): (YES, YES, YES),
    ("twoplanes", frozenset("U")): (YES, YES, YES),
    ("twoplanes", frozenset("XY")): (NO, NO, NO),
    ("twoplanes", frozenset("YU")): (NO, NO, NO),
    ("twoplanes", frozenset("XU")): (YES, UNKNOWN, UNKNOWN),
    ("twoplanes", frozenset("XYU")): (NO, NO, NO),
    ("dim3hyper", frozenset("XY")): (NO, NO, NO),
    ("dim3hyper", frozenset("XV")): (NO, NO, NO),
    ("dim3hyper", frozenset("YU")): (NO, NO, NO),
    ("dim3hyper", frozenset("UV")): (NO, NO, NO),
    ("dim3hyper", frozenset("XYUV")): (NO, NO, NO),
}


def table_expectation(ring: str, names):
    triple = TABLE.get((ring, frozenset(names)))
    if triple is None:
        return {"kind": "error", "exit": 2}
    return {"kind": "table", "triple": triple}


# verdict outcomes -----------------------------------------------------------

def compare_triple(want, got):
    """DECIDED on an exact definite match; UNDECIDED when every definite
    component that came back matches and some component is unknown."""
    if tuple(got) == tuple(want) and UNKNOWN not in want:
        return DECIDED
    if UNKNOWN in got and all(g == UNKNOWN or g == w for g, w in zip(got, want)):
        return UNDECIDED
    return FAILED


WITNESS_CHECKS = {
    "quad": check_quad_witness,
    "ell": check_ell_witness,
    "segre": check_witness_type,
}


def check_verdict(exp, outcome):
    """Check one classify answer.

    outcome is ("verdict", json_doc, text) or ("exit", code, message),
    where code is the CLI exit code the raised error maps to.
    """
    if exp["kind"] == "error":
        if outcome[0] == "exit" and outcome[1] == exp["exit"]:
            return DECIDED, ""
        return FAILED, "expected exit %d, got %r" % (exp["exit"], outcome[:2])
    if exp["kind"] == "refused":
        if outcome[0] == "exit" and outcome[1] == 3:
            return UNDECIDED, ""
        return FAILED, "expected the exit 3 refusal, got %r" % (outcome[:2],)
    if outcome[0] == "exit":
        if outcome[1] == 4:
            return UNDECIDED, ""
        return FAILED, "expected a verdict, got exit %r: %s" % outcome[1:]
    _, doc, text = outcome
    got = (doc.get("flat"), doc.get("universal"), doc.get("classical"))
    status = compare_triple(exp["triple"], got)
    if status == FAILED:
        return FAILED, "verdict %s, expected %s" % (got, exp["triple"])
    if text is not None and text_triple(text) != got:
        return FAILED, "text verdict %s differs from JSON %s" % (text_triple(text), got)
    if status == DECIDED and exp["kind"] in WITNESS_CHECKS:
        problem = WITNESS_CHECKS[exp["kind"]](exp, doc)
        if problem:
            return FAILED, problem
    return status, ""


def text_triple(text: str):
    fields = dict(line.split(": ", 1) for line in text.splitlines() if ": " in line)
    return (fields.get("flat epimorphism"), fields.get("universal localisation"),
            fields.get("classical localisation"))


# Smith normal form ----------------------------------------------------------

def det_bareiss(rows) -> int:
    a = [list(r) for r in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


def matmul(A, B):
    cols = list(zip(*B))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in A]


def check_snf(M, D, U, W):
    """U*M*W = D, D a divisibility chain, det U = det W = +-1.

    M is square with det M != 0, so det U * det W = det D / det M; when
    |det D| = |det M| both integer determinants are units.
    """
    n = len(M)
    if matmul(matmul(U, M), W) != D:
        return "U*M*W != D"
    diag = [D[i][i] for i in range(n)]
    if any(D[i][j] for i in range(n) for j in range(n) if i != j):
        return "D is not diagonal"
    if any(x < 0 for x in diag) or any(diag[i + 1] % diag[i] for i in range(n - 1)):
        return "diagonal %s is not a non-negative divisibility chain" % (diag,)
    prod = 1
    for x in diag:
        prod *= x
    if prod != abs(det_bareiss(M)):
        return "|det D| != |det M|, so U or W is not unimodular"
    return None


def bit_size(rows) -> int:
    return max((abs(x).bit_length() for r in rows for x in r), default=0)


# class groups, Cech dimensions, spectrum posets -----------------------------

def reduced_forms(D: int):
    """Reduced primitive forms of discriminant D < 0, enumerated by b and
    then by divisors a of (b^2 - D)/4."""
    out = []
    bmax = isqrt(-D // 3)
    for b in range(-bmax, bmax + 1):
        if (b - D) % 2:
            continue
        N = (b * b - D) // 4
        for a in range(max(abs(b), 1), isqrt(N) + 1):
            if N % a:
                continue
            c = N // a
            if b < 0 and (-b == a or a == c):
                continue
            if gcd(gcd(a, abs(b)), c) == 1:
                out.append([a, b, c])
    return sorted(out)


def check_classgroup(D: int, doc, forms):
    if doc.get("discriminant") != D:
        return "discriminant %r, expected %d" % (doc.get("discriminant"), D)
    if doc.get("class_number") != len(forms) or doc.get("reduced_forms") != forms:
        return "class number %r, expected %d" % (doc.get("class_number"), len(forms))
    return None


def _complex_rank(mat) -> int:
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


def cech_dims_by_sign(variables, relations, gens, i):
    """dim H^i_(gens) in each sign pattern of the multidegree.

    (A_W)_a is nonzero iff a_j >= 0 off W and W plus the positive support
    of a is a face; both conditions read only the signs of a.
    """
    index = {v: j for j, v in enumerate(variables)}
    rels = [frozenset(r) for r in relations]

    def nonzero(W, sign):
        if any(sign[index[v]] < 0 for v in variables if v not in W):
            return False
        support = set(W) | {v for v in variables if sign[index[v]] > 0}
        return not any(r <= support for r in rels)

    def differential(k, sign):
        src = [W for W in combinations(gens, k) if nonzero(W, sign)]
        tgt = [W for W in combinations(gens, k + 1) if nonzero(W, sign)]
        mat = [[0] * len(src) for _ in tgt]
        for col, W in enumerate(src):
            for g in gens:
                if g in W:
                    continue
                W2 = tuple(sorted(set(W) | {g}, key=gens.index))
                if W2 in tgt:
                    mat[tgt.index(W2)][col] = (-1) ** W2.index(g)
        return mat

    dims = {}
    for sign in _sign_patterns(len(variables)):
        if i > len(gens):
            dims[sign] = 0
            continue
        size = sum(1 for W in combinations(gens, i) if nonzero(W, sign))
        out = _complex_rank(differential(i, sign)) if i < len(gens) else 0
        into = _complex_rank(differential(i - 1, sign)) if i > 0 else 0
        dims[sign] = size - out - into
    return dims


def _sign_patterns(m):
    if m == 0:
        yield ()
        return
    for rest in _sign_patterns(m - 1):
        for s in (-1, 0, 1):
            yield rest + (s,)


def cech_table(dims_by_sign, m, box):
    """The dim_by_degree map the cech subcommand prints for |a_j| <= box."""
    table = {}

    def walk(prefix):
        if len(prefix) == m:
            dim = dims_by_sign[tuple((x > 0) - (x < 0) for x in prefix)]
            if dim:
                table[",".join(str(x) for x in prefix)] = dim
            return
        for x in range(-box, box + 1):
            walk(prefix + (x,))

    walk(())
    return table


def check_cech(table, doc):
    if doc.get("dim_by_degree") != table:
        return "dim_by_degree differs from the sign-pattern table"
    witness = doc.get("witness")
    if table and (witness is None or ",".join(map(str, witness)) not in table):
        return "witness %r is not a nonzero degree" % (witness,)
    return None


def poset_facts(nodes, edges):
    """Heights and the number of upward closed subsets of a finite poset."""
    parents = {n: [] for n in nodes}
    children = {n: [] for n in nodes}
    for child, parent in edges:
        parents[child].append(parent)
        children[parent].append(child)
    height, above = {}, {}

    def h(n):
        if n not in height:
            height[n] = 1 + max((h(c) for c in children[n]), default=-1)
        return height[n]

    def up(n):  # bitmask of the nodes strictly above n
        if n not in above:
            mask = 0
            for p in parents[n]:
                mask |= 1 << nodes.index(p) | up(p)
            above[n] = mask
        return above[n]

    masks = [up(n) for n in nodes]
    for n in nodes:
        h(n)
    count = sum(1 for S in range(1 << len(nodes))
                if all(masks[j] & ~S == 0 for j in range(len(nodes)) if S >> j & 1))
    return height, count
