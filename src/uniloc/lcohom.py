"""Multigraded Cech local cohomology over squarefree monomial algebras.

The ring is k[variables]/(relations) with squarefree monomial
relations; the supported ideals are generated by variables.  Everything
is graded by Z^m, and each graded piece of a localization A_W is either
zero or one-dimensional:

    (A_W)_a is nonzero  iff  a_j >= 0 for every j outside W, and
                             W together with {j : a_j > 0} is a face
                             (contains no relation monomial).

Cohomology in a fixed multidegree is therefore the cohomology of a
small complex of Q-vector spaces with 0/±1 differentials, and ranks are
computed exactly.  The rule reads only the signs of a, so dim H^i_I(A)_a
depends only on sign(a) in {-1,0,1}^m, the multigraded Hochster formula
(Miller-Sturmfels, Combinatorial Commutative Algebra, ch. 13).  A scan
of the sign patterns finds a witness degree or proves H^i = 0.  Every
piece is zero unless the negative coordinates are generators of I and
the support {j : a_j != 0} is a face, so the scan builds at most
3^|gens| * 2^(m - |gens|) patterns, drops the non-faces, and computes
ranks once per distinct complex.

The catalog families decided by this cohomology, the two planes
k[X,Y,U]/(XU) and the hypersurface k[X,Y,U,V]/(XU-YV), are classified
at the end of the module.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, combinations, product

from .errors import InputError, record
from .verdict import (CLASSICAL, COHOMOLOGY_OBSTRUCTION, COHOMOLOGY_VIA_QUOTIENT,
                      FLAT_ONLY, HEIGHT_VIOLATION, CohomologyWitness, Denominators,
                      HeightViolation, Verdict)

ENUM_VARIABLE_BOUND = 16  # facet enumeration is exponential in the variable count

# the box a classifier's cohomology witness records: the witness lies in
# {-1, 0, 1}^m, hence in every box, and 3 is the box every recorded verdict carries
WITNESS_BOX = 3


@record
class MonomialAlgebra:
    variables: tuple
    relations: tuple  # frozensets of variable names, pairwise incomparable

    def __post_init__(self):
        if len(set(self.variables)) != len(self.variables):
            raise InputError("duplicate variable names")
        rels = [frozenset(r) for r in self.relations]
        known = set(self.variables)
        for r in rels:
            if not r:
                raise InputError("empty relation monomial")
            if not r <= known:
                raise InputError("relation uses unknown variables")
        for r in rels:
            for s in rels:
                if r != s and r <= s:
                    raise InputError("relations must be pairwise incomparable")

    @classmethod
    def make(cls, variables, relations=()) -> "MonomialAlgebra":
        rels = sorted({frozenset(r) for r in relations},
                      key=lambda r: sorted(r))
        return cls(tuple(variables), tuple(rels))

    def index(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise InputError("unknown variable %r" % (name,)) from None

    def is_face(self, names) -> bool:
        s = set(names)
        return not any(r <= s for r in self.relations)

    def facets(self):
        if len(self.variables) > ENUM_VARIABLE_BOUND:
            raise InputError("too many variables for facet enumeration")
        faces = []
        for k in range(len(self.variables), -1, -1):
            for combo in combinations(self.variables, k):
                if self.is_face(combo) and not any(set(combo) < set(f) for f in faces):
                    faces.append(tuple(combo))
        maximal = [f for f in faces if not any(set(f) < set(g) for g in faces)]
        return sorted(maximal, key=lambda f: (-len(f), f))

    def describe(self) -> str:
        sep = "" if all(len(v) == 1 for v in self.variables) else "*"
        head = "k[%s]" % ",".join(self.variables)
        if not self.relations:
            return head
        rels = ", ".join(sep.join(sorted(r, key=self.index)) for r in self.relations)
        return "%s/(%s)" % (head, rels)

    def __repr__(self):
        return self.describe()


@record
class VariableIdeal:
    generators: tuple

    def __post_init__(self):
        if not self.generators:
            raise InputError("variable ideal needs at least one generator")
        if len(set(self.generators)) != len(self.generators):
            raise InputError("duplicate generators")

    @classmethod
    def of(cls, algebra: MonomialAlgebra, names) -> "VariableIdeal":
        names = list(names)
        for n in names:
            algebra.index(n)
        ordered = tuple(sorted(set(names), key=algebra.index))
        return cls(ordered)


def is_variable_prime(A: MonomialAlgebra, names) -> bool:
    """The ideal (names) is prime exactly when the complement is a face."""
    comp = [v for v in A.variables if v not in set(names)]
    return A.is_face(comp)


def prime_height(A: MonomialAlgebra, names) -> int:
    """Height of the prime generated by a variable subset.

    Measured along monomial chains: the maximum of |facet| - |complement|
    over facets containing the complement.
    """
    s = set(names)
    comp = frozenset(v for v in A.variables if v not in s)
    if not A.is_face(comp):
        raise InputError("(%s) is not prime here" % ", ".join(sorted(s)))
    heights = [len(f) - len(comp) for f in A.facets() if comp <= set(f)]
    if not heights:
        raise AssertionError("a face must extend to a facet")
    return max(heights)


def kill_variable(A: MonomialAlgebra, name: str) -> MonomialAlgebra:
    """Quotient by one variable: relations involving it become trivial."""
    A.index(name)
    new_vars = tuple(v for v in A.variables if v != name)
    new_rels = [r for r in A.relations if name not in r]
    return MonomialAlgebra.make(new_vars, new_rels)


# the complex ---------------------------------------------------------------

def _piece_nonzero(A: MonomialAlgebra, W, a) -> bool:
    w = set(W)
    for j, v in enumerate(A.variables):
        if v not in w and a[j] < 0:
            return False
    positive = {v for j, v in enumerate(A.variables) if a[j] > 0}
    return A.is_face(w | positive)


def _differential(A: MonomialAlgebra, gens, k, a):
    """Matrix of C^k -> C^{k+1} in multidegree a (rows: targets)."""
    sources = [c for c in combinations(gens, k) if _piece_nonzero(A, c, a)]
    targets = {c: row for row, c in enumerate(
        c for c in combinations(gens, k + 1) if _piece_nonzero(A, c, a))}
    mat = [[0] * len(sources) for _ in targets]
    for col, W in enumerate(sources):
        ws = set(W)
        for g in gens:
            if g in ws:
                continue
            W2 = tuple(sorted(ws | {g}, key=gens.index))
            row = targets.get(W2)
            if row is not None:
                mat[row][col] = (-1) ** W2.index(g)
    return mat, len(sources), len(targets)


def _rank(mat) -> int:
    rows = [[Fraction(x) for x in r] for r in mat if any(r)]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    col = 0
    while rows and col < ncols:
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pv = rows[rank][col]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                f = rows[i][col] / pv
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
        col += 1
    return rank


def cech_dim(A: MonomialAlgebra, I: VariableIdeal, i: int, a) -> int:
    """Dimension over Q of the degree-a piece of H^i_I(A)."""
    if i < 0:
        raise InputError("cohomological degree must be >= 0")
    a = tuple(int(x) for x in a)
    if len(a) != len(A.variables):
        raise InputError("multidegree length mismatch")
    gens = VariableIdeal.of(A, I.generators).generators
    g = len(gens)
    if i > g:
        return 0
    pieces_i = sum(1 for c in combinations(gens, i) if _piece_nonzero(A, c, a))
    dout, _, _ = _differential(A, gens, i, a) if i < g else ([], 0, 0)
    din, _, _ = _differential(A, gens, i - 1, a) if i > 0 else ([], 0, 0)
    return pieces_i - _rank(dout) - _rank(din)


@record
class NonvanishOutcome:
    """Result of the sign-pattern scan for H^i != 0."""

    witness: tuple  # multidegree, or None when H^i = 0
    dim: int
    note: str

    @property
    def found(self) -> bool:
        return self.witness is not None


def _nonzero_patterns(A: MonomialAlgebra, I: VariableIdeal, i: int):
    """Yield (sign pattern, dim) for each pattern with cech_dim > 0, in scan order.

    The scan order is the zero vector, then the rest of {-1,0,1}^m in
    lexicographic order.  Only patterns that can carry a nonzero piece
    are built: a negative coordinate must be a generator and the support
    a face.  The complex depends only on which W have a nonzero piece,
    so cech_dim runs once per such set.
    """
    gens = set(I.generators)
    subsets = [W for k in range(len(gens) + 1)
               for W in combinations(I.generators, k)]
    choices = [(-1, 0, 1) if v in gens else (0, 1) for v in A.variables]
    zero = (0,) * len(A.variables)
    dims = {}
    for s in chain((zero,), (s for s in product(*choices) if any(s))):
        if not A.is_face(v for v, x in zip(A.variables, s) if x):
            continue
        key = tuple(_piece_nonzero(A, W, s) for W in subsets)
        if key not in dims:
            dims[key] = cech_dim(A, I, i, s)
        if dims[key]:
            yield s, dims[key]


def _outcome(first, A: MonomialAlgebra, i: int, box: int) -> NonvanishOutcome:
    if first is None:
        return NonvanishOutcome(None, 0, "all %d sign patterns of the multidegree give "
                                "zero: H^%d is identically zero" % (3 ** len(A.variables), i))
    return NonvanishOutcome(*first, "witness found inside box %d" % box)


def certify_nonvanishing(A: MonomialAlgebra, I: VariableIdeal, i: int,
                         box: int) -> NonvanishOutcome:
    """Decide H^i_I(A) != 0 by the first sign pattern with cech_dim > 0; an
    empty scan proves H^i = 0.  The witness has entries in {-1, 0, 1}, so
    it lies in every box, and box only appears in the note."""
    if box < 1:
        raise InputError("box must be >= 1")
    return _outcome(next(_nonzero_patterns(A, I, i), None), A, i, box)


def cech_table(A: MonomialAlgebra, I: VariableIdeal, i: int, box: int):
    """The certify_nonvanishing outcome and the (degree, dim) pairs of the
    nonzero dims of H^i_I(A) with |a_j| <= box, from one scan of the sign
    patterns: each nonzero pattern is expanded over the box."""
    if box < 1:
        raise InputError("box must be >= 1")
    found = list(_nonzero_patterns(A, I, i))
    ranges = {-1: range(-box, 0), 0: (0,), 1: range(1, box + 1)}
    table = ((a, d) for s, d in found for a in product(*(ranges[x] for x in s)))
    return _outcome(found[0] if found else None, A, i, box), table


# the twoplanes and dim3hyper classifiers ------------------------------------

TWOPLANES = MonomialAlgebra.make(("X", "Y", "U"), [{"X", "U"}])
DIM3_SURROGATE = MonomialAlgebra.make(("X", "Y", "U", "V"), [{"X", "U"}])
DIM3_PRIMES = (("X", "Y"), ("X", "V"), ("Y", "U"), ("U", "V"))

# H^k = 0 for every k > 1, by the length bound or by the sign-pattern scan
TWOPLANES_VANISHING = FLAT_ONLY.cite(("coherence-local-cohomology",
                                      "cech-length-bound"))
TWOPLANES_COORDINATE = CLASSICAL.cite(after=("flat-universal-classical-hierarchy",))
TWOPLANES_OBSTRUCTION = COHOMOLOGY_OBSTRUCTION.cite(("twoplanes-not-coherent",))
DIM3_OBSTRUCTION = COHOMOLOGY_VIA_QUOTIENT.cite(("dim3-hypersurface-not-coherent",))


def classify_twoplanes(names) -> Verdict:
    """Verdict for V(p) in k[X,Y,U]/(XU), p generated by the named variables."""
    A = TWOPLANES
    for n in names:
        A.index(n)
    names = tuple(sorted(set(names), key=A.index))
    desc = "(%s)" % ", ".join(names)
    if not is_variable_prime(A, names):
        raise InputError("%s is not a prime of %s" % (desc, A.describe()))
    ht = prime_height(A, names)

    if ht > 1:
        return HEIGHT_VIOLATION("twoplanes", desc, HeightViolation(desc, ht))
    if ht == 0 and len(names) == 1:
        s = names[0]
        return TWOPLANES_COORDINATE(
            "twoplanes", desc, Denominators((s,)),
            notes=("V(%s) is literally the vanishing set of the element %s"
                   % (s, s),))

    ideal = VariableIdeal.of(A, names)
    reason = "every localisation at two or more of the generators is zero"
    if len(names) < 2 or any(A.is_face(pair) for pair in combinations(names, 2)):
        for i in range(2, len(names) + 1):
            out = certify_nonvanishing(A, ideal, i, WITNESS_BOX)
            if out.found:
                witness = CohomologyWitness(
                    algebra=A.describe(), ideal=names, degree=i,
                    multidegree=out.witness, box=WITNESS_BOX, steps=(out.note,))
                return TWOPLANES_OBSTRUCTION("twoplanes", desc, witness)
        reason = "no sign pattern of the multidegree carries an H^k class for k > 1"
    return TWOPLANES_VANISHING(
        "twoplanes", desc,
        notes=(reason + ", so H^k vanishes for all k > 1 and the flat "
               "epimorphism exists",
               "the torsion criteria for universal/classical need a "
               "normal domain and are not implemented for this ring"))


def quadric_certificate(names):
    """H^2 != 0 for the coordinate prime (names) of k[X,Y,U,V]/(XU-YV).

    Kills whichever of Y and V is not a generator; the quadric and its
    monomial surrogate have the same quotient, whose first nonzero sign
    pattern is the witness.  Returns (killed variable, quotient, outcome).
    """
    kill = next(v for v in ("Y", "V") if v not in names)
    quotient = kill_variable(DIM3_SURROGATE, kill)
    out = certify_nonvanishing(quotient, VariableIdeal.of(quotient, names), 2, WITNESS_BOX)
    if not out.found:
        raise AssertionError("witness must exist for the coordinate primes")
    return kill, quotient, out


def classify_dim3hyper(names) -> Verdict:
    """Verdict for V(p) in the hypersurface k[X,Y,U,V]/(XU-YV), p a
    variable prime; certificates run on the monomial surrogate."""
    names = tuple(sorted(set(names), key=lambda n: "XYUV".index(n)
                         if n in "XYUV" else -1))
    for n in names:
        if n not in ("X", "Y", "U", "V"):
            raise InputError("unknown variable %r" % (n,))
    desc = "(%s)" % ", ".join(names)

    if set(names) == {"X", "Y", "U", "V"}:
        return HEIGHT_VIOLATION("dim3hyper", desc, HeightViolation(desc, 3),
                                notes=("the maximal ideal has height 3",))
    if names not in DIM3_PRIMES:
        raise InputError(
            "%s is not a supported prime here; the variable primes of the "
            "hypersurface are (X,Y), (X,V), (Y,U), (U,V) and the maximal ideal"
            % (desc,))

    kill, quotient, out = quadric_certificate(names)
    steps = (
        "pass to the quotient %s by killing %s" % (quotient.describe(), kill),
        "top-degree Cech cohomology is right exact, so a nonzero class on the "
        "quotient forces H^2_(%s) != 0 upstairs" % ", ".join(names),
        out.note,
        "killing %s takes the hypersurface ring and its monomial surrogate "
        "to the same quotient, so the certificate applies to the "
        "hypersurface" % kill)
    witness = CohomologyWitness(
        algebra=quotient.describe(), ideal=names, degree=2,
        multidegree=out.witness, box=WITNESS_BOX, steps=steps)
    return DIM3_OBSTRUCTION("dim3hyper", desc, witness)
