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
the support {j : a_j != 0} is a face, and every dim is zero when a
generator has a positive coordinate (see _nonzero_patterns).  So the scan
builds at most 2^m patterns, drops the non-faces, and computes ranks
once per distinct complex.

Sets of variables are int masks: an algebra gives variable j the bit
1 << (m - 1 - j) and keeps one mask per relation, so a face test is
r & f == r over the relation masks, and counting the masks up from 0
runs through the candidate sign patterns in lexicographic order.

The catalog families decided by this cohomology, the two planes
k[X,Y,U]/(XU) and the hypersurface k[X,Y,U,V]/(XU-YV), are classified
at the end of the module.
"""

from __future__ import annotations

from itertools import chain, combinations, product
from math import gcd

from .errors import InputError, record
from .verdict import (CLASSICAL, COHOMOLOGY_OBSTRUCTION, COHOMOLOGY_VIA_QUOTIENT,
                      FLAT_ONLY, HEIGHT_VIOLATION, CohomologyWitness, Denominators,
                      HeightViolation, Verdict)

ENUM_VARIABLE_BOUND = 16  # facet enumeration is exponential in the variable count
# the most rows `cech` prints.  As a fresh process on a shared 2-core host,
# a table of 200 000 rows takes 0.64-0.68 s and one of 300 000 rows 0.87-1.04 s,
# in text and in JSON (median of 3); 1 s is the budget per call.
CECH_ROWS_BOUND = 200_000


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
        # not fields: ==, hash and repr read only variables and relations
        m = len(self.variables)
        object.__setattr__(self, "bits", {v: 1 << (m - 1 - j)
                                          for j, v in enumerate(self.variables)})
        object.__setattr__(self, "relation_masks", tuple(map(self.mask, rels)))

    def mask(self, names) -> int:
        """The bits of the named variables; a name that is not a variable
        adds none, as it lies in no relation."""
        bits = self.bits
        out = 0
        for v in names:
            out |= bits.get(v, 0)
        return out

    def is_face_mask(self, f: int) -> bool:
        return not any(r & f == r for r in self.relation_masks)

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
        return self.is_face_mask(self.mask(names))

    def facets(self):
        if len(self.variables) > ENUM_VARIABLE_BOUND:
            raise InputError("too many variables for facet enumeration")
        # largest first, so a face inside none of the facets so far is one
        faces, masks = [], []
        for k in range(len(self.variables), -1, -1):
            for combo in combinations(self.variables, k):
                f = self.mask(combo)
                if self.is_face_mask(f) and not any(f & g == f for g in masks):
                    faces.append(combo)
                    masks.append(f)
        return sorted(faces, key=lambda f: (-len(f), f))

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

def _differential(A: MonomialAlgebra, gens, k, a):
    """Matrix of C^k -> C^{k+1} in multidegree a (rows: targets)."""
    bits = [A.bits[g] for g in gens]
    neg = A.mask(v for v, x in zip(A.variables, a) if x < 0)
    pos = A.mask(v for v, x in zip(A.variables, a) if x > 0)

    def pieces(k):
        # the k-subsets W of the generators with (A_W)_a nonzero
        return [w for w in map(sum, combinations(bits, k))
                if neg & w == neg and A.is_face_mask(w | pos)] if k >= 0 else []

    sources = pieces(k)
    targets = {w: row for row, w in enumerate(pieces(k + 1))}
    mat = [[0] * len(sources) for _ in targets]
    for col, w in enumerate(sources):
        sign = 1  # W -> W + g has the sign (-1)^|{h in W : h before g}|
        for b in bits:
            if w & b:
                sign = -sign
            elif w | b in targets:
                mat[targets[w | b]][col] = sign
    return mat, len(sources), len(targets)


def _rank(mat) -> int:
    # integer elimination: each row r with r[c] != 0 becomes p*r - r[c]*top
    # for the pivot p = top[c], divided by the gcd of its entries
    rows = [r for r in mat if any(r)]
    rank = 0
    while rows:
        top = rows.pop()
        c = next(j for j, x in enumerate(top) if x)
        p = top[c]
        for i, r in enumerate(rows):
            e = r[c]
            if e:
                r = [p * x - e * y for x, y in zip(r, top)]
                g = gcd(*r)
                rows[i] = [x // g for x in r] if g > 1 else r
        rows = [r for r in rows if any(r)]
        rank += 1
    return rank


def cech_dim(A: MonomialAlgebra, I: VariableIdeal, i: int, a) -> int:
    """Dimension over Q of the degree-a piece of H^i_I(A)."""
    if i < 0:
        raise InputError("cohomological degree must be >= 0")
    a = tuple(int(x) for x in a)
    if len(a) != len(A.variables):
        raise InputError("multidegree length mismatch")
    gens = VariableIdeal.of(A, I.generators).generators
    if i > len(gens):
        return 0
    dout, pieces, _ = _differential(A, gens, i, a)
    return pieces - _rank(dout) - _rank(_differential(A, gens, i - 1, a)[0])


@record
class NonvanishOutcome:
    """Result of the sign-pattern scan for H^i != 0."""

    witness: tuple  # multidegree, or None when H^i = 0
    dim: int
    note: str

    @property
    def found(self) -> bool:
        return self.witness is not None


def _keyed_candidates(A: MonomialAlgebra, I: VariableIdeal):
    """Yield (key, N, P) for each candidate sign pattern in scan order, N
    and P the masks of its negative and its positive coordinates.

    A candidate is a face S = N | P with N inside the generators and P
    outside them.  Its counter t sets the bit of variable j where a_j
    takes the second of its two signs (0 for a generator, 1 otherwise):
    t from 0 up runs through the patterns in lexicographic order, and t
    = the generators is the zero pattern, which the scan takes first.
    The key is N and the reduced relations r & ~S that lie inside the
    generators, those r whose part outside the generators lies in P.
    """
    gens = A.mask(I.generators)
    rels = [(r, r & ~gens) for r in A.relation_masks]
    for t in chain((gens,), range(gens), range(gens + 1, 1 << len(A.variables))):
        support = t ^ gens
        if A.is_face_mask(support):
            neg, pos = support & gens, t & ~gens
            reduced = frozenset(r & ~support for r, rest in rels if rest & pos == rest)
            yield (neg, reduced), neg, pos


def _nonzero_patterns(A: MonomialAlgebra, I: VariableIdeal, i: int):
    """Yield (sign pattern, dim) for each pattern with cech_dim > 0, in scan order.

    The scan order is the zero vector, then the rest of {-1,0,1}^m in
    lexicographic order.  Only patterns that can carry a nonzero dim are
    built: a negative coordinate must be a generator, the support a face,
    and no generator g positive.  For a_g > 0 and W without g, the piece
    of A_W is nonzero exactly when the piece of A_(W + g) is, since g lies
    in {j : a_j > 0} already; the differential part that adds g is plus or
    minus the identity between them, so the complex is the cone of an
    isomorphism and is exact (Miller-Sturmfels, ch. 13).

    The complex depends only on which W have a nonzero piece, and the key
    of _keyed_candidates fixes that family.  With N, P and S the masks of
    the negative coordinates, the positive ones and the support, the
    piece of A_W, W inside the generators, is nonzero exactly when N lies
    in W and no relation r lies in W | P.  Since N lies in W, that is: no
    reduced relation r & ~S lies in W, and one with a bit outside the
    generators lies in no W.  So cech_dim runs once per key, on the first
    pattern with it, and the scan costs a few bit operations per
    candidate.
    """
    bits = tuple(A.bits.values())
    dims = {}
    for key, neg, pos in _keyed_candidates(A, I):
        if dims.get(key, 1) == 0:
            continue
        s = tuple((pos & b > 0) - (neg & b > 0) for b in bits)
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
    # a pattern with k nonzero signs expands to box^k degrees
    if sum(box ** sum(map(abs, s)) for s, _ in found) > CECH_ROWS_BOUND:
        raise InputError("the table for --box %d has more than lcohom.CECH_ROWS_BOUND = %d "
                         "rows" % (box, CECH_ROWS_BOUND))
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
    ideal = VariableIdeal.of(A, names)
    names = ideal.generators
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

    reason = "every localisation at two or more of the generators is zero"
    if len(names) < 2 or any(A.is_face(pair) for pair in combinations(names, 2)):
        for i in range(2, len(names) + 1):
            out = certify_nonvanishing(A, ideal, i, CohomologyWitness.box)
            if out.found:
                witness = CohomologyWitness(
                    algebra=A.describe(), ideal=names, degree=i,
                    multidegree=out.witness, steps=(out.note,))
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
    out = certify_nonvanishing(quotient, VariableIdeal.of(quotient, names), 2,
                               CohomologyWitness.box)
    if not out.found:
        raise AssertionError("witness must exist for the coordinate primes")
    return kill, quotient, out


def classify_dim3hyper(names) -> Verdict:
    """Verdict for V(p) in the hypersurface k[X,Y,U,V]/(XU-YV), p a
    variable prime; certificates run on the monomial surrogate."""
    names = VariableIdeal.of(DIM3_SURROGATE, names).generators
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
        multidegree=out.witness, steps=steps)
    return DIM3_OBSTRUCTION("dim3hyper", desc, witness)
