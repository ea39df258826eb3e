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
the support {j : a_j != 0} is a face.  Then, for N the negative
generators and V the other generators, the complex shifted by |N| + 1
is the augmented cochain complex of the simplicial complex K on V that
the relations reduced by the support cut out, so dim H^i_I(A)_a =
dim H~^(j-1)(K) for j = i - |N| (ch. 1 and 13).  Every dim is zero when
K is a cone, as when a generator has a positive coordinate.  By
Alexander duality (Thm. 5.6) and the nerve lemma, that dim is also
dim H~_(|V|-j-2) of the nerve of the r reduced relations, the sets of
them that do not cover V: at most 2^r faces, whatever |V|.  Each dim is
ranked on whichever of K and the nerve has fewer candidate cells (see
_key_dim).  A free variable, in no relation and not a generator, splits
off as a flat tensor factor: its sign -1 gives zero and its signs 0 and
+1 give the same dim.  So for f free variables the scan builds at most
2^(m - f) patterns, drops the non-faces, and computes one dim per
distinct complex (see _scan).

Sets of variables are int masks: an algebra gives variable j the bit
1 << (m - 1 - j) and keeps one mask per relation, so a face test is
r & f == r over the relation masks, and counting the masks up from 0
runs through the candidate sign patterns in lexicographic order.

The catalog families decided by this cohomology, the two planes
k[X,Y,U]/(XU) and the hypersurface k[X,Y,U,V]/(XU-YV), are classified
at the end of the module.
"""

from __future__ import annotations

from itertools import chain, combinations, compress, product
from math import comb, gcd, prod

from .errors import InputError, json_text, quote, record, required
from .verdict import (CLASSICAL, COHOMOLOGY_OBSTRUCTION, COHOMOLOGY_VIA_QUOTIENT,
                      HEIGHT_VIOLATION, UNKNOWN, YES, CohomologyWitness, Denominators,
                      HeightViolation, Rule, Verdict)

# facet enumeration is exponential in the variable count: the facets of
# k[v0..v15] take 0.14 s as a fresh process on a shared 2-core host
ENUM_VARIABLE_BOUND = 16
# the most rows `cech` prints.  As a fresh process on a shared 2-core host,
# a table of 200 000 rows takes 0.64-0.68 s and one of 300 000 rows 0.87-1.04 s,
# in text and in JSON (median of 3); 1 s is the budget per call.
CECH_ROWS_BOUND = 200_000
# the most variables the sign-pattern scan takes once the free variables
# are split off.  The scan builds up to 2^m candidates for m of them, each
# its own key when every variable is a generator.  As fresh processes on a
# shared 2-core host (median of 5, the bound set to 16), m generators at
# --i 1 take 0.17, 0.11, 0.16 and 0.21 s for m = 12, 14, 15 and 16, and one
# relation over m generators at --i m/2, each key ranked on its nerve of
# one vertex, 0.16, 0.16, 0.26 and 0.52 s for m = 12, 13, 15 and 16; 1 s is
# the budget.  What the keys cost is bounded by CECH_CELLS_BOUND.
CECH_SCAN_BOUND = 15
# the most relation tests the scan makes, 2^m for its m variables times the
# relations: each candidate is tested against every relation, and a face
# again in _key.  In process on a shared 2-core host, 2^22 such tests take
# 0.21-0.48 s with 13, 14 or 15 variables and relations of 5 to 7 of them
# (one or seven generators at --i 1), 2^23 take 0.85-1.0 s, and 15
# variables with their 3003 relations of size 5 (2^26.6) take 1.9 s.  The
# ranks are counted by the next bound.
CECH_RELATION_TESTS_BOUND = 2 ** 22
# what the scan may charge for ranking its keys.  Each key is ranked on its
# link or its nerve, whichever has fewer candidates in the three degrees
# of _cohomology, and a key of n such cells is charged CECH_KEY_COST +
# n^2.5, the scan summing that over its keys.  A key's dense elimination
# grows like n^2.5: in process on a shared 2-core host, with 15 generators
# and the first 128 relations of 6 (median of 3), one key of 575 cells
# takes 0.02 s, of 1079 cells 0.10 s, 1456 0.20 s, 1925 0.37 s, 3367 1.8 s
# and 4823 4.7 s, about 2.5-3e-9 s per unit of n^2.5.  The one-relation
# ladder (one relation over all g generators at --i g-1) ranks 2^g - 1
# keys of 2 cells each, at about 6 us a key (g = 11 to 15), and 6 us is
# about 2000 units.  With the same relations, m generators charge, at
# --i 2 and at --i 3: m = 12 2.2e6 and 2.9e7 (0.23 s in process), m = 13
# 3.7e6 and 6.2e7 (0.42 s), m = 14 6.2e6 and 1.26e8 (0.80 s), and m = 15
# 1.0e7 and 2.4e8 (0.75-1.5 s); one relation over 15 generators at --i 14
# charges 6.6e7 (0.33 s).  The bound keeps what took 0.5 s or less.
CECH_CELLS_BOUND = 100_000_000
CECH_KEY_COST = 2000


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
        self._index()
        # a relation can lie only in a larger one
        by_size = {}
        for r, mask in zip(rels, self.relation_masks):
            by_size.setdefault(len(r), []).append(mask)
        for k, group in by_size.items():
            larger = [s for j, masks in by_size.items() if j > k for s in masks]
            if any(r & s == r for r in group for s in larger):
                raise InputError("relations must be pairwise incomparable")

    def _index(self):
        # not fields: ==, hash and repr read only variables and relations
        m = len(self.variables)
        object.__setattr__(self, "bits", {v: 1 << (m - 1 - j)
                                          for j, v in enumerate(self.variables)})
        object.__setattr__(self, "relation_masks", tuple(map(self.mask, self.relations)))

    def restrict(self, used: int) -> "MonomialAlgebra":
        """The algebra on the variables in the mask used, which holds every
        relation.  The relations passed __post_init__ when self was built
        and stay valid, so they are not compared again: on a shared 2-core
        host 6006 relations take 0.7 s to compare pairwise."""
        A = object.__new__(MonomialAlgebra)
        object.__setattr__(A, "variables", tuple(v for v, b in self.bits.items() if b & used))
        object.__setattr__(A, "relations", self.relations)
        A._index()
        return A

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
            raise InputError("unknown variable %s" % quote(name)) from None

    def is_face(self, names) -> bool:
        return self.is_face_mask(self.mask(names))

    def facets(self):
        if len(self.variables) > ENUM_VARIABLE_BOUND:
            raise InputError("facet enumeration over %d variables is past "
                             "lcohom.ENUM_VARIABLE_BOUND = %d"
                             % (len(self.variables), ENUM_VARIABLE_BOUND))
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
        raise InputError("(%s) is not prime here" % ", ".join(quote(n, str) for n in sorted(s)))
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

def _key(rels, neg, pos) -> frozenset:
    """The reduced relations r & ~(N | P) for the masks N and P of the
    negative and the positive coordinates, rels holding the pairs (r, r &
    ~generators) of the relation masks.  A relation with a bit outside the
    generators and P is left out: it lies in no W | P."""
    support = neg | pos
    return frozenset(r & ~support for r, rest in rels if rest & pos == rest)


def _degree_key(A: MonomialAlgebra, gens, a):
    """(bits, neg, rels) for multidegree a: the bits of the generators in
    variable order, the mask N of the negative coordinates, and the
    reduced relations of _key."""
    try:
        bits = sorted(map(A.bits.__getitem__, gens), reverse=True)  # variable order
    except KeyError as missing:
        raise InputError("unknown variable %s" % quote(*missing.args)) from None
    # the bits of the j with 0 > a_j and of those with 0 < a_j
    neg = sum(compress(A.bits.values(), map((0).__gt__, a)))
    pos = sum(compress(A.bits.values(), map((0).__lt__, a)))
    span = sum(bits)
    return bits, neg, _key([(r, r & ~span) for r in A.relation_masks], neg, pos)


def _cells(bits, rels, k):
    """The masks of the k-subsets of bits in which no mask of rels lies."""
    return [c for c in map(sum, combinations(bits, k))
            if not any(r & c == r for r in rels)] if k >= 0 else []


def _pieces(A: MonomialAlgebra, gens, a):
    """(bits, pieces) in multidegree a: the bits of the generators in
    variable order, and pieces(k), the masks of the k-subsets W of the
    generators with (A_W)_a nonzero.

    With N and P the masks of the negative and the positive coordinates,
    W must hold N, and no relation r may lie in W | P, that is no r & ~P
    in W.  So W is N with a set C of the other generators, and the test
    is that no reduced relation of _key lies in C.
    """
    bits, neg, rels = _degree_key(A, gens, a)
    if neg & ~sum(bits) or 0 in rels:
        return bits, lambda k: []  # no W holds N, or every W | P holds a relation
    rest = [b for b in bits if not b & neg]
    n = len(bits) - len(rest)
    return bits, lambda k: [neg | c for c in _cells(rest, rels, k - n)]


def _matrix(bits, sources, targets):
    """Matrix of the differential from the pieces sources to the pieces
    targets one degree up (rows: targets)."""
    rows = {w: row for row, w in enumerate(targets)}
    mat = [[0] * len(sources) for _ in targets]
    for col, w in enumerate(sources):
        sign = 1  # W -> W + g has the sign (-1)^|{h in W : h before g}|
        for b in bits:
            if w & b:
                sign = -sign
            elif w | b in rows:
                mat[rows[w | b]][col] = sign
    return mat


def _differential(A: MonomialAlgebra, gens, k, a):
    """Matrix of C^k -> C^{k+1} in multidegree a (rows: targets)."""
    bits, pieces = _pieces(A, gens, a)
    sources, targets = pieces(k), pieces(k + 1)
    return _matrix(bits, sources, targets), len(sources), len(targets)


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


def _cohomology(bits, cells, k) -> int:
    """dim over Q in degree k of the complex with basis cells(k), a list
    of masks over bits, and the differential of _matrix."""
    here = cells(k)
    if not here:
        return 0
    up, down = cells(k + 1), cells(k - 1)
    return (len(here) - (_rank(_matrix(bits, here, up)) if up else 0)
            - (_rank(_matrix(bits, down, here)) if down else 0))


def _link_dim(vertices, rels, j) -> int:
    """dim H~^(j-1)(K) for K = {C within vertices : no mask of rels lies
    in C}, ranked over the cells of K: the (j-1)-cells of K are its
    j-subsets, the empty one included."""
    return _cohomology(vertices, lambda k: _cells(vertices, rels, k), j)


def _nerve_dim(vertices, rels, j) -> int:
    """The dim of _link_dim, as dim H~_(m-j-2)(N) for the m vertices and
    the nerve N = {S : the masks F_t of rels with t in S do not cover the
    vertices}, when rels is not empty, holds no 0 and covers them (see
    _key_dim).  The (e-1)-cells of N are its e-subsets S, as masks of the
    positions t in rels."""
    full = sum(vertices)
    nodes = [(1 << t, f) for t, f in enumerate(rels)]

    def cells(k):
        out = []
        for S in combinations(nodes, k) if k >= 0 else ():
            s = u = 0
            for b, f in S:
                s |= b
                u |= f
            if u != full:
                out.append(s)
        return out
    return _cohomology([b for b, _ in nodes], cells, len(vertices) - j - 1)


def _candidates(n, k) -> int:
    """The number of (k-1)-, k- and (k+1)-subsets of n things."""
    return sum(comb(n, d) for d in (k - 1, k, k + 1) if d >= 0)


def _key_dim(span: int, neg: int, rels, i: int, spend=None) -> int:
    """dim H^i_I(A)_a from the key of a: span the mask of the generators,
    neg the mask N of the negative ones inside it, and rels the reduced
    relations F_t of _key, each inside V = span & ~N.

    The pieces are N | C for the C in K = {C in V : no F_t in C} (see
    _pieces), so with m = |V| and j = i - |N| the dim is dim H~^(j-1)(K)
    (see the module docstring).  It is zero for j < 0, when some F_t is
    empty (K is void), and when a generator of V lies in no F_t: K is then
    a cone, the part of the differential that adds that generator is plus
    or minus the identity, and the complex is exact.  A positive generator
    is such a generator.  For m = 0, K = {empty set} and the dim is 1
    exactly when j = 0.  Otherwise the F_t cover V: the Alexander dual of
    K is the union of the simplices on the V - F_t, whose intersections
    are simplices or empty, so dim H~^(j-1)(K) = dim H~_(m-j-2)(N) for
    the nerve N = {S in [r] : the F_t with t in S do not cover V}
    (Miller-Sturmfels, Thm. 5.6, and the nerve lemma).  Both are ranked by
    _cohomology, K on its j-1, j and j+1 subsets of V and N on its m-j-2,
    m-j-1 and m-j subsets of [r]; the one with fewer such candidates is
    taken, and spend, when given, is called with that number first.
    """
    j = i - neg.bit_count()
    V = span & ~neg
    cover = 0
    for f in rels:
        cover |= f
    if j < 0 or 0 in rels or cover != V:
        return 0
    vertices = [1 << p for p in range(V.bit_length() - 1, -1, -1) if V >> p & 1]
    m = len(vertices)
    link, nerve = _candidates(m, j), _candidates(len(rels), m - j - 1)
    on_link = not m or link <= nerve
    if spend is not None:
        spend(link if on_link else nerve)
    return _link_dim(vertices, rels, j) if on_link else _nerve_dim(vertices, rels, j)


def cech_dim(A: MonomialAlgebra, I: VariableIdeal, i: int, a) -> int:
    """Dimension over Q of the degree-a piece of H^i_I(A), from the key of
    a (_key_dim).

    >>> A = MonomialAlgebra.make(("v0", "v1", "v2", "v3"), [("v0", "v1", "v2", "v3")])
    >>> I = VariableIdeal.of(A, A.variables)
    >>> cech_dim(A, I, 3, (0, 0, 0, 0)), cech_dim(A, I, 2, (0, 0, 0, 0))
    (1, 0)
    """
    if i < 0:
        raise InputError("cohomological degree must be >= 0")
    a = tuple(map(int, a))
    if len(a) != len(A.variables):
        raise InputError("multidegree length mismatch")
    bits, neg, rels = _degree_key(A, I.generators, a)
    span = sum(bits)
    return 0 if neg & ~span else _key_dim(span, neg, rels, i)  # no W holds N


@record
class NonvanishOutcome:
    """Result of the sign-pattern scan for H^i != 0."""

    witness: tuple  # multidegree, or None when H^i = 0
    dim: int
    note: str

    @property
    def found(self) -> bool:
        return self.witness is not None


def check_scannable(count: int, relations: int) -> None:
    """Refuse a sign-pattern scan over more than CECH_SCAN_BOUND variables
    in a relation or the ideal, then one of more than
    CECH_RELATION_TESTS_BOUND relation tests."""
    if count > CECH_SCAN_BOUND:
        raise InputError("the sign-pattern scan over %d variables in a relation or the "
                         "ideal is past lcohom.CECH_SCAN_BOUND = %d" % (count, CECH_SCAN_BOUND))
    if relations << count > CECH_RELATION_TESTS_BOUND:
        raise InputError("the sign-pattern scan tests %d relations at each of 2^%d candidates, "
                         "past lcohom.CECH_RELATION_TESTS_BOUND = %d"
                         % (relations, count, CECH_RELATION_TESTS_BOUND))


def _scan(A: MonomialAlgebra, I: VariableIdeal, i: int):
    """Yield (template, dim) for each sign pattern with a nonzero dim, in scan
    order: the pattern with None at each free position.

    A variable is free when it lies in no relation and is not a generator.
    Then A = A' (x) k[free variables] with I extended from A', a flat
    extension, so H^i_I(A) = H^i_I(A') (x) k[free variables]
    (Brodmann-Sharp, Local Cohomology, 4.3.2).  In a free coordinate the
    sign -1 gives zero and the signs 0 and +1 give the dim of A' at the
    other coordinates, so the scan runs over the m' variables of A', 2^m'
    candidates, and refuses past CECH_SCAN_BOUND or
    CECH_RELATION_TESTS_BOUND before it builds any, and before the key
    whose ranking would take its charge past CECH_CELLS_BOUND.

    The scan order is the zero vector, then the rest of {-1,0,1}^m' in
    lexicographic order.  A candidate is a face S = N | P with N inside
    the generators and P outside them: a negative coordinate must be a
    generator and the support a face, and a positive generator makes the
    complex a cone (see _key_dim).  Its counter t sets the bit of variable
    j where a_j takes the second of its two signs (0 for a generator, 1
    otherwise): t from 0 up runs through the patterns in lexicographic
    order, and t = the generators is the zero pattern, which comes first.

    The complex depends only on which W have a nonzero piece, and N with
    the reduced relations of _key fixes that family.  So _key_dim runs
    once per key, on the first pattern with it, and the scan costs a few
    bit operations per candidate and relation.  A key with more than i
    negative generators is 0 without a call: every W holds N, so the
    complex has no piece in degree i.
    """
    used = A.mask(I.generators)
    for r in A.relation_masks:
        used |= r
    check_scannable(used.bit_count(), len(A.relation_masks))
    if i < 0:
        raise InputError("cohomological degree must be >= 0")
    names = A.variables
    if used != (1 << len(names)) - 1:
        A = A.restrict(used)
    slots = tuple(map(A.bits.get, names))
    gens = A.mask(I.generators)
    rels = [(r, r & ~gens) for r in A.relation_masks]
    dims = {}
    charged = 0

    def spend(cells):
        nonlocal charged
        charged += CECH_KEY_COST + round(cells ** 2.5)
        if charged > CECH_CELLS_BOUND:
            raise InputError("ranking the keys of the sign-pattern scan would cost %d "
                             "(%d a key plus cells^2.5), past lcohom.CECH_CELLS_BOUND = %d"
                             % (charged, CECH_KEY_COST, CECH_CELLS_BOUND))

    for t in chain((gens,), range(gens), range(gens + 1, 1 << len(A.bits))):
        support = t ^ gens
        if A.is_face_mask(support):
            neg, pos = support & gens, t & ~gens
            key = neg, _key(rels, neg, pos)
            if key not in dims:
                dims[key] = 0 if i < neg.bit_count() else _key_dim(gens, *key, i, spend)
            if dims[key]:
                yield (tuple(None if b is None else (pos & b > 0) - (neg & b > 0) for b in slots),
                       dims[key])


def _expand(template, ranges):
    """The degrees of a template, each coordinate running over ranges[sign]."""
    return product(*(ranges[x] for x in template))


def _outcome(first, A: MonomialAlgebra, i: int, box: int) -> NonvanishOutcome:
    if first is None:
        return NonvanishOutcome(None, 0, "all %d sign patterns of the multidegree give "
                                "zero: H^%d is identically zero" % (3 ** len(A.variables), i))
    # the first nonzero pattern is 0 at each free position: +1 comes later
    template, dim = first
    witness = tuple(0 if x is None else x for x in template)
    return NonvanishOutcome(witness, dim, "witness found inside box %d" % box)


def certify_nonvanishing(A: MonomialAlgebra, I: VariableIdeal, i: int,
                         box: int) -> NonvanishOutcome:
    """Decide H^i_I(A) != 0 by the first sign pattern with cech_dim > 0; an
    empty scan proves H^i = 0.  The witness has entries in {-1, 0, 1}, so
    it lies in every box, and box only appears in the note."""
    if box < 1:
        raise InputError("box must be >= 1")
    return _outcome(next(_scan(A, I, i), None), A, i, box)


def cech_table(A: MonomialAlgebra, I: VariableIdeal, i: int, box: int):
    """The certify_nonvanishing outcome and the (degree, dim) pairs of the
    nonzero dims of H^i_I(A) with |a_j| <= box, from one scan of the sign
    patterns: each nonzero template is expanded over the box.  A degree is
    the tuple of its coordinates' decimal strings, which `cech` joins into
    its keys; each string is made once per call, not once per degree."""
    if box < 1:
        raise InputError("box must be >= 1")
    found = list(_scan(A, I, i))
    # a template with k nonzero signs and f free ones expands to
    # box^k (1 + box)^f degrees; the rows are counted before any is built
    size = {-1: box, 0: 1, 1: box, None: 1 + box}
    if sum(prod(size[x] for x in t) for t, _ in found) > CECH_ROWS_BOUND:
        raise InputError("the table for --box %s has more than lcohom.CECH_ROWS_BOUND = %d "
                         "rows" % (quote(str(box), str), CECH_ROWS_BOUND))
    ranges = {-1: range(-box, 0), 0: (0,), 1: range(1, box + 1), None: range(box + 1)}
    # only the signs that occur: a nonzero one bounds box by the row count
    ranges = {x: tuple(map(str, r)) for x, r in ranges.items()
              if any(x in t for t, _ in found)}
    table = ((a, d) for t, d in found for a in _expand(t, ranges))
    return _outcome(found[0] if found else None, A, i, box), table


# the twoplanes and dim3hyper classifiers ------------------------------------

TWOPLANES = MonomialAlgebra.make(("X", "Y", "U"), [{"X", "U"}])
DIM3_SURROGATE = MonomialAlgebra.make(("X", "Y", "U", "V"), [{"X", "U"}])
DIM3_PRIMES = (("X", "Y"), ("X", "V"), ("Y", "U"), ("U", "V"))

# H^k = 0 for every k > 1, by the length bound or by the sign-pattern scan,
# with no criterion for the other two answers
TWOPLANES_VANISHING = Rule(YES, UNKNOWN, UNKNOWN, ("coherence-local-cohomology",
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


# the command line ------------------------------------------------------------

def parse_variable_set(text: str) -> tuple:
    """The names of a prime spelled "(X,Y)" or "X,Y"."""
    inner = text.strip()
    if inner.startswith("(") and inner.endswith(")"):
        inner = inner[1:-1]
    names = [t.strip() for t in inner.split(",") if t.strip()]
    if not names:
        raise InputError("empty prime %s" % quote(text))
    return tuple(names)


def classify_twoplanes_ring(ring: str, prime_spec: str) -> Verdict:
    """`classify --ring twoplanes --prime "(X,Y)"`."""
    return classify_twoplanes(parse_variable_set(
        required(prime_spec, "twoplanes needs --prime with a variable subset")))


def classify_dim3hyper_ring(ring: str, prime_spec: str) -> Verdict:
    """`classify --ring dim3hyper --prime "(X,Y)"`."""
    return classify_dim3hyper(parse_variable_set(
        required(prime_spec, "dim3hyper needs --prime")))


def _parse_relations(text: str, variables):
    """The relations of --rel, such as "XU,YV" or "x1*x2", as sets of names."""
    rels, known = [], set(variables)
    for token in (t.strip() for t in text.split(",")):
        if not token:
            continue
        if "*" in token:
            parts = [p.strip() for p in token.split("*")]
        elif all(len(v) == 1 for v in variables):
            parts = list(token)
        else:
            raise InputError("relation %s needs '*' between variables" % quote(token))
        for p in parts:
            if p not in known:
                raise InputError("relation %s uses unknown variable %s" % (quote(token), quote(p)))
        if len(set(parts)) != len(parts):
            raise InputError("relation %s is not squarefree" % quote(token))
        rels.append(set(parts))
    return rels


def cech_text(variables: str, relations: str, ideal: str, i: int, box: int,
              as_json: bool) -> str:
    """What `cech --vars ... --rel ... --ideal ... --i i --box box` prints,
    in JSON or in text."""
    names = tuple(v.strip() for v in variables.split(",") if v.strip())
    rels = _parse_relations(relations, names)
    gens = tuple(g.strip() for g in ideal.split(",") if g.strip())
    # before the algebra is built: its relation test is quadratic in the relations
    check_scannable(len(set(names).intersection(gens).union(*rels)),
                    len(set(map(frozenset, rels))))
    A = MonomialAlgebra.make(names, rels)
    I = VariableIdeal.of(A, gens)
    out, table = cech_table(A, I, i, box)
    dims = {",".join(a): dim for a, dim in table}
    witness = list(out.witness) if out.found else None
    if as_json:
        return json_text({"schema": 1, "algebra": A.describe(), "ideal": list(I.generators),
                          "i": i, "box": box, "dim_by_degree": dims, "witness": witness,
                          "note": out.note})
    return "\n".join(["algebra: %s" % A.describe(), "ideal: (%s)" % ", ".join(I.generators)]
                     + ["H^%d dim %d at (%s)" % (i, dim, key) for key, dim in sorted(dims.items())]
                     + ["witness: %s" % ("none" if witness is None else witness),
                        "note: %s" % out.note])
