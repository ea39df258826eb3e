import random
from itertools import combinations, islice, product
from math import comb

import pytest

from oracles import (first_shell_witness, nonzero_patterns_brute, piece_key_brute,
                     rank_by_fractions)
from uniloc import lcohom
from uniloc.errors import InputError
from uniloc.lcohom import (CECH_RELATION_TESTS_BOUND, CECH_ROWS_BOUND, CECH_SCAN_BOUND,
                           ENUM_VARIABLE_BOUND, MonomialAlgebra, VariableIdeal,
                           _degree_key, _differential, _key, _link_dim, _nerve_dim, _pieces,
                           _rank, _scan, cech_dim, cech_table,
                           certify_nonvanishing, classify_dim3hyper,
                           classify_twoplanes, is_variable_prime, kill_variable,
                           prime_height)

TWOPLANES = MonomialAlgebra.make(("X", "Y", "U"), [{"X", "U"}])
THREE_VARS = MonomialAlgebra.make(("X", "U", "V"), [{"X", "U"}])
PLANE = MonomialAlgebra.make(("X", "Y"))
DIM3 = MonomialAlgebra.make(("X", "Y", "U", "V"), [{"X", "U"}])


def piece_nonzero_local(A, W, a):
    """The graded-piece rule, restated from scratch via the public face test."""
    w = set(W)
    for j, v in enumerate(A.variables):
        if v not in w and a[j] < 0:
            return False
    positive = {v for j, v in enumerate(A.variables) if a[j] > 0}
    return A.is_face(w | positive)


def random_algebra(rng, max_vars=5, max_relations=3):
    m = rng.randint(1, max_vars)
    variables = tuple("abcdefg"[:m])
    relations = []
    for _ in range(rng.randint(0, max_relations)):
        size = rng.randint(2, max(2, m))
        r = frozenset(rng.sample(variables, min(size, m)))
        if len(r) < 2:
            continue
        if any(r <= s or s <= r for s in relations):
            continue
        relations.append(r)
    return MonomialAlgebra.make(variables, relations)


def with_free_variables(rng, A, count):
    """A with count new variables, in no relation, at random positions."""
    variables = list(A.variables)
    for k in range(count):
        variables.insert(rng.randint(0, len(variables)), "y%d" % k)
    return MonomialAlgebra.make(variables, A.relations)


def counting(monkeypatch, name):
    """Record the arguments of every call of the module-global lcohom.<name>."""
    calls = []
    real = getattr(lcohom, name)
    monkeypatch.setattr(lcohom, name, lambda *args: calls.append(args) or real(*args))
    return calls


class TestAlgebra:
    def test_validation(self):
        with pytest.raises(InputError):
            MonomialAlgebra.make(("X", "X"))
        with pytest.raises(InputError):
            MonomialAlgebra.make(("X",), [set()])
        with pytest.raises(InputError):
            MonomialAlgebra.make(("X",), [{"Z"}])
        with pytest.raises(InputError):
            MonomialAlgebra(("X", "Y"), (frozenset({"X"}), frozenset({"X", "Y"})))

    def test_incomparable_relations(self):
        # the relation masks, compared only across sizes, against frozensets
        rng = random.Random(1717)
        refused = 0
        for _ in range(300):
            variables = tuple("abcdef")
            rels = {frozenset(rng.sample(variables, rng.randint(1, 5)))
                    for _ in range(rng.randint(1, 6))}
            comparable = any(r < s for r in rels for s in rels)
            try:
                MonomialAlgebra.make(variables, rels)
            except InputError as exc:
                assert comparable and str(exc) == "relations must be pairwise incomparable"
                refused += 1
            else:
                assert not comparable, rels
        assert 50 < refused < 250

    def test_make_dedupes_relations(self):
        A = MonomialAlgebra.make(("X", "Y"), [{"X", "Y"}, {"Y", "X"}])
        assert len(A.relations) == 1

    def test_restrict_compares_no_relations(self, monkeypatch):
        # the scan restricts to the variables in a relation or the ideal: the
        # same algebra as one built on them, without the checks of __post_init__
        A = MonomialAlgebra.make(("X", "Z", "Y", "U"), [{"X", "U"}, {"Y", "U"}])
        want = MonomialAlgebra.make(("X", "Y", "U"), [{"X", "U"}, {"Y", "U"}])
        monkeypatch.setattr(MonomialAlgebra, "__post_init__",
                            lambda self: pytest.fail("relations checked again"))
        B = A.restrict(A.mask(("X", "Y", "U")))
        assert (B, B.bits, B.relation_masks) == (want, want.bits, want.relation_masks)

    def test_describe(self):
        assert TWOPLANES.describe() == "k[X,Y,U]/(XU)"
        assert PLANE.describe() == "k[X,Y]"
        multi = MonomialAlgebra.make(("x1", "x2"), [{"x1", "x2"}])
        assert multi.describe() == "k[x1,x2]/(x1*x2)"

    def test_faces_and_facets(self):
        assert TWOPLANES.is_face(("X", "Y"))
        assert not TWOPLANES.is_face(("X", "U"))
        assert not TWOPLANES.is_face(("X", "Y", "U"))
        assert TWOPLANES.facets() == [("X", "Y"), ("Y", "U")]
        assert PLANE.facets() == [("X", "Y")]
        assert DIM3.facets() == [("X", "Y", "V"), ("Y", "U", "V")]

    def test_facet_enumeration_bound(self):
        big = MonomialAlgebra.make(tuple("v%d" % i for i in range(ENUM_VARIABLE_BOUND + 1)))
        with pytest.raises(InputError):
            big.facets()

    def test_index(self):
        assert TWOPLANES.index("U") == 2
        with pytest.raises(InputError):
            TWOPLANES.index("Z")


class TestIdealsAndPrimes:
    def test_variable_ideal(self):
        I = VariableIdeal.of(TWOPLANES, ("Y", "X"))
        assert I.generators == ("X", "Y")
        with pytest.raises(InputError):
            VariableIdeal(())
        with pytest.raises(InputError):
            VariableIdeal(("X", "X"))
        with pytest.raises(InputError):
            VariableIdeal.of(TWOPLANES, ("Z",))

    def test_is_variable_prime(self):
        assert is_variable_prime(TWOPLANES, ("X", "Y"))
        assert is_variable_prime(TWOPLANES, ("X", "U"))  # quotient is k[Y]
        assert not is_variable_prime(TWOPLANES, ("Y",))
        assert is_variable_prime(TWOPLANES, ("X", "Y", "U"))
        assert is_variable_prime(DIM3, ("X", "V"))
        assert not is_variable_prime(DIM3, ("Y", "V"))

    def test_prime_height(self):
        assert prime_height(TWOPLANES, ("X", "Y")) == 1
        assert prime_height(TWOPLANES, ("X", "U")) == 1
        assert prime_height(TWOPLANES, ("X", "Y", "U")) == 2
        assert prime_height(DIM3, ("X", "Y")) == 1
        assert prime_height(DIM3, ("X", "Y", "U", "V")) == 3
        with pytest.raises(InputError):
            prime_height(TWOPLANES, ("Y",))

    def test_kill_variable(self):
        assert kill_variable(TWOPLANES, "Y").describe() == "k[X,U]/(XU)"
        assert kill_variable(TWOPLANES, "U").describe() == "k[X,Y]"
        assert kill_variable(DIM3, "V").describe() == "k[X,Y,U]/(XU)"
        with pytest.raises(InputError):
            kill_variable(TWOPLANES, "Z")

    def test_names_read_through_the_variable_ideal(self):
        # both classifiers sort and check their names as VariableIdeal.of
        # does: the first unknown name in the order given is the one named
        for classify in (classify_twoplanes, classify_dim3hyper):
            assert classify(("Y", "X", "Y")).prime_description == "(X, Y)"
            with pytest.raises(InputError, match="unknown variable 'W'"):
                classify(("X", "W", "Z"))
            with pytest.raises(InputError, match="at least one generator"):
                classify(())


class TestCechDim:
    def test_input_checks(self):
        I = VariableIdeal.of(TWOPLANES, ("X", "Y"))
        with pytest.raises(InputError):
            cech_dim(TWOPLANES, I, -1, (0, 0, 0))
        with pytest.raises(InputError):
            cech_dim(TWOPLANES, I, 1, (0, 0))
        with pytest.raises(InputError):
            cech_dim(TWOPLANES, VariableIdeal(("Z",)), 1, (0, 0, 0))

    def test_beyond_complex_length_is_zero(self):
        I = VariableIdeal.of(TWOPLANES, ("X", "Y"))
        for a in product(range(-2, 3), repeat=3):
            assert cech_dim(TWOPLANES, I, 3, a) == 0

    def test_twoplanes_closed_form_loci(self):
        I = VariableIdeal.of(TWOPLANES, ("X", "Y"))
        for a in product(range(-2, 3), repeat=3):
            ax, ay, au = a
            assert cech_dim(TWOPLANES, I, 0, a) == 0
            h1 = 1 if (ax == 0 and ay < 0 and au > 0) else 0
            assert cech_dim(TWOPLANES, I, 1, a) == h1, a
            h2 = 1 if (ax < 0 and ay < 0 and au == 0) else 0
            assert cech_dim(TWOPLANES, I, 2, a) == h2, a

    def test_three_vars_closed_form_locus(self):
        I = VariableIdeal.of(THREE_VARS, ("X", "V"))
        for a in product(range(-2, 3), repeat=3):
            ax, au, av = a
            h2 = 1 if (ax < 0 and av < 0 and au == 0) else 0
            assert cech_dim(THREE_VARS, I, 2, a) == h2, a

    def test_full_ring_top_cohomology(self):
        for m in (1, 2, 3):
            A = MonomialAlgebra.make(tuple("xyz"[:m]))
            I = VariableIdeal.of(A, A.variables)
            for a in product(range(-2, 3), repeat=m):
                expected = 1 if all(x < 0 for x in a) else 0
                assert cech_dim(A, I, m, a) == expected, (m, a)
                for i in range(m):
                    assert cech_dim(A, I, i, a) == 0, (m, i, a)

    def test_pieces_match_the_piece_rule(self):
        # the masks of pieces(k) are the k-subsets W with (A_W)_a nonzero
        rng = random.Random(1515)
        for _ in range(150):
            A = random_algebra(rng, max_vars=6, max_relations=4)
            gens = VariableIdeal.of(A, rng.sample(A.variables, rng.randint(1, len(A.variables))))
            a = tuple(rng.randint(-2, 2) for _ in A.variables)
            bits, pieces = _pieces(A, gens.generators, a)
            assert bits == [A.bits[g] for g in gens.generators]
            for k in range(-1, len(gens.generators) + 2):
                want = {A.mask(W) for W in combinations(gens.generators, k)
                        if piece_nonzero_local(A, W, a)} if k >= 0 else set()
                assert sorted(pieces(k)) == sorted(want), (A, gens, a, k)

    def test_dim_matches_independent_ranks(self):
        # |pieces(i)| less the ranks of d_i and d_(i-1), by Gauss-Jordan in
        # Fractions, on every sign pattern: a cone cech_dim skips ranks 0
        rng = random.Random(1616)
        nonzero = 0
        for _ in range(60):
            A = random_algebra(rng, max_vars=4)
            I = VariableIdeal.of(A, rng.sample(A.variables, rng.randint(1, len(A.variables))))
            for a in product((-1, 0, 1), repeat=len(A.variables)):
                for i in range(len(I.generators) + 2):
                    out, size, _ = _differential(A, I.generators, i, a)
                    into = _differential(A, I.generators, i - 1, a)[0]
                    want = size - rank_by_fractions(out) - rank_by_fractions(into)
                    assert cech_dim(A, I, i, a) == want, (A, I, i, a)
                    nonzero += want > 0
        assert nonzero > 100

    def test_link_and_nerve_agree_with_fraction_ranks(self):
        # each side forced on every key of every sign pattern, for every i,
        # against Gauss-Jordan in Fractions on the Cech complex of a pattern
        # with that key: the link K on all of them, the nerve of the reduced
        # relations where K is neither a cone nor void and V is not empty
        rng = random.Random(1818)
        nerves = nonzero = 0
        for _ in range(40):
            A = random_algebra(rng, max_vars=6, max_relations=4)
            I = VariableIdeal.of(A, rng.sample(A.variables, rng.randint(1, len(A.variables))))
            keys = set()
            for a in product((-1, 0, 1), repeat=len(A.variables)):
                bits, neg, rels = _degree_key(A, I.generators, a)
                if (neg, rels) in keys:
                    continue
                keys.add((neg, rels))
                vertices = [b for b in bits if not b & neg]
                cover = 0
                for f in rels:
                    cover |= f
                for i in range(len(I.generators) + 2):
                    out, size, _ = _differential(A, I.generators, i, a)
                    into = _differential(A, I.generators, i - 1, a)[0]
                    want = size - rank_by_fractions(out) - rank_by_fractions(into)
                    assert cech_dim(A, I, i, a) == want, (A, I, i, a)
                    if neg & ~sum(bits):
                        assert want == 0
                        continue
                    j = i - neg.bit_count()
                    assert _link_dim(vertices, rels, j) == want, (A, I, i, a)
                    if vertices and 0 not in rels and cover == sum(vertices):
                        assert _nerve_dim(vertices, rels, j) == want, (A, I, i, a)
                        nerves += 1
                    nonzero += want > 0
        assert nerves > 900 and nonzero > 150

    def test_cone_ranks_nothing(self, monkeypatch):
        # k[v0..v11] with every variable a generator: a key with a generator
        # outside N is a cone, and N = all has no piece in degree 6; the
        # 2510 keys with at most 6 negative generators reach _key_dim, the
        # others are zero without a call
        ranks = counting(monkeypatch, "_rank")
        calls = counting(monkeypatch, "_key_dim")
        A = MonomialAlgebra.make(["v%d" % j for j in range(12)])
        out = certify_nonvanishing(A, VariableIdeal.of(A, A.variables), 6, 1)
        assert not out.found and ranks == []
        assert len(calls) == sum(comb(12, k) for k in range(7)) == 2510

    def test_differential_squares_to_zero(self):
        rng = random.Random(1212)
        for _ in range(80):
            A = random_algebra(rng)
            k = rng.randint(0, max(0, len(A.variables) - 2))
            gens = tuple(rng.sample(A.variables, rng.randint(1, len(A.variables))))
            gens = VariableIdeal.of(A, gens).generators
            a = tuple(rng.randint(-2, 2) for _ in A.variables)
            m1, n1_src, n1_tgt = _differential(A, gens, k, a)
            m2, n2_src, n2_tgt = _differential(A, gens, k + 1, a)
            assert n2_src == n1_tgt
            for i in range(n2_tgt):
                for j in range(n1_src):
                    acc = sum(m2[i][t] * m1[t][j] for t in range(n1_tgt))
                    assert acc == 0

    def test_rank_matches_fraction_rank(self):
        # integer elimination against Gauss-Jordan in Fractions, on dense and
        # rank-deficient integer matrices and on the Cech differentials
        rng = random.Random(1414)
        for _ in range(300):
            n, m = rng.randint(0, 7), rng.randint(1, 7)
            mat = [[rng.randint(-4, 4) for _ in range(m)] for _ in range(n)]
            for _ in range(rng.randint(0, 3) if n else 0):
                i, k, l = rng.randrange(n), rng.randrange(n), rng.randrange(n)
                mat[i] = [rng.randint(-3, 3) * x + y for x, y in zip(mat[k], mat[l])]
            assert _rank(mat) == rank_by_fractions(mat), mat
        for _ in range(60):
            A = random_algebra(rng)
            gens = VariableIdeal.of(A, tuple(A.variables)).generators
            a = tuple(rng.randint(-2, 2) for _ in A.variables)
            mat = _differential(A, gens, rng.randint(0, len(gens) - 1), a)[0]
            assert _rank(mat) == rank_by_fractions(mat), mat

    def test_euler_characteristic(self):
        # alternating sums of piece counts and cohomology ranks agree
        rng = random.Random(1313)
        for _ in range(40):
            A = random_algebra(rng, max_vars=4)
            gens = tuple(rng.sample(A.variables, rng.randint(1, len(A.variables))))
            I = VariableIdeal.of(A, gens)
            for _ in range(6):
                a = tuple(rng.randint(-2, 2) for _ in A.variables)
                chi_pieces = 0
                for k in range(len(I.generators) + 1):
                    count = sum(1 for c in combinations(I.generators, k)
                                if piece_nonzero_local(A, c, a))
                    chi_pieces += (-1) ** k * count
                chi_cohom = sum((-1) ** i * cech_dim(A, I, i, a)
                                for i in range(len(I.generators) + 1))
                assert chi_pieces == chi_cohom, (A, I, a)


class TestCertify:
    def test_box_validation(self):
        I = VariableIdeal.of(TWOPLANES, ("X", "Y"))
        with pytest.raises(InputError):
            certify_nonvanishing(TWOPLANES, I, 2, 0)

    def test_beyond_length_identically_zero(self):
        I = VariableIdeal.of(TWOPLANES, ("X", "Y"))
        out = certify_nonvanishing(TWOPLANES, I, 3, 2)
        assert not out.found and out.dim == 0
        assert "identically zero" in out.note

    def test_twoplanes_witnesses(self):
        I = VariableIdeal.of(TWOPLANES, ("X", "Y"))
        h2 = certify_nonvanishing(TWOPLANES, I, 2, 3)
        assert h2.found and h2.witness == (-1, -1, 0) and h2.dim == 1
        h1 = certify_nonvanishing(TWOPLANES, I, 1, 3)
        assert h1.found and h1.witness == (0, -1, 1)
        h0 = certify_nonvanishing(TWOPLANES, I, 0, 2)
        assert not h0.found and h0.dim == 0
        assert h0.note == ("all 27 sign patterns of the multidegree give "
                           "zero: H^0 is identically zero")

    def test_three_vars_witness(self):
        I = VariableIdeal.of(THREE_VARS, ("X", "V"))
        out = certify_nonvanishing(THREE_VARS, I, 2, 3)
        assert out.found and out.witness == (-1, 0, -1)

    def test_plane_h1_is_proved_zero(self):
        # depth two kills H^1, and an empty sign-pattern scan proves it
        I = VariableIdeal.of(PLANE, ("X", "Y"))
        out = certify_nonvanishing(PLANE, I, 1, 3)
        assert not out.found
        assert out.note.endswith("H^1 is identically zero")
        top = certify_nonvanishing(PLANE, I, 2, 3)
        assert top.found and top.witness == (-1, -1)

    def test_sign_patterns_against_shell_scan(self):
        rng = random.Random(3131)
        found = empty = 0
        for _ in range(14):
            A = random_algebra(rng, max_vars=4)
            m = len(A.variables)
            I = VariableIdeal.of(A, rng.sample(A.variables, rng.randint(1, m)))
            for i in range(len(I.generators) + 2):
                dims = {a: cech_dim(A, I, i, a)
                        for a in product(range(-2, 3), repeat=m)}
                # (a) the dimension depends only on the sign pattern of a
                for a, d in dims.items():
                    sign = tuple((x > 0) - (x < 0) for x in a)
                    assert d == dims[sign], (A, I, i, a)
                # (b) same witness as the box search; (c) a miss on both sides
                for box in (1, 2):
                    out = certify_nonvanishing(A, I, i, box)
                    assert out.witness == first_shell_witness(dims.get, m, box), \
                        (A, I, i, box)
                found += out.found
                empty += not out.found
                table_out, table = cech_table(A, I, i, 2)
                assert table_out == certify_nonvanishing(A, I, i, 2)
                assert dict(table) == {tuple(map(str, a)): d for a, d in dims.items() if d}
        assert found and empty

    def test_pruned_scan_matches_full_scan(self):
        # the same nonzero patterns in the same order as all 3^m patterns;
        # every variable in no relation is a generator, so none is free
        rng = random.Random(4747)
        found = empty = 0
        for _ in range(20):
            A = random_algebra(rng, max_vars=6)
            m = len(A.variables)
            bare = [v for v in A.variables if not any(v in r for r in A.relations)]
            I = VariableIdeal.of(A, rng.sample(A.variables, rng.randint(1, m)) + bare)
            for i in range(len(I.generators) + 1):
                got = list(_scan(A, I, i))
                assert got == nonzero_patterns_brute(
                    lambda s: cech_dim(A, I, i, s), m), (A, I, i)
                found += bool(got)
                empty += not got
        assert found and empty

    def test_one_relation_matches_full_scan(self):
        # k[v0..v(g-1)]/(v0...v(g-1)) with every variable a generator is a
        # hypersurface of dimension g - 1, and each key is the boundary of a
        # simplex: H^(g-1) is one-dimensional at every pattern in {-1, 0}^g
        # but all -1, and every other H^i is zero
        for g in range(1, 9):
            names = ["v%d" % j for j in range(g)]
            A = MonomialAlgebra.make(names, [names])
            I = VariableIdeal.of(A, names)
            for i in range(g + 1):
                got = list(_scan(A, I, i))
                assert got == nonzero_patterns_brute(
                    lambda s: int(i == g - 1 and max(s) == 0), g), (g, i)
                assert len(got) == (2 ** g - 1 if i == g - 1 else 0)

    def test_blocks_match_kunneth(self):
        # A = A1 (x) A2 on disjoint variables, in shuffled order, and I = I1 +
        # I2: dim H^i_I(A) at (s1, s2) is the sum over p + q = i of dim
        # H^p_I1(A1) at s1 times dim H^q_I2(A2) at s2 (Kunneth over k).
        # Every variable in no relation is a generator, so none is free
        rng = random.Random(2929)
        found = empty = 0
        for _ in range(25):
            blocks = []
            for letters in ("abc", "xyz"):
                B = random_algebra(rng, max_vars=3)
                rename = dict(zip(B.variables, letters))
                B = MonomialAlgebra.make([rename[v] for v in B.variables],
                                         [{rename[v] for v in r} for r in B.relations])
                bare = [v for v in B.variables if not any(v in r for r in B.relations)]
                gens = rng.sample(B.variables, rng.randint(1, len(B.variables))) + bare
                blocks.append((B, VariableIdeal.of(B, gens)))
            (A1, I1), (A2, I2) = blocks
            variables = list(A1.variables + A2.variables)
            rng.shuffle(variables)
            A = MonomialAlgebra.make(variables, A1.relations + A2.relations)
            I = VariableIdeal.of(A, I1.generators + I2.generators)
            cut = [[A.index(v) for v in B.variables] for B in (A1, A2)]
            for i in range(len(I.generators) + 1):
                def dim(s):
                    s1, s2 = ([s[j] for j in c] for c in cut)
                    return sum(cech_dim(A1, I1, p, s1) * cech_dim(A2, I2, i - p, s2)
                               for p in range(i + 1))
                got = list(_scan(A, I, i))
                assert got == nonzero_patterns_brute(dim, len(variables)), (A, I, i)
                found += bool(got)
                empty += not got
        assert found > 20 and empty > 20

    def test_positive_generator_gives_zero(self):
        # a_g > 0 for a generator g makes the complex a cone: the scan skips a
        rng = random.Random(5151)
        checked = 0
        for _ in range(60):
            A = random_algebra(rng, max_vars=5)
            m = len(A.variables)
            I = VariableIdeal.of(A, rng.sample(A.variables, rng.randint(1, m)))
            for _ in range(8):
                a = [rng.randint(-2, 2) for _ in A.variables]
                a[A.index(rng.choice(I.generators))] = rng.randint(1, 2)
                for i in range(len(I.generators) + 1):
                    assert cech_dim(A, I, i, a) == 0, (A, I, i, a)
                    checked += 1
        assert checked > 1000

    def test_scan_builds_no_positive_generator(self, monkeypatch):
        calls = counting(monkeypatch, "_key_dim")
        A = MonomialAlgebra.make(["v%d" % j for j in range(6)],
                                 [{"v0", "v5"}, {"v1", "v2"}])
        I = VariableIdeal.of(A, ["v0", "v1", "v2", "v3"])
        out, table = cech_table(A, I, 2, 1)
        assert out.witness == (0, -1, 0, -1, 0, 1) and len(list(table)) == 6
        # v1 positive reduces the relation v1*v2 to the generator v2, a key
        # that no pattern without positive generators has: a scan giving the
        # generators the sign +1 hands _key_dim such a key.  The keys are
        # masks of the algebra without the free v4, on which the scan runs
        B = A.restrict(A.mask(["v0", "v1", "v2", "v3", "v5"]))
        g = B.mask(I.generators)
        rels = [(r, r & ~g) for r in B.relation_masks]

        def keys(generator_signs):
            found = set()
            for s in product(*(generator_signs if v in I.generators else (0, 1)
                               for v in B.variables)):
                if B.is_face(v for v, x in zip(B.variables, s) if x):
                    neg = B.mask(v for v, x in zip(B.variables, s) if x < 0)
                    pos = B.mask(v for v, x in zip(B.variables, s) if x > 0)
                    found.add((neg, _key(rels, neg, pos)))
            return found
        scanned, wider = keys((0, -1)), keys((-1, 0, 1))
        assert {args[1:3] for args in calls} <= scanned
        # 2^5 sign patterns without a positive generator, 18 of them faces,
        # in 18 keys; 60 faces in 30 keys when generators also took the sign
        # +1.  The 2 keys with more than 2 negative generators are zero in
        # degree 2 without a call
        assert (len(scanned), len(wider)) == (18, 30)
        assert len(calls) == 16

    def test_key_fixes_the_pieces(self):
        # the scan's candidates (negative generators, positive others, a face
        # as support) with one key have one 2^g piece key, so one cech_dim
        # call per key is exact
        rng = random.Random(2323)
        seen = shared = 0
        for _ in range(200):
            A = random_algebra(rng, max_vars=7, max_relations=4)
            m = len(A.variables)
            gens = VariableIdeal.of(A, rng.sample(A.variables, rng.randint(1, m)))
            g = A.mask(gens.generators)
            rels = [(r, r & ~g) for r in A.relation_masks]
            pieces = {}
            candidates = [s for s in product(*((0, -1) if v in gens.generators else (0, 1)
                                               for v in A.variables))
                          if A.is_face(v for v, x in zip(A.variables, s) if x)]
            for s in candidates:
                neg = A.mask(v for v, x in zip(A.variables, s) if x < 0)
                pos = A.mask(v for v, x in zip(A.variables, s) if x > 0)
                brute = piece_key_brute(A, gens.generators, s)
                key = neg, _key(rels, neg, pos)
                assert pieces.setdefault(key, brute) == brute, (A, gens, s)
            seen += len(candidates)
            shared += len(candidates) - len(pieces)
        assert seen > 6000 and shared > 3000

    def test_fourteen_variable_scan_counts(self, monkeypatch):
        # 2^14 candidates keyed by which of the 10 generators are negative:
        # a key with two or more is zero in degree 1 without a call, so
        # _key_dim runs for the 11 keys with at most one, and H^1 vanishes
        # (depth 10)
        calls = counting(monkeypatch, "_key_dim")
        A = MonomialAlgebra.make(["v%d" % j for j in range(14)])
        I = VariableIdeal.of(A, ["v%d" % j for j in range(10)])
        assert list(_scan(A, I, 1)) == []
        assert len(calls) == 11

    def test_free_variables_match_full_scan(self):
        # free variables, in no relation and not generators, added at random
        # positions: the scan of the rest expands to the 3^m oracle scan, whose
        # patterns are the degrees of box 1
        rng = random.Random(6161)
        found = empty = 0
        for _ in range(30):
            A = with_free_variables(rng, random_algebra(rng, max_vars=4), rng.randint(1, 3))
            m = len(A.variables)
            core = [v for v in A.variables if not v.startswith("y")]
            I = VariableIdeal.of(A, rng.sample(core, rng.randint(1, len(core))))
            free = [j for j, v in enumerate(A.variables) if v.startswith("y")]
            for i in range(len(I.generators) + 1):
                brute = nonzero_patterns_brute(lambda s: cech_dim(A, I, i, s), m)
                out = certify_nonvanishing(A, I, i, 1)
                assert (out.witness, out.dim) == (brute[0] if brute else (None, 0))
                assert out.found == bool(brute)
                if out.found:
                    assert all(out.witness[j] == 0 for j in free), (A, I, i, out.witness)
                    found += 1
                else:
                    assert out.note.startswith("all %d sign patterns" % 3 ** m)
                    empty += 1
                table_out, table = cech_table(A, I, i, 1)
                rows = list(table)
                assert table_out == out and len(rows) == len(brute)
                assert dict(rows) == {tuple(map(str, s)): d for s, d in brute}, (A, I, i)
        assert found and empty

    def test_twenty_four_variable_scan_counts(self, monkeypatch):
        # 14 free variables cost nothing: 2^10 candidates of k[v0..v9], one
        # _key_dim call per set of at most one negative generator, each with
        # the generators of k[v0..v9] as its 10 bits
        calls = counting(monkeypatch, "_key_dim")
        scans = counting(monkeypatch, "_scan")
        A = MonomialAlgebra.make(["v%d" % j for j in range(24)])
        I = VariableIdeal.of(A, ["v%d" % j for j in range(10)])
        out = certify_nonvanishing(A, I, 1, 1)
        assert not out.found and out.note.startswith("all %d sign patterns" % 3 ** 24)
        assert len(calls) == 11 and len(scans) == 1
        assert all(args[0] == (1 << 10) - 1 for args in calls)

    def test_refused_table_expands_nothing(self, monkeypatch):
        # H^1 of k[X] is one class; 19 free variables make it 2^19 rows in
        # box 1, counted from the one template of k[X] before any is expanded
        calls = counting(monkeypatch, "_key_dim")
        expanded = counting(monkeypatch, "_expand")
        A = MonomialAlgebra.make(["X"] + ["v%d" % j for j in range(1, 20)])
        with pytest.raises(InputError, match="CECH_ROWS_BOUND"):
            cech_table(A, VariableIdeal.of(A, ["X"]), 1, 1)
        assert (len(calls), expanded) == (2, [])
        # 10 free variables: 2^10 rows from one expansion
        B = MonomialAlgebra.make(["X"] + ["v%d" % j for j in range(1, 11)])
        out, table = cech_table(B, VariableIdeal.of(B, ["X"]), 1, 1)
        assert sum(1 for _ in table) == 2 ** 10 <= CECH_ROWS_BOUND
        assert out.witness == (-1,) + (0,) * 10 and len(expanded) == 1

    def test_scan_bound_counts_variables_after_the_split(self, monkeypatch):
        calls = counting(monkeypatch, "_key_dim")
        names = ["v%d" % j for j in range(CECH_SCAN_BOUND + 1)]
        over = MonomialAlgebra.make(names)
        with pytest.raises(InputError, match="CECH_SCAN_BOUND = %d" % CECH_SCAN_BOUND):
            certify_nonvanishing(over, VariableIdeal.of(over, names), 1, 1)
        # a variable in a relation counts, a free one does not
        related = MonomialAlgebra.make(names, [names[-2:]])
        with pytest.raises(InputError, match="CECH_SCAN_BOUND"):
            cech_table(related, VariableIdeal.of(related, names[:-2]), 1, 1)
        assert calls == []
        # the last name and the eight w are free: CECH_SCAN_BOUND are left,
        # and v0, a generator, is the top bit of the algebra on them
        free = MonomialAlgebra.make(names + ["w%d" % j for j in range(8)], [names[9:-1]])
        assert not certify_nonvanishing(free, VariableIdeal.of(free, names[:10]), 1, 1).found
        assert calls and all(args[0].bit_length() == CECH_SCAN_BOUND for args in calls)

    def test_relation_tests_bound(self, monkeypatch):
        # 2^13 candidates times 512 relations is the bound: one relation more
        # is refused before any candidate is built
        calls = counting(monkeypatch, "_key_dim")
        names = ["v%d" % j for j in range(13)]
        assert 512 << 13 == CECH_RELATION_TESTS_BOUND
        over = MonomialAlgebra.make(names, islice(combinations(names, 6), 513))
        with pytest.raises(InputError, match="CECH_RELATION_TESTS_BOUND = %d"
                                             % CECH_RELATION_TESTS_BOUND):
            certify_nonvanishing(over, VariableIdeal.of(over, ["v0"]), 1, 1)
        assert calls == []

    def test_cells_bound_refuses_before_the_key(self, monkeypatch):
        # 11 generators with the first 128 relations of 6 over them rank 67
        # keys of 1397 candidate cells in all at --i 2, charged 67 * 2000 +
        # the sum of cells^2.5 = 1 220 545: with the bound one lower, the key
        # that would pass it is refused before it is ranked
        names = ["v%d" % j for j in range(11)]
        A = MonomialAlgebra.make(names, islice(combinations(names, 6), 128))
        I = VariableIdeal.of(A, names)
        events = []
        for name in ("_key_dim", "_link_dim", "_nerve_dim"):
            real = getattr(lcohom, name)
            monkeypatch.setattr(lcohom, name,
                                lambda *args, _real=real, _name=name:
                                events.append(_name) or _real(*args))
        monkeypatch.setattr(lcohom, "CECH_CELLS_BOUND", 1220545)
        cech_table(A, I, 2, 1)
        accepted = list(events)
        del events[:]
        monkeypatch.setattr(lcohom, "CECH_CELLS_BOUND", 1220544)
        with pytest.raises(InputError, match=r"would cost 1220545 \(2000 a key plus cells\^2.5\), "
                                             "past lcohom.CECH_CELLS_BOUND = 1220544$"):
            cech_table(A, I, 2, 1)
        assert events == accepted[:len(events)] and events[-1] == "_key_dim"
        assert accepted[len(events)] in ("_link_dim", "_nerve_dim")

    def test_witness_is_smallest_shell(self):
        I = VariableIdeal.of(TWOPLANES, ("X", "Y"))
        out = certify_nonvanishing(TWOPLANES, I, 2, 3)
        assert max(abs(x) for x in out.witness) == 1


class TestQuotientRoute:
    def test_dim3_cases(self):
        for gens, kill, witness in ((("X", "Y"), "V", (-1, -1, 0)),
                                    (("X", "V"), "Y", (-1, 0, -1))):
            cert = classify_dim3hyper(gens).witness
            assert cert.algebra == kill_variable(DIM3, kill).describe()
            assert cert.multidegree == witness
            assert cert.ideal == gens
            steps = cert.steps
            assert steps[0] == "pass to the quotient %s by killing %s" % (
                cert.algebra, kill)
            assert "right exact" in steps[1]
            assert "witness found" in steps[2]
