import random
from itertools import combinations, product

import pytest

from oracles import (first_shell_witness, nonzero_patterns_brute, piece_key_brute,
                     rank_by_fractions)
from uniloc import lcohom
from uniloc.errors import InputError
from uniloc.lcohom import (ENUM_VARIABLE_BOUND, MonomialAlgebra,
                           VariableIdeal, _differential, _keyed_candidates,
                           _nonzero_patterns, _rank,
                           cech_dim, cech_table, certify_nonvanishing,
                           classify_dim3hyper, classify_twoplanes,
                           is_variable_prime, kill_variable, prime_height)

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

    def test_make_dedupes_relations(self):
        A = MonomialAlgebra.make(("X", "Y"), [{"X", "Y"}, {"Y", "X"}])
        assert len(A.relations) == 1

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
                assert dict(table) == {a: d for a, d in dims.items() if d}
        assert found and empty

    def test_pruned_scan_matches_full_scan(self):
        # the same nonzero patterns in the same order as all 3^m patterns
        rng = random.Random(4747)
        found = empty = 0
        for _ in range(20):
            A = random_algebra(rng, max_vars=6)
            m = len(A.variables)
            I = VariableIdeal.of(A, rng.sample(A.variables, rng.randint(1, m)))
            for i in range(len(I.generators) + 1):
                got = list(_nonzero_patterns(A, I, i))
                assert got == nonzero_patterns_brute(
                    lambda s: cech_dim(A, I, i, s), m), (A, I, i)
                found += bool(got)
                empty += not got
        assert found and empty

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
        calls = []
        cech_dim = lcohom.cech_dim
        monkeypatch.setattr(lcohom, "cech_dim",
                            lambda *args: calls.append(args[3]) or cech_dim(*args))
        A = MonomialAlgebra.make(["v%d" % j for j in range(6)],
                                 [{"v0", "v5"}, {"v1", "v2"}])
        I = VariableIdeal.of(A, ["v0", "v1", "v2", "v3"])
        out, table = cech_table(A, I, 2, 1)
        assert out.witness == (0, -1, 0, -1, 0, 1) and len(list(table)) == 6
        # v1 positive reduces the relation v1*v2 to the generator v2, a key
        # that no pattern without positive generators has: a scan giving the
        # generators the sign +1 hands cech_dim such a pattern
        assert calls and not any(s[j] > 0 for s in calls for j in range(4))
        candidates = list(_keyed_candidates(A, I))
        gens = A.mask(I.generators)
        assert not any(pos & gens for _, _, pos in candidates)
        # 2^6 sign patterns without a positive generator, 36 of them faces,
        # in 18 keys; 120 faces in 30 keys when generators also took the sign +1
        assert (len(candidates), len(calls)) == (36, 18)

    def test_key_fixes_the_pieces(self):
        # candidates with one key have one 2^g piece key, so one cech_dim
        # call per key is exact
        rng = random.Random(2323)
        seen = shared = 0
        for _ in range(200):
            A = random_algebra(rng, max_vars=7, max_relations=4)
            m = len(A.variables)
            gens = VariableIdeal.of(A, rng.sample(A.variables, rng.randint(1, m)))
            pieces = {}
            candidates = list(_keyed_candidates(A, gens))
            for key, neg, pos in candidates:
                s = tuple((pos & b > 0) - (neg & b > 0) for b in A.bits.values())
                brute = piece_key_brute(A, gens.generators, s)
                assert pieces.setdefault(key, brute) == brute, (A, gens, s)
            seen += len(candidates)
            shared += len(candidates) - len(pieces)
        assert seen > 6000 and shared > 3000

    def test_fourteen_variable_scan_counts(self, monkeypatch):
        # 2^14 candidates keyed by which of the 10 generators are negative:
        # one cech_dim call per key, and H^1 vanishes (depth 10)
        calls = []
        cech_dim = lcohom.cech_dim
        monkeypatch.setattr(lcohom, "cech_dim",
                            lambda *args: calls.append(args) or cech_dim(*args))
        A = MonomialAlgebra.make(["v%d" % j for j in range(14)])
        I = VariableIdeal.of(A, ["v%d" % j for j in range(10)])
        assert list(_nonzero_patterns(A, I, 1)) == []
        assert len(calls) == 1024

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
