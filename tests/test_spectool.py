import random
from itertools import combinations

import pytest

from uniloc.errors import InputError
from uniloc.spectool import (ENUM_BOUND, SpecClosedSet, SpecPoset,
                             check_height_condition, count_antichains,
                             enumerate_closed, is_closed, minimal_primes,
                             specialisation_closure, truncated_spec_z)


def chain_poset():
    # (0) < p < m, a dimension-two chain
    return SpecPoset.build(["(0)", "p", "m"], [("(0)", "p"), ("p", "m")])


def random_poset(rng, max_nodes=8):
    n = rng.randint(1, max_nodes)
    nodes = ["n%d" % i for i in range(n)]
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.3:
                edges.append((nodes[i], nodes[j]))  # acyclic by index order
    return SpecPoset.build(nodes, edges)


def reachable_up(poset, start):
    """Transitive 'contains start' set, computed by a plain graph walk."""
    out = set(start)
    changed = True
    while changed:
        changed = False
        for n in poset.nodes:
            if n not in out and poset.below(n) & out:
                out.add(n)
                changed = True
    return out


class TestBuild:
    def test_build_and_order(self):
        P = chain_poset()
        assert P.below("m") == {"(0)", "p"}
        assert P.below("p") == {"(0)"}
        assert P.below("(0)") == frozenset()
        with pytest.raises(InputError):
            P.below("q")

    def test_build_errors(self):
        with pytest.raises(InputError):
            SpecPoset.build(["a"], [("a", "b")])
        with pytest.raises(InputError):
            SpecPoset.build(["a"], [("a", "a")])
        with pytest.raises(InputError):
            SpecPoset.build(["a", "b", "c"],
                            [("a", "b"), ("b", "c"), ("c", "a")])

    def test_duplicate_nodes_collapse(self):
        P = SpecPoset.build(["a", "a", "b"], [("a", "b")])
        assert P.nodes == ("a", "b")

    def test_from_text(self):
        P = SpecPoset.from_text("""
            # truncated spectrum
            (0) < (2)
            (0) < (3)
            island
        """)
        assert set(P.nodes) == {"(0)", "(2)", "(3)", "island"}
        assert P.below("(2)") == {"(0)"}
        assert P.below("island") == frozenset()

    def test_from_text_errors(self):
        with pytest.raises(InputError):
            SpecPoset.from_text("")
        with pytest.raises(InputError):
            SpecPoset.from_text("a < b < c")
        with pytest.raises(InputError):
            SpecPoset.from_text("a <")
        with pytest.raises(InputError):
            SpecPoset.from_text("two words")
        with pytest.raises(InputError):
            SpecPoset.from_text("a < b\nb < a")

    def test_heights(self):
        P = chain_poset()
        assert P.heights() == {"(0)": 0, "p": 1, "m": 2}
        assert P.dimension() == 2
        Z = truncated_spec_z()
        assert Z.heights() == {"(0)": 0, "(2)": 1, "(3)": 1, "(5)": 1}
        assert Z.dimension() == 1


class TestClosedSets:
    def test_validation(self):
        P = chain_poset()
        SpecClosedSet(P, frozenset({"m"}))
        SpecClosedSet(P, frozenset({"p", "m"}))
        with pytest.raises(InputError):
            SpecClosedSet(P, frozenset({"p"}))  # m above p is missing
        with pytest.raises(InputError):
            SpecClosedSet(P, frozenset({"(0)"}))
        with pytest.raises(InputError):
            SpecClosedSet(P, frozenset({"q"}))

    def test_protocols(self):
        P = chain_poset()
        V = SpecClosedSet(P, frozenset({"p", "m"}))
        assert "p" in V and "(0)" not in V
        assert len(V) == 2
        assert V.sorted_members() == ["m", "p"]

    def test_closure(self):
        P = truncated_spec_z()
        V = specialisation_closure(P, {"(0)"})
        assert V.members == {"(0)", "(2)", "(3)", "(5)"}
        W = specialisation_closure(P, {"(2)"})
        assert W.members == {"(2)"}
        assert is_closed(P, {"(2)", "(3)"})
        assert not is_closed(P, {"(0)"})

    def test_closure_idempotent_and_monotone(self):
        rng = random.Random(2121)
        for _ in range(60):
            P = random_poset(rng)
            k = rng.randint(0, len(P.nodes))
            S = set(rng.sample(P.nodes, k))
            V = specialisation_closure(P, S)
            assert V.members == reachable_up(P, S)
            assert specialisation_closure(P, V.members).members == V.members
            assert is_closed(P, V.members)
            extra = set(rng.sample(P.nodes, min(1, len(P.nodes))))
            W = specialisation_closure(P, S | extra)
            assert V.members <= W.members

    def test_minimal_primes(self):
        P = chain_poset()
        V = specialisation_closure(P, {"(0)"})
        assert minimal_primes(V) == {"(0)"}
        W = SpecClosedSet(P, frozenset({"p", "m"}))
        assert minimal_primes(W) == {"p"}
        Z = truncated_spec_z()
        assert minimal_primes(specialisation_closure(Z, {"(2)", "(5)"})) == \
            {"(2)", "(5)"}


class TestHeightCondition:
    def test_chain(self):
        P = chain_poset()
        assert not check_height_condition(P, {"m"})
        assert check_height_condition(P, {"p", "m"})
        assert check_height_condition(P, specialisation_closure(P, {"(0)"}))

    def test_non_closed_input_rejected(self):
        P = chain_poset()
        with pytest.raises(InputError):
            check_height_condition(P, {"p"})

    def test_poset_mismatch(self):
        P, Q = chain_poset(), truncated_spec_z()
        V = SpecClosedSet(Q, frozenset({"(2)"}))
        with pytest.raises(InputError):
            check_height_condition(P, V)


class TestEnumeration:
    def test_truncated_spec_z_count(self):
        P = truncated_spec_z()
        closed = enumerate_closed(P)
        assert len(closed) == 9
        assert count_antichains(P) == 9
        members = {tuple(v.sorted_members()) for v in closed}
        assert () in members
        assert ("(0)", "(2)", "(3)", "(5)") in members

    def test_matches_brute_force_on_random_posets(self):
        rng = random.Random(2323)
        for _ in range(40):
            P = random_poset(rng)
            expected = []
            for k in range(len(P.nodes) + 1):
                for combo in combinations(P.nodes, k):
                    s = set(combo)
                    if all(n in s for n in P.nodes
                           for m in s if m in P.below(n)):
                        expected.append(frozenset(combo))
            got = [v.members for v in enumerate_closed(P)]
            assert sorted(got, key=sorted) == sorted(set(expected), key=sorted)
            assert len(got) == count_antichains(P)

    def test_enumeration_bound(self):
        P = SpecPoset.build(["n%d" % i for i in range(ENUM_BOUND + 1)], [])
        with pytest.raises(InputError):
            enumerate_closed(P)
        with pytest.raises(InputError):
            count_antichains(P)


class TestClassicalSupport:
    def test_custom_primes(self):
        P = truncated_spec_z((7, 11))
        assert set(P.nodes) == {"(0)", "(7)", "(11)"}
        assert P.below("(11)") == {"(0)"}
        assert len(enumerate_closed(P)) == 5  # {}, {7}, {11}, {7,11}, all
