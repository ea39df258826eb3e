import random
import tracemalloc
from itertools import combinations

import pytest

from oracles import closed_sets_brute, count_antichains
from uniloc.errors import InputError
from uniloc.spectool import (ENUM_BOUND, SpecClosedSet, SpecPoset,
                             check_height_condition, enumerate_closed,
                             truncated_spec_z)


def chain_poset():
    # (0) < p < m, a dimension-two chain
    return SpecPoset.build(["(0)", "p", "m"], [("(0)", "p"), ("p", "m")])


def random_order(rng, max_nodes=8):
    n = rng.randint(1, max_nodes)
    nodes = ["n%d" % i for i in range(n)]
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.3:
                edges.append((nodes[i], nodes[j]))  # acyclic by index order
    return nodes, edges


def random_poset(rng, max_nodes=8):
    return SpecPoset.build(*random_order(rng, max_nodes))


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
        Z = truncated_spec_z()
        assert Z.heights() == {"(0)": 0, "(2)": 1, "(3)": 1, "(5)": 1}

    def test_order_matches_paths_on_random_posets(self):
        # below: nodes with a path up to the node; height: longest such path
        rng = random.Random(2424)
        for _ in range(60):
            nodes, edges = random_order(rng)
            rng.shuffle(nodes)
            rng.shuffle(edges)
            P = SpecPoset.build(nodes, edges)
            longest = {n: 0 for n in nodes}
            below = {n: set() for n in nodes}
            for _ in nodes:
                for child, parent in edges:
                    longest[parent] = max(longest[parent], longest[child] + 1)
                    below[parent] |= below[child] | {child}
            assert P.heights() == longest
            assert all(P.below(n) == below[n] for n in nodes)

    def test_long_chain_heights(self):
        nodes = ["n%d" % i for i in range(40)]
        P = SpecPoset.build(nodes, list(zip(nodes, nodes[1:])))
        assert P.heights() == {n: i for i, n in enumerate(nodes)}
        assert P.below("n39") == set(nodes[:39])

    def test_long_chain_memory(self):
        # only direct edges are stored: with every node's closure this chain
        # peaked at 348 MB
        nodes = ["n%d" % i for i in range(4000)]
        tracemalloc.start()
        try:
            P = SpecPoset.build(nodes, list(zip(nodes, nodes[1:])))
            assert P.heights()["n3999"] == 3999
            assert P.below("n3999") == set(nodes[:3999])
            V = SpecClosedSet(P, frozenset(nodes[2000:]))
            assert not check_height_condition(P, V.members)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20, peak


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

    def test_every_subset_on_random_posets(self):
        # accepted iff closed by the power-set filter; a refusal names the
        # first node outside with a member directly below it; the height
        # condition as defined through below
        rng = random.Random(2525)
        for _ in range(80):
            nodes, edges = random_order(rng)
            rng.shuffle(nodes)  # node positions need not follow the order
            P = SpecPoset.build(nodes, edges)
            closed = set(closed_sets_brute(P))
            for k in range(len(nodes) + 1):
                for S in map(frozenset, combinations(nodes, k)):
                    crossing = [n for n in P.nodes if n not in S
                                and any(c in S for c, parent in edges if parent == n)]
                    if S in closed:
                        assert not crossing
                        assert SpecClosedSet(P, S).members == S
                        minimal = [n for n in S if not P.below(n) & S]
                        assert check_height_condition(P, S) == \
                            all(P.height(n) <= 1 for n in minimal)
                        continue
                    for check in (SpecClosedSet, check_height_condition):
                        with pytest.raises(InputError) as refused:
                            check(P, S)
                        assert str(refused.value) == (
                            "%r contains a member but is missing: not upward closed"
                            % (crossing[0],))

    def test_protocols(self):
        P = chain_poset()
        V = SpecClosedSet(P, frozenset({"p", "m"}))
        assert V.members == frozenset({"p", "m"})

    def test_closure(self):
        P = truncated_spec_z()
        closed = set(map(frozenset, enumerate_closed(P)))
        assert frozenset({"(0)", "(2)", "(3)", "(5)"}) in closed
        assert frozenset({"(2)", "(3)"}) in closed
        assert frozenset({"(0)"}) not in closed


class TestHeightCondition:
    def test_chain(self):
        P = chain_poset()
        assert not check_height_condition(P, {"m"})
        assert check_height_condition(P, {"p", "m"})
        assert check_height_condition(P, {"(0)", "p", "m"})

    def test_non_closed_input_rejected(self):
        P = chain_poset()
        with pytest.raises(InputError):
            check_height_condition(P, {"p"})


class TestEnumeration:
    def test_truncated_spec_z_count(self):
        P = truncated_spec_z()
        closed = enumerate_closed(P)
        assert len(closed) == 9
        assert count_antichains(P) == 9
        members = set(closed)
        assert () in members
        assert ("(0)", "(2)", "(3)", "(5)") in members

    def test_matches_brute_force_on_random_posets(self):
        # the same closed sets in the same order as the power-set filter,
        # each the tuple of its labels in label order
        rng = random.Random(2323)
        for _ in range(200):
            nodes, edges = random_order(rng, max_nodes=10)
            rng.shuffle(nodes)  # node positions need not follow the order
            P = SpecPoset.build(nodes, edges)
            closed = enumerate_closed(P)
            assert all(list(c) == sorted(c) for c in closed), P.nodes
            got = list(map(frozenset, closed))
            assert got == closed_sets_brute(P), P.nodes
            assert len(got) == count_antichains(P)

    def test_sixteen_node_antichain(self):
        # ENUM_BOUND nodes and no order: every subset, each a label-ordered tuple
        P = SpecPoset.build(["n%d" % i for i in range(ENUM_BOUND)], [])
        closed = enumerate_closed(P)
        assert len(closed) == len(set(closed)) == 2 ** ENUM_BOUND
        assert all(type(c) is tuple and list(c) == sorted(c) for c in closed)
        assert closed[-1] == tuple(sorted(P.nodes))

    def test_enumeration_bound(self):
        P = SpecPoset.build(["n%d" % i for i in range(ENUM_BOUND + 1)], [])
        with pytest.raises(InputError):
            enumerate_closed(P)


class TestClassicalSupport:
    def test_custom_primes(self):
        P = truncated_spec_z((7, 11))
        assert set(P.nodes) == {"(0)", "(7)", "(11)"}
        assert P.below("(11)") == {"(0)"}
        assert len(enumerate_closed(P)) == 5  # {}, {7}, {11}, {7,11}, all
