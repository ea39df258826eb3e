"""Finite poset models of prime spectra.

A SpecPoset is a finite set of labelled primes with a strict
containment order.  Specialisation closed subsets are the upward closed
ones; the module computes closures, heights, the minimal primes of a
closed set, the necessary height condition, and (for small posets) the
full list of closed subsets, whose count is the number of flat
epimorphism classes when the ring has dimension at most one.

Spectra here are always finite truncations of the real thing, so every
verdict is quantified over the represented fragment only.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import InputError

ENUM_BOUND = 16  # enumerate_closed walks all 2^n subsets


@dataclass(frozen=True)
class SpecPoset:
    nodes: tuple
    _below: tuple  # (node, frozenset of strictly smaller nodes), transitive

    @classmethod
    def build(cls, nodes, edges) -> "SpecPoset":
        """nodes: labels; edges: (child, parent) pairs meaning child < parent."""
        nodes = list(dict.fromkeys(nodes))
        known = set(nodes)
        direct = {n: set() for n in nodes}
        for child, parent in edges:
            if child not in known or parent not in known:
                raise InputError("edge %r < %r uses an undeclared node" % (child, parent))
            if child == parent:
                raise InputError("node %r below itself" % (child,))
            direct[parent].add(child)

        below = {}

        def descend(n, trail):
            if n in trail:
                raise InputError("containment cycle through %r" % (n,))
            if n in below:
                return below[n]
            acc = set()
            for c in direct[n]:
                acc.add(c)
                acc |= descend(c, trail | {n})
            below[n] = acc
            return acc

        for n in nodes:
            descend(n, frozenset())
        for n in nodes:
            if n in below[n]:
                raise InputError("containment cycle through %r" % (n,))
        return cls(tuple(nodes),
                   tuple((n, frozenset(below[n])) for n in nodes))

    @classmethod
    def from_text(cls, text: str) -> "SpecPoset":
        """Lines "child < parent"; a bare label declares an isolated node.

        Blank lines and lines starting with '#' are skipped.
        """
        nodes = []
        edges = []
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "<" in line:
                sides = [s.strip() for s in line.split("<")]
                if len(sides) != 2 or not all(sides):
                    raise InputError("cannot parse poset line %r" % (raw,))
                child, parent = sides
                nodes.extend([child, parent])
                edges.append((child, parent))
            else:
                if any(ch.isspace() for ch in line):
                    raise InputError("cannot parse poset line %r" % (raw,))
                nodes.append(line)
        if not nodes:
            raise InputError("empty poset description")
        return cls.build(nodes, edges)

    # --- order queries

    def below(self, node) -> frozenset:
        for n, b in self._below:
            if n == node:
                return b
        raise InputError("unknown prime %r" % (node,))

    def check_members(self, S):
        known = set(self.nodes)
        S = list(S)
        for s in S:
            if s not in known:
                raise InputError("unknown prime %r" % (s,))
        return frozenset(S)

    def height(self, node) -> int:
        """Longest chain strictly below, counted in steps."""
        b = self.below(node)
        if not b:
            return 0
        return 1 + max(self.height(c) for c in b)

    def heights(self) -> dict:
        return {n: self.height(n) for n in self.nodes}

    def dimension(self) -> int:
        return max((self.height(n) for n in self.nodes), default=0)


@dataclass(frozen=True)
class SpecClosedSet:
    """An upward closed subset of a SpecPoset; closedness is enforced."""

    poset: SpecPoset
    members: frozenset

    def __post_init__(self):
        members = self.poset.check_members(self.members)
        object.__setattr__(self, "members", members)
        for n in self.poset.nodes:
            if n not in members and self.poset.below(n) & members:
                raise InputError(
                    "%r contains a member but is missing: not upward closed" % (n,))

    def __contains__(self, node):
        return node in self.members

    def __len__(self):
        return len(self.members)

    def sorted_members(self):
        return sorted(self.members)


def specialisation_closure(P: SpecPoset, S) -> SpecClosedSet:
    """Smallest upward closed set containing S."""
    S = P.check_members(S)
    closed = {n for n in P.nodes if n in S or (P.below(n) & S)}
    return SpecClosedSet(P, frozenset(closed))


def is_closed(P: SpecPoset, S) -> bool:
    S = P.check_members(S)
    return all(n in S or not (P.below(n) & S) for n in P.nodes)


def _as_closed(P: SpecPoset, V) -> SpecClosedSet:
    if isinstance(V, SpecClosedSet):
        if V.poset is not P and V.poset != P:
            raise InputError("closed set belongs to a different poset")
        return V
    return SpecClosedSet(P, frozenset(V))


def minimal_primes(V: SpecClosedSet) -> frozenset:
    P = V.poset
    return frozenset(n for n in V.members if not (P.below(n) & V.members))


def check_height_condition(P: SpecPoset, V) -> bool:
    """Every minimal prime of V has height at most one.

    Necessary for a flat epimorphism with support V; never sufficient.
    """
    V = _as_closed(P, V)
    return all(P.height(n) <= 1 for n in minimal_primes(V))


def enumerate_closed(P: SpecPoset):
    """All upward closed subsets, smallest first; refuses large posets."""
    if len(P.nodes) > ENUM_BOUND:
        raise InputError(
            "poset has %d nodes, enumeration is capped at %d"
            % (len(P.nodes), ENUM_BOUND))
    out = []
    for k in range(len(P.nodes) + 1):
        for combo in combinations(P.nodes, k):
            if is_closed(P, combo):
                out.append(SpecClosedSet(P, frozenset(combo)))
    return out


def count_antichains(P: SpecPoset) -> int:
    """Independent count for enumerate_closed: closed sets match antichains
    of their minimal elements one to one."""
    if len(P.nodes) > ENUM_BOUND:
        raise InputError("poset too large")
    count = 0
    for k in range(len(P.nodes) + 1):
        for combo in combinations(P.nodes, k):
            if all(a not in P.below(b) and b not in P.below(a)
                   for a, b in combinations(combo, 2)):
                count += 1
    return count


def truncated_spec_z(primes=(2, 3, 5)) -> SpecPoset:
    """Spec Z cut down to (0) and finitely many maximal ideals."""
    labels = ["(0)"] + ["(%d)" % p for p in primes]
    edges = [("(0)", "(%d)" % p) for p in primes]
    return SpecPoset.build(labels, edges)
