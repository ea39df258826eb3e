"""Finite poset models of prime spectra.

A SpecPoset is a finite set of labelled primes with a strict
containment order.  Specialisation closed subsets are the upward closed
ones; the module computes heights, the necessary height condition on
the minimal primes of a closed set, and (for small posets) the full
list of closed subsets, whose count is the number of flat
epimorphism classes when the ring has dimension at most one.

Spectra here are always finite truncations of the real thing, so every
verdict is quantified over the represented fragment only.
"""

from __future__ import annotations


from .errors import InputError, record

# an antichain of n nodes has 2^n closed sets, and enumerate_closed lists each
ENUM_BOUND = 16


@record
class SpecPoset:
    nodes: tuple
    _order: dict  # node -> (frozenset of strictly smaller nodes, height)

    @classmethod
    def build(cls, nodes, edges) -> "SpecPoset":
        """nodes: labels; edges: (child, parent) pairs meaning child < parent."""
        nodes = list(dict.fromkeys(nodes))
        known = set(nodes)
        direct = {n: {} for n in nodes}  # parent -> its children, in edge order
        for child, parent in edges:
            if child not in known or parent not in known:
                raise InputError("edge %r < %r uses an undeclared node" % (child, parent))
            if child == parent:
                raise InputError("node %r below itself" % (child,))
            direct[parent][child] = None

        # topological order: a node is placed once every node directly below it is
        parents = {n: [] for n in nodes}
        for parent, children in direct.items():
            for child in children:
                parents[child].append(parent)
        waiting = {n: len(direct[n]) for n in nodes}
        ready = [n for n in nodes if not waiting[n]]
        order = {}
        while ready:
            n = ready.pop()
            below = frozenset(direct[n]).union(*(order[c][0] for c in direct[n]))
            order[n] = (below, 1 + max((order[c][1] for c in direct[n]), default=-1))
            for parent in parents[n]:
                waiting[parent] -= 1
                if not waiting[parent]:
                    ready.append(parent)
        if len(order) < len(nodes):
            # an unplaced node has an unplaced child, so walking down them repeats
            n, seen = next(n for n in nodes if n not in order), set()
            while n not in seen:
                seen.add(n)
                n = next(c for c in direct[n] if c not in order)
            raise InputError("containment cycle through %r" % (n,))
        return cls(tuple(nodes), order)

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

    def _lookup(self, node):
        try:
            return self._order[node]
        except KeyError:
            raise InputError("unknown prime %r" % (node,)) from None

    def below(self, node) -> frozenset:
        return self._lookup(node)[0]

    def check_members(self, S):
        known = set(self.nodes)
        S = list(S)
        for s in S:
            if s not in known:
                raise InputError("unknown prime %r" % (s,))
        return frozenset(S)

    def height(self, node) -> int:
        """Longest chain strictly below, counted in steps."""
        return self._lookup(node)[1]

    def heights(self) -> dict:
        return {n: self._order[n][1] for n in self.nodes}


@record
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


def check_height_condition(P: SpecPoset, V) -> bool:
    """Every minimal prime of V has height at most one.

    Necessary for a flat epimorphism with support V; never sufficient.
    """
    members = SpecClosedSet(P, frozenset(V)).members
    return all(P.height(n) <= 1 for n in members if not (P.below(n) & members))


def enumerate_closed(P: SpecPoset):
    """All upward closed subsets, smallest first; refuses large posets.

    Each undecided node, in P.nodes order, is either included together
    with every node above it or excluded together with every node below
    it, so every leaf of the branching is a distinct closed set and the
    work follows the output.  Sorting by (size, node positions) gives the
    order of a scan over combinations(P.nodes, k) for k = 0, 1, ...
    """
    if len(P.nodes) > ENUM_BOUND:
        raise InputError(
            "poset has %d nodes, enumeration is capped at %d"
            % (len(P.nodes), ENUM_BOUND))
    n = len(P.nodes)
    position = {node: j for j, node in enumerate(P.nodes)}
    below = [sum(1 << position[c] for c in P.below(node)) for node in P.nodes]
    above = [sum(1 << k for k in range(n) if below[k] >> j & 1) for j in range(n)]
    leaves = []
    stack = [(0, 0, 0)]  # (next position, included mask, decided mask)
    while stack:
        j, included, decided = stack.pop()
        while j < n and decided >> j & 1:
            j += 1
        if j == n:
            leaves.append([k for k in range(n) if included >> k & 1])
            continue
        up, down = 1 << j | above[j], 1 << j | below[j]
        stack.append((j + 1, included | up, decided | up))
        stack.append((j + 1, included, decided | down))
    leaves.sort(key=lambda ks: (len(ks), ks))
    return [SpecClosedSet(P, frozenset(P.nodes[k] for k in ks)) for ks in leaves]


def truncated_spec_z(primes=(2, 3, 5)) -> SpecPoset:
    """Spec Z cut down to (0) and finitely many maximal ideals."""
    labels = ["(0)"] + ["(%d)" % p for p in primes]
    edges = [("(0)", "(%d)" % p) for p in primes]
    return SpecPoset.build(labels, edges)
