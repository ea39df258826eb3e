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

from .errors import InputError, encode_basestring_ascii, quote, record

# an antichain of n nodes has 2^n closed sets, and enumerate_closed lists each.
# In process on a shared 2-core host (median of 5), `spec enumerate --format
# json` on an antichain takes 0.005-0.006 s at 12 nodes, 0.024 s at 14 and
# 0.10-0.12 s at 16, a factor of 4 per two nodes; 1 s is the budget per call
ENUM_BOUND = 16


@record
class SpecPoset:
    nodes: tuple
    # node -> (tuple of the nodes directly below it, height), in topological
    # order; queries walk these edges, as a chain's closure is quadratic in size
    _order: dict

    @classmethod
    def build(cls, nodes, edges) -> "SpecPoset":
        """nodes: labels; edges: (child, parent) pairs meaning child < parent."""
        nodes = list(dict.fromkeys(nodes))
        known = set(nodes)
        direct = {n: {} for n in nodes}  # parent -> its children, in edge order
        for child, parent in edges:
            if child not in known or parent not in known:
                raise InputError("edge %s < %s uses an undeclared node"
                                 % (_label(child), _label(parent)))
            if child == parent:
                raise InputError("node %s below itself" % _label(child))
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
            order[n] = (tuple(direct[n]),
                        1 + max((order[c][1] for c in direct[n]), default=-1))
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
            raise InputError("containment cycle through %s" % _label(n))
        return cls(tuple(nodes), order)

    @classmethod
    def from_text(cls, text: str) -> "SpecPoset":
        """The poset of the lines that parse_poset reads."""
        return cls.build(*parse_poset(text))

    # --- order queries

    def _lookup(self, node):
        try:
            return self._order[node]
        except KeyError:
            raise InputError("unknown prime %s" % _label(node)) from None

    def below(self, node) -> frozenset:
        """Every node strictly below node, walked down the direct edges."""
        seen = set()
        stack = list(self._lookup(node)[0])
        while stack:
            n = stack.pop()
            if n not in seen:
                seen.add(n)
                stack.extend(self._order[n][0])
        return frozenset(seen)

    def check_members(self, S):
        S = list(S)
        for s in S:
            if s not in self._order:
                raise InputError("unknown prime %s" % _label(s))
        return frozenset(S)

    def height(self, node) -> int:
        """Longest chain strictly below, counted in steps."""
        return self._lookup(node)[1]

    def heights(self) -> dict:
        return {n: self._order[n][1] for n in self.nodes}


def _label(node) -> str:
    """A node as a message quotes it: a string label as errors.quote
    quotes an input, any other node by its repr, cut the same way."""
    return quote(node) if isinstance(node, str) else quote(repr(node), str)


def parse_poset(text: str):
    """(nodes, edges) from lines "child < parent"; a bare label declares
    an isolated node.

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
                raise InputError("cannot parse poset line %s" % quote(raw))
            child, parent = sides
            nodes.extend([child, parent])
            edges.append((child, parent))
        else:
            if any(ch.isspace() for ch in line):
                raise InputError("cannot parse poset line %s" % quote(raw))
            nodes.append(line)
    if not nodes:
        raise InputError("empty poset description")
    return nodes, edges


def check_enumerable(count: int) -> None:
    """Refuse to enumerate the closed sets of more than ENUM_BOUND nodes."""
    if count > ENUM_BOUND:
        raise InputError("poset has %d nodes, enumeration is capped at spectool.ENUM_BOUND = %d"
                         % (count, ENUM_BOUND))


@record
class SpecClosedSet:
    """An upward closed subset of a SpecPoset; closedness is enforced."""

    poset: SpecPoset
    members: frozenset

    def __post_init__(self):
        members = self.poset.check_members(self.members)
        object.__setattr__(self, "members", members)
        # a chain from a member up to a node outside crosses out along one edge
        order = self.poset._order
        for n in self.poset.nodes:
            if n not in members and not members.isdisjoint(order[n][0]):
                raise InputError(
                    "%s contains a member but is missing: not upward closed" % _label(n))


def check_height_condition(P: SpecPoset, V) -> bool:
    """Every minimal prime of V has height at most one.

    Necessary for a flat epimorphism with support V; never sufficient.
    """
    members = SpecClosedSet(P, frozenset(V)).members
    # in a closed V, a member with a member below it has one directly below it
    return all(P.height(n) <= 1 for n in members
               if members.isdisjoint(P._order[n][0]))


def _subset_tables(items, join, empty):
    """Tables lo, hi for a mask m whose bit k carries items[k]:
    join(hi[m >> 8], lo[m & 255]) joins the items of the set bits of m,
    the item of the higher bit first."""
    tables = []
    for part in (items[:8], items[8:]):
        table = [empty]
        for item in part:
            table += [join(item, t) for t in table]
        tables.append(table)
    return tables


def enumerate_closed(P: SpecPoset):
    """All upward closed subsets, smallest first, each the tuple of its
    labels in label order; refuses large posets.

    Node j of P.nodes sits at bit n-1-j of a mask.  The undecided node of
    least position is either included together with every node above it
    or excluded together with every node below it, so every leaf of the
    branching is a distinct closed set and the work follows the output.
    Sorting the leaves by (size, -mask) gives the order of a scan over
    combinations(P.nodes, k) for k = 0, 1, ...
    """
    check_enumerable(len(P.nodes))
    n = len(P.nodes)
    bit = {node: 1 << (n - 1 - j) for j, node in enumerate(P.nodes)}
    up, down = dict(bit), dict(bit)  # each node with every node above / below it
    for node in P.nodes:
        for c in P.below(node):
            up[c] |= bit[node]
            down[node] |= bit[c]
    ups, downs = [up[node] for node in P.nodes], [down[node] for node in P.nodes]
    full = (1 << n) - 1
    leaves = []
    stack = [(0, 0)]  # (included mask, decided mask)
    while stack:
        included, decided = stack.pop()
        if decided == full:
            leaves.append(included)
            continue
        j = n - (full ^ decided).bit_length()
        stack.append((included | ups[j], decided | ups[j]))
        stack.append((included, decided | downs[j]))
    leaves.sort(key=lambda m: (m.bit_count(), -m))

    # a mask's labels and the union of its members' up-sets, read per byte:
    # a set costs a few lookups, not a walk over its members.  A rank mask
    # has the k-th label from the end at bit k.
    at_bit, labels = P.nodes[::-1], sorted(P.nodes, reverse=True)
    rank = {node: 1 << k for k, node in enumerate(labels)}
    up_lo, up_hi = _subset_tables([up[node] for node in at_bit], int.__or__, 0)
    rank_lo, rank_hi = _subset_tables([rank[node] for node in at_bit], int.__or__, 0)
    name_lo, name_hi = _subset_tables([(node,) for node in labels], tuple.__add__, ())
    out = []
    for m in leaves:
        lo, hi = m & 255, m >> 8
        r = rank_lo[lo] | rank_hi[hi]
        out.append(name_hi[r >> 8] + name_lo[r & 255])
        if (up_lo[lo] | up_hi[hi]) & ~m:  # self-check of the branching
            raise AssertionError("enumerated set %r is not upward closed" % (out[-1],))
    return out


def truncated_spec_z(primes=(2, 3, 5)) -> SpecPoset:
    """Spec Z cut down to (0) and finitely many maximal ideals."""
    labels = ["(0)"] + ["(%d)" % p for p in primes]
    edges = [("(0)", "(%d)" % p) for p in primes]
    return SpecPoset.build(labels, edges)


def enumerate_text(text: str, as_json: bool) -> str:
    """What `spec enumerate` prints for the poset file text, in JSON or
    in text."""
    nodes, edges = parse_poset(text)
    # before build, so an oversize file with a cycle gets the size message
    check_enumerable(len(set(nodes)))
    P = SpecPoset.build(nodes, edges)
    closed = enumerate_closed(P)
    heights = P.heights()
    if not as_json:
        return "\n".join(["nodes: %s" % ", ".join(P.nodes),
                          "heights: %s" % ", ".join("%s:%d" % (n, heights[n]) for n in P.nodes),
                          "count: %d" % len(closed)]
                         + ["closed: {%s}" % ", ".join(c) for c in closed])
    quoted = {n: encode_basestring_ascii(n) for n in P.nodes}.__getitem__  # each label once
    # the empty set comes first and prints as []; a poset has a node, so
    # at least one non-empty closed set follows, each written by one join,
    # and the node list is not empty
    rest = "\n    ],\n    [\n      ".join([",\n      ".join(map(quoted, c))
                                         for c in closed[1:]])
    return ('{\n  "closed_sets": [\n    [],\n    [\n      %s\n    ]\n  ],\n  "count": %d,'
            '\n  "heights": {\n    %s\n  },\n  "nodes": [\n    %s\n  ],\n  "schema": 1\n}' % (
                rest, len(closed),
                ",\n    ".join("%s: %d" % (quoted(n), heights[n]) for n in sorted(P.nodes)),
                ",\n    ".join(map(quoted, P.nodes))))
