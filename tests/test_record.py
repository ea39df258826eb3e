"""errors.record against dataclasses.dataclass(frozen=True), on twin classes.

shapes() builds one class per shape of record that uniloc uses; each
test decorates a fresh copy under each implementation and compares the
outcome of the same operation on both: the value, or the exception's
kind and message.
"""

import dataclasses

import pytest
from hypothesis import given, strategies as st

from uniloc.errors import InputError, record


def shapes():
    class Plain:
        """Required fields, then fields with defaults."""
        a: object
        b: object = None
        c: object = ()

    class Tagged:
        """A plain class attribute is a constant, not a field (verdict's kind)."""
        element: object
        kind = "tag"

    class Rewritten:
        """__post_init__ checks a field and rewrites one (ECPoint, Rule)."""
        n: object
        items: object = ()

        def __post_init__(self):
            if self.n is None:
                raise InputError("n is required")
            object.__setattr__(self, "items", repr(self.items))

    class Keyed:
        """Its own __eq__ and __hash__ (ECPoint)."""
        x: object = None
        y: object = None

        def _key(self):
            return repr((self.y, self.x))

        def __eq__(self, other):
            if other.__class__ is not self.__class__:
                return NotImplemented
            return self._key() == other._key()

        def __hash__(self):
            return hash(self._key())

    class EqOnly:
        """Its own __eq__ alone: the generated __hash__ still applies."""
        x: object
        y: object = 0

        def __eq__(self, other):
            return isinstance(other, EqOnly) and self.x == other.x

    class Shown:
        """Its own __repr__ (QuadIdeal, GroupStructure)."""
        x: object
        y: object = 1

        def __repr__(self):
            return "<%r|%r>" % (self.x, self.y)

    return {cls.__name__: cls for cls in (Plain, Tagged, Rewritten, Keyed, EqOnly, Shown)}


RECORDS = {name: record(cls) for name, cls in shapes().items()}
DATACLASSES = {name: dataclasses.dataclass(frozen=True)(cls)
               for name, cls in shapes().items()}
NAMES = sorted(RECORDS)

# hashable, and no float: from Python 3.13 the dataclass __eq__ compares
# field by field, which treats a NaN field unlike a tuple comparison
VALUES = st.one_of(st.none(), st.integers(-3, 3), st.text("ab", max_size=2),
                   st.tuples(st.integers(-2, 2)))


def outcome(f, *args):
    try:
        return "value", f(*args)
    except (AttributeError, TypeError, InputError) as exc:
        kind = next(k for k in (AttributeError, TypeError, InputError)
                    if isinstance(exc, k))
        return kind.__name__, str(exc)


def draw_call(data, name):
    """(args, kwargs) for name: from a missing argument to an extra one,
    the first k positional and the rest by keyword."""
    fields = [f.name for f in dataclasses.fields(DATACLASSES[name])]
    required = sum(f.default is dataclasses.MISSING
                   for f in dataclasses.fields(DATACLASSES[name]))
    n = data.draw(st.integers(max(required - 1, 0), len(fields) + 1))
    values = data.draw(st.lists(VALUES, min_size=n, max_size=n))
    k = data.draw(st.integers(0, n))
    keywords = dict(zip((fields + ["extra"])[k:n], values[k:]))
    return values[:k], keywords


def build(data, name):
    """One (record, dataclass) pair built by the same call, or the outcome
    of a call both refuse."""
    args, kwargs = draw_call(data, name)
    got = [outcome(lambda cls: cls(*args, **kwargs), impl[name])
           for impl in (RECORDS, DATACLASSES)]
    assert got[0][0] == got[1][0]
    if got[0][0] != "value":
        assert got[0] == got[1]
        return None
    return got[0][1], got[1][1]


def observe(obj):
    fields = [f.name for f in dataclasses.fields(DATACLASSES[type(obj).__name__])]
    return (repr(obj), tuple(getattr(obj, f) for f in fields), outcome(hash, obj),
            getattr(obj, "kind", None))


@pytest.mark.parametrize("name", NAMES)
@given(data=st.data())
def test_construction(name, data):
    pair = build(data, name)
    if pair is not None:
        assert observe(pair[0]) == observe(pair[1])


@given(data=st.data(), names=st.tuples(st.sampled_from(NAMES), st.sampled_from(NAMES)))
def test_equality(data, names):
    first, second = (build(data, name) for name in names)
    if first is not None and second is not None:
        # __eq__ directly: NotImplemented across classes, where == reads False
        compared = [(x == y, x != y, x.__eq__(y)) for x, y in zip(first, second)]
        assert compared[0] == compared[1]
        assert (first[0] == first[0]) == (first[1] == first[1])


@pytest.mark.parametrize("name", NAMES)
@given(data=st.data(), attribute=st.sampled_from(["x", "a", "n", "kind", "other"]))
def test_frozen(name, data, attribute):
    pair = build(data, name)
    if pair is not None:
        assigned = [outcome(setattr, obj, attribute, 1) for obj in pair]
        deleted = [outcome(delattr, obj, attribute) for obj in pair]
        assert assigned[0] == assigned[1] and assigned[0][0] == "AttributeError"
        assert deleted[0] == deleted[1] and deleted[0][0] == "AttributeError"
        assert observe(pair[0]) == observe(pair[1])

