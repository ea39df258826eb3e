"""Typed errors, the record decorator and the JSON writer, shared
across the package.

The command line maps these to exit codes (see cli.py): input errors
exit with 2, non-representable catalog entries with 3, inconclusive
computations with 4.  A failed internal self-check raises AssertionError
and exits with 1; it is a bug, never an answer.
"""

from math import isinf

# the string encoder of json.dumps, without importing the json package
try:
    from _json import encode_basestring_ascii  # noqa: F401
except ImportError:  # an interpreter without the json accelerator
    from json.encoder import encode_basestring_ascii  # noqa: F401


def _json_atom(value) -> str:
    """json.dumps(value) for None, a bool, an int, a float, a str, or an
    empty list, tuple or dict, without importing json."""
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, float):  # json writes float.__repr__, or these three
        if value != value:
            return "NaN"
        return ("Infinity" if value > 0 else "-Infinity") if isinf(value) else float.__repr__(value)
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, (list, tuple, dict)) and not value:
        return "{}" if isinstance(value, dict) else "[]"
    raise TypeError("Object of type %s is not JSON serializable" % type(value).__name__)


def json_text(value, indent: str = "") -> str:
    """json.dumps(value, sort_keys=True, indent=2), one string per value.

    Every --format json document prints with it but a verdict, a class
    group and a list of closed sets, which write their fixed layouts
    themselves.  The standard library indents through a generator per
    token, a few microseconds for each integer of an SNF transform; here
    a list or dict is one join over its items, and an int or str item is
    written inline.

    >>> print(json_text({"torsion": 6, "point": "2,3", "rows": [[1], []]}))
    {
      "point": "2,3",
      "rows": [
        [
          1
        ],
        []
      ],
      "torsion": 6
    }
    """
    if isinstance(value, (list, tuple)) and value:
        inner = indent + "  "
        items = [repr(v) if type(v) is int else encode_basestring_ascii(v) if type(v) is str
                 else json_text(v, inner) for v in value]
        return "[\n%s%s\n%s]" % (inner, (",\n" + inner).join(items), indent)
    if isinstance(value, dict) and value:
        inner = indent + "  "
        items = [encode_basestring_ascii(k if isinstance(k, str) else _json_atom(k)) + ": "
                 + (repr(v) if type(v) is int else encode_basestring_ascii(v) if type(v) is str
                    else json_text(v, inner)) for k, v in sorted(value.items())]
        return "{\n%s%s\n%s}" % (inner, (",\n" + inner).join(items), indent)
    if type(value) is int:
        return repr(value)
    if type(value) is str:
        return encode_basestring_ascii(value)
    return _json_atom(value)


# the most characters of an input that a message quotes
QUOTE_CHARS = 40


def quote(text: str, spell=repr) -> str:
    """spell(text) for a message that quotes an input, or, for text longer
    than QUOTE_CHARS, spell of its first QUOTE_CHARS characters and "...":
    a 100 KB --prime, or a row of 4300-digit matrix entries, would put as
    much on one line of stderr.  spell=str quotes text as it stands.

    >>> quote("p2"), quote("p" + "9" * 99), quote("(X, Y)", str)
    ("'p2'", "'p999999999999999999999999999999999999999'...", '(X, Y)')
    """
    return spell(text) if len(text) <= QUOTE_CHARS else spell(text[:QUOTE_CHARS]) + "..."


class UnilocError(Exception):
    pass


class InputError(UnilocError):
    """Malformed or out-of-contract input: bad parse, off-curve point,
    non-prime ideal, dimension mismatch, or an operation called where its
    stated precondition does not hold."""


class NotRepresentableError(UnilocError):
    """Catalog entry that is documented but not computable at desk scale."""


class InconclusiveError(UnilocError):
    """A computation could not reach a definite answer.

    Giving up is never treated as a proof of absence.
    """


class FrozenInstanceError(AttributeError):
    """Assignment to, or deletion of, an attribute of a frozen record."""


def _frozen_setattr(self, name, value):
    raise FrozenInstanceError("cannot assign to field %r" % (name,))


def _frozen_delattr(self, name):
    raise FrozenInstanceError("cannot delete field %r" % (name,))


def required(value, message: str):
    """value, or an InputError with message when it is empty: a missing option."""
    if not value:
        raise InputError(message)
    return value


def record(cls):
    """Make cls a frozen record with the methods @dataclass(frozen=True) gives it.

    The fields are the class annotations in order, and a class attribute
    of the same name is a field's default.  The generated __init__ takes
    the fields positionally or by keyword and calls __post_init__ last
    when the class has one; __eq__ compares the field tuples of two
    instances of one class and returns NotImplemented otherwise; __hash__
    hashes the field tuple; __repr__ reads Name(field=value, ...).  A
    method the class defines itself is kept, except that a class defining
    __eq__ without __hash__ still gets the generated __hash__.  Assigning
    or deleting an attribute raises FrozenInstanceError, so __post_init__
    sets a field with object.__setattr__.  Each generated method is
    compiled on its first call, which installs it on the class in place of
    the stand-in that made the call: a fresh `uniloc` process calls few of
    them, and compiling all four for every record cost it about 3 ms
    (importing the standard dataclass module and letting it generate the
    methods cost about 13 ms).

    >>> @record
    ... class Pair:
    ...     left: int
    ...     right: int = 0
    >>> Pair(1), Pair(1) == Pair(right=0, left=1), hash(Pair(1)) == hash((1, 0))
    (Pair(left=1, right=0), True, True)
    >>> Pair(1).left = 2
    Traceback (most recent call last):
    ...
    uniloc.errors.FrozenInstanceError: cannot assign to field 'left'
    """
    own = cls.__dict__
    for name in ("__init__", "__eq__", "__hash__", "__repr__"):
        # defining __eq__ alone leaves __hash__ = None in the class dict
        if own.get(name) is None if name == "__hash__" else name not in own:
            setattr(cls, name, _on_first_call(cls, name))
    cls.__setattr__ = _frozen_setattr
    cls.__delattr__ = _frozen_delattr
    return cls


def _on_first_call(cls, name):
    """The stand-in for the generated method name of record cls."""
    def first_call(self, *args, **kwargs):
        return _generate(cls, name)(self, *args, **kwargs)
    return first_call


def _generate(cls, name):
    """Compile the method name of record cls, install it on cls and return it."""
    names = tuple(cls.__annotations__)
    scope = {"_set": object.__setattr__}
    mine = "(%s)" % "".join("self.%s, " % field for field in names)
    if name == "__init__":
        params = ["self"]
        for field in names:
            if field in cls.__dict__:
                scope["_default_" + field] = cls.__dict__[field]
                params.append("%s=_default_%s" % (field, field))
            else:
                params.append(field)
        lines = ["def __init__(%s):" % ", ".join(params)]
        lines += ["    _set(self, %r, %s)" % (field, field) for field in names]
        if hasattr(cls, "__post_init__"):
            lines.append("    self.__post_init__()")
    elif name == "__eq__":
        lines = ["def __eq__(self, other):",
                 "    if other.__class__ is self.__class__:",
                 "        return %s == %s" % (mine, mine.replace("self.", "other.")),
                 "    return NotImplemented"]
    elif name == "__hash__":
        lines = ["def __hash__(self):",
                 "    return hash(%s)" % (mine,)]
    else:
        lines = ["def __repr__(self):",
                 '    return self.__class__.__qualname__ + f"(%s)"'
                 % ", ".join("%s={self.%s!r}" % (field, field) for field in names)]
    exec("\n".join(lines), scope)
    method = scope[name]
    method.__qualname__ = "%s.%s" % (cls.__qualname__, name)  # TypeErrors name it
    setattr(cls, name, method)
    return method
