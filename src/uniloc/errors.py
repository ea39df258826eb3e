"""Typed errors shared across the package.

The command line maps these to exit codes (see cli.py): input errors
exit with 2, non-representable catalog entries with 3, inconclusive
computations with 4.  A failed internal self-check raises AssertionError
and exits with 1; it is a bug, never an answer.
"""


class UnilocError(Exception):
    pass


class InputError(UnilocError):
    """Malformed or out-of-contract input: bad parse, off-curve point,
    non-prime ideal, dimension mismatch."""


class PreconditionError(InputError):
    """A stated precondition of an operation does not hold."""


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
    sets a field with object.__setattr__.  The methods are compiled in one
    exec per class: importing the standard dataclass module and letting it
    generate the methods cost a fresh `uniloc` process about 13 ms.

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
    names = tuple(cls.__annotations__)
    own = cls.__dict__
    scope = {"_set": object.__setattr__}
    params = ["self"]
    for name in names:
        if name in own:
            scope["_default_" + name] = own[name]
            params.append("%s=_default_%s" % (name, name))
        else:
            params.append(name)
    body = ["    _set(self, %r, %s)" % (name, name) for name in names]
    if hasattr(cls, "__post_init__"):
        body.append("    self.__post_init__()")
    mine = "(%s)" % "".join("self.%s, " % name for name in names)
    theirs = mine.replace("self.", "other.")
    methods = {
        "__init__": ["def __init__(%s):" % ", ".join(params)] + body,
        "__eq__": ["def __eq__(self, other):",
                   "    if other.__class__ is self.__class__:",
                   "        return %s == %s" % (mine, theirs),
                   "    return NotImplemented"],
        "__hash__": ["def __hash__(self):",
                     "    return hash(%s)" % (mine,)],
        "__repr__": ["def __repr__(self):",
                     '    return self.__class__.__qualname__ + f"(%s)"'
                     % ", ".join("%s={self.%s!r}" % (name, name) for name in names)],
    }
    # defining __eq__ alone leaves __hash__ = None in the class dict
    wanted = [name for name in methods
              if (own.get(name) is None if name == "__hash__" else name not in own)]
    exec("\n".join(line for name in wanted for line in methods[name]), scope)
    for name in wanted:
        method = scope[name]
        method.__qualname__ = "%s.%s" % (cls.__qualname__, name)  # TypeErrors name it
        setattr(cls, name, method)
    cls.__setattr__ = _frozen_setattr
    cls.__delattr__ = _frozen_delattr
    return cls
