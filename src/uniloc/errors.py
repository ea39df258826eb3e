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
