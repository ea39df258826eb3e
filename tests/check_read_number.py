"""Compare verdict.read_number(text, what, Fraction) with Fraction(text).

Every spelling on a grid of signs, whitespace, ASCII and Unicode digits,
underscores, "/", "." and exponents, and seeded random strings over the
same characters, is read both ways.  The value must equal Fraction(text),
an int must come back only where int(text) reads the same value, and
read_number must raise exactly when Fraction(text) raises, with the same
exception type.  A grid of exponents of 4300 or more, which read_number
refuses so that no such power of 10 is built, checks that the refusal
falls exactly on the spellings Fraction reads; the others raise as
Fraction raises.  Fraction reads underscores from Python 3.11 and spaces
around "/" from 3.12, so the answer depends on the interpreter; the script
uses the standard library only, so that any Python the package supports
can run it:

    python tests/check_read_number.py

It prints the interpreter version and the number of spellings compared,
and exits 1 at the first mismatch.
"""

import itertools
import random
import sys
from fractions import Fraction
from pathlib import Path

if __name__ == "__main__":  # read the package from this checkout
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from uniloc.errors import InputError  # noqa: E402
from uniloc.verdict import read_number  # noqa: E402

# "\u3000" and "\u2003" are Unicode spaces, which both strip; int strips
# no "\x1c" to "\x1f", which Fraction's regex reads as whitespace
SIGNS = ("", " ", "\t", "\u3000", "\x1c", "+", "-", " -", "- ", "+-")
# ASCII runs, underscores, Arabic-Indic and fullwidth digits (decimal),
# a superscript and a Roman numeral (not decimal)
DIGITS = ("", "0", "12", "1_0", "1__0", "_1", "1_", "\u0663\u0661", "\uff17",
          "\u00b2", "\u2167")
SEPARATORS = ("", "/", " / ", "/ ", ".", "e", "E-", "e+", "_", " ")
ENDS = ("", " ", "\x1f", "\u2003", " x")
ALPHABET = "0123456789\u0663_.eE+-/ \t"
# before and after an exponent of 4300 or more: mantissas Fraction reads
# (with underscores from 3.11), and text it does not read
MANTISSAS = ("", "1", "1.", ".5", "1.5", "1_0", "1.0_1", "\u0663", ".", "_1", "x1",
             "1/2", "-")
BIG_EXPONENTS = ("e7188", "e-7188", "E+7_188", "e4300", "E-4300")


def outcome(read, text):
    try:
        return read(text)
    except (InputError, ValueError, ZeroDivisionError) as exc:
        return type(exc)


def mismatch(text):
    """None when read_number reads text as Fraction does, else the two outcomes."""
    got = outcome(lambda t: read_number(t, "x", Fraction), text)
    want = outcome(Fraction, text)
    if got == want and (type(got) is type(want)
                        or type(got) is int and outcome(int, text) == got):
        return None
    return got, want


def refusal_mismatch(text):
    """None when read_number refuses text where Fraction reads it and raises
    as Fraction raises elsewhere, else the two outcomes."""
    want = outcome(Fraction, text)  # builds 10**7188 at most: cheap at this size
    if isinstance(want, Fraction):
        want = InputError
    got = outcome(lambda t: read_number(t, "x", Fraction), text)
    return None if got == want else (got, want)


def spellings(seed=0, count=20000):
    yield from map("".join, itertools.product(SIGNS, DIGITS, SEPARATORS, DIGITS, ENDS))
    rng = random.Random(seed)
    for _ in range(count):  # at most 4 characters: no exponent of 4300 or more
        yield "".join(rng.choice(ALPHABET) for _ in range(rng.randint(0, 4)))


def main() -> int:
    checked = 0
    for text in spellings():
        found = mismatch(text)
        if found is not None:
            print("mismatch on %r: read_number gives %r, Fraction %r" % ((text,) + found))
            return 1
        checked += 1
    print("Python %s: %d spellings read as Fraction reads them"
          % (sys.version.split()[0], checked))
    big = 0
    for text in map("".join, itertools.product(SIGNS, MANTISSAS, BIG_EXPONENTS, ENDS)):
        found = refusal_mismatch(text)
        if found is not None:
            print("mismatch on %r: read_number gives %r, expected %r" % ((text,) + found))
            return 1
        big += 1
    print("%d spellings with an exponent of 4300 or more: refused exactly where "
          "Fraction reads them" % big)
    return 0


if __name__ == "__main__":
    sys.exit(main())
