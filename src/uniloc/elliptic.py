"""Exact rational elliptic curve arithmetic and the cone classifier.

Curves are short Weierstrass models y^2 = x^3 + a*x + b over Q, with the
point at infinity O as neutral element.  The classifier answers the
flat/universal/classical questions for the prime of the affine cone
sitting at a rational point: the cone always admits the flat
epimorphism, and the other two answers are governed by whether the
point is torsion.  Torsion certificates are straight-line programs of
chords, tangents and verticals whose formal divisor telescopes to
n(P) - n(O); they are checked by pure divisor accounting, never by
polynomial division.

Points and lines are their integer keys: a point is (xn, xd, yn, yd),
its coordinates in lowest terms with positive denominators, and a line
the six such integers of its coefficients; a curve holds the four such
integers of its coefficients.  Equality, hashing, membership on the
curve, slopes, line incidence and printing read these integers: a
slope is kept as an integer pair, each new coordinate is built over a
common denominator and reduced by one gcd, and membership compares two
integer products.
Fractions are made only when a caller reads x, y, a, b or c.  Every
check stays: each group law operation verifies that its inputs lie on
the curve, and the line-program checker tests each distinct tagged
point on the curve once per program, tests every tagged point on its
line, and re-derives each chord's third point through the group law.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import InconclusiveError, InputError, json_text, quote, record, required
from .verdict import (CLASS_NON_TORSION, CLASS_TORSION, INFINITE, UNKNOWN, YES, Rule,
                      TorsionWitness, Verdict, ratio, read_number, render_ratio)

# orders allowed for rational torsion points; 11 and anything above 12 cannot occur
MAZUR_ORDERS = frozenset([1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12])


class ModelNotIntegral(InconclusiveError):
    """Torsion testing needs integer curve coefficients."""


def _lowest(num: int, den: int):
    """num/den in lowest terms with a positive denominator; den != 0."""
    g = gcd(num, den) if den > 0 else -gcd(num, den)
    return num // g, den // g


@record
class ECPoint:
    """The point (x, y), or O when both are None.

    It holds only its key, (xn, xd, yn, yd) or None for O; x and y are
    Fractions made from the key when they are read.
    """

    _k: tuple

    def __init__(self, x=None, y=None):
        if (x is None) != (y is None):
            raise InputError("affine points need both coordinates")
        object.__setattr__(self, "_k", None if x is None else ratio(x) + ratio(y))

    x = property(lambda self: None if self._k is None else Fraction(self._k[0], self._k[1]))
    y = property(lambda self: None if self._k is None else Fraction(self._k[2], self._k[3]))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._k == other._k

    def __hash__(self):
        return hash(self._k)

    def __neg__(self):
        """The point (x, -y), without testing it on a curve."""
        k = self._k
        return self if k is None else _point((k[0], k[1], -k[2], k[3]))

    @property
    def is_infinity(self) -> bool:
        return self._k is None

    def __repr__(self):
        if self._k is None:
            return "O"
        xn, xd, yn, yd = self._k
        return "(%s, %s)" % (render_ratio(xn, xd), render_ratio(yn, yd))


def _point(key) -> ECPoint:
    """The point of a key already in lowest terms, built without a Fraction."""
    P = object.__new__(ECPoint)
    object.__setattr__(P, "_k", key)
    return P


O = ECPoint()


@record
class WeierstrassCurve:
    """y^2 = x^3 + a*x + b, held as its key (an, ad, bn, bd); a and b are
    Fractions made from the key when they are read."""

    _k: tuple

    def __init__(self, a, b):
        an, ad, bn, bd = key = ratio(a) + ratio(b)
        # the discriminant -16 * (4a^3 + 27b^2), times ad^3 * bd^2 / -16
        if 4 * an ** 3 * bd * bd + 27 * bn * bn * ad ** 3 == 0:
            raise InputError("singular model: discriminant is zero")
        object.__setattr__(self, "_k", key)

    a = property(lambda self: Fraction(self._k[0], self._k[1]))
    b = property(lambda self: Fraction(self._k[2], self._k[3]))

    @property
    def is_integral(self) -> bool:
        return self._k[1] == 1 and self._k[3] == 1

    def contains(self, P: ECPoint) -> bool:
        if P._k is None:
            return True
        # y^2 = x^3 + a*x + b, both sides times yd^2 * xd^3 * ad * bd
        xn, xd, yn, yd = P._k
        an, ad, bn, bd = self._k
        xd3 = xd * xd * xd
        return yn * yn * xd3 * ad * bd == yd * yd * (
            (xn * xn * xn * ad + an * xn * xd * xd) * bd + bn * xd3 * ad)

    def spec(self) -> str:
        an, ad, bn, bd = self._k
        return "ell:%s,%s" % (render_ratio(an, ad), render_ratio(bn, bd))

    def __repr__(self):
        an, ad, bn, bd = self._k
        return MODEL % (render_ratio(an, ad), render_ratio(bn, bd))


MODEL = "y^2 = x^3 + (%s)x + (%s)"


def _quoted(key) -> tuple:
    """The two numbers of a curve or point key as a message quotes them:
    each cut as errors.quote cuts a quoted input, so the fixed text
    around them never shortens a short one."""
    return quote(render_ratio(*key[:2]), str), quote(render_ratio(*key[2:]), str)


def _require_on_curve(E: WeierstrassCurve, P: ECPoint):
    if not E.contains(P):
        raise InputError(("point (%s, %s) is not on " + MODEL) % (_quoted(P._k) + _quoted(E._k)))


def negate(E: WeierstrassCurve, P: ECPoint) -> ECPoint:
    _require_on_curve(E, P)
    return -P


def _slope(E: WeierstrassCurve, P: ECPoint, Q: ECPoint):
    """(num, den) with num/den the tangent slope at P if P == Q, else the
    chord slope through P and Q; both affine, and not Q = -P."""
    x1n, x1d, y1n, y1d = P._k
    if P._k == Q._k:
        # (3*x^2 + a) / (2*y)
        an, ad = E._k[0], E._k[1]
        return (3 * x1n * x1n * ad + an * x1d * x1d) * y1d, 2 * y1n * x1d * x1d * ad
    x2n, x2d, y2n, y2d = Q._k
    # (y2 - y1) / (x2 - x1)
    return (y2n * y1d - y1n * y2d) * x1d * x2d, (x2n * x1d - x1n * x2d) * y1d * y2d


def _opposite(P: ECPoint, Q: ECPoint) -> bool:
    """Q = -P, for affine P and Q."""
    x1n, x1d, y1n, y1d = P._k
    x2n, x2d, y2n, y2d = Q._k
    return x1n == x2n and x1d == x2d and y1n == -y2n and y1d == y2d


def add(E: WeierstrassCurve, P: ECPoint, Q: ECPoint) -> ECPoint:
    _require_on_curve(E, P)
    _require_on_curve(E, Q)
    if P._k is None:
        return Q
    if Q._k is None:
        return P
    if _opposite(P, Q):
        return O
    num, den = _slope(E, P, Q)
    x1n, x1d, y1n, y1d = P._k
    x2n, x2d = Q._k[0], Q._k[1]
    # x3 = lam^2 - x1 - x2 over den^2 * x1d * x2d
    x3n, x3d = _lowest(num * num * x1d * x2d - (x1n * x2d + x2n * x1d) * den * den,
                       den * den * x1d * x2d)
    # y3 = lam * (x1 - x3) - y1 over den * x1d * x3d * y1d
    return _point((x3n, x3d) + _lowest(num * (x1n * x3d - x3n * x1d) * y1d
                                       - y1n * den * x1d * x3d, den * x1d * x3d * y1d))


def mul(E: WeierstrassCurve, n: int, P: ECPoint) -> ECPoint:
    if n < 0:
        return mul(E, -n, negate(E, P))
    acc = O
    step = P
    while n:
        if n & 1:
            acc = add(E, acc, step)
        n >>= 1
        if n:
            step = add(E, step, step)
    return acc


def _multiples(E: WeierstrassCurve, P: ECPoint) -> list:
    """[P, 2P, ..., kP], ending at the first multiple that is O or not
    integral, or at 12P.

    The list ends in O exactly when P is torsion, and then k is its order.
    """
    _require_on_curve(E, P)
    if P.is_infinity:
        return [P]
    if not E.is_integral:
        raise ModelNotIntegral(
            "torsion test needs integer coefficients, got " + MODEL % _quoted(E._k))
    out = [P]
    Q = P
    while len(out) < 12 and Q._k[1] == 1 and Q._k[3] == 1:
        Q = add(E, Q, P)
        out.append(Q)
        if Q.is_infinity:
            if len(out) not in MAZUR_ORDERS:
                raise AssertionError("impossible rational torsion order %d" % len(out))
            break
    return out


def torsion_order(E: WeierstrassCurve, P: ECPoint, multiples=None):
    """Least n with n*P = O, or INFINITE.

    Only multiples up to 12 are tested (no larger order occurs over Q),
    and any non-integral multiple ends the search early, since torsion
    points on an integral model have integer coordinates.  A list given
    as multiples receives the walk [P, 2P, ...] for miller_function.
    """
    walk = _multiples(E, P)
    if multiples is not None:
        multiples += walk
    return len(walk) if walk[-1].is_infinity else INFINITE


# line programs for torsion certificates ------------------------------------

@record
class Line:
    """A projective line a*X + b*Y + c*Z tagged with how it was drawn.

    kind "vertical" runs through base, -base and O; kind "chord" (which
    includes tangents, base == other) runs through base, other and the
    negated sum.  The tags carry exactly the information the formal
    divisor checker needs.  It holds the key (an, ad, bn, bd, cn, cd) of
    a, b and c, which are Fractions made when they are read.
    """

    _k: tuple
    kind: str
    base: ECPoint
    other: ECPoint

    def __init__(self, a, b, c, kind: str, base: ECPoint, other: ECPoint):
        _set_line(self, ratio(a) + ratio(b) + ratio(c), kind, base, other)

    a = property(lambda self: Fraction(self._k[0], self._k[1]))
    b = property(lambda self: Fraction(self._k[2], self._k[3]))
    c = property(lambda self: Fraction(self._k[4], self._k[5]))

    def _value(self, P: ECPoint):
        """(num, den), den > 0, with num/den the value of the line at P."""
        an, ad, bn, bd, cn, cd = self._k
        if P._k is None:
            return bn, bd  # value at (0 : 1 : 0)
        xn, xd, yn, yd = P._k
        # a*x + b*y + c over (ad * xd) * (bd * yd) * cd
        ax_d, by_d = ad * xd, bd * yd
        return (an * xn * by_d + bn * yn * ax_d) * cd + cn * ax_d * by_d, ax_d * by_d * cd

    def evaluate(self, P: ECPoint) -> Fraction:
        return Fraction(*self._value(P))

    def _vanishes(self, P: ECPoint) -> bool:
        """evaluate(P) == 0, decided on the numerator alone."""
        return self._value(P)[0] == 0

    def form_str(self) -> str:
        k = self._k
        parts = []
        for num, den, var in ((k[0], k[1], "X"), (k[2], k[3], "Y"), (k[4], k[5], "Z")):
            if num == 0:
                continue
            mag = abs(num)
            term = var if mag == den == 1 else "%s*%s" % (render_ratio(mag, den), var)
            parts.append(("- " if num < 0 else ("+ " if parts else "")) + term)
        return " ".join(parts) if parts else "0"


def _set_line(line: Line, key, kind: str, base: ECPoint, other: ECPoint) -> Line:
    for name, value in (("_k", key), ("kind", kind), ("base", base), ("other", other)):
        object.__setattr__(line, name, value)
    return line


def vertical_at(E: WeierstrassCurve, P: ECPoint) -> Line:
    _require_on_curve(E, P)
    if P.is_infinity:
        raise InputError("no vertical line is taken at O")
    xn, xd = P._k[0], P._k[1]
    return _set_line(object.__new__(Line), (1, 1, 0, 1, -xn, xd), "vertical", P, -P)


def line_through(E: WeierstrassCurve, P: ECPoint, Q: ECPoint) -> Line:
    """Chord through P and Q, tangent if P == Q, vertical if Q = -P."""
    _require_on_curve(E, P)
    _require_on_curve(E, Q)
    if P.is_infinity or Q.is_infinity:
        raise InputError("chords are drawn between affine points")
    if _opposite(P, Q):
        return vertical_at(E, P)
    num, den = _slope(E, P, Q)
    xn, xd, yn, yd = P._k
    # c = y - lam * x over den * xd * yd
    key = _lowest(num, den) + (-1, 1) + _lowest(yn * den * xd - num * xn * yd, den * xd * yd)
    return _set_line(object.__new__(Line), key, "chord", P, Q)


def formal_line_divisor(E: WeierstrassCurve, line: Line, verified=None) -> dict:
    """Divisor of a tagged line by the accounting rules.

    vertical at P:      (P) + (-P) - 2(O)
    chord through P, Q: (P) + (Q) + (-(P+Q)) - 3(O)

    The tags are re-verified: every named point must lie on the curve
    and on the line.  verified is a set of points already found on E;
    the points tested here are added to it, so a caller checking several
    lines tests each distinct point on the curve once.
    """
    if verified is None:
        verified = set()
    if line.kind == "vertical":
        if line._k[2] != 0:
            raise InputError("vertical line with a Y coefficient")
        if line.other != -line.base:
            raise InputError("vertical tag must pair P with -P")
        points = (line.base, line.other)
    elif line.kind == "chord":
        third = -add(E, line.base, line.other)
        if third.is_infinity:
            raise InputError("degenerate chord: use a vertical tag instead")
        if line._vanishes(O):
            raise InputError("a chord must not pass through O")
        points = (line.base, line.other, third)
    else:
        raise InputError("unknown line kind %r" % (line.kind,))
    div = {}
    for pt in points:
        if pt not in verified:
            if not E.contains(pt):
                raise InputError("line does not pass through its tagged points")
            verified.add(pt)
        if not line._vanishes(pt):
            raise InputError("line does not pass through its tagged points")
        div[pt] = div.get(pt, 0) + 1
    div[O] = div.get(O, 0) - len(points)
    return {pt: mult for pt, mult in div.items() if mult}


def check_line_program(E: WeierstrassCurve, P: ECPoint, n: int, program) -> bool:
    """True iff the formal divisor of the program equals n(P) - n(O)."""
    total = {}
    verified = set()
    try:
        for line, exp in program:
            for pt, mult in formal_line_divisor(E, line, verified).items():
                total[pt] = total.get(pt, 0) + exp * mult
    except InputError:
        return False
    expected = {P: n, O: -n} if n != 0 and not P.is_infinity else {}
    return {pt: mult for pt, mult in total.items() if mult} == expected


def miller_function(E: WeierstrassCurve, P: ECPoint, n: int, multiples=None):
    """Straight-line program with formal divisor n(P) - n(O).

    Double-and-add on the multiple m*P; a doubling squares the program
    and appends tangent/vertical lines, an addition appends chord and
    vertical.  Verticals at O are skipped, which is what makes the
    divisor telescope once n*P = O.  The multiples m*P are read off the
    walk torsion_order filled, or one made here; a wrong list gives a
    program that the closing check_line_program refuses.
    """
    if multiples is None:
        multiples = _multiples(E, P)
    if not multiples[-1].is_infinity or len(multiples) != n:
        raise InputError("miller_function needs torsion_order(P) = n")
    if P.is_infinity:
        return ()  # n == 1, the constant function 1
    prog = []
    m, R = 1, P
    for bit in bin(n)[3:]:
        for entry in prog:
            entry[1] *= 2
        prog.append([line_through(E, R, R), 1])
        m *= 2
        R = multiples[m - 1]
        if not R.is_infinity:
            prog.append([vertical_at(E, R), -1])
        if bit == "1":
            prog.append([line_through(E, R, P), 1])
            m += 1
            R = multiples[m - 1]
            if not R.is_infinity:
                prog.append([vertical_at(E, R), -1])
    if not R.is_infinity:
        raise AssertionError("program did not land on O")
    out = tuple((line, e) for line, e in prog if e != 0)
    if not check_line_program(E, P, n, out):
        raise AssertionError("constructed program failed its own checker")
    return out


# classifier -----------------------------------------------------------------

CONE_FACTS = ("elliptic-cone-flat-always", "elliptic-cone-class-group",
              "graded-picard-trivial")
# flat by the cone's facts, with no torsion test for the other two answers
TORSION_UNDECIDED = Rule(YES, UNKNOWN, UNKNOWN, ("elliptic-cone-flat-always",))
TORSION_POINT = CLASS_TORSION.cite(CONE_FACTS)
NON_TORSION_POINT = CLASS_NON_TORSION.cite(CONE_FACTS, ("mazur-bound", "nagell-lutz"))


def classify_point(E: WeierstrassCurve, P: ECPoint) -> Verdict:
    """Verdict for V(p) at the prime of the cone over a rational point.

    The cone is a two-dimensional normal ring with trivial Picard group,
    so the universal and the classical answer agree: both hold exactly
    when the point is torsion.
    """
    _require_on_curve(E, P)
    ring_id, prime_description = E.spec(), repr(P)
    # the image of the class of the prime in E(Q) x Z/3
    cls = "(point %r, degree 1 mod 3)" % (P,)

    multiples = []
    try:
        order = torsion_order(E, P, multiples)
    except ModelNotIntegral:
        return TORSION_UNDECIDED(
            ring_id, prime_description,
            notes=("torsion of the point is undecided: the model is not integral, "
                   "so the integrality shortcut for torsion testing does not apply",))

    if order == INFINITE:
        return NON_TORSION_POINT(
            ring_id, prime_description, TorsionWitness(INFINITE, cls),
            notes=("the class of the prime is (P, 1 mod 3) with P non-torsion, "
                   "hence non-torsion in the class group",),
            torsion=INFINITE)

    program = miller_function(E, P, order, multiples)
    cl_order = lcm(order, 3)
    return TORSION_POINT(
        ring_id, prime_description, TorsionWitness(order, cls, program),
        notes=("the class of the prime has order %d in E(Q) x Z/3, so the "
               "%d-th power of the prime is principal" % (cl_order, cl_order),
               "the line program certifies a function with divisor "
               "%d(P) - %d(O)" % (order, order)),
        torsion=order)


# the command line ------------------------------------------------------------

def _parse_fraction(text: str) -> Fraction:
    try:
        return read_number(text.strip(), "a rational number", Fraction)
    except (ValueError, ZeroDivisionError):
        raise InputError("cannot read %s as a rational number" % quote(text)) from None


def _parse_curve(text: str, message: str) -> WeierstrassCurve:
    """The curve of "a,b", or an InputError with message."""
    parts = text.split(",")
    if len(parts) != 2:
        raise InputError(message)
    return WeierstrassCurve(_parse_fraction(parts[0]), _parse_fraction(parts[1]))


def _parse_point(text: str) -> ECPoint:
    text = text.strip()
    if text in ("O", "o", "inf", "infinity"):
        return O
    parts = text.split(",")
    if len(parts) != 2:
        raise InputError('point must be "x,y" or "O", got %s' % quote(text))
    return ECPoint(_parse_fraction(parts[0]), _parse_fraction(parts[1]))


def classify_ring(ring: str, prime_spec: str) -> Verdict:
    """`classify --ring ell:a,b --prime x,y`."""
    E = _parse_curve(ring.split(":", 1)[1], 'curve spec must look like "ell:a,b"')
    P = _parse_point(required(prime_spec, "elliptic rings need --prime with a point"))
    return classify_point(E, P)


def torsion_text(curve: str, point: str, as_json: bool) -> str:
    """What `ell torsion --curve a,b --point x,y` prints, in JSON or in text."""
    E = _parse_curve(curve, '--curve must look like "a,b"')
    P = _parse_point(point)
    order = torsion_order(E, P)  # ModelNotIntegral exits 4
    if not as_json:
        return "torsion: %s" % order
    return json_text({"schema": 1, "curve": E.spec(), "torsion": order,
                      "point": "O" if P.is_infinity else "%s,%s" % (P.x, P.y)})
