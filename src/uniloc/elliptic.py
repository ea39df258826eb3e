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

The group law works on the integer numerators and denominators of the
coordinates: a slope is kept as an integer pair, each new coordinate is
built over a common denominator and normalised by one Fraction at the
end, and membership on the curve compares two integer products.  Every
check stays: each operation still verifies that its inputs lie on the
curve, and the line-program checker re-derives each chord's third point
through the group law.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import InconclusiveError, InputError, record
from .verdict import (CLASS_NON_TORSION, CLASS_TORSION, FLAT_ONLY, INFINITE,
                      TorsionWitness, Verdict, render_rational)

# orders allowed for rational torsion points; 11 and anything above 12 cannot occur
MAZUR_ORDERS = frozenset([1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12])


class ModelNotIntegral(InconclusiveError):
    """Torsion testing needs integer curve coefficients."""


@record
class ECPoint:
    x: object = None  # Fraction, or None for the point at infinity
    y: object = None

    def __post_init__(self):
        if (self.x is None) != (self.y is None):
            raise InputError("affine points need both coordinates")
        if self.x is not None:
            if type(self.x) is not Fraction:
                object.__setattr__(self, "x", Fraction(self.x))
            if type(self.y) is not Fraction:
                object.__setattr__(self, "y", Fraction(self.y))

    def _key(self):
        # Fractions are normalised, so equal points have equal integer pairs
        if self.x is None:
            return None
        return (self.x.numerator, self.x.denominator,
                self.y.numerator, self.y.denominator)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def __repr__(self):
        if self.is_infinity:
            return "O"
        return "(%s, %s)" % (render_rational(self.x), render_rational(self.y))


O = ECPoint()


@record
class WeierstrassCurve:
    a: Fraction
    b: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))
        if self.discriminant == 0:
            raise InputError("singular model: discriminant is zero")

    @property
    def discriminant(self) -> Fraction:
        return -16 * (4 * self.a ** 3 + 27 * self.b ** 2)

    @property
    def is_integral(self) -> bool:
        return self.a.denominator == 1 and self.b.denominator == 1

    def contains(self, P: ECPoint) -> bool:
        if P.is_infinity:
            return True
        # y^2 = x^3 + a*x + b, both sides times yd^2 * xd^3 * ad * bd
        xn, xd = P.x.numerator, P.x.denominator
        yn, yd = P.y.numerator, P.y.denominator
        an, ad = self.a.numerator, self.a.denominator
        bn, bd = self.b.numerator, self.b.denominator
        xd3 = xd * xd * xd
        return yn * yn * xd3 * ad * bd == yd * yd * (
            (xn * xn * xn * ad + an * xn * xd * xd) * bd + bn * xd3 * ad)

    def spec(self) -> str:
        return "ell:%s,%s" % (render_rational(self.a), render_rational(self.b))

    def __repr__(self):
        return "y^2 = x^3 + (%s)x + (%s)" % (render_rational(self.a), render_rational(self.b))


def _require_on_curve(E: WeierstrassCurve, P: ECPoint):
    if not E.contains(P):
        raise InputError("point %r is not on %r" % (P, E))


def negate(E: WeierstrassCurve, P: ECPoint) -> ECPoint:
    _require_on_curve(E, P)
    if P.is_infinity:
        return P
    return ECPoint(P.x, -P.y)


def _slope(E: WeierstrassCurve, P: ECPoint, Q: ECPoint):
    """(num, den) with num/den the tangent slope at P if P == Q, else the
    chord slope through P and Q; both affine, and not Q = -P."""
    x1n, x1d = P.x.numerator, P.x.denominator
    y1n, y1d = P.y.numerator, P.y.denominator
    if P == Q:
        # (3*x^2 + a) / (2*y)
        an, ad = E.a.numerator, E.a.denominator
        return (3 * x1n * x1n * ad + an * x1d * x1d) * y1d, 2 * y1n * x1d * x1d * ad
    x2n, x2d = Q.x.numerator, Q.x.denominator
    y2n, y2d = Q.y.numerator, Q.y.denominator
    # (y2 - y1) / (x2 - x1)
    return (y2n * y1d - y1n * y2d) * x1d * x2d, (x2n * x1d - x1n * x2d) * y1d * y2d


def add(E: WeierstrassCurve, P: ECPoint, Q: ECPoint) -> ECPoint:
    _require_on_curve(E, P)
    _require_on_curve(E, Q)
    if P.is_infinity:
        return Q
    if Q.is_infinity:
        return P
    if P.x == Q.x and P.y == -Q.y:
        return O
    num, den = _slope(E, P, Q)
    x1n, x1d = P.x.numerator, P.x.denominator
    x2n, x2d = Q.x.numerator, Q.x.denominator
    y1n, y1d = P.y.numerator, P.y.denominator
    # x3 = lam^2 - x1 - x2 over den^2 * x1d * x2d
    x3 = Fraction(num * num * x1d * x2d - (x1n * x2d + x2n * x1d) * den * den,
                  den * den * x1d * x2d)
    # y3 = lam * (x1 - x3) - y1 over den * x1d * x3d * y1d
    x3n, x3d = x3.numerator, x3.denominator
    y3 = Fraction(num * (x1n * x3d - x3n * x1d) * y1d - y1n * den * x1d * x3d,
                  den * x1d * x3d * y1d)
    return ECPoint(x3, y3)


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


def torsion_order(E: WeierstrassCurve, P: ECPoint):
    """Least n with n*P = O, or INFINITE.

    Only multiples up to 12 are tested (no larger order occurs over Q),
    and any non-integral multiple ends the search early, since torsion
    points on an integral model have integer coordinates.
    """
    _require_on_curve(E, P)
    if P.is_infinity:
        return 1
    if not E.is_integral:
        raise ModelNotIntegral(
            "torsion test needs integer coefficients, got %r" % (E,))
    Q = P
    for n in range(1, 13):
        if Q.is_infinity:
            if n not in MAZUR_ORDERS:
                raise AssertionError("impossible rational torsion order %d" % n)
            return n
        if Q.x.denominator != 1 or Q.y.denominator != 1:
            return INFINITE
        Q = add(E, Q, P)
    return INFINITE


# line programs for torsion certificates ------------------------------------

@record
class Line:
    """A projective line a*X + b*Y + c*Z tagged with how it was drawn.

    kind "vertical" runs through base, -base and O; kind "chord" (which
    includes tangents, base == other) runs through base, other and the
    negated sum.  The tags carry exactly the information the formal
    divisor checker needs.
    """

    a: Fraction
    b: Fraction
    c: Fraction
    kind: str
    base: ECPoint
    other: ECPoint

    def evaluate(self, P: ECPoint) -> Fraction:
        if P.is_infinity:
            return Fraction(self.b)  # value at (0 : 1 : 0)
        # a*x + b*y + c over (ad * xd) * (bd * yd) * cd
        ax_d = self.a.denominator * P.x.denominator
        by_d = self.b.denominator * P.y.denominator
        cd = self.c.denominator
        return Fraction((self.a.numerator * P.x.numerator * by_d
                         + self.b.numerator * P.y.numerator * ax_d) * cd
                        + self.c.numerator * ax_d * by_d, ax_d * by_d * cd)

    def form_str(self) -> str:
        parts = []
        for coeff, var in ((self.a, "X"), (self.b, "Y"), (self.c, "Z")):
            if coeff == 0:
                continue
            s = render_rational(abs(coeff))
            term = var if abs(coeff) == 1 else "%s*%s" % (s, var)
            parts.append(("- " if coeff < 0 else ("+ " if parts else "")) + term)
        return " ".join(parts) if parts else "0"

    def to_json(self):
        return {
            "form": self.form_str(),
            "kind": self.kind,
            "through": [repr(self.base), repr(self.other)],
        }


def vertical_at(E: WeierstrassCurve, P: ECPoint) -> Line:
    _require_on_curve(E, P)
    if P.is_infinity:
        raise InputError("no vertical line is taken at O")
    return Line(Fraction(1), Fraction(0), -P.x, "vertical", P, negate(E, P))


def line_through(E: WeierstrassCurve, P: ECPoint, Q: ECPoint) -> Line:
    """Chord through P and Q, tangent if P == Q, vertical if Q = -P."""
    _require_on_curve(E, P)
    _require_on_curve(E, Q)
    if P.is_infinity or Q.is_infinity:
        raise InputError("chords are drawn between affine points")
    if P.x == Q.x and P.y == -Q.y:
        return vertical_at(E, P)
    num, den = _slope(E, P, Q)
    xn, xd = P.x.numerator, P.x.denominator
    yn, yd = P.y.numerator, P.y.denominator
    # c = y - lam * x over den * xd * yd
    return Line(Fraction(num, den), Fraction(-1),
                Fraction(yn * den * xd - num * xn * yd, den * xd * yd), "chord", P, Q)


def formal_line_divisor(E: WeierstrassCurve, line: Line) -> dict:
    """Divisor of a tagged line by the accounting rules.

    vertical at P:      (P) + (-P) - 2(O)
    chord through P, Q: (P) + (Q) + (-(P+Q)) - 3(O)

    The tags are re-verified: every named point must lie on the curve
    and on the line.
    """
    div = {}

    def bump(pt, n):
        div[pt] = div.get(pt, 0) + n
        if div[pt] == 0:
            del div[pt]

    if line.kind == "vertical":
        if line.b != 0:
            raise InputError("vertical line with a Y coefficient")
        if line.other != negate(E, line.base):
            raise InputError("vertical tag must pair P with -P")
        for pt in (line.base, line.other):
            if not E.contains(pt) or line.evaluate(pt) != 0:
                raise InputError("line does not pass through its tagged points")
        bump(line.base, 1)
        bump(line.other, 1)
        bump(O, -2)
    elif line.kind == "chord":
        third = negate(E, add(E, line.base, line.other))
        if third.is_infinity:
            raise InputError("degenerate chord: use a vertical tag instead")
        if line.evaluate(O) == 0:
            raise InputError("a chord must not pass through O")
        for pt in (line.base, line.other, third):
            if not E.contains(pt) or line.evaluate(pt) != 0:
                raise InputError("line does not pass through its tagged points")
        bump(line.base, 1)
        bump(line.other, 1)
        bump(third, 1)
        bump(O, -3)
    else:
        raise InputError("unknown line kind %r" % (line.kind,))
    return div


def check_line_program(E: WeierstrassCurve, P: ECPoint, n: int, program) -> bool:
    """True iff the formal divisor of the program equals n(P) - n(O)."""
    total = {}
    try:
        for line, exp in program:
            for pt, mult in formal_line_divisor(E, line).items():
                total[pt] = total.get(pt, 0) + exp * mult
                if total[pt] == 0:
                    del total[pt]
    except InputError:
        return False
    expected = {}
    if n != 0 and not P.is_infinity:
        expected = {P: n, O: -n}
    return total == expected


def miller_function(E: WeierstrassCurve, P: ECPoint, n: int):
    """Straight-line program with formal divisor n(P) - n(O).

    Double-and-add on the multiple m*P; a doubling squares the program
    and appends tangent/vertical lines, an addition appends chord and
    vertical.  Verticals at O are skipped, which is what makes the
    divisor telescope once n*P = O.
    """
    if torsion_order(E, P) != n:
        raise InputError("miller_function needs torsion_order(P) = n")
    if P.is_infinity:
        return ()  # n == 1, the constant function 1
    prog = []

    def emit(line, e=1):
        prog.append([line, e])

    R = P
    for bit in bin(n)[3:]:
        for entry in prog:
            entry[1] *= 2
        emit(line_through(E, R, R))
        R2 = add(E, R, R)
        if not R2.is_infinity:
            emit(vertical_at(E, R2), -1)
        R = R2
        if bit == "1":
            emit(line_through(E, R, P))
            R1 = add(E, R, P)
            if not R1.is_infinity:
                emit(vertical_at(E, R1), -1)
            R = R1
    if not R.is_infinity:
        raise AssertionError("program did not land on O")
    out = tuple((line, e) for line, e in prog if e != 0)
    if not check_line_program(E, P, n, out):
        raise AssertionError("constructed program failed its own checker")
    return out


# classifier -----------------------------------------------------------------

CONE_FACTS = ("elliptic-cone-flat-always", "elliptic-cone-class-group",
              "graded-picard-trivial")
TORSION_UNDECIDED = FLAT_ONLY.cite(("elliptic-cone-flat-always",))
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

    try:
        order = torsion_order(E, P)
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
            extra=(("torsion", INFINITE),))

    program = miller_function(E, P, order)
    cl_order = lcm(order, 3)
    return TORSION_POINT(
        ring_id, prime_description, TorsionWitness(order, cls, program),
        notes=("the class of the prime has order %d in E(Q) x Z/3, so the "
               "%d-th power of the prime is principal" % (cl_order, cl_order),
               "the line program certifies a function with divisor "
               "%d(P) - %d(O)" % (order, order)),
        extra=(("torsion", order),))
