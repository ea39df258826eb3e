"""Bidegree trichotomy for the quadric cone k[X,Y,U,V]/(XU-YV).

Under the Segre embedding X -> S0*T0, Y -> S1*T0, U -> S1*T1,
V -> S0*T1, a height-one homogeneous prime p of the cone corresponds to
an irreducible bihomogeneous polynomial f_p in k[S0,S1,T0,T1], and the
bidegree (d, e) of f_p decides everything:

    d = 0 or e = 0        no flat epimorphism (H^2 witness),
    0 < d != e > 0        flat but not universal (class e - d is
                          non-torsion in Cl = Z),
    d = e                 classical; f_p pulls back to a principal
                          generator in X,Y,U,V.

A prime is the record of f_p alone.  A linear pair (g(X,Y), g(V,U)) or
(g(X,V), g(Y,U)) is the prime of the linear f_p = g(S0,S1) or g(T0,T1),
and a linear f_p describes itself by that pair.

Polynomials are sparse maps from exponent vectors to coefficients, each
an int, or a Fraction only when its denominator is not 1, so an f with
integer coefficients is read, embedded, lifted and printed without a
Fraction.  The embedding and its inverse act on the exponent vectors,
and a linear pair builds its linear forms from the coefficients.  A
linear prime becomes the coordinate pair (X, V) or (X, Y) under the
change X', Y', U', V' that completes g = (p, q) to a matrix
[[p, q], [r, t]] of nonzero determinant.  It preserves the quadric:
X'U' - Y'V' multiplies out as

    (pX + qY)(rV + tU) - (rX + tY)(pV + qU) = (pt - qr)(XU - YV)   (XY-VU)
    (pX + qV)(rY + tU) - (pY + qU)(rX + tV) = (pt - qr)(XU - YV)   (XV-YU)

for every p, q, r, t.  The H^2 certificate of the pair is
lcohom.quadric_certificate, the one that decides the coordinate primes
of the hypersurface.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import isqrt

from . import lcohom
from .errors import InputError, record
from .verdict import (CLASS_NON_TORSION, CLASSICAL, COHOMOLOGY_VIA_QUOTIENT,
                      INFINITE, UNDECIDED, CohomologyWitness, PrincipalElement,
                      TorsionWitness, Verdict, check_printable, read_number,
                      render_rational)

S_NAMES = ("S0", "S1", "T0", "T1")
XYUV_NAMES = ("X", "Y", "U", "V")

ORIENT_XY_VU = "XY-VU"
ORIENT_XV_YU = "XV-YU"


# sparse exact polynomials --------------------------------------------------

@record
class Polynomial:
    """Sparse polynomial with rational coefficients on named variables.

    Built by make (or parse_polynomial); it has coefficient, is_zero and
    render.  terms is kept sorted by descending exponent tuple, zero
    coefficients dropped, and each coefficient is an int, or a Fraction
    whose denominator is not 1, so equal polynomials compare equal
    structurally.
    """

    names: tuple
    terms: tuple  # ((exponents, coefficient), ...)

    @classmethod
    def make(cls, names, mapping) -> "Polynomial":
        names = tuple(names)
        clean = {}
        for expo, c in mapping.items():
            expo = tuple(int(x) for x in expo)
            if len(expo) != len(names) or any(x < 0 for x in expo):
                raise InputError("bad exponent vector %r" % (expo,))
            if type(c) is not int and type(c) is not Fraction:
                c = Fraction(c)
            if c:
                clean[expo] = clean.get(expo, 0) + c
        # exponent vectors are distinct, so the pairs sort by them alone
        terms = tuple(sorted(((e, c.numerator if c.denominator == 1 else c)
                              for e, c in clean.items() if c), reverse=True))
        return cls(names, terms)

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, expo):
        return dict(self.terms).get(tuple(expo), 0)

    def render(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for expo, c in self.terms:
            factors = []
            for name, e in zip(self.names, expo):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append("%s^%d" % (name, e))
            mag = abs(c)
            if not factors:
                body = render_rational(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([render_rational(mag)] + factors)
            sign = ("- " if c < 0 else "+ ") if parts else ("-" if c < 0 else "")
            parts.append(sign + body)
        return " ".join(parts)

    def __repr__(self):
        return "Polynomial(%s)" % self.render()


_TOKEN = re.compile(r"\d+|[A-Za-z][A-Za-z0-9]*|[\^*+/-]")


def parse_polynomial(text: str, names) -> Polynomial:
    """Parse +, -, * and ^ with integer or rational coefficients.

    No parentheses: the grammar is a signed sum of products, which is
    all the CLI promises.
    """
    names = tuple(names)
    stripped = re.sub(r"\s+", "", text)
    tokens = _TOKEN.findall(stripped)
    if "".join(tokens) != stripped:
        raise InputError("cannot tokenize polynomial %r" % (text,))
    if not tokens:
        raise InputError("empty polynomial")

    # split into terms at top-level signs
    groups = []
    sign = 1
    current = []
    started = False
    for tok in tokens:
        if tok in "+-" and (not started or current):
            if current:
                groups.append((sign, current))
                current = []
                sign = 1
            if tok == "-":
                sign = -sign
            started = True
            continue
        started = True
        current.append(tok)
    if not current:
        raise InputError("dangling sign in %r" % (text,))
    groups.append((sign, current))

    total = {}
    zero = (0,) * len(names)
    for sign, toks in groups:
        coeff = sign
        expo = list(zero)
        i = 0
        expecting_factor = True
        while i < len(toks):
            tok = toks[i]
            if tok == "*":
                if expecting_factor:
                    raise InputError("misplaced '*' in %r" % (text,))
                expecting_factor = True
                i += 1
                continue
            if not expecting_factor:
                raise InputError("missing '*' before %r in %r" % (tok, text))
            if tok.isdigit():
                num = read_number(tok, "the polynomial")
                if i + 2 < len(toks) and toks[i + 1] == "/" and toks[i + 2].isdigit():
                    den = read_number(toks[i + 2], "the polynomial")
                    if den == 0:
                        raise InputError("zero denominator in %r" % (text,))
                    coeff *= Fraction(num, den)
                    i += 3
                else:
                    coeff *= num
                    i += 1
            elif tok in names:
                power = 1
                if i + 1 < len(toks) and toks[i + 1] == "^":
                    if i + 2 >= len(toks) or not toks[i + 2].isdigit():
                        raise InputError("'^' needs an integer exponent in %r" % (text,))
                    power = read_number(toks[i + 2], "the polynomial")
                    i += 3
                else:
                    i += 1
                j = names.index(tok)
                expo[j] += power
            elif re.fullmatch(r"[A-Za-z][A-Za-z0-9]*", tok):
                raise InputError("unknown variable %r (expected one of %s)"
                                 % (tok, ", ".join(names)))
            else:
                raise InputError("unexpected %r in %r" % (tok, text))
            expecting_factor = False
        if expecting_factor:
            raise InputError("term ends with '*' in %r" % (text,))
        key = tuple(expo)
        total[key] = total.get(key, 0) + coeff
    return Polynomial.make(names, total)


# the Segre side ------------------------------------------------------------

@record
class BihomogPoly:
    """Polynomial in S0,S1,T0,T1, homogeneous in S and in T separately."""

    poly: Polynomial

    def __post_init__(self):
        if self.poly.names != S_NAMES:
            raise InputError("BihomogPoly lives on %s" % (S_NAMES,))
        if self.poly.is_zero():
            raise InputError("zero polynomial has no bidegree")
        degs = {(e[0] + e[1], e[2] + e[3]) for e, _ in self.poly.terms}
        # exponents add up to the degrees, which the answer prints
        check_printable((d for deg in degs for d in deg), "an S or T degree of f")
        if len(degs) != 1:
            raise InputError("not bihomogeneous: S,T degrees %s" % sorted(degs))

    @classmethod
    def from_terms(cls, mapping) -> "BihomogPoly":
        return cls(Polynomial.make(S_NAMES, mapping))

    @classmethod
    def from_string(cls, text: str) -> "BihomogPoly":
        return cls(parse_polynomial(text, S_NAMES))

    @property
    def terms(self):
        return self.poly.terms

    def bidegree(self):
        """(degree in S0,S1, degree in T0,T1)."""
        e = self.poly.terms[0][0]
        return (e[0] + e[1], e[2] + e[3])

    def render(self) -> str:
        return self.poly.render()

    def __repr__(self):
        return "BihomogPoly(%s)" % self.render()


def embed_xyuv(poly: Polynomial) -> BihomogPoly:
    """Push a polynomial in X,Y,U,V through the embedding, a monomial map:
    X^x Y^y U^u V^v goes to S0^(x+v) S1^(y+u) T0^(x+y) T1^(u+v), and the
    coefficients of monomials with one image add up.

    >>> xu = parse_polynomial("X*U", XYUV_NAMES)
    >>> embed_xyuv(xu) == embed_xyuv(parse_polynomial("Y*V", XYUV_NAMES))
    True
    >>> embed_xyuv(xu).render()
    'S0*S1*T0*T1'
    """
    if poly.names != XYUV_NAMES:
        raise InputError("expected a polynomial in %s" % (XYUV_NAMES,))
    out = {}
    for (x, y, u, v), c in poly.terms:
        key = (x + v, y + u, x + y, u + v)
        out[key] = out.get(key, 0) + c
    return BihomogPoly.from_terms(out)


def to_xyuv(f: BihomogPoly) -> Polynomial:
    """Pull a bidegree (d, d) polynomial back along the embedding.

    Each monomial S0^e0 S1^e1 T0^f0 T1^f1 with e0+e1 = f0+f1 lifts to
    X^a Y^c U^d V^b; the lift is pinned down by taking the X exponent
    maximal, which picks XU rather than YV on the ambiguous monomials.
    The result is verified by embedding it again.

    >>> to_xyuv(BihomogPoly.from_string("S0*S1*T0*T1")).render()
    'X*U'
    """
    d, e = f.bidegree()
    if d != e:
        raise InputError(
            "bidegree (%d, %d) is not in the image of the embedding" % (d, e))
    out = {}
    for (e0, e1, f0, f1), c in f.terms:
        alpha = min(e0, f0)
        beta = e0 - alpha
        gamma = f0 - alpha
        delta = e1 - gamma
        if min(alpha, beta, gamma, delta) < 0:
            raise AssertionError("lift has a negative exponent")
        key = (alpha, gamma, delta, beta)  # X, Y, U, V
        out[key] = out.get(key, 0) + c
    lifted = Polynomial.make(XYUV_NAMES, out)
    if embed_xyuv(lifted).poly != f.poly:
        raise AssertionError("lift failed the embedding round trip")
    return lifted


# the prime and its polynomial ---------------------------------------------

def _linear(**coefficients) -> Polynomial:
    """The linear form in X,Y,U,V with the given coefficients: _linear(X=p, Y=q)."""
    return Polynomial.make(XYUV_NAMES, {
        tuple(int(n == name) for n in XYUV_NAMES): c for name, c in coefficients.items()})


# f = p*S0 + q*S1 is the prime (g(X,Y), g(V,U)), f = p*T0 + q*T1 is
# (g(X,V), g(Y,U)), with g = (p, q)
_LINEAR_MONOMIALS = {ORIENT_XY_VU: ((1, 0, 0, 0), (0, 1, 0, 0)),
                     ORIENT_XV_YU: ((0, 0, 1, 0), (0, 0, 0, 1))}


@record
class SegrePrime:
    """The height-one prime of the cone cut out by an irreducible
    bihomogeneous f.

    A linear f is a pair of linear forms and describes itself by them.
    Irreducibility is checked exactly in total degree <= 2; above that
    it must be asserted by the caller and the assertion is recorded.

    >>> SegrePrime.linear(1, 1, ORIENT_XY_VU) == SegrePrime.poly("S0 + S1")
    True
    >>> SegrePrime.linear(1, 1, ORIENT_XY_VU).describe()
    '(X + Y, U + V)'
    """

    f: BihomogPoly
    irreducible_asserted: bool = False

    def __post_init__(self):
        if not isinstance(self.f, BihomogPoly):
            raise InputError("a Segre prime is given by a BihomogPoly f")
        if self.f.bidegree() == (0, 0):
            raise InputError("constant polynomial does not define a prime")

    @classmethod
    def linear(cls, p, q, orientation) -> "SegrePrime":
        """The prime (g(X,Y), g(V,U)) or (g(X,V), g(Y,U)) for g = (p, q)."""
        if orientation not in (ORIENT_XY_VU, ORIENT_XV_YU):
            raise InputError("orientation must be %s or %s"
                             % (ORIENT_XY_VU, ORIENT_XV_YU))
        if p == 0 and q == 0:
            raise InputError("g must be a nonzero linear form")
        s, t = _LINEAR_MONOMIALS[orientation]
        return cls(BihomogPoly.from_terms({s: p, t: q}))

    @classmethod
    def poly(cls, f, irreducible: bool = False) -> "SegrePrime":
        if isinstance(f, str):
            f = BihomogPoly.from_string(f)
        return cls(f, irreducible)

    def pair(self):
        """(g, orientation) when f is linear, None otherwise."""
        d, e = self.f.bidegree()
        if d + e != 1:
            return None
        orientation = ORIENT_XY_VU if e == 0 else ORIENT_XV_YU
        return (tuple(self.f.poly.coefficient(m) for m in _LINEAR_MONOMIALS[orientation]),
                orientation)

    def describe(self) -> str:
        pair = self.pair()
        if pair is None:
            d, e = self.f.bidegree()
            return "V(f), f = %s, bidegree (%d, %d)" % (self.f.render(), d, e)
        (p, q), orientation = pair
        if orientation == ORIENT_XY_VU:
            members = (_linear(X=p, Y=q), _linear(V=p, U=q))
        else:
            members = (_linear(X=p, V=q), _linear(Y=p, U=q))
        a, b = sorted(members, key=lambda m: m.terms[0][0], reverse=True)
        return "(%s, %s)" % (a.render(), b.render())


# the four coordinate primes, keyed by generator set
COORDINATE_PAIRS = {
    frozenset({"X", "V"}): ((1, 0), ORIENT_XY_VU),
    frozenset({"Y", "U"}): ((0, 1), ORIENT_XY_VU),
    frozenset({"X", "Y"}): ((1, 0), ORIENT_XV_YU),
    frozenset({"U", "V"}): ((0, 1), ORIENT_XV_YU),
}


def coordinate_prime(names) -> SegrePrime:
    key = frozenset(names)
    if key not in COORDINATE_PAIRS:
        raise InputError(
            "coordinate primes are (X,V), (Y,U), (X,Y), (U,V); got (%s)"
            % ", ".join(sorted(names)))
    (p, q), orientation = COORDINATE_PAIRS[key]
    return SegrePrime.linear(p, q, orientation)


def psi(p: SegrePrime):
    """Bidegree of the defining polynomial f_p."""
    return p.f.bidegree()


# irreducibility in low degree ----------------------------------------------

def _is_rational_square(q) -> bool:
    if q < 0:
        return False
    rn, rd = isqrt(q.numerator), isqrt(q.denominator)
    return rn * rn == q.numerator and rd * rd == q.denominator


def is_irreducible(f: BihomogPoly):
    """True/False for total degree <= 2.  Above that, False when a variable
    divides every term, else None (undecided)."""
    d, e = f.bidegree()
    if d + e <= 1:
        return True
    if (d, e) == (1, 1):
        m = [[f.poly.coefficient((1, 0, 1, 0)), f.poly.coefficient((1, 0, 0, 1))],
             [f.poly.coefficient((0, 1, 1, 0)), f.poly.coefficient((0, 1, 0, 1))]]
        return m[0][0] * m[1][1] - m[0][1] * m[1][0] != 0
    if (d, e) in ((2, 0), (0, 2)):
        # a*u^2 + b*u*v + c*v^2 splits over Q exactly when b^2 - 4ac is a square
        a, b, c = (f.poly.coefficient((i, 2 - i, 0, 0) if d else (0, 0, i, 2 - i))
                   for i in (2, 1, 0))
        return not _is_rational_square(b * b - 4 * a * c)
    # a variable whose exponent is positive in every term splits off f = v*g,
    # and g has degree at least 2, so it is not a unit
    if any(all(column) for column in zip(*(expo for expo, _ in f.terms))):
        return False
    return None


# the classifier ------------------------------------------------------------

ONE_SIDED = COHOMOLOGY_VIA_QUOTIENT.cite(("segre-trichotomy",))
UNBALANCED = CLASS_NON_TORSION.cite(("segre-trichotomy", "segre-class-rho"))
BALANCED = CLASSICAL.cite(("segre-trichotomy",))


def _classify_linear(p: SegrePrime) -> Verdict:
    (a, b), orientation = p.pair()
    ideal = ("X", "V") if orientation == ORIENT_XY_VU else ("X", "Y")
    kill, quotient, out = lcohom.quadric_certificate(ideal)
    steps = []
    if (a, b) != (1, 0):
        # complete g to [[a, b], [r, t]]; the module docstring multiplies it out
        r, t = (0, 1) if a else (1, 0)
        det = render_rational(a * t - b * r)
        steps.append("coordinate change [[%s, %s], [%d, %d]] with determinant %s; "
                     "the relation transforms as X'U' - Y'V' = %s * (XU - YV) and "
                     "the prime becomes (%s)"
                     % (render_rational(a), render_rational(b), r, t, det, det,
                        ", ".join(ideal)))
    steps.append("kill %s: the quotient is the monomial ring %s and "
                 "top-degree right-exactness carries its H^2 class back"
                 % (kill, quotient.describe()))
    steps.append(out.note)
    witness = CohomologyWitness(
        algebra=quotient.describe(),
        ideal=ideal,
        degree=2,
        multidegree=out.witness,
        steps=tuple(steps),
    )
    return ONE_SIDED("segre", p.describe(), witness,
                     notes=("bidegree (%d, %d) is one sided" % psi(p),))


def classify_segre(p: SegrePrime) -> Verdict:
    """Decide flat / universal / classical for a height-one prime of the cone.

    A linear f always lands in the no-flat-epimorphism case.  Otherwise
    the bidegree trichotomy applies once irreducibility is known;
    one-sided nonlinear f is answered "unknown" because its
    classification needs an algebraically closed ground field.
    """
    f = p.f
    d, e = f.bidegree()
    if d + e == 1:
        return _classify_linear(p)
    known = is_irreducible(f)
    if known is False:
        raise InputError("f = %s is reducible, it does not define a prime"
                         % f.render())

    notes = []
    if known is None:
        # above total degree 2 irreducibility is a precondition on the
        # caller; the verdict records whether it was explicitly asserted
        notes.append("irreducibility asserted by caller, not verified"
                     if p.irreducible_asserted else
                     "irreducibility assumed, it is only checked up to "
                     "total degree 2")

    if d == 0 or e == 0:
        return UNDECIDED(
            "segre", p.describe(),
            notes=tuple(notes) + (
                "one-sided bidegree (%d, %d) with nonlinear f: the "
                "classification of this case assumes an algebraically closed "
                "ground field, which Q is not; no verdict" % (d, e),))

    if d != e:
        witness = TorsionWitness(
            order=INFINITE,
            class_description="the prime maps to rho = e - d = %+d in Cl = Z, "
                              "which has infinite order" % (e - d),
        )
        return UNBALANCED("segre", p.describe(), witness, notes)

    generator = to_xyuv(f)
    return BALANCED(
        "segre", p.describe(), PrincipalElement(generator.render()),
        notes=tuple(notes) + (
            "the prime is principal, so inverting powers of the generator "
            "gives the classical ring of fractions",))
