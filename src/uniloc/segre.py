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

Primes are entered either by f_p directly or, in the one-sided case, as
a linear pair (g(X,Y), g(V,U)) or (g(X,V), g(Y,U)).

Polynomials are sparse maps from exponent vectors to rationals.  The
embedding and its inverse act on the exponent vectors; a linear pair and
a coordinate change build their linear forms from the coefficients, and
the change checks itself by multiplying out the quadric relation.  The
H^2 certificate of a linear pair is lcohom.quadric_certificate, the one
that decides the coordinate primes of the hypersurface.
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
    """Sparse polynomial with Fraction coefficients on named variables.

    Built by make (or parse_polynomial); it has coefficient, is_zero, +,
    -, * and render, and a scalar is a constant polynomial.  terms is
    kept sorted by descending exponent tuple, zero coefficients dropped,
    so equal polynomials compare equal structurally.
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
            c = Fraction(c)
            if c:
                clean[expo] = clean.get(expo, Fraction(0)) + c
        terms = tuple(sorted(((e, c) for e, c in clean.items() if c),
                             key=lambda t: t[0], reverse=True))
        return cls(names, terms)

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, expo) -> Fraction:
        expo = tuple(expo)
        for e, c in self.terms:
            if e == expo:
                return c
        return Fraction(0)

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in other.terms:
            out[e] = out.get(e, Fraction(0)) + c
        return Polynomial.make(self.names, out)

    def __neg__(self):
        return Polynomial.make(self.names, {e: -c for e, c in self.terms})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return Polynomial.make(self.names, out)

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
            parts.append(("-" if c < 0 else "+", body))
        sign, body = parts[0]
        text = ("-" if sign == "-" else "") + body
        for sign, body in parts[1:]:
            text += " %s %s" % (sign, body)
        return text

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
        coeff = Fraction(sign)
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
        total[key] = total.get(key, Fraction(0)) + coeff
    poly = Polynomial.make(names, total)
    return poly


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

    >>> X, Y, U, V = (parse_polynomial(n, XYUV_NAMES) for n in XYUV_NAMES)
    >>> embed_xyuv(X * U) == embed_xyuv(Y * V)
    True
    >>> embed_xyuv(X * U).render()
    'S0*S1*T0*T1'
    """
    if poly.names != XYUV_NAMES:
        raise InputError("expected a polynomial in %s" % (XYUV_NAMES,))
    out = {}
    for (x, y, u, v), c in poly.terms:
        key = (x + v, y + u, x + y, u + v)
        out[key] = out.get(key, Fraction(0)) + c
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
        assert min(alpha, beta, gamma, delta) >= 0
        key = (alpha, gamma, delta, beta)  # X, Y, U, V
        out[key] = out.get(key, Fraction(0)) + c
    lifted = Polynomial.make(XYUV_NAMES, out)
    if embed_xyuv(lifted).poly != f.poly:
        raise AssertionError("lift failed the embedding round trip")
    return lifted


# prime presentations -------------------------------------------------------

def _linear(**coefficients) -> Polynomial:
    """The linear form in X,Y,U,V with the given coefficients: _linear(X=p, Y=q)."""
    return Polynomial.make(XYUV_NAMES, {
        tuple(int(n == name) for n in XYUV_NAMES): c for name, c in coefficients.items()})


@record
class LinearPair:
    """The prime (g(X,Y), g(V,U)) or (g(X,V), g(Y,U)) for linear g."""

    g: tuple  # (p, q), not both zero
    orientation: str

    def __post_init__(self):
        if self.orientation not in (ORIENT_XY_VU, ORIENT_XV_YU):
            raise InputError("orientation must be %s or %s"
                             % (ORIENT_XY_VU, ORIENT_XV_YU))
        p, q = (Fraction(x) for x in self.g)
        if p == 0 and q == 0:
            raise InputError("g must be a nonzero linear form")
        object.__setattr__(self, "g", (p, q))

    def members(self):
        """The two ideal generators, as polynomials in X,Y,U,V."""
        p, q = self.g
        if self.orientation == ORIENT_XY_VU:
            pair = (_linear(X=p, Y=q), _linear(V=p, U=q))
        else:
            pair = (_linear(X=p, V=q), _linear(Y=p, U=q))
        return tuple(sorted(pair, key=lambda m: m.terms[0][0], reverse=True))

    def f_poly(self) -> BihomogPoly:
        p, q = self.g
        if self.orientation == ORIENT_XY_VU:
            return BihomogPoly.from_terms({(1, 0, 0, 0): p, (0, 1, 0, 0): q})
        return BihomogPoly.from_terms({(0, 0, 1, 0): p, (0, 0, 0, 1): q})

    def describe(self) -> str:
        a, b = self.members()
        return "(%s, %s)" % (a.render(), b.render())


@record
class PolyPrime:
    """The prime cut out by an irreducible bihomogeneous f.

    Irreducibility is checked exactly in total degree <= 2; above that
    it must be asserted by the caller and the assertion is recorded.
    """

    f: BihomogPoly
    irreducible_asserted: bool = False

    def __post_init__(self):
        if self.f.bidegree() == (0, 0):
            raise InputError("constant polynomial does not define a prime")

    def describe(self) -> str:
        d, e = self.f.bidegree()
        return "V(f), f = %s, bidegree (%d, %d)" % (self.f.render(), d, e)


@record
class SegrePrime:
    presentation: object  # LinearPair or PolyPrime

    def __post_init__(self):
        if not isinstance(self.presentation, (LinearPair, PolyPrime)):
            raise InputError("presentation must be LinearPair or PolyPrime")

    @classmethod
    def linear(cls, p, q, orientation) -> "SegrePrime":
        return cls(LinearPair((p, q), orientation))

    @classmethod
    def poly(cls, f, irreducible: bool = False) -> "SegrePrime":
        if isinstance(f, str):
            f = BihomogPoly.from_string(f)
        return cls(PolyPrime(f, irreducible))

    def f_poly(self) -> BihomogPoly:
        if isinstance(self.presentation, LinearPair):
            return self.presentation.f_poly()
        return self.presentation.f

    def describe(self) -> str:
        return self.presentation.describe()


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
    return p.f_poly().bidegree()


# case-1 coordinate normalization -------------------------------------------

@record
class CoordinateChange:
    """Invertible 2x2 change taking the linear form g to a coordinate.

    The rows act on (X,Y)/(V,U) or on (X,V)/(Y,U) according to the
    orientation; verify() substitutes into the quadric relation and
    checks X'U' - Y'V' = det * (XU - YV), so the transformed ring is the
    same quadric cone and the prime becomes the coordinate pair in
    `normalized`.
    """

    matrix: tuple  # ((p, q), (r, t)) with determinant != 0
    det: Fraction
    orientation: str
    normalized: tuple  # ("X", "V") or ("X", "Y")

    def substitution(self) -> dict:
        (p, q), (r, t) = self.matrix
        if self.orientation == ORIENT_XY_VU:
            return {"X": _linear(X=p, Y=q), "Y": _linear(X=r, Y=t),
                    "U": _linear(V=r, U=t), "V": _linear(V=p, U=q)}
        return {"X": _linear(X=p, V=q), "Y": _linear(Y=p, U=q),
                "U": _linear(Y=r, U=t), "V": _linear(X=r, V=t)}

    def verify(self) -> bool:
        sub = self.substitution()
        transformed = sub["X"] * sub["U"] - sub["Y"] * sub["V"]
        return transformed == Polynomial.make(
            XYUV_NAMES, {(1, 0, 1, 0): self.det, (0, 1, 0, 1): -self.det})

    def describe(self) -> str:
        (p, q), (r, t) = self.matrix
        return ("coordinate change [[%s, %s], [%s, %s]] with determinant %s; "
                "the relation transforms as X'U' - Y'V' = %s * (XU - YV) and "
                "the prime becomes (%s)"
                % (render_rational(p), render_rational(q), render_rational(r),
                   render_rational(t), render_rational(self.det),
                   render_rational(self.det), ", ".join(self.normalized)))


def case1_normal_form(p) -> CoordinateChange:
    """Complete g to an invertible change sending the prime to coordinates."""
    if isinstance(p, SegrePrime):
        p = p.presentation
    if not isinstance(p, LinearPair):
        raise InputError("normal form applies to linear pairs only")
    a, b = p.g
    if a != 0:
        second = (Fraction(0), Fraction(1))
    else:
        second = (Fraction(1), Fraction(0))
    det = a * second[1] - b * second[0]
    normalized = ("X", "V") if p.orientation == ORIENT_XY_VU else ("X", "Y")
    change = CoordinateChange(((a, b), second), det, p.orientation, normalized)
    if not change.verify():
        raise AssertionError("coordinate change failed its relation check")
    return change


# irreducibility in low degree ----------------------------------------------

def _is_rational_square(q: Fraction) -> bool:
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
    if (d, e) == (2, 0):
        a = f.poly.coefficient((2, 0, 0, 0))
        b = f.poly.coefficient((1, 1, 0, 0))
        c = f.poly.coefficient((0, 2, 0, 0))
        return not _is_rational_square(b * b - 4 * a * c)
    if (d, e) == (0, 2):
        a = f.poly.coefficient((0, 0, 2, 0))
        b = f.poly.coefficient((0, 0, 1, 1))
        c = f.poly.coefficient((0, 0, 0, 2))
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


def _classify_linear(pair: LinearPair) -> Verdict:
    change = case1_normal_form(pair)
    kill, quotient, out = lcohom.quadric_certificate(change.normalized)
    identity = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
    steps = []
    if change.matrix != identity:
        steps.append(change.describe())
    steps.append("kill %s: the quotient is the monomial ring %s and "
                 "top-degree right-exactness carries its H^2 class back"
                 % (kill, quotient.describe()))
    steps.append(out.note)
    witness = CohomologyWitness(
        algebra=quotient.describe(),
        ideal=change.normalized,
        degree=2,
        multidegree=out.witness,
        box=lcohom.WITNESS_BOX,
        steps=tuple(steps),
    )
    return ONE_SIDED("segre", pair.describe(), witness,
                     notes=("bidegree (%d, %d) is one sided" % psi(SegrePrime(pair)),))


def classify_segre(p: SegrePrime) -> Verdict:
    """Decide flat / universal / classical for a height-one prime of the cone.

    Linear pairs always land in the no-flat-epimorphism case.  For
    polynomial input the bidegree trichotomy applies once irreducibility
    is known; one-sided nonlinear input is answered "unknown" because
    its classification needs an algebraically closed ground field.
    """
    pres = p.presentation
    if isinstance(pres, LinearPair):
        return _classify_linear(pres)

    f = pres.f
    d, e = f.bidegree()
    known = is_irreducible(f)
    if known is False:
        raise InputError("f = %s is reducible, it does not define a prime"
                         % f.render())

    notes = []
    if known is None:
        # above total degree 2 irreducibility is a precondition on the
        # caller; the verdict records whether it was explicitly asserted
        notes.append("irreducibility asserted by caller, not verified"
                     if pres.irreducible_asserted else
                     "irreducibility assumed, it is only checked up to "
                     "total degree 2")

    if d == 0 or e == 0:
        if d + e == 1:
            # a linear one-sided f is the same prime as its linear pair
            (p1, q1) = ((f.poly.coefficient((1, 0, 0, 0)),
                         f.poly.coefficient((0, 1, 0, 0)))
                        if e == 0 else
                        (f.poly.coefficient((0, 0, 1, 0)),
                         f.poly.coefficient((0, 0, 0, 1))))
            orientation = ORIENT_XY_VU if e == 0 else ORIENT_XV_YU
            return _classify_linear(LinearPair((p1, q1), orientation))
        return UNDECIDED(
            "segre", pres.describe(),
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
        return UNBALANCED("segre", pres.describe(), witness, notes)

    generator = to_xyuv(f)
    return BALANCED(
        "segre", pres.describe(), PrincipalElement(generator.render()),
        notes=tuple(notes) + (
            "the prime is principal, so inverting powers of the generator "
            "gives the classical ring of fractions",))
