"""Classification verdicts.

A Verdict answers three nested questions about a localisation task
(ring, specialisation closed set): does a flat ring epimorphism exist,
is it a universal localisation, is it a classical ring of fractions.
Answers are tri-state ("yes" / "no" / "unknown"); "unknown" is a
first-class honest answer for inputs outside the implemented decision
rules.  The hierarchy classical => universal => flat is enforced
structurally: a Verdict violating it cannot be constructed.

Every definite answer carries at least one citation anchor.  Anchors
are short stable slugs naming the mathematical fact that licensed the
answer; the registry CITATIONS maps each anchor to a one-line statement
of the fact.  Verdicts are built only by the named decision rules at
the end of this module, each of which owns its answer triple and its
anchors.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from fractions import Fraction

from .errors import InputError

YES = "yes"
NO = "no"
UNKNOWN = "unknown"

_STATES = (YES, NO, UNKNOWN)


# CPython turns no integer of more than 4300 digits into text
# (sys.get_int_max_str_digits); a longer one in an answer is an input error
PRINT_DIGITS = 4300
_PRINT_LIMIT = 10 ** PRINT_DIGITS


def check_printable(numbers, what: str) -> None:
    if any(abs(n) >= _PRINT_LIMIT for n in numbers):
        raise InputError("%s has an integer of more than %d digits, too long to print"
                         % (what, PRINT_DIGITS))


def render_rational(q) -> str:
    """Serialize an exact number: integers bare, fractions as "num/den"."""
    q = Fraction(q)
    num, den = q.numerator, q.denominator
    if not abs(num) < _PRINT_LIMIT > den:
        check_printable((num, den), "the answer")
    if den == 1:
        return str(num)
    return "%d/%d" % (num, den)


class _Infinite:
    """Singleton order of a non-torsion element."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "Infinite"


INFINITE = _Infinite()


def render_order(n) -> object:
    return "infinite" if n is INFINITE else n


# ---------------------------------------------------------------------------
# Witness payloads.  One per verdict branch; `kind` tags the JSON form.


@dataclass(frozen=True)
class Denominators:
    """Multiplicative set witnessing a classical localisation.

    elements: rendered generators s with V = union of V(s).
    details: per-prime records (prime label, class order, generator).
    """

    elements: tuple
    details: tuple = ()
    kind: str = field(default="denominators", init=False)

    def to_json(self):
        return {
            "type": self.kind,
            "elements": list(self.elements),
            "details": [dict(d) for d in self.details],
        }

    def describe(self):
        return "denominators {%s}" % ", ".join(self.elements)


@dataclass(frozen=True)
class TorsionWitness:
    """Order of a divisor class, with an optional line-program certificate.

    order is a positive integer or INFINITE.  For finite orders on
    elliptic catalog entries, line_program is a tuple of (line, exponent)
    pairs whose formal divisor equals order*(P) - order*(O).
    """

    order: object
    class_description: str = ""
    line_program: tuple = None
    kind: str = field(default="torsion", init=False)

    def to_json(self):
        out = {"type": self.kind, "order": render_order(self.order)}
        if self.class_description:
            out["class"] = self.class_description
        if self.line_program is not None:
            out["line_program"] = [
                {"line": line.to_json(), "exponent": e} for line, e in self.line_program
            ]
        return out

    def describe(self):
        if self.order is INFINITE:
            return "class is non-torsion" + (
                " (%s)" % self.class_description if self.class_description else ""
            )
        text = "class has order %d" % self.order
        if self.line_program is not None:
            text += ", certified by a %d-line program" % len(self.line_program)
        return text


@dataclass(frozen=True)
class PrincipalElement:
    """A single generator: the prime is principal, so one denominator works."""

    element: str
    kind: str = field(default="principal", init=False)

    def to_json(self):
        return {"type": self.kind, "element": self.element}

    def describe(self):
        return "prime is principal, generated by %s" % self.element


@dataclass(frozen=True)
class CohomologyWitness:
    """A multidegree where H^degree of the named ideal is nonzero.

    steps records the reduction chain (coordinate changes, killed
    variables) that led to the monomial computation.
    """

    algebra: str
    ideal: tuple
    degree: int
    multidegree: tuple
    box: int
    steps: tuple = ()
    kind: str = field(default="cohomology", init=False)

    def to_json(self):
        return {
            "type": self.kind,
            "algebra": self.algebra,
            "ideal": list(self.ideal),
            "degree": self.degree,
            "multidegree": list(self.multidegree),
            "box": self.box,
            "steps": list(self.steps),
        }

    def describe(self):
        return "H^%d of (%s) over %s is nonzero in multidegree %s" % (
            self.degree,
            ", ".join(self.ideal),
            self.algebra,
            str(tuple(self.multidegree)),
        )


@dataclass(frozen=True)
class HeightViolation:
    """A minimal prime of V has height above one, so no flat epimorphism exists."""

    prime: str
    height: int
    kind: str = field(default="height-violation", init=False)

    def to_json(self):
        return {"type": self.kind, "prime": self.prime, "height": self.height}

    def describe(self):
        return "minimal prime %s of V has height %d > 1" % (self.prime, self.height)


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Verdict:
    ring_id: str
    prime_description: str
    flat: str
    universal: str
    classical: str
    witness: object = None
    citations: tuple = ()
    notes: tuple = ()
    extra: tuple = ()  # ring-family JSON fields, e.g. ("torsion", 6)

    def __post_init__(self):
        for name in ("flat", "universal", "classical"):
            if getattr(self, name) not in _STATES:
                raise InputError("bad tri-state for %s: %r" % (name, getattr(self, name)))
        # hierarchy: classical => universal => flat, contrapositives included
        if self.classical == YES and self.universal != YES:
            raise InputError("classical=yes requires universal=yes")
        if self.universal == YES and self.flat != YES:
            raise InputError("universal=yes requires flat=yes")
        if self.flat == NO and self.universal != NO:
            raise InputError("flat=no requires universal=no")
        if self.universal == NO and self.classical != NO:
            raise InputError("universal=no requires classical=no")
        if (self.flat != UNKNOWN or self.universal != UNKNOWN or self.classical != UNKNOWN) \
                and not self.citations:
            raise InputError("definite answers require at least one citation anchor")

    @property
    def conclusive(self) -> bool:
        return UNKNOWN not in (self.flat, self.universal, self.classical)

    def to_json_dict(self):
        out = {
            "schema": 1,
            "ring": self.ring_id,
            "prime": self.prime_description,
            "flat": self.flat,
            "universal": self.universal,
            "classical": self.classical,
            "witness": self.witness.to_json() if self.witness is not None else None,
            "citations": list(self.citations),
            "notes": list(self.notes),
        }
        for key, value in self.extra:
            if key in out:
                raise InputError("extra field %r collides with the schema" % (key,))
            out[key] = value
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2)

    def to_text(self) -> str:
        lines = [
            "ring: %s" % self.ring_id,
            "prime: %s" % self.prime_description,
            "flat epimorphism: %s" % self.flat,
            "universal localisation: %s" % self.universal,
            "classical localisation: %s" % self.classical,
        ]
        for key, value in self.extra:
            lines.append("%s: %s" % (key, value))
        if self.witness is not None:
            lines.append("witness: %s" % self.witness.describe())
        for note in self.notes:
            lines.append("note: %s" % note)
        if self.citations:
            lines.append("citations: %s" % ", ".join(self.citations))
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Citation registry.  Anchor -> one-line statement of the fact it names.

CITATIONS = {
    "flat-universal-classical-hierarchy":
        "Classical rings of fractions are universal localisations, and universal "
        "localisations are flat ring epimorphisms; the three verdicts are nested.",
    "height-le-one-necessary":
        "If a flat epimorphism exists for the specialisation closed set V, every "
        "minimal prime of V has height at most one.",
    "coherence-local-cohomology":
        "For V = V(I) over a noetherian ring, the complement of V supports a flat "
        "epimorphism exactly when H^k_I(A) = 0 for all k > 1.",
    "cech-length-bound":
        "The Cech complex on g generators vanishes in cohomological degrees above g, "
        "so H^i_I(A) = 0 for i > g.",
    "top-degree-right-exactness":
        "Top-degree Cech cohomology is right exact; H^g_I nonzero on a quotient by "
        "one variable forces H^g_I nonzero on the ring itself.",
    "dim-le-one-flat-equals-universal":
        "Over a commutative noetherian ring of Krull dimension at most one, every flat "
        "ring epimorphism is a universal localisation, and both are classified by the "
        "specialisation closed subsets of the spectrum.",
    "class-torsion-universal":
        "For a noetherian normal domain and a height-one prime p, V(p) arises from a "
        "universal localisation if and only if the class of p is torsion in Cl modulo "
        "the image of Pic.",
    "class-torsion-classical":
        "For a noetherian normal domain and a height-one prime p, V(p) arises from a "
        "classical ring of fractions if and only if the class of p is torsion in Cl.",
    "picard-torsion-collapse":
        "When the Picard group is torsion, every universal localisation is already a "
        "classical ring of fractions.",
    "graded-picard-trivial":
        "A positively graded noetherian ring whose degree-zero part is a field has "
        "trivial Picard group, and its class group equals the graded class group.",
    "elliptic-cone-class-group":
        "The coordinate ring of the affine cone over a smooth plane cubic with rational "
        "inflection has class group E(Q) x Z/3: the prime at a rational point P maps to "
        "(P, 1 mod 3), and the hyperplane section maps to (O, 0 mod 3).",
    "elliptic-cone-flat-always":
        "The cone over a smooth plane cubic is a two-dimensional normal ring with good "
        "formal fibres, so every height-one prime admits a flat epimorphism for V(p).",
    "segre-trichotomy":
        "For k[X,Y,U,V]/(XU-YV) and a height-one homogeneous prime with bidegree (d,e): "
        "if d = 0 or e = 0 the complement of V(p) is not coherent (no flat epimorphism); "
        "if d and e are nonzero and distinct there is a flat epimorphism that is not a "
        "universal localisation; if d = e the localisation is classical.",
    "segre-class-rho":
        "The class group of k[X,Y,U,V]/(XU-YV) is infinite cyclic via the difference "
        "e - d of bidegrees, and the Picard group is trivial.",
    "mazur-bound":
        "The order of a rational torsion point on an elliptic curve over Q lies in "
        "{1,...,10, 12}; checking multiples up to 12 decides torsion.",
    "nagell-lutz":
        "On an integral short Weierstrass model, rational torsion points have integer "
        "coordinates; a non-integral multiple certifies a non-torsion point.",
    "classical-support-union":
        "A flat epimorphism is a classical ring of fractions exactly when its "
        "specialisation closed set is the union of the vanishing sets V(s) of the "
        "denominators s.",
    "dedekind-classical-generator":
        "In a Dedekind domain the class group is finite, so some power p^n of any "
        "maximal ideal is principal; a generator of p^n is a denominator witness.",
    "twoplanes-not-coherent":
        "In k[X,Y,U]/(XU), H^2 of the height-one prime (X,Y) is nonzero, so the "
        "complement of V(X,Y) is not coherent even though the height condition holds.",
    "dim3-hypersurface-not-coherent":
        "In the three-dimensional quadric hypersurface ring, H^2 of the height-one "
        "prime (X,Y) is nonzero; the computation reduces to a monomial quotient by "
        "killing one variable.",
}


def check_citations(anchors) -> tuple:
    for a in anchors:
        if a not in CITATIONS:
            raise InputError("unknown citation anchor: %r" % (a,))
    return tuple(anchors)


# ---------------------------------------------------------------------------
# Decision rules.  A rule fixes the answers it licenses and the anchors it
# cites; a family adds its own facts around them with cite().  Anchors are
# checked when a rule is built, which for every rule is at import.


@dataclass(frozen=True)
class Rule:
    flat: str
    universal: str
    classical: str
    citations: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "citations", check_citations(self.citations))

    def cite(self, before=(), after=()) -> "Rule":
        """The same answers, citing family facts around the rule's own anchors."""
        return replace(self, citations=tuple(before) + self.citations + tuple(after))

    def __call__(self, ring_id, prime_description, witness=None, notes=(),
                 extra=()) -> Verdict:
        return Verdict(ring_id, prime_description, self.flat, self.universal,
                       self.classical, witness, self.citations, tuple(notes),
                       tuple(extra))


# a minimal prime of height above one rules out a flat epimorphism
HEIGHT_VIOLATION = Rule(NO, NO, NO, ("height-le-one-necessary",))
# a flat epimorphism exists exactly when H^k_I vanishes for k > 1
COHOMOLOGY_OBSTRUCTION = Rule(NO, NO, NO, ("coherence-local-cohomology",))
COHOMOLOGY_VIA_QUOTIENT = COHOMOLOGY_OBSTRUCTION.cite(
    after=("top-degree-right-exactness",))
# flatness shown by family facts, with no criterion for the other two answers
FLAT_ONLY = Rule(YES, UNKNOWN, UNKNOWN)
# the class-torsion criteria in Cl and in Cl modulo Pic
CLASS_TORSION = Rule(YES, YES, YES, ("class-torsion-universal",
                                     "class-torsion-classical",
                                     "picard-torsion-collapse"))
CLASS_NON_TORSION = Rule(YES, NO, NO, ("class-torsion-universal",
                                       "class-torsion-classical"))
# V is the union of the vanishing sets of explicit denominators
CLASSICAL = Rule(YES, YES, YES, ("classical-support-union",))
# in Krull dimension at most one every flat epimorphism is universal
DIMENSION_LE_ONE = Rule(YES, YES, YES, ("dim-le-one-flat-equals-universal",
                                        "picard-torsion-collapse"))
UNDECIDED = Rule(UNKNOWN, UNKNOWN, UNKNOWN)
