"""Classification verdicts.

A verdict answers three nested questions about a localisation task
(ring, specialisation closed set): does a flat ring epimorphism exist,
is it a universal localisation, is it a classical ring of fractions.
Answers are tri-state ("yes" / "no" / "unknown"); "unknown" is a
first-class honest answer for inputs outside the implemented decision
rules.  A Verdict references the named Rule that decided it, and the
rule holds the answers: no Rule violates classical => universal => flat.

Every definite answer carries at least one citation anchor.  Anchors
are short stable slugs naming the mathematical fact that licensed the
answer; the registry CITATIONS maps each anchor to a one-line statement
of the fact.  Verdicts are built only by the named decision rules at
the end of this module, each of which owns its answer triple and its
anchors.
"""

from __future__ import annotations

import re

from .errors import InputError, encode_basestring_ascii, record

YES = "yes"
NO = "no"
UNKNOWN = "unknown"

_STATES = (YES, NO, UNKNOWN)


# CPython turns no integer of more than 4300 digits into text
# (sys.get_int_max_str_digits); a longer one in an answer is an input error
PRINT_DIGITS = 4300
_PRINT_LIMIT = 10 ** PRINT_DIGITS


def _too_long(what: str, has: str) -> InputError:
    return InputError("%s has %s, too long to print (verdict.PRINT_DIGITS = %d)"
                      % (what, has, PRINT_DIGITS))


def check_printable(numbers, what: str) -> None:
    if any(abs(n) >= _PRINT_LIMIT for n in numbers):
        raise _too_long(what, "an integer of more than %d digits" % PRINT_DIGITS)


_DIGIT_RUN = r"\d(?:_?\d)*"  # as int() and Fraction() read digits, underscores between
_DIGIT_RUNS = re.compile(_DIGIT_RUN)
_EXPONENT = re.compile(r"[eE][-+]?(%s)" % _DIGIT_RUN)


def read_number(text: str, what: str, kind=int):
    """kind(text) for kind int or Fraction, bounded before it is built.

    A digit run of more than PRINT_DIGITS digits, and for Fraction text
    that Fraction reads with an exponent e, 10**|e| past PRINT_DIGITS
    digits (Fraction builds that power even when the value is small), is
    an input error.  Within the bounds kind(text) is cheap and reads
    every spelling as before; its ValueError is left to the caller.  For
    Fraction, a sign and digits without underscores or whitespace, which
    int reads alike, give an int.
    """
    if len(text) > PRINT_DIGITS and any(len(run) - run.count("_") > PRINT_DIGITS
                                        for run in _DIGIT_RUNS.findall(text)):
        raise _too_long(what, "an integer of more than %d digits" % PRINT_DIGITS)
    # a sign and decimal digits, which int() and Fraction() read alike on
    # every Python from 3.10: Fraction reads no "_" before 3.11, and int
    # strips no "\x1c" to "\x1f", which Fraction's regex takes for spaces
    if kind is int or (text[1:] if text[:1] in "+-" else text).isdecimal():
        return int(text)
    exponent = _EXPONENT.search(text)
    if exponent and int(exponent.group(1)) >= PRINT_DIGITS:
        # Fraction reads text exactly when it reads it with each exponent
        # digit set to 0; that text is cheap to read, and a ValueError is
        # the one Fraction(text) raises, before any power of 10 is built
        start, end = exponent.span(1)
        kind(text[:start] + "".join("_" if c == "_" else "0" for c in text[start:end])
             + text[end:])
        raise _too_long(what, "an exponent of %d or more" % PRINT_DIGITS)
    return kind(text)


def ratio(q):
    """(numerator, denominator) of q in lowest terms: its own for an int or
    a Fraction, which both have them; Fraction(q) is built for a q
    without them, such as a str or a float."""
    try:
        return q.numerator, q.denominator
    except AttributeError:
        from fractions import Fraction
        q = Fraction(q)
        return q.numerator, q.denominator


def render_rational(q) -> str:
    """Serialize an exact number: integers bare, fractions as "num/den"."""
    return render_ratio(*ratio(q))


def render_ratio(num: int, den: int) -> str:
    """render_rational(num/den) for num/den in lowest terms with den > 0."""
    if not abs(num) < _PRINT_LIMIT > den:
        check_printable((num, den), "the answer")
    if den == 1:
        return str(num)
    return "%d/%d" % (num, den)


# Verdict JSON.  The schema is fixed, so each verdict, rule and witness
# writes its text straight from its layout, as json.dumps(sort_keys=True,
# indent=2) would: keys in sorted order, strings through
# encode_basestring_ascii, ints through repr.


def _json_list(items, indent: str, write=encode_basestring_ascii) -> str:
    """The JSON of a list whose closing bracket sits at indent, each item
    written by write: strs by default, ints with repr."""
    if not items:
        return "[]"
    inner = "\n  " + indent
    return "[%s%s\n%s]" % (inner, ("," + inner).join(map(write, items)), indent)


def _json_scalar(value) -> str:
    return repr(value) if type(value) is int else encode_basestring_ascii(value)


# the order of a non-torsion element, as every answer prints it
INFINITE = "infinite"


# ---------------------------------------------------------------------------
# Witness payloads.  One per verdict branch; `kind` tags the JSON form, and
# json_text() writes the witness object as it sits under "witness" in a
# verdict's JSON, its closing brace at indent 2.


@record
class Denominators:
    """Multiplicative set witnessing a classical localisation.

    elements: rendered generators s with V = union of V(s).
    details: per-prime records (prime label, class order, generator).
    """

    elements: tuple
    details: tuple = ()
    kind = "denominators"

    def json_text(self) -> str:
        return '{\n    "details": %s,\n    "elements": %s,\n    "type": "%s"\n  }' % (
            _json_list(self.details, "    ", _json_detail), _json_list(self.elements, "    "),
            self.kind)

    def describe(self):
        return "denominators {%s}" % ", ".join(self.elements)


def _json_detail(pairs) -> str:
    """One record of Denominators.details, as an item of "details"."""
    if not pairs:
        return "{}"
    return "{\n        %s\n      }" % ",\n        ".join(
        [encode_basestring_ascii(key) + ": " + _json_scalar(value)
         for key, value in sorted(pairs)])


def _json_step(step) -> str:
    """One (line, exponent) step of a line program, as an item of "line_program"."""
    line, exponent = step
    return ('{\n        "exponent": %d,\n        "line": {\n          "form": %s,'
            '\n          "kind": %s,\n          "through": [\n            %s,'
            '\n            %s\n          ]\n        }\n      }') % (
        exponent, encode_basestring_ascii(line.form_str()), encode_basestring_ascii(line.kind),
        encode_basestring_ascii(repr(line.base)), encode_basestring_ascii(repr(line.other)))


@record
class TorsionWitness:
    """Order of a divisor class, with an optional line-program certificate.

    order is a positive integer or INFINITE.  For finite orders on
    elliptic catalog entries, line_program is a tuple of (line, exponent)
    pairs whose formal divisor equals order*(P) - order*(O).
    """

    order: object
    class_description: str = ""
    line_program: tuple = None
    kind = "torsion"

    def json_text(self) -> str:
        text = "{\n    "
        if self.class_description:
            text += '"class": %s,\n    ' % encode_basestring_ascii(self.class_description)
        if self.line_program is not None:
            text += '"line_program": %s,\n    ' % _json_list(self.line_program, "    ",
                                                           _json_step)
        return text + '"order": %s,\n    "type": "%s"\n  }' % (_json_scalar(self.order),
                                                                self.kind)

    def describe(self):
        if self.order == INFINITE:
            return "class is non-torsion" + (
                " (%s)" % self.class_description if self.class_description else ""
            )
        text = "class has order %d" % self.order
        if self.line_program is not None:
            text += ", certified by a %d-line program" % len(self.line_program)
        return text


@record
class PrincipalElement:
    """A single generator: the prime is principal, so one denominator works."""

    element: str
    kind = "principal"

    def json_text(self) -> str:
        return '{\n    "element": %s,\n    "type": "%s"\n  }' % (
            encode_basestring_ascii(self.element), self.kind)

    def describe(self):
        return "prime is principal, generated by %s" % self.element


@record
class CohomologyWitness:
    """A multidegree where H^degree of the named ideal is nonzero.

    steps records the reduction chain (coordinate changes, killed
    variables) that led to the monomial computation.  The multidegree
    has entries in {-1, 0, 1}, so it lies in every box; box is the one
    every recorded verdict carries.
    """

    algebra: str
    ideal: tuple
    degree: int
    multidegree: tuple
    steps: tuple = ()
    kind = "cohomology"
    box = 3

    def json_text(self) -> str:
        return ('{\n    "algebra": %s,\n    "box": %d,\n    "degree": %d,\n    "ideal": %s,'
                '\n    "multidegree": %s,\n    "steps": %s,\n    "type": "%s"\n  }') % (
            encode_basestring_ascii(self.algebra), self.box, self.degree,
            _json_list(self.ideal, "    "), _json_list(self.multidegree, "    ", repr),
            _json_list(self.steps, "    "), self.kind)

    def describe(self):
        return "H^%d of (%s) over %s is nonzero in multidegree %s" % (
            self.degree,
            ", ".join(self.ideal),
            self.algebra,
            str(tuple(self.multidegree)),
        )


@record
class HeightViolation:
    """A minimal prime of V has height above one, so no flat epimorphism exists."""

    prime: str
    height: int
    kind = "height-violation"

    def json_text(self) -> str:
        return '{\n    "height": %d,\n    "prime": %s,\n    "type": "%s"\n  }' % (
            self.height, encode_basestring_ascii(self.prime), self.kind)

    def describe(self):
        return "minimal prime %s of V has height %d > 1" % (self.prime, self.height)


# ---------------------------------------------------------------------------


# the keys of every verdict's JSON, sorted; "torsion" only on ell: rings
VERDICT_KEYS = ("citations", "classical", "flat", "notes", "prime", "ring", "schema",
                "torsion", "universal", "witness")


@record
class Verdict:
    """A decision rule applied to one ring and one prime.

    The rule holds the answers and their anchors; the verdict adds the
    witness, the notes and, on an ell: ring, the torsion order of the
    point (an int or INFINITE), or None.
    """

    ring_id: str
    prime_description: str
    rule: Rule
    witness: object = None
    notes: tuple = ()
    torsion: object = None

    def to_json(self) -> str:
        """json.dumps(..., sort_keys=True, indent=2) of the verdict's fields:
        the keys of VERDICT_KEYS in their sorted order, the rule's entries
        written when it was built, and "torsion" only when it is not None."""
        rule, witness, torsion = self.rule, self.witness, self.torsion
        return "{\n  %s\n}" % ",\n  ".join([
            *rule._json_answers,
            '"notes": ' + _json_list(self.notes, "  "),
            '"prime": ' + encode_basestring_ascii(self.prime_description),
            '"ring": ' + encode_basestring_ascii(self.ring_id),
            '"schema": 1',
            *(() if torsion is None else ('"torsion": ' + _json_scalar(torsion),)),
            rule._json_universal,
            '"witness": ' + ("null" if witness is None else witness.json_text())])

    def to_text(self) -> str:
        lines = [
            "ring: %s" % self.ring_id,
            "prime: %s" % self.prime_description,
            "flat epimorphism: %s" % self.rule.flat,
            "universal localisation: %s" % self.rule.universal,
            "classical localisation: %s" % self.rule.classical,
        ]
        if self.torsion is not None:
            lines.append("torsion: %s" % self.torsion)
        if self.witness is not None:
            lines.append("witness: %s" % self.witness.describe())
        for note in self.notes:
            lines.append("note: %s" % note)
        if self.rule.citations:
            lines.append("citations: %s" % ", ".join(self.rule.citations))
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
# cites; a family adds its own facts around them with cite().  Both are
# checked when a rule is built, which for every rule is at import: a
# definite answer without an anchor does not load.


@record
class Rule:
    flat: str
    universal: str
    classical: str
    citations: tuple = ()

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
        object.__setattr__(self, "citations", check_citations(self.citations))
        if not self.citations and {self.flat, self.universal, self.classical} != {UNKNOWN}:
            raise InputError("definite answers require at least one citation anchor")
        # the verdict JSON entries the rule fixes, written once: every rule is
        # built at import.  Attributes, not fields: equality reads the fields
        object.__setattr__(self, "_json_answers", (
            '"citations": ' + _json_list(self.citations, "  "),
            '"classical": "%s"' % self.classical, '"flat": "%s"' % self.flat))
        object.__setattr__(self, "_json_universal", '"universal": "%s"' % self.universal)

    @property
    def conclusive(self) -> bool:
        return UNKNOWN not in (self.flat, self.universal, self.classical)

    def cite(self, before=(), after=()) -> "Rule":
        """The same answers, citing family facts around the rule's own anchors."""
        return Rule(self.flat, self.universal, self.classical,
                    tuple(before) + self.citations + tuple(after))

    def __call__(self, ring_id, prime_description, witness=None, notes=(),
                 torsion=None) -> Verdict:
        return Verdict(ring_id, prime_description, self, witness, tuple(notes), torsion)


# a minimal prime of height above one rules out a flat epimorphism
HEIGHT_VIOLATION = Rule(NO, NO, NO, ("height-le-one-necessary",))
# a flat epimorphism exists exactly when H^k_I vanishes for k > 1
COHOMOLOGY_OBSTRUCTION = Rule(NO, NO, NO, ("coherence-local-cohomology",))
COHOMOLOGY_VIA_QUOTIENT = COHOMOLOGY_OBSTRUCTION.cite(
    after=("top-degree-right-exactness",))
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
