import json
import random
import re
from fractions import Fraction
from itertools import product

import pytest

from uniloc import cli
from uniloc.errors import InputError
from uniloc.segre import (BihomogPoly, ORIENT_XV_YU, ORIENT_XY_VU, Polynomial,
                          SegrePrime, S_NAMES, XYUV_NAMES, classify_segre,
                          coordinate_prime, embed_xyuv, is_irreducible,
                          parse_polynomial, psi, to_xyuv)
from uniloc.verdict import INFINITE

from oracles import _times_brute, embed_by_substitution


def spoly(text):
    return parse_polynomial(text, S_NAMES)


def xpoly(text):
    return parse_polynomial(text, XYUV_NAMES)


class TestPolynomial:
    def test_make_normalizes(self):
        p = Polynomial.make(S_NAMES, {(1, 0, 1, 0): 1, (0, 1, 0, 1): -1})
        assert p.render() == "S0*T0 - S1*T1"
        q = Polynomial.make(S_NAMES, {(1, 0, 1, 0): 2, (1, 0, 1, 0): 2})
        assert q.coefficient((1, 0, 1, 0)) == 2  # dict keys merge upstream
        z = Polynomial.make(S_NAMES, {(1, 0, 0, 0): 0, (0, 0, 0, 1): Fraction(0, 3)})
        assert z.is_zero() and z.terms == () and z.render() == "0"

    def test_int_and_fraction_coefficients_agree(self):
        # a coefficient is stored as an int unless its denominator is not 1
        polys = [Polynomial.make(S_NAMES, {(1, 0, 1, 0): c, (0, 1, 0, 1): -1})
                 for c in (3, Fraction(3), Fraction(6, 2), "3", 3.0)]
        for p in polys:
            assert p == polys[0] and hash(p) == hash(polys[0])
            assert p.render() == "3*S0*T0 - S1*T1"
            assert [type(c) for _, c in p.terms] == [int, int]
        half = Polynomial.make(S_NAMES, {(1, 0, 0, 0): Fraction(1, 2), (0, 1, 0, 0): Fraction(4, 3)})
        assert [type(c) for _, c in half.terms] == [Fraction, Fraction]
        assert half.render() == "1/2*S0 + 4/3*S1"
        assert type(Polynomial.make(S_NAMES, {(1, 0, 0, 0): Fraction(1, 2),
                                              (0, 0, 0, 0): 0}).coefficient((0, 1, 0, 0))) is int

    def test_bad_exponents(self):
        with pytest.raises(InputError):
            Polynomial.make(S_NAMES, {(1, 0): 1})
        with pytest.raises(InputError):
            Polynomial.make(S_NAMES, {(-1, 0, 0, 0): 1})
        with pytest.raises(InputError):
            spoly("W")


class TestParser:
    def test_basic_inputs(self):
        assert spoly("S0*T0 - S1*T1").render() == "S0*T0 - S1*T1"
        assert spoly("-S0 + 2*S1").render() == "-S0 + 2*S1"
        assert spoly("1/2*S0").coefficient((1, 0, 0, 0)) == Fraction(1, 2)
        assert spoly("3").coefficient((0, 0, 0, 0)) == 3
        assert spoly("S0^2*T1").coefficient((2, 0, 0, 1)) == 1
        assert spoly("S0 - S0").is_zero()
        assert spoly("2*S0*3").coefficient((1, 0, 0, 0)) == 6

    def test_rational_coefficients_that_are_integers(self):
        for text, plain in (("1/2*S0 + 1/2*S0", "S0"), ("4/2*S0*T0 + S1*T1", "2*S0*T0 + S1*T1"),
                            ("2/3*S0*3 - 6/3*S1", "2*S0 - 2*S1"), ("1/3*S1 - 1/3*S1", "0")):
            p = spoly(text)
            assert p == spoly(plain) and hash(p) == hash(spoly(plain))
            assert p.render() == plain and all(type(c) is int for _, c in p.terms)
        assert spoly("S0 + 1/3*S1").render() == "S0 + 1/3*S1"
        assert spoly("-1/2*S0 + 3*S1").render() == "-1/2*S0 + 3*S1"
        assert SegrePrime.poly("1/2*S0 + 1/2*S0") == SegrePrime.linear(1, 0, ORIENT_XY_VU)

    def test_whitespace_insensitive(self):
        assert spoly(" S0 * T0-S1*T1 ") == spoly("S0*T0-S1*T1")

    def test_errors(self):
        bad = ["", "S0 +", "+", "S0 * * T0", "S0 T0", "W0", "1/0*S0",
               "S0^", "S0^T0", "~S0", "S0*", "S0 + + S1", "S0T0"]
        for text in bad:
            with pytest.raises(InputError):
                spoly(text)

    def test_render_parse_round_trip(self):
        rng = random.Random(303)
        for _ in range(120):
            terms = {}
            for _ in range(rng.randint(1, 5)):
                expo = tuple(rng.randint(0, 2) for _ in range(4))
                coeff = Fraction(rng.choice([-3, -2, -1, 1, 2, 5]),
                                 rng.choice([1, 1, 2]))
                terms[expo] = coeff
            p = Polynomial.make(S_NAMES, terms)
            if p.is_zero():
                continue
            assert spoly(p.render()) == p


class TestBihomog:
    def test_bidegree(self):
        assert BihomogPoly.from_string("S0*T0 - S1*T1").bidegree() == (1, 1)
        assert BihomogPoly.from_string("S0*T0^2 + S1*T1^2").bidegree() == (1, 2)
        assert BihomogPoly.from_string("S0").bidegree() == (1, 0)

    def test_rejects_bad_input(self):
        with pytest.raises(InputError):
            BihomogPoly.from_string("S0 + T0")
        with pytest.raises(InputError):
            BihomogPoly.from_string("S0 - S0")
        with pytest.raises(InputError):
            BihomogPoly(xpoly("X"))


class TestEmbedding:
    def test_images_of_the_four_variables(self):
        for name, expo in (("X", (1, 0, 1, 0)), ("Y", (0, 1, 1, 0)),
                           ("U", (0, 1, 0, 1)), ("V", (1, 0, 0, 1))):
            img = embed_xyuv(xpoly(name))
            assert img.terms == ((expo, Fraction(1)),)

    def test_relation_collapses(self):
        assert embed_xyuv(xpoly("X*U")).poly == embed_xyuv(xpoly("Y*V")).poly
        with pytest.raises(InputError):
            embed_xyuv(xpoly("X*U - Y*V"))  # the image is zero

    def test_matches_substitution_oracle(self):
        # homogeneous in X,Y,U,V, so that the image is bihomogeneous
        by_degree = {}
        for expo in product(range(7), repeat=4):
            by_degree.setdefault(sum(expo), []).append(expo)
        rng = random.Random(305)
        for _ in range(150):
            monomials = by_degree[rng.randint(0, 12)]
            terms = {}
            for _ in range(rng.randint(1, 5)):
                terms[rng.choice(monomials)] = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            p = Polynomial.make(XYUV_NAMES, terms)
            expected = embed_by_substitution(terms)
            if not expected:
                with pytest.raises(InputError):
                    embed_xyuv(p)
                continue
            assert dict(embed_xyuv(p).terms) == expected, p

    def test_lift_prefers_xu(self):
        f = BihomogPoly.from_terms({(1, 1, 1, 1): 1})
        assert to_xyuv(f).render() == "X*U"

    def test_lift_examples(self):
        assert to_xyuv(BihomogPoly.from_string("S0*T0 + S1*T1")).render() == "X + U"
        assert to_xyuv(BihomogPoly.from_string("S0*T0 - S1*T1")).render() == "X - U"
        assert to_xyuv(BihomogPoly.from_string("S0*T1")).render() == "V"

    def test_lift_needs_balanced_bidegree(self):
        with pytest.raises(InputError):
            to_xyuv(BihomogPoly.from_string("S0"))

    def test_lift_round_trip_randomized(self):
        rng = random.Random(304)
        for _ in range(80):
            d = rng.randint(1, 3)
            terms = {}
            for _ in range(rng.randint(1, 4)):
                e0 = rng.randint(0, d)
                f0 = rng.randint(0, d)
                terms[(e0, d - e0, f0, d - f0)] = rng.choice([-2, -1, 1, 3])
            p = Polynomial.make(S_NAMES, terms)
            if p.is_zero():
                continue
            f = BihomogPoly(p)
            lifted = to_xyuv(f)
            assert embed_xyuv(lifted).poly == f.poly
            for expo, _ in lifted.terms:
                assert min(expo[1], expo[3]) == 0  # no Y*V monomials


class TestLinearPair:
    def test_validation(self):
        with pytest.raises(InputError, match="g must be a nonzero linear form"):
            SegrePrime.linear(0, 0, ORIENT_XY_VU)
        with pytest.raises(InputError, match="orientation must be XY-VU or XV-YU"):
            SegrePrime.linear(1, 0, "XY-UV")

    def test_members(self):
        assert SegrePrime.linear(1, 0, ORIENT_XY_VU).describe() == "(X, V)"
        assert SegrePrime.linear(0, 1, ORIENT_XY_VU).describe() == "(Y, U)"
        assert SegrePrime.linear(1, 0, ORIENT_XV_YU).describe() == "(X, Y)"
        assert SegrePrime.linear(0, 1, ORIENT_XV_YU).describe() == "(U, V)"
        assert SegrePrime.linear(1, 1, ORIENT_XY_VU).describe() == "(X + Y, U + V)"
        assert SegrePrime.linear(1, -2, ORIENT_XV_YU).describe() == \
            "(X - 2*V, Y - 2*U)"

    def test_f_poly(self):
        assert SegrePrime.linear(1, 0, ORIENT_XY_VU).f.render() == "S0"
        assert SegrePrime.linear(2, 3, ORIENT_XV_YU).f.render() == \
            "2*T0 + 3*T1"

    def test_rejects_non_polynomials(self):
        for bad in ("S0", spoly("S0"), (1, 0)):
            with pytest.raises(InputError, match="BihomogPoly"):
                SegrePrime(bad)
        with pytest.raises(InputError, match="constant polynomial"):
            SegrePrime.poly("3")


class TestCoordinateTable:
    def test_psi_and_rho(self):
        table = {("X", "V"): ((1, 0), -1), ("Y", "U"): ((1, 0), -1),
                 ("X", "Y"): ((0, 1), +1), ("U", "V"): ((0, 1), +1)}
        for names, (expected_psi, expected_rho) in table.items():
            p = coordinate_prime(names)
            assert psi(p) == expected_psi
            d, e = psi(p)
            assert e - d == expected_rho

    def test_order_insensitive(self):
        assert coordinate_prime(("V", "X")).describe() == "(X, V)"

    def test_non_prime_pairs_rejected(self):
        with pytest.raises(InputError):
            coordinate_prime(("X", "U"))
        with pytest.raises(InputError):
            coordinate_prime(("Y", "V"))
        with pytest.raises(InputError):
            coordinate_prime(("X",))


CHANGE_STEP = re.compile(
    r"coordinate change \[\[(\S+), (\S+)\], \[(\S+), (\S+)\]\] with determinant (\S+); "
    r"the relation transforms as X'U' - Y'V' = (\S+) \* \(XU - YV\) and "
    r"the prime becomes \((X, [VY])\)$")


def linear_form(**coefficients):
    """{X,Y,U,V exponents: coefficient} of the linear form with these coefficients."""
    return {tuple(int(n == name) for n in XYUV_NAMES): Fraction(c)
            for name, c in coefficients.items() if c}


def change_relation(matrix, orientation):
    """X'U' - Y'V' for the change of a matrix [[p, q], [r, t]], multiplied out
    term by term."""
    (p, q), (r, t) = matrix
    if orientation == ORIENT_XY_VU:
        X, Y = linear_form(X=p, Y=q), linear_form(X=r, Y=t)
        U, V = linear_form(V=r, U=t), linear_form(V=p, U=q)
    else:
        X, Y = linear_form(X=p, V=q), linear_form(Y=p, U=q)
        U, V = linear_form(Y=r, U=t), linear_form(X=r, V=t)
    out = _times_brute(X, U)
    for e, c in _times_brute(Y, V).items():
        out[e] = out.get(e, 0) - c
    return {e: c for e, c in out.items() if c}


def quadric_times(det):
    return {(1, 0, 1, 0): det, (0, 1, 0, 1): -det}


GRID = [Fraction(x) for x in ("0", "1", "-1", "2", "-2", "1/2", "-3/4", "7")]


class TestNormalForm:
    """A linear prime goes to a coordinate pair by the completion of g =
    (p, q) to [[p, q], [0, 1]] (p != 0) or [[p, q], [1, 0]]; the witness
    names the change, and multiplying it out gives det * (XU - YV)."""

    def test_every_linear_prime_on_a_grid(self):
        for orientation in (ORIENT_XY_VU, ORIENT_XV_YU):
            ideal = ("X", "V") if orientation == ORIENT_XY_VU else ("X", "Y")
            for p, q in product(GRID, repeat=2):
                if p == 0 and q == 0:
                    continue
                case = (p, q, orientation)
                v = classify_segre(SegrePrime.linear(p, q, orientation))
                assert (v.rule.flat, v.rule.universal, v.rule.classical) == \
                    ("no", "no", "no"), case
                assert v.witness.ideal == ideal, case
                steps = v.witness.steps
                assert not any(CHANGE_STEP.match(step) for step in steps[1:]), case
                change = CHANGE_STEP.match(steps[0])
                if (p, q) == (1, 0):
                    assert change is None and len(steps) == 2, case
                    matrix, det = ((p, q), (0, 1)), Fraction(1)
                else:
                    assert change is not None and len(steps) == 3, case
                    a, b, r, t, det, factor = map(Fraction, change.groups()[:6])
                    assert (a, b) == (p, q) and (r, t) == ((0, 1) if p else (1, 0)), case
                    assert det == factor == (p if p else -q), case
                    assert change.group(7) == ", ".join(ideal), case
                    matrix = ((a, b), (r, t))
                relation = change_relation(matrix, orientation)
                assert relation == quadric_times(det), case
                # the expansion tells a wrong determinant apart
                assert relation != quadric_times(det + 1), case

    def test_coordinate_g_is_identity(self):
        for orientation, ideal in ((ORIENT_XY_VU, ("X", "V")), (ORIENT_XV_YU, ("X", "Y"))):
            v = classify_segre(SegrePrime.linear(1, 0, orientation))
            assert v.witness.ideal == ideal
            assert not any(CHANGE_STEP.match(step) for step in v.witness.steps)

    def test_unipotent_completion(self):
        v = classify_segre(SegrePrime.linear(1, 1, ORIENT_XY_VU))
        assert v.witness.steps[0] == (
            "coordinate change [[1, 1], [0, 1]] with determinant 1; the relation "
            "transforms as X'U' - Y'V' = 1 * (XU - YV) and the prime becomes (X, V)")

    def test_swap_completion(self):
        v = classify_segre(SegrePrime.linear(0, 2, ORIENT_XV_YU))
        assert v.witness.ideal == ("X", "Y")
        assert v.witness.steps[0] == (
            "coordinate change [[0, 2], [1, 0]] with determinant -2; the relation "
            "transforms as X'U' - Y'V' = -2 * (XU - YV) and the prime becomes (X, Y)")
        assert change_relation(((0, 2), (1, 0)), ORIENT_XV_YU) == quadric_times(-2)


class TestIrreducibility:
    def test_bilinear_determinant(self):
        assert is_irreducible(BihomogPoly.from_string("S0*T0 - S1*T1")) is True
        assert is_irreducible(BihomogPoly.from_string("S0*T0 + S1*T1")) is True
        assert is_irreducible(BihomogPoly.from_string("S0*T0 + S1*T0")) is False

    def test_one_sided_quadratics(self):
        assert is_irreducible(BihomogPoly.from_string("S0^2 + S1^2")) is True
        assert is_irreducible(BihomogPoly.from_string("S0^2 - S1^2")) is False
        assert is_irreducible(BihomogPoly.from_string("S0*S1")) is False
        assert is_irreducible(BihomogPoly.from_string("S0^2 - 2*S1^2")) is True
        assert is_irreducible(BihomogPoly.from_string("T0*T1")) is False
        assert is_irreducible(BihomogPoly.from_string("T0^2 + T1^2")) is True

    def test_linear_always(self):
        assert is_irreducible(BihomogPoly.from_string("S0")) is True
        assert is_irreducible(BihomogPoly.from_string("T0 - T1")) is True

    def test_higher_degree_undecided(self):
        assert is_irreducible(BihomogPoly.from_string("S0*T0^2 + S1*T1^2")) is None
        assert is_irreducible(BihomogPoly.from_string("S0^2*T0^2 + S1^2*T1^2")) is None

    def test_variable_factor_above_degree_two(self):
        for text in ("S0^3*T0", "S0*S1*T0 + S0^2*T1", "S0*T0*T1 + S1*T0^2",
                     "S0^2*T1^2 - S1^2*T1^2"):
            assert is_irreducible(BihomogPoly.from_string(text)) is False, text
        assert is_irreducible(BihomogPoly.from_string("S0^2*T0 + S1^2*T1")) is None


def test_integer_f_builds_no_fraction(count_fractions):
    # classify, to_text and to_json of an f with integer coefficients build
    # no Fraction: bidegree (3, 2) built 23 when coefficients were Fractions,
    # (2, 2) through the lift to X, Y, U, V built 37, (1, 1) 42 and (2, 0) 20
    def run(fp):
        v = cli.classify("segre", "", fp)
        assert "bidegree" in v.to_text() and '"ring": "segre"' in v.to_json()

    for fp in ("S0^3*T0^2 + 4*S1^3*T1^2 - 2*S0*S1^2*T0*T1", "S0^2*T0^2 - 2*S1^2*T1^2",
               "S0*T0 + 2*S1*T1", "S0^2 + 2*S1^2"):
        assert count_fractions(lambda: run(fp)) == 0, fp


def test_linear_prime_builds_no_fraction(count_fractions):
    # the quadric certificate's Cech ranks are taken by integer elimination;
    # in Fractions they built 2 per linear prime
    def run():
        v = cli.classify("segre", "(X,V)", "")
        assert "segre" in v.to_text() and '"ring": "segre"' in v.to_json()

    assert count_fractions(run) == 0


class TestClassify:
    def test_linear_pair_all_no(self):
        v = classify_segre(coordinate_prime(("X", "V")))
        assert (v.rule.flat, v.rule.universal, v.rule.classical) == ("no", "no", "no")
        assert v.ring_id == "segre"
        assert v.prime_description == "(X, V)"
        assert v.witness.kind == "cohomology"
        assert v.witness.degree == 2
        assert v.witness.ideal == ("X", "V")
        assert v.witness.algebra == "k[X,U,V]/(XU)"
        assert len(v.witness.steps) == 2  # no coordinate change line
        assert v.notes == ("bidegree (1, 0) is one sided",)
        assert v.rule.citations == ("segre-trichotomy", "coherence-local-cohomology",
                               "top-degree-right-exactness")

    def test_sheared_pair_records_change(self):
        v = classify_segre(SegrePrime.linear(1, 1, ORIENT_XY_VU))
        assert v.rule.flat == "no"
        assert len(v.witness.steps) == 3
        assert "coordinate change" in v.witness.steps[0]

    def test_other_orientation_kills_v(self):
        v = classify_segre(coordinate_prime(("X", "Y")))
        assert v.rule.flat == "no"
        assert v.witness.algebra == "k[X,Y,U]/(XU)"
        assert v.notes == ("bidegree (0, 1) is one sided",)

    def test_small_box_still_finds_witness(self):
        # the witness is a sign pattern, so it lies in the smallest box
        v = classify_segre(coordinate_prime(("Y", "U")))
        assert v.rule.flat == "no"
        assert max(abs(a) for a in v.witness.multidegree) <= 1
        assert v.witness.box == 3

    def test_linear_poly_routes_to_pair(self):
        v = classify_segre(SegrePrime.poly("S0"))
        assert (v.rule.flat, v.rule.universal, v.rule.classical) == ("no", "no", "no")
        assert v.prime_description == "(X, V)"
        w = classify_segre(SegrePrime.poly("T0 - T1"))
        assert w.prime_description == "(X - V, Y - U)"
        # a pair and the same f typed as text are one prime with one verdict
        rng = random.Random(306)
        for _ in range(60):
            p, q = (Fraction(rng.randint(-5, 5), rng.choice((1, 1, 2, 3)))
                    for _ in range(2))
            if p == 0 and q == 0:
                continue
            orientation = rng.choice((ORIENT_XY_VU, ORIENT_XV_YU))
            s, t = ("S0", "S1") if orientation == ORIENT_XY_VU else ("T0", "T1")
            text = "%s*%s + %s*%s" % (p, s, q, t)
            pair = SegrePrime.linear(p, q, orientation)
            typed = SegrePrime.poly(text.replace("+ -", "- "))
            assert pair == typed, text
            assert psi(pair) == ((1, 0) if orientation == ORIENT_XY_VU else (0, 1))
            assert json.loads(classify_segre(pair).to_json()) == \
                json.loads(classify_segre(typed).to_json()), text

    def test_unbalanced_bidegree_torsion(self):
        v = classify_segre(SegrePrime.poly("S0*T0^2 + S1*T1^2"))
        assert (v.rule.flat, v.rule.universal, v.rule.classical) == ("yes", "no", "no")
        assert v.witness.order is INFINITE
        assert "+1" in v.witness.class_description
        assert any("only checked up to" in n for n in v.notes)
        w = classify_segre(SegrePrime.poly("S0^2*T0 + S1^2*T1",
                                           irreducible=True))
        assert w.rule.universal == "no"
        assert "-1" in w.witness.class_description
        assert any("asserted by caller" in n for n in w.notes)

    def test_balanced_bidegree_principal(self):
        v = classify_segre(SegrePrime.poly("S0*T0 + S1*T1"))
        assert (v.rule.flat, v.rule.universal, v.rule.classical) == ("yes", "yes", "yes")
        assert v.witness.kind == "principal"
        assert v.witness.element == "X + U"
        assert v.notes == ("the prime is principal, so inverting powers of "
                           "the generator gives the classical ring of "
                           "fractions",)

    def test_balanced_higher_degree(self):
        v = classify_segre(SegrePrime.poly("S0^2*T0^2 + S1^2*T1^2",
                                           irreducible=True))
        assert v.rule.classical == "yes"
        assert v.witness.element == "X^2 + U^2"
        assert any("asserted by caller" in n for n in v.notes)

    def test_reducible_rejected(self):
        with pytest.raises(InputError):
            classify_segre(SegrePrime.poly("S0*T0 + S1*T0"))
        with pytest.raises(InputError):
            classify_segre(SegrePrime.poly("S0*S1"))

    def test_one_sided_nonlinear_unknown(self):
        v = classify_segre(SegrePrime.poly("S0^2 + S1^2"))
        assert (v.rule.flat, v.rule.universal, v.rule.classical) == \
            ("unknown", "unknown", "unknown")
        assert v.witness is None
        assert v.rule.citations == ()
        assert not v.rule.conclusive
        assert any("algebraically closed" in n for n in v.notes)

    def test_ring_id_override_and_json(self):
        # the ring id is fixed: the classifier takes only the prime
        v = classify_segre(coordinate_prime(("U", "V")))
        d = json.loads(v.to_json())
        assert d["ring"] == "segre"
        assert d["prime"] == "(U, V)"
        assert d["witness"]["type"] == "cohomology"
        assert d["flat"] == "no"
