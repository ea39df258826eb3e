import json
import random
from fractions import Fraction
from itertools import chain, product

import pytest
from oracles import (ELL_CURVES, ec_add_brute, ec_contains_brute, ec_line_brute,
                     ec_multiples_brute)

from uniloc import cli, elliptic
from uniloc.elliptic import (ECPoint, Line, ModelNotIntegral, O, WeierstrassCurve,
                             add, check_line_program, classify_point,
                             formal_line_divisor, line_through, miller_function,
                             mul, negate, torsion_order, vertical_at)
from uniloc.errors import FrozenInstanceError, InputError
from uniloc.verdict import INFINITE, TorsionWitness

E_MINUS_X = WeierstrassCurve(-1, 0)        # y^2 = x^3 - x
E_PLUS_1 = WeierstrassCurve(0, 1)          # y^2 = x^3 + 1
E_MINUS_4 = WeierstrassCurve(0, -4)        # y^2 = x^3 - 4
E_PLUS_4 = WeierstrassCurve(0, 4)          # y^2 = x^3 + 4
E_PLUS_4X = WeierstrassCurve(4, 0)         # y^2 = x^3 + 4x
E_SEVEN = WeierstrassCurve(-43, 166)       # (-5, 16) has order 7


def pt(x, y):
    return ECPoint(Fraction(x), Fraction(y))


def random_curve_with_points(rng):
    """Curve through two chosen rational points (a, b solved from them)."""
    while True:
        x1, x2 = rng.randint(-6, 6), rng.randint(-6, 6)
        if x1 == x2:
            continue
        y1, y2 = rng.randint(-6, 6), rng.randint(-6, 6)
        a = Fraction((y1 * y1 - x1 ** 3) - (y2 * y2 - x2 ** 3), x1 - x2)
        b = y1 * y1 - x1 ** 3 - a * x1
        if -16 * (4 * a ** 3 + 27 * b ** 2) == 0:
            continue
        return WeierstrassCurve(a, b), pt(x1, y1), pt(x2, y2)


class TestPointsAndCurves:
    def test_point_validation(self):
        with pytest.raises(InputError):
            ECPoint(1, None)
        with pytest.raises(InputError):
            ECPoint(None, 3)
        assert ECPoint().is_infinity
        assert repr(O) == "O"
        p = ECPoint(1, 2)
        assert p.x == Fraction(1) and isinstance(p.x, Fraction)
        assert repr(pt(Fraction(1, 2), -3)) == "(1/2, -3)"

    def test_singular_models_rejected(self):
        with pytest.raises(InputError):
            WeierstrassCurve(0, 0)
        with pytest.raises(InputError):
            WeierstrassCurve(-3, 2)  # 4*(-27) + 27*4 = 0

    def test_equality_and_hash_follow_the_coordinates(self):
        # the integer key is read once when a point is built; == and hash
        # must still say what the Fraction coordinates say
        coords = [(2, 3), (Fraction(4, 2), Fraction(-6, -2)), (2, -3), (3, 2),
                  (Fraction(1, 2), -3), (Fraction(2, 4), Fraction(-9, 3)),
                  (Fraction(-1, 2), -3), (0, 0), (Fraction(0, 5), 0), (-5, 16)]
        points = []
        for x, y in coords:
            points += [ECPoint(x, y), ECPoint(Fraction(x), Fraction(y))]
        points += [-P for P in points] + [O, ECPoint(), -O]
        for P in points:
            for Q in points:
                same = (P.x, P.y) == (Q.x, Q.y)
                assert (P == Q) == same and (P != Q) == (not same), (P, Q)
                if same:
                    assert hash(P) == hash(Q), (P, Q)
        assert len(set(points)) == len({(P.x, P.y) for P in points})
        assert pt(2, 3) != (2, 3) and O != "O"

    def test_negation_keeps_the_key(self):
        for E, P in ((E_PLUS_1, pt(2, 3)), (E_SEVEN, pt(-5, 16)),
                     (E_MINUS_X, pt(0, 0)), (E_PLUS_1, O)):
            N = negate(E, P)
            assert N == -P and hash(N) == hash(-P)
            assert -N == P and hash(-N) == hash(P)
            if not P.is_infinity:
                assert (N.x, N.y) == (P.x, -P.y) and N == ECPoint(P.x, -P.y)
                assert hash(N) == hash(ECPoint(int(P.x), -int(P.y)))
        assert negate(E_MINUS_X, pt(0, 0)) == pt(0, 0)
        assert negate(E_PLUS_1, O) is O and -O is O

    def test_points_from_add_match_points_from_fractions(self):
        # add builds its key with a gcd and no Fraction: each sum must be the
        # point ECPoint builds from the oracle's Fraction coordinates
        scaled = WeierstrassCurve(Fraction(-43, 16), Fraction(166, 64))  # u = 2
        for E, P, n in TORSION_CASES + [(E_SEVEN, pt(-5, 16), 7), (E_MINUS_4, pt(2, 2), 6),
                                        (scaled, pt(Fraction(-5, 4), 2), 7)]:
            Q, brute = P, (P.x, P.y)
            for _ in range(1, n):
                Q, brute = add(E, Q, P), ec_add_brute(E.a, E.b, brute, (P.x, P.y))
                F = as_point(brute)
                assert Q == F and hash(Q) == hash(F) and repr(Q) == repr(F), (E, Q, F)
                if brute is not None:
                    assert type(Q.x) is Fraction and type(Q.y) is Fraction
                    assert (Q.x, Q.y) == brute and Q._k[1] > 0 and Q._k[3] > 0
        assert add(E_PLUS_1, pt(2, 3), pt(0, 1))._k == (-1, 1, 0, 1)

    def test_points_and_lines_are_frozen(self):
        P = add(E_PLUS_1, pt(2, 3), pt(2, 3))
        L = line_through(E_PLUS_1, pt(2, 3), pt(0, 1))
        for obj, name in ((P, "x"), (P, "_k"), (O, "y"), (L, "a"), (L, "kind"), (L, "_k")):
            with pytest.raises(FrozenInstanceError):
                setattr(obj, name, 1)
            with pytest.raises(FrozenInstanceError):
                delattr(obj, name)
        assert P == pt(0, 1) and L == Line(1, -1, 1, "chord", pt(2, 3), pt(0, 1))

    def test_contains_and_spec(self):
        assert E_PLUS_1.contains(pt(2, 3))
        assert E_PLUS_1.contains(O)
        assert not E_PLUS_1.contains(pt(2, 4))
        assert E_MINUS_4.spec() == "ell:0,-4"
        assert WeierstrassCurve(Fraction(1, 4), 0).spec() == "ell:1/4,0"
        assert not WeierstrassCurve(Fraction(1, 4), 0).is_integral
        assert E_PLUS_1.is_integral


def oracle_cases():
    """(a, b, points on the curve, points moved off it in y, points moved
    in x) for the bench curves and their models (x/u^2, y/u^3): O, +-P,
    +-2P, +-3P, and on y^2 = x^3 - x all three 2-torsion points."""
    for a, b, P in ELL_CURVES:
        a, b = Fraction(a), Fraction(b)
        points = ec_multiples_brute(a, b, tuple(map(Fraction, P)), 3)
        if b == 0:
            points += [(Fraction(1), Fraction(0)), (Fraction(-1), Fraction(0))]
        for u in (Fraction(1), Fraction(2), Fraction(3), Fraction(1, 2)):
            on = [P if P is None else (P[0] / u ** 2, P[1] / u ** 3) for P in points]
            affine = [P for P in on if P is not None]
            moved_y = [(x, y + Fraction(s, y.denominator)) for x, y in affine for s in (1, -1)]
            moved_x = [(x + Fraction(s, x.denominator), y) for x, y in affine for s in (1, -1)]
            yield a / u ** 4, b / u ** 6, on, moved_y, moved_x


def outcome(fn, *args):
    try:
        return fn(*args)
    except InputError as exc:
        return type(exc)


def as_pair(P):
    return None if P.is_infinity else (P.x, P.y)


def as_point(P):
    return O if P is None else ECPoint(*P)


class TestGroupLaw:
    def test_matches_fraction_oracle(self):
        seen = {"sum is O": 0, "tangent is vertical": 0}
        for a, b, on, moved_y, moved_x in oracle_cases():
            E = WeierstrassCurve(a, b)
            for P in on + moved_y + moved_x:
                assert E.contains(as_point(P)) == ec_contains_brute(a, b, P), (a, b, P)
            moved = moved_y + moved_x
            for P, Q in chain(product(on, on + moved), product(moved, on)):
                args = (E, as_point(P), as_point(Q))
                got = outcome(add, *args)
                if isinstance(got, ECPoint):
                    got = as_pair(got)
                assert got == outcome(ec_add_brute, a, b, P, Q), (a, b, P, Q)
                line = outcome(line_through, *args)
                if isinstance(line, Line):
                    line = (line.a, line.b, line.c, line.kind)
                assert line == outcome(ec_line_brute, a, b, P, Q), (a, b, P, Q)
                if P in moved_y or Q in moved_y:
                    # off the curve: (y +- 1/yd)^2 = y^2 would need y = -+1/(2*yd)
                    assert got is InputError and line is InputError, (a, b, P, Q)
                seen["sum is O"] += got is None and P is not None
                seen["tangent is vertical"] += (P == Q and isinstance(line, tuple)
                                                and line[3] == "vertical")
        assert all(seen.values()), seen

    def test_known_multiples_on_e_plus_1(self):
        P = pt(2, 3)
        seq = [mul(E_PLUS_1, n, P) for n in range(7)]
        assert seq == [O, P, pt(0, 1), pt(-1, 0), pt(0, -1), pt(2, -3), O]

    def test_known_multiples_on_e_minus_4(self):
        P = pt(2, 2)
        assert add(E_MINUS_4, P, P) == pt(5, -11)
        Q = mul(E_MINUS_4, 3, P)
        assert Q.x.denominator != 1  # leaves the integers, so non-torsion

    def test_off_curve_rejected(self):
        with pytest.raises(InputError):
            add(E_PLUS_1, pt(2, 4), pt(0, 1))
        with pytest.raises(InputError):
            negate(E_PLUS_1, pt(1, 1))
        with pytest.raises(InputError):
            torsion_order(E_PLUS_1, pt(1, 1))

    def test_identities_randomized(self):
        rng = random.Random(55)
        for _ in range(60):
            E, P, Q = random_curve_with_points(rng)
            assert add(E, P, O) == P
            assert add(E, O, P) == P
            assert add(E, P, negate(E, P)) == O
            assert add(E, P, Q) == add(E, Q, P)
            assert add(E, add(E, P, P), Q) == add(E, P, add(E, P, Q))
            assert mul(E, 5, P) == add(E, P, mul(E, 4, P))
            assert mul(E, -3, P) == negate(E, mul(E, 3, P))

    def test_mul_matches_repeated_add(self):
        rng = random.Random(56)
        for _ in range(20):
            E, P, _ = random_curve_with_points(rng)
            acc = O
            for n in range(8):
                assert mul(E, n, P) == acc
                acc = add(E, acc, P)


TORSION_CASES = [
    (E_MINUS_X, pt(0, 0), 2),
    (E_PLUS_4, pt(0, 2), 3),
    (E_PLUS_4X, pt(2, 4), 4),
    (E_PLUS_1, pt(2, 3), 6),
]


class TestTorsion:
    def test_catalog_orders(self):
        for E, P, n in TORSION_CASES:
            assert torsion_order(E, P) == n

    def test_minimality_by_raw_addition(self):
        for E, P, n in TORSION_CASES:
            acc = P
            for k in range(1, n):
                assert not acc.is_infinity, (E, P, k)
                acc = add(E, acc, P)
            assert acc.is_infinity

    def test_infinite_order(self):
        assert torsion_order(E_MINUS_4, pt(2, 2)) is INFINITE
        assert torsion_order(E_MINUS_4, pt(5, -11)) is INFINITE

    def test_point_at_infinity(self):
        assert torsion_order(E_PLUS_1, O) == 1

    def test_non_integral_model_refused(self):
        E = WeierstrassCurve(Fraction(1, 4), 0)
        P = pt(Fraction(1, 2), Fraction(1, 2))
        assert E.contains(P)
        with pytest.raises(ModelNotIntegral):
            torsion_order(E, P)


class TestClassGroupImage:
    def test_class_description(self):
        # the class of the prime at P is (P, 1 mod 3) in E(Q) x Z/3
        for E, P, text in ((E_PLUS_1, pt(2, 3), "(point (2, 3), degree 1 mod 3)"),
                           (E_MINUS_4, pt(2, 2), "(point (2, 2), degree 1 mod 3)")):
            assert classify_point(E, P).witness.class_description == text
        with pytest.raises(InputError):
            classify_point(E_PLUS_1, pt(2, 4))


class TestLines:
    def test_vertical(self):
        L = vertical_at(E_PLUS_1, pt(2, 3))
        assert (L.a, L.b, L.c, L.kind) == (1, 0, -2, "vertical")
        assert L.other == pt(2, -3)
        assert L.evaluate(pt(2, 3)) == 0 and L.evaluate(O) == 0
        assert L.form_str() == "X - 2*Z"
        with pytest.raises(InputError, match="no vertical line is taken at O"):
            vertical_at(E_PLUS_1, O)

    def test_chord_and_tangent(self):
        L = line_through(E_PLUS_1, pt(2, 3), pt(0, 1))
        assert (L.a, L.b, L.c, L.kind) == (1, -1, 1, "chord")
        assert L.evaluate(pt(-1, 0)) == 0
        assert L.evaluate(O) == -1
        assert L.form_str() == "X - Y + Z"
        T = line_through(E_PLUS_1, pt(2, 3), pt(2, 3))
        assert T.kind == "chord" and T.a == 2  # slope (3*4)/(2*3)
        V = line_through(E_PLUS_1, pt(2, 3), pt(2, -3))
        assert V.kind == "vertical"
        with pytest.raises(InputError, match="chords are drawn between affine points"):
            line_through(E_PLUS_1, O, pt(2, 3))

    def test_to_json(self):
        # a line is written by the torsion witness whose program holds it
        step = TorsionWitness(2, "", ((vertical_at(E_PLUS_1, pt(2, 3)), 1),))
        assert json.loads(step.json_text())["line_program"] == [
            {"exponent": 1, "line": {"form": "X - 2*Z", "kind": "vertical",
                                     "through": ["(2, 3)", "(2, -3)"]}}]


class TestFormalDivisors:
    def test_vertical_divisor(self):
        L = vertical_at(E_PLUS_1, pt(2, 3))
        assert formal_line_divisor(E_PLUS_1, L) == {pt(2, 3): 1, pt(2, -3): 1, O: -2}

    def test_vertical_at_two_torsion(self):
        L = vertical_at(E_MINUS_X, pt(0, 0))
        assert formal_line_divisor(E_MINUS_X, L) == {pt(0, 0): 2, O: -2}

    def test_chord_divisor(self):
        L = line_through(E_PLUS_1, pt(2, 3), pt(0, 1))
        assert formal_line_divisor(E_PLUS_1, L) == \
            {pt(2, 3): 1, pt(0, 1): 1, pt(-1, 0): 1, O: -3}

    def test_inflection_tangent(self):
        # tangent at (0, 1) meets the curve three times there
        L = line_through(E_PLUS_1, pt(0, 1), pt(0, 1))
        assert formal_line_divisor(E_PLUS_1, L) == {pt(0, 1): 3, O: -3}

    def test_tampered_tags_rejected(self):
        with pytest.raises(InputError):
            formal_line_divisor(E_PLUS_1, Line(
                Fraction(1), Fraction(0), Fraction(-2),
                "vertical", pt(2, 3), pt(2, 3)))  # other must be -base
        with pytest.raises(InputError):
            formal_line_divisor(E_PLUS_1, Line(
                Fraction(1), Fraction(1), Fraction(-2),
                "vertical", pt(2, 3), pt(2, -3)))  # Y coefficient
        with pytest.raises(InputError):
            formal_line_divisor(E_PLUS_1, Line(
                Fraction(1), Fraction(0), Fraction(-2),
                "chord", pt(2, 3), pt(2, 3)))  # passes through O
        with pytest.raises(InputError):
            formal_line_divisor(E_PLUS_1, Line(
                Fraction(1), Fraction(0), Fraction(-2),
                "chord", pt(2, 3), pt(2, -3)))  # degenerate, base + other = O
        with pytest.raises(InputError):
            formal_line_divisor(E_PLUS_1, Line(
                Fraction(1), Fraction(-1), Fraction(5),
                "chord", pt(2, 3), pt(0, 1)))  # misses its tagged points
        with pytest.raises(InputError):
            formal_line_divisor(E_PLUS_1, Line(
                Fraction(1), Fraction(-1), Fraction(1),
                "conic", pt(2, 3), pt(0, 1)))

    def test_line_divisors_are_principal(self):
        # degree zero and trivial class, for random verticals and chords
        rng = random.Random(57)
        for _ in range(40):
            E, P, Q = random_curve_with_points(rng)
            for L in (vertical_at(E, P), line_through(E, P, Q)):
                div = formal_line_divisor(E, L)
                assert sum(div.values()) == 0
                total = O
                for pt_, n in div.items():
                    total = add(E, total, mul(E, n, pt_))
                assert total == O


class TestLinePrograms:
    def test_miller_programs_for_catalog(self):
        for E, P, n in TORSION_CASES:
            prog = miller_function(E, P, n)
            assert check_line_program(E, P, n, prog)
            assert all(e != 0 for _, e in prog)

    def test_order_six_program_has_five_lines(self):
        prog = miller_function(E_PLUS_1, pt(2, 3), 6)
        assert len(prog) == 5

    def test_order_two_program_is_one_vertical(self):
        prog = miller_function(E_MINUS_X, pt(0, 0), 2)
        assert len(prog) == 1
        assert prog[0][0].kind == "vertical" and prog[0][1] == 1

    def test_checker_rejects_tampering(self):
        P = pt(2, 3)
        prog = miller_function(E_PLUS_1, P, 6)
        assert not check_line_program(E_PLUS_1, P, 5, prog)
        assert not check_line_program(E_PLUS_1, pt(0, 1), 6, prog)
        bad_exp = tuple((L, e + 1) for L, e in prog)
        assert not check_line_program(E_PLUS_1, P, 6, bad_exp)
        swapped = (prog[0],) + ((Line(Fraction(1), Fraction(0), Fraction(-5),
                                      "vertical", pt(2, 3), pt(2, 3)),
                                 prog[1][1]),) + prog[2:]
        assert not check_line_program(E_PLUS_1, P, 6, swapped)

    def test_empty_program_cases(self):
        assert check_line_program(E_PLUS_1, O, 1, ())
        assert check_line_program(E_PLUS_1, pt(2, 3), 0, ())
        assert not check_line_program(E_PLUS_1, pt(2, 3), 6, ())

    def test_miller_preconditions(self):
        with pytest.raises(InputError, match="needs torsion_order"):
            miller_function(E_PLUS_1, pt(2, 3), 3)
        with pytest.raises(InputError, match="needs torsion_order"):
            miller_function(E_MINUS_4, pt(2, 2), 5)
        assert miller_function(E_PLUS_1, O, 1) == ()


def catalog_programs():
    for E, P, n in TORSION_CASES + [(E_SEVEN, pt(-5, 16), 7)]:
        yield E, P, n, miller_function(E, P, n)


class TestCheckerTestsEachPoint:
    """The checker tests each distinct tagged point on the curve once per
    program; every tagged point is still tested, on the curve and on its line."""

    P = pt(2, 3)

    def program(self):
        prog = miller_function(E_PLUS_1, self.P, 6)
        assert check_line_program(E_PLUS_1, self.P, 6, prog)
        return prog

    def test_off_curve_point_tagged_in_two_lines(self):
        # x - 2 vanishes at (2, 4) and (2, -4), which are off y^2 = x^3 + 1;
        # the two lines cancel, so only the curve test can refuse them
        off = Line(Fraction(1), Fraction(0), Fraction(-2), "vertical", pt(2, 4), pt(2, -4))
        prog = self.program()
        for extra in (((off, 1), (off, -1)), ((off, 2), (off, -2))):
            assert not check_line_program(E_PLUS_1, self.P, 6, prog + extra)
            assert not check_line_program(E_PLUS_1, self.P, 6, extra + prog)
        verified = set()
        with pytest.raises(InputError):
            formal_line_divisor(E_PLUS_1, off, verified)
        assert pt(2, 4) not in verified
        with pytest.raises(InputError):  # the set does not remember a refusal
            formal_line_divisor(E_PLUS_1, off, verified)

    def test_on_curve_point_off_its_line(self):
        # (2, +-3) lie on the curve, but x - 5 does not vanish there
        vertical = Line(Fraction(1), Fraction(0), Fraction(-5), "vertical", pt(2, 3), pt(2, -3))
        chord = Line(Fraction(1), Fraction(-1), Fraction(5), "chord", pt(2, 3), pt(0, 1))
        prog = self.program()
        for L in (vertical, chord):
            with pytest.raises(InputError):  # already on the curve, still tested on the line
                formal_line_divisor(E_PLUS_1, L, {pt(2, 3), pt(2, -3), pt(0, 1), pt(-1, 0)})
            assert not check_line_program(E_PLUS_1, self.P, 6, prog + ((L, 1), (L, -1)))

    def test_vertical_with_the_wrong_partner(self):
        for other in (pt(2, 3), pt(0, 1), O):
            L = Line(Fraction(1), Fraction(0), Fraction(-2), "vertical", pt(2, 3), other)
            with pytest.raises(InputError, match="vertical tag must pair P with -P"):
                formal_line_divisor(E_PLUS_1, L, {pt(2, 3), pt(2, -3)})
            assert not check_line_program(E_PLUS_1, self.P, 6,
                                          self.program() + ((L, 1), (L, -1)))

    @pytest.mark.parametrize("shift", ["off the curve", "off the line"])
    def test_chord_with_a_tampered_third_point(self, monkeypatch, shift):
        # the checker re-derives each chord's third point through add; a
        # wrong sum must be refused, whether or not it lies on the curve
        prog = self.program()
        honest = elliptic.add
        calls = []

        def tampered(E, P, Q):
            calls.append((P, Q))
            R = honest(E, P, Q)
            if shift == "off the curve":
                return ECPoint(R.x, R.y + 1)
            return honest(E, R, self.P)

        monkeypatch.setattr(elliptic, "add", tampered)
        assert not check_line_program(E_PLUS_1, self.P, 6, prog)
        assert calls
        calls.clear()
        monkeypatch.setattr(elliptic, "add", lambda E, P, Q: calls.append(1) or honest(E, P, Q))
        assert check_line_program(E_PLUS_1, self.P, 6, prog)
        assert len(calls) == sum(line.kind == "chord" for line, _ in prog)

    def test_vanishes_is_evaluate_equals_zero(self):
        seen = {True: 0, False: 0}
        for E, P, n, prog in catalog_programs():
            points = [mul(E, k, P) for k in range(n)]
            for line, _ in prog:
                for Q in points + [line.base, line.other, -line.base, -line.other]:
                    got = line._vanishes(Q)
                    assert got == (line.evaluate(Q) == 0), (E, line, Q)
                    seen[got] += 1
        assert all(seen.values()), seen


def test_classify_tests_points_on_the_curve_a_bounded_number_of_times(monkeypatch):
    # order 7: the checker tests each distinct point of the program on the
    # curve once, and the program is built from torsion_order's walk of the
    # multiples; 38 tests today, 51 when miller_function walked them again,
    # 81 when every use of a point tested it and the program added the
    # multiples again
    contains = WeierstrassCurve.contains
    calls = []

    def counted(self, P):
        calls.append(P)
        return contains(self, P)

    monkeypatch.setattr(WeierstrassCurve, "contains", counted)
    v = cli.classify("ell:-43,166", "-5,16")
    assert v.witness.order == 7 and len(v.witness.line_program) == 7
    assert 0 < len(calls) <= 38


def test_classify_builds_fractions_only_to_parse(count_fractions):
    # integers are read as ints; the group law, the program, its check and
    # both printers run on integer keys (70 Fractions when points were built
    # from Fractions, 4 when the parse made one per number)
    def run(ring, prime, text):
        v = cli.classify(ring, prime)
        assert text in v.to_text() and '"ring": "%s"' % ring in v.to_json()

    assert count_fractions(lambda: run("ell:-43,166", "-5,16", "7-line program")) == 0
    # a rational model is undecided: one Fraction per non-integer it reads
    assert count_fractions(lambda: cli._parse_curve("0,1/64", "")) == 1
    assert count_fractions(lambda: cli._parse_point("1/2,3/8")) == 2
    assert count_fractions(lambda: run("ell:0,1/64", "1/2,3/8", "not integral")) == 3


class TestHandedMultiples:
    """classify_point walks P, 2P, ... once, in torsion_order, and hands the
    walk to miller_function; a wrong walk must not give a certificate."""

    def test_one_walk_per_verdict(self, monkeypatch):
        walks = []
        honest = elliptic._multiples
        monkeypatch.setattr(elliptic, "_multiples", lambda E, P: walks.append(P) or honest(E, P))
        for E, P, n in TORSION_CASES + [(E_SEVEN, pt(-5, 16), 7)]:
            walks.clear()
            assert classify_point(E, P).witness.order == n
            assert walks == [P]
        walks.clear()
        multiples = []
        assert torsion_order(E_SEVEN, pt(-5, 16), multiples) == 7
        assert multiples == [mul(E_SEVEN, k, pt(-5, 16)) for k in range(1, 8)]
        assert miller_function(E_SEVEN, pt(-5, 16), 7, multiples) == \
            miller_function(E_SEVEN, pt(-5, 16), 7)
        assert walks == [pt(-5, 16), pt(-5, 16)]  # the call without a list walks

    def test_forged_multiples_give_no_certificate(self):
        forged = 0
        for E, P, n in TORSION_CASES + [(E_SEVEN, pt(-5, 16), 7)]:
            honest = elliptic._multiples(E, P)
            program = miller_function(E, P, n, honest)
            on_curve = (set(honest) | {-Q for Q in honest}) - {O}
            for i in range(1, n - 1):
                for Q in on_curve - {honest[i]}:
                    walk = honest[:i] + [Q] + honest[i + 1:]
                    try:
                        got = miller_function(E, P, n, walk)
                    except AssertionError as exc:
                        assert "failed its own checker" in str(exc)
                        forged += 1
                        continue
                    assert got == program  # the program never read index i
        assert forged > 20
        # a non-torsion point with a walk that claims it has order 2 or 3
        P = pt(2, 2)
        for walk in ([P, O], [P, add(E_MINUS_4, P, P), O]):
            with pytest.raises(AssertionError, match="failed its own checker"):
                miller_function(E_MINUS_4, P, len(walk), walk)
        with pytest.raises(InputError, match="needs torsion_order"):
            miller_function(E_MINUS_4, P, 2, [P, add(E_MINUS_4, P, P)])


class TestClassifyPoint:
    def test_torsion_point_all_yes(self):
        v = classify_point(E_PLUS_1, pt(2, 3))
        assert (v.rule.flat, v.rule.universal, v.rule.classical) == ("yes", "yes", "yes")
        assert v.ring_id == "ell:0,1"
        assert v.prime_description == "(2, 3)"
        assert v.witness.order == 6
        assert check_line_program(E_PLUS_1, pt(2, 3), 6, v.witness.line_program)
        assert ("torsion", 6) in v.extra
        assert any("order 6" in n for n in v.notes)

    def test_two_torsion(self):
        v = classify_point(E_MINUS_X, pt(0, 0))
        assert (v.rule.flat, v.rule.universal, v.rule.classical) == ("yes", "yes", "yes")
        assert v.witness.order == 2
        assert ("torsion", 2) in v.extra
        # class order in E(Q) x Z/3 is lcm(2, 3)
        assert any("order 6" in n for n in v.notes)

    def test_non_torsion_point(self):
        v = classify_point(E_MINUS_4, pt(2, 2))
        assert (v.rule.flat, v.rule.universal, v.rule.classical) == ("yes", "no", "no")
        assert v.witness.order is INFINITE
        assert v.witness.line_program is None
        assert "(2, 2)" in v.witness.class_description
        assert ("torsion", "infinite") in v.extra

    def test_non_integral_model_inconclusive(self):
        E = WeierstrassCurve(Fraction(1, 4), 0)
        v = classify_point(E, pt(Fraction(1, 2), Fraction(1, 2)))
        assert (v.rule.flat, v.rule.universal, v.rule.classical) == ("yes", "unknown", "unknown")
        assert v.witness is None
        assert not v.rule.conclusive
        assert any("not integral" in n for n in v.notes)

    def test_overrides_and_json(self):
        # the ids come from the curve and the point: the classifier takes only those
        v = classify_point(E_PLUS_1, pt(2, 3))
        d = json.loads(v.to_json())
        assert d["ring"] == "ell:0,1"
        assert d["prime"] == "(2, 3)"
        assert d["torsion"] == 6
        assert d["witness"]["type"] == "torsion"
