import ast
import contextlib
import importlib
import io
import itertools
import json
import pkgutil
import random
import re
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import check_read_number
import uniloc
from oracles import ELL_CURVES, ec_multiples_brute
from check_read_number import (ALPHABET, DIGITS as DIGIT_SPELLINGS, ENDS, SEPARATORS,
                               SIGNS, outcome)
from uniloc.errors import InputError, UnilocError
from uniloc import abgroup, cli, elliptic, errors, lcohom, quadorder, verdict
from uniloc.verdict import (CITATIONS, COHOMOLOGY_VIA_QUOTIENT, INFINITE,
                            UNDECIDED, VERDICT_KEYS, CohomologyWitness, Denominators,
                            HeightViolation, PrincipalElement, Rule, TorsionWitness, Verdict,
                            check_citations, read_number, render_ratio,
                            render_rational)

CITE = ("flat-universal-classical-hierarchy",)


def make(flat, universal, classical, citations=CITE, **kw):
    return Rule(flat, universal, classical, citations)("r", "p", **kw)


class TestHierarchy:
    def test_valid_combinations(self):
        make("yes", "yes", "yes")
        make("yes", "no", "no")
        make("no", "no", "no")
        make("yes", "yes", "no")
        make("yes", "unknown", "unknown")
        make("unknown", "unknown", "no")
        UNDECIDED("r", "p")  # no citation needed

    def test_violations(self):
        with pytest.raises(InputError):
            Rule("yes", "no", "yes", CITE)
        with pytest.raises(InputError):
            Rule("unknown", "yes", "yes", CITE)
        with pytest.raises(InputError):
            Rule("no", "unknown", "no", CITE)
        with pytest.raises(InputError):
            Rule("yes", "no", "unknown", CITE)

    def test_bad_tristate(self):
        with pytest.raises(InputError):
            Rule("maybe", "no", "no", CITE)
        with pytest.raises(InputError):
            Rule("yes", True, "no", CITE)

    def test_definite_needs_citation(self):
        # checked when the rule is built: a definite answer without anchors does not load
        for answers in (("yes", "yes", "yes"), ("unknown", "unknown", "no"),
                        ("yes", "unknown", "unknown")):
            with pytest.raises(InputError, match="^definite answers require at least "
                                                 "one citation anchor$"):
                Rule(*answers)
        assert UNDECIDED.cite(("mazur-bound",))("r", "p").rule.citations == ("mazur-bound",)

    def test_conclusive(self):
        assert make("yes", "no", "no").rule.conclusive
        assert not make("yes", "unknown", "unknown").rule.conclusive
        assert not UNDECIDED.conclusive


class TestCitations:
    def test_registry_statements(self):
        assert len(CITATIONS) == 20
        for anchor, statement in CITATIONS.items():
            assert anchor == anchor.lower()
            assert " " not in anchor
            assert statement.endswith(".")

    def test_check_citations(self):
        assert check_citations(("mazur-bound", "nagell-lutz")) == \
            ("mazur-bound", "nagell-lutz")
        with pytest.raises(InputError):
            check_citations(("mazur-bound", "unknown-anchor"))


class TestRendering:
    def test_render_rational(self):
        assert render_rational(3) == "3"
        assert render_rational(Fraction(-7, 2)) == "-7/2"
        assert render_rational(Fraction(4, 2)) == "2"

    def test_render_rational_digit_limit(self):
        # 4300 digits is what str(int) accepts; one more is an input error
        big = 10 ** 4300
        assert render_rational(big - 1) == "9" * 4300
        assert render_rational(Fraction(1 - big, big - 2)) == "-%s/%s8" % ("9" * 4300, "9" * 4299)
        for q in (big, -big, Fraction(1, big), Fraction(big + 1, 2)):
            with pytest.raises(InputError, match="more than 4300 digits"):
                render_rational(q)

    def test_render_rational_int_and_fraction_paths(self):
        # an int or a Fraction is read as it is; anything else goes through Fraction()
        for q in (0, 1, -1, 12, -7 ** 40, Fraction(0), Fraction(5), Fraction(-7, 2),
                  Fraction(10 ** 30, 3), Fraction(-1, 7 ** 40)):
            f = Fraction(q)
            want = str(f.numerator) if f.denominator == 1 else "%d/%d" % (f.numerator,
                                                                           f.denominator)
            assert render_rational(q) == want == render_ratio(f.numerator, f.denominator)
        assert render_rational(True) == "1" and render_rational("6/4") == "3/2"
        big = 10 ** 4300  # 4301 digits
        for q in (big, -big, 3 * big + 1, Fraction(big, 7), Fraction(-big - 1, 3),
                  Fraction(1, big), Fraction(-2, big + 1), Decimal(10) ** 4300):
            with pytest.raises(InputError, match="more than 4300 digits"):
                render_rational(q)
        for num, den in ((big, 1), (-big, 3), (1, big), (big + 1, big)):
            with pytest.raises(InputError, match="more than 4300 digits"):
                render_ratio(num, den)


class TestWitnesses:
    def test_denominators(self):
        w = Denominators(("2", "3"), ((("prime", "p2"), ("class_order", 2),
                                       ("generator", "2")),))
        assert w.describe() == "denominators {2, 3}"
        j = json.loads(w.json_text())
        assert j["type"] == "denominators"
        assert j["elements"] == ["2", "3"]
        assert j["details"] == [{"prime": "p2", "class_order": 2,
                                 "generator": "2"}]

    def test_torsion(self):
        w = TorsionWitness(6, "(point (2, 3), degree 1 mod 3)")
        assert w.describe() == "class has order 6"
        assert json.loads(w.json_text()) == {"type": "torsion", "order": 6,
                                             "class": "(point (2, 3), degree 1 mod 3)"}
        inf = TorsionWitness(INFINITE, "rho = +1")
        assert inf.describe() == "class is non-torsion (rho = +1)"
        assert json.loads(inf.json_text())["order"] == "infinite"

    def test_principal(self):
        w = PrincipalElement("X + U")
        assert w.describe() == "prime is principal, generated by X + U"
        assert json.loads(w.json_text()) == {"type": "principal", "element": "X + U"}

    def test_cohomology(self):
        w = CohomologyWitness("k[X,Y,U]/(XU)", ("X", "Y"), 2, (-1, -1, 0),
                              ("step one",))
        assert "H^2 of (X, Y) over k[X,Y,U]/(XU)" in w.describe()
        j = json.loads(w.json_text())
        assert j["multidegree"] == [-1, -1, 0]
        assert j["steps"] == ["step one"]
        assert j["box"] == 3

    def test_height_violation(self):
        w = HeightViolation("(X, Y, U)", 2)
        assert w.describe() == "minimal prime (X, Y, U) of V has height 2 > 1"
        assert json.loads(w.json_text()) == {"type": "height-violation",
                                             "prime": "(X, Y, U)", "height": 2}


class TestSerialization:
    def test_json_schema(self):
        v = make("yes", "yes", "yes", witness=PrincipalElement("t"),
                 notes=("a note",))
        d = json.loads(v.to_json())
        assert d == {
            "schema": 1, "ring": "r", "prime": "p",
            "flat": "yes", "universal": "yes", "classical": "yes",
            "witness": {"type": "principal", "element": "t"},
            "citations": ["flat-universal-classical-hierarchy"],
            "notes": ["a note"],
        }

    def test_json_is_sorted_and_indented(self):
        text = make("yes", "yes", "yes").to_json()
        keys = [line.split('"')[1] for line in text.splitlines()
                if line.startswith('  "')]
        assert keys == sorted(keys)

    def test_torsion_field(self):
        # between "schema" and "universal", and only when it is not None
        for torsion in (6, INFINITE):
            doc = json.loads(make("yes", "yes", "yes", torsion=torsion).to_json())
            assert (list(doc), doc["torsion"]) == (list(VERDICT_KEYS), torsion)
        assert "torsion" not in json.loads(make("yes", "yes", "yes").to_json())

    def test_to_text(self):
        v = make("yes", "yes", "yes",
                 witness=Denominators(("2",)),
                 notes=("V is empty",),
                 torsion=2)
        lines = v.to_text().splitlines()
        assert lines[0] == "ring: r"
        assert lines[1] == "prime: p"
        assert lines[2] == "flat epimorphism: yes"
        assert lines[3] == "universal localisation: yes"
        assert lines[4] == "classical localisation: yes"
        assert lines[5] == "torsion: 2"
        assert lines[6] == "witness: denominators {2}"
        assert lines[7] == "note: V is empty"
        assert lines[8] == "citations: flat-universal-classical-hierarchy"

    def test_to_text_unknown_has_no_witness_line(self):
        v = UNDECIDED("r", "p", notes=("outside the decision rules",))
        text = v.to_text()
        assert "witness:" not in text
        assert "citations:" not in text
        assert "note: outside the decision rules" in text


def canonical(text):
    return json.dumps(json.loads(text), sort_keys=True, indent=2)


GOLDEN = json.loads((Path(__file__).with_name("golden_verdicts.json")).read_text())

# integral short Weierstrass models with a point of order 4, 5, 7, 8, 9, 10
# and 12: Tate's normal form at a small parameter, moved to y^2 = x^3 + Ax + B
# with integer A, B; the multiples of these points and of oracles.ELL_CURVES
# (orders 2, 6, 7 and infinite) reach every order of Mazur's list
TORSION_CURVES = (
    (-11, 6, (-1, -4)),
    (-432, 8208, (-12, -108)),
    (-43, 166, (-5, -16)),
    (-44091, 3304854, (-141, -2592)),
    (-219, 1654, (-13, -48)),
    (-5806107, -1176975306, (-357, -29160)),
    (-33339627, 73697852646, (3027, -22680)),
)


def ell_draws():
    """(ring, prime) for O and the first 12 multiples of each stock point,
    on its integral model and on the models scaled by u = 2 and 3."""
    for a, b, P in TORSION_CURVES + ELL_CURVES:
        for Q in ec_multiples_brute(a, b, (Fraction(P[0]), Fraction(P[1])), 12):
            for u in (1, 2, 3):
                prime = "O" if Q is None else "%s,%s" % (Q[0] / u ** 2, Q[1] / u ** 3)
                yield "ell:%s,%s" % (Fraction(a, u ** 4), Fraction(b, u ** 6)), prime


def quad_draws(rng, count=60):
    """quad:d with one prime, two primes or a conjugate, and the inert p29
    of quad:-6681."""
    yield "quad:-6681", "p29"
    for _ in range(count):
        d = -rng.randint(1, 3000)
        ells = rng.sample((2, 3, 5, 7, 11, 13, 17, 19, 23), 2)
        yield "quad:%d" % d, rng.choice(("p%d" % ells[0], "p%d,p%d" % tuple(ells),
                                         "p%d,p%dbar" % (ells[0], ells[0])))


def segre_draws(rng, per_bidegree=4):
    """segre: every coordinate subset, linear pairs, and f of every bidegree up
    to (3, 3) with small random coefficients."""
    names = ("X", "Y", "U", "V")
    for size in range(1, 5):
        for subset in itertools.combinations(names, size):
            yield "segre", "(%s)" % ",".join(subset), "", False
    for d in range(4):
        for e in range(4):
            for _ in range(per_bidegree if d or e else 0):
                terms = ["%d*S0^%d*S1^%d*T0^%d*T1^%d" % (rng.choice((-3, -1, 1, 2, 5)), i,
                                                         d - i, j, e - j)
                         for i in range(d + 1) for j in range(e + 1) if rng.random() < 0.6]
                yield "segre", "", " + ".join(terms) or "S0", d + e > 2


class TestJsonLayout:
    """A verdict writes its JSON straight from its layout: the bytes that
    json.dumps(sort_keys=True, indent=2) gives for the same document."""

    def check(self, ring, prime="", fp="", asserted=False):
        try:
            v = cli.classify(ring, prime, fp, asserted)
        except UnilocError:
            return None
        text = v.to_json()
        assert text == canonical(text), (ring, prime, fp)
        return v

    def test_golden_corpus(self):
        argvs = {tuple(c["argv"]) for c in GOLDEN if c["argv"][0] == "classify"}
        parser = cli.build_parser()
        verdicts = 0
        for argv in sorted(argvs):
            try:
                with contextlib.redirect_stderr(io.StringIO()):
                    args = parser.parse_args(list(argv))
            except SystemExit:  # the recorded argparse refusals
                continue
            verdicts += self.check(args.ring, args.prime or "", args.fp or "",
                                   args.assert_irreducible) is not None
        assert verdicts == 84  # 152 classify calls, text and JSON

    def test_seeded_draws(self):
        rng = random.Random(25)
        kinds, orders = set(), set()
        draws = [(ring, prime, "", False) for ring, prime in itertools.chain(
            ell_draws(), quad_draws(rng))]
        draws += segre_draws(rng)
        for ring in ("twoplanes", "dim3hyper"):
            names = ("X", "Y", "U") if ring == "twoplanes" else ("X", "Y", "U", "V")
            draws += [(ring, ",".join(subset), "", False) for size in range(1, len(names) + 1)
                      for subset in itertools.combinations(names, size)]
        for draw in draws:
            v = self.check(*draw)
            if v is not None:
                kinds.add(v.witness and v.witness.kind)
                if v.witness and v.witness.kind == "torsion":
                    orders.add(v.witness.order)
        assert kinds == {None, "denominators", "torsion", "principal", "cohomology",
                         "height-violation"}
        assert orders == set(range(1, 11)) | {12, INFINITE}

    def test_edge_cases(self):
        rich = ("é\n\"\\  ", "", "tab\there")
        verdicts = [
            UNDECIDED("r", "p"),  # no witness, no notes, no citations
            make("yes", "yes", "yes", witness=Denominators(("X",))),  # no details
            make("yes", "yes", "yes", witness=Denominators((), ())),
            make("yes", "yes", "yes",
                 witness=Denominators(rich, ((), (("z", -1), ("a", "é"))))),
            make("yes", "no", "no", witness=TorsionWitness(INFINITE)),  # no class
            make("yes", "yes", "yes", witness=TorsionWitness(1, "c", ()), notes=rich),
            make("no", "no", "no", witness=CohomologyWitness("A", (), 0, (), ())),
            make("no", "no", "no", witness=HeightViolation(rich[0], 10 ** 40)),
            make("yes", "yes", "yes", witness=PrincipalElement(rich[0]), notes=("",)),
            make("yes", "yes", "yes", torsion=6),
            make("yes", "no", "no", witness=TorsionWitness(INFINITE), torsion=INFINITE),
            Rule("no", "no", "no", tuple(CITATIONS))(rich[0], rich[2]),
            quadorder.classify_dedekind(quadorder.QuadOrder(-5), []),  # V empty
        ]
        for v in verdicts:
            assert v.to_json() == canonical(v.to_json()), v
        keys = list(json.loads(verdicts[-3].to_json()))
        assert keys == sorted(keys) == list(VERDICT_KEYS)

    @pytest.mark.parametrize("ring, prime, fp, kind", [
        ("quad:-5", "p2,p3", "", "denominators"),
        ("twoplanes", "X", "", "denominators"),
        ("ell:0,1", "2,3", "", "torsion"),
        ("ell:0,-4", "2,2", "", "torsion"),
        ("segre", "", "S0*T0^2 + S1*T1^2", "torsion"),
        ("segre", "", "S0*T0 + S1*T1", "principal"),
        ("twoplanes", "X,Y", "", "cohomology"),
        ("dim3hyper", "X,Y,U,V", "", "height-violation"),
        ("ell:0,1/64", "1/2,3/8", "", None),
    ])
    def test_generic_printer_not_called(self, monkeypatch, ring, prime, fp, kind):
        # classify, both printers and both CLI formats: 0 calls of the
        # generic document printer, which every other --format json uses
        calls = []
        printer = errors.json_text
        for module in (errors, cli, elliptic, lcohom, abgroup):  # each holds the name
            monkeypatch.setattr(module, "json_text", lambda *a: calls.append(a) or printer(*a))
        v = cli.classify(ring, prime, fp)
        assert (v.witness and v.witness.kind) == kind
        v.to_text(), v.to_json()
        argv = ["classify", "--ring", ring] + (["--prime=" + prime] if prime else []) + \
            (["--fp", fp] if fp else [])
        with contextlib.redirect_stdout(io.StringIO()) as out:
            for fmt in ("text", "json"):
                cli.main(argv + ["--format", fmt])
        assert v.to_json() + "\n" in out.getvalue()
        assert calls == []
        with contextlib.redirect_stdout(io.StringIO()):  # the counter counts
            cli.main(["catalog", "list", "--format", "json"])
        assert calls


def all_rules():
    """Every module-level decision rule of the package."""
    rules = []
    for info in pkgutil.iter_modules(uniloc.__path__):
        module = importlib.import_module("uniloc." + info.name)
        rules += [v for v in vars(module).values() if isinstance(v, Rule)]
    return rules


class TestRules:
    def test_answers_and_anchors(self):
        rule = COHOMOLOGY_VIA_QUOTIENT.cite(("segre-trichotomy",))
        v = rule("r", "p", notes=["n"])
        assert v == Verdict("r", "p", rule, notes=("n",))
        assert (rule.flat, rule.universal, rule.classical) == ("no", "no", "no")
        assert rule.citations == ("segre-trichotomy", "coherence-local-cohomology",
                                  "top-degree-right-exactness")
        assert not UNDECIDED("r", "p").rule.conclusive

    def test_hierarchy_checked_when_built(self):
        with pytest.raises(InputError, match="^universal=yes requires flat=yes$"):
            Rule("no", "yes", "yes", CITE)

    def test_anchors_checked_when_built(self):
        with pytest.raises(InputError):
            UNDECIDED.cite(("no-such-fact",))

    def test_which_rules_answer_unknown(self):
        rules = set(all_rules())
        assert len(rules) == 19
        undecided = {rule for rule in rules
                     if "unknown" in (rule.flat, rule.universal, rule.classical)}
        assert undecided == {verdict.UNDECIDED, elliptic.TORSION_UNDECIDED,
                             lcohom.TWOPLANES_VANISHING}

    def test_every_rule_keeps_the_hierarchy(self):
        for rule in set(all_rules()):
            answers = (rule.flat, rule.universal, rule.classical)
            assert set(answers) <= {"yes", "no", "unknown"}
            assert rule.universal != "yes" or rule.flat == "yes"
            assert rule.classical != "yes" or rule.universal == "yes"
            assert rule.flat != "no" or rule.universal == "no"
            assert rule.universal != "no" or rule.classical == "no"

    def test_anchors_match_the_registry(self):
        carried = {a for rule in all_rules() for a in rule.citations}
        assert carried == set(CITATIONS)

    def test_only_verdict_module_builds_verdicts(self):
        builders = set()
        for path in Path(uniloc.__file__).parent.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call) and "Verdict" in (
                        getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                    builders.add(path.name)
        assert builders == {"verdict.py"}


# number text as int() and Fraction() read it, and near misses
DIGITS = st.one_of(st.from_regex(r"[0-9]{1,6}(_[0-9]{1,3}){0,2}", fullmatch=True),
                   st.sampled_from(["", "_", "1__0", "0" * 40, "\u0663", "\u00b2"]))
NUMBER_TEXT = st.one_of(
    st.tuples(st.sampled_from(["", " ", "+", "-", " -"]), DIGITS,
              st.sampled_from(["", "/", " / ", ".", "e", "E-", "e+"]), DIGITS,
              st.sampled_from(["", " ", "e3", "x"])).map("".join),
    st.text(alphabet="0123456789_.eE+-/ x", max_size=12),
)
# the spellings of tests/check_read_number.py and short ASCII runs: no
# exponent reaches 4300
SHORT_DIGITS = st.one_of(st.sampled_from(DIGIT_SPELLINGS),
                         st.from_regex(r"[0-9]{1,2}(_[0-9])?", fullmatch=True))


class TestReadNumber:
    @settings(max_examples=400, deadline=None)
    @given(text=NUMBER_TEXT)
    def test_reads_as_int_and_fraction_do(self, text):
        assert outcome(lambda t: read_number(t, "x"), text) == outcome(int, text)
        got = outcome(lambda t: read_number(t, "x", Fraction), text)
        if got is InputError:  # the runs are short, so only an exponent is refused
            exponent = re.search(r"[eE][-+]?(\d(?:_?\d)*)", text)
            assert int(exponent.group(1)) >= 4300
        else:  # the exponent is small, so Fraction(text) is cheap
            assert got == outcome(Fraction, text)

    @settings(max_examples=400, deadline=None)
    @given(text=st.one_of(
        st.tuples(st.sampled_from(SIGNS), SHORT_DIGITS, st.sampled_from(SEPARATORS),
                  SHORT_DIGITS, st.sampled_from(ENDS)).map("".join),
        st.text(alphabet=ALPHABET, max_size=4)))
    def test_fraction_kind_reads_integers_as_ints(self, text):
        # the value, or the exception type, of Fraction(text); an int only
        # where int(text) reads the same integer
        got = outcome(lambda t: read_number(t, "x", Fraction), text)
        want = outcome(Fraction, text)
        assert got == want
        assert type(got) is type(want) or type(got) is int and got == int(text)

    def test_fraction_kind_grid(self, capsys):
        # the grid tests/check_read_number.py runs under each Python
        assert check_read_number.main() == 0
        out = capsys.readouterr().out
        assert "80500 spellings read as Fraction reads them" in out
        assert "3250 spellings with an exponent of 4300 or more: refused exactly " \
               "where Fraction reads them" in out

    def test_digit_runs(self):
        assert read_number("9" * 4300, "x") == 10 ** 4300 - 1
        assert read_number("-" + "1_0" * 2150, "x") == -int("10" * 2150)
        assert read_number("1/" + "9" * 4300, "x", Fraction) == Fraction(1, 10 ** 4300 - 1)
        for text in ("9" * 4301, "1" + "_0" * 4300, "1/" + "9" * 4301):
            for kind in (int, Fraction):
                with pytest.raises(InputError, match=r"^x has an integer of more than 4300 "
                                                     r"digits, too long to print \(verdict"
                                                     r"\.PRINT_DIGITS = 4300\)$"):
                    read_number(text, "x", kind)

    def test_exponents(self):
        assert read_number("1e4299", "x", Fraction) == 10 ** 4299
        assert read_number("-2.5E-4_299", "x", Fraction) == Fraction(-25, 10 ** 4300)
        for text in ("1e4300", "1e-4300", "0e4300", "1e1_0000000", " 3E+99999999 "):
            with pytest.raises(InputError, match=r"^x has an exponent of 4300 or more, too "
                                                 r"long to print \(verdict\.PRINT_DIGITS = "
                                                 r"4300\)$"):
                read_number(text, "x", Fraction)
        with pytest.raises(ValueError):  # int() reads no exponent
            read_number("1e99999", "x")
        # the bound falls only on text Fraction reads: a mantissa before the "e"
        for text in ("e7188", "x1e7188", "1/2e7188", "1e7188x", ".e7188"):
            with pytest.raises(ValueError):
                read_number(text, "x", Fraction)
