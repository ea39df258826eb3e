import ast
import contextlib
import io
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import uniloc
from oracles import ELL_CURVES, ec_multiples_brute
from uniloc import abgroup, cli, elliptic, lcohom, quadorder, segre, spectool
from uniloc.cli import FAMILIES, classify, main
from uniloc.errors import json_text
from uniloc.errors import InputError
from uniloc.verdict import read_number

README = Path(__file__).resolve().parents[1] / "README.md"
TRACING = README.with_name("bench") / "tracing.py"
SRC = str(Path(uniloc.__file__).resolve().parents[1])


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    return code, (json.loads(out) if out else None), err


def assert_box_refused(capsys, *argv):
    """classify has no --box: argparse refuses it, whatever its value."""
    for box in ("0", "-3"):
        code, out, err = run(capsys, "classify", *argv, "--box=" + box)
        assert (code, out) == (2, ""), argv
        assert err.splitlines()[-1] == "uniloc: error: unrecognized arguments: --box=" + box


def run_python(*args, env=os.environ, **kwargs):
    """Run a fresh interpreter that finds uniloc on its path."""
    path = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args], env=dict(env, PYTHONPATH=path), **kwargs)


def run_module(*argv, **kwargs):
    """Run the CLI as `python -m uniloc.cli` in a fresh interpreter."""
    return run_python("-m", "uniloc.cli", *argv, **kwargs)


class TestCatalog:
    def test_list_text(self, capsys):
        code, out, _ = run(capsys, "catalog", "list")
        assert code == 0
        assert "quad:-5" in out
        assert "segre" in out
        assert "nagata" in out and "[not representable]" in out

    def test_list_json(self, capsys):
        code, doc, _ = run_json(capsys, "catalog", "list")
        assert code == 0
        assert doc["schema"] == 1
        ids = [e["id"] for e in doc["entries"]]
        assert ids == ["quad:-5", "ell:0,-4", "ell:-1,0", "ell:0,1",
                       "segre", "twoplanes", "dim3hyper", "nagata"]
        nagata = doc["entries"][-1]
        assert nagata["representable"] is False

    def test_rows_match_their_family(self):
        for family in FAMILIES:
            for row in family.rows:
                assert [f for f in FAMILIES if f.matches(row.id)] == [family]

    def test_readme_table_follows_registry(self):
        section = README.read_text().split("## Ring catalog", 1)[1].split("\n## ", 1)[0]
        rows = [[cell.strip() for cell in line.split("|")[1:-1]]
                for line in section.splitlines() if line.startswith("| `")]
        assert [row[0].strip("`") for row in rows] == [f.spec for f in FAMILIES]
        # a family without a classify function (nagata) is the one refused
        for row, family in zip(rows, FAMILIES):
            assert (row[-1] == "refused (exit 3)") == (family.classify is None), row
        assert rows[-1][0] == "`nagata`" and rows[-1][-1] == "refused (exit 3)"


class TestClassifyQuad:
    def test_p2_is_classical(self, capsys):
        code, out, _ = run(capsys, "classify", "--ring", "quad:-5",
                           "--prime", "p2")
        assert code == 0
        assert "classical localisation: yes" in out
        assert "denominators {2}" in out

    def test_p2_json(self, capsys):
        code, doc, _ = run_json(capsys, "classify", "--ring", "quad:-5",
                                "--prime", "p2")
        assert code == 0
        assert doc["ring"] == "quad:-5"
        assert doc["prime"] == "{p2}"
        assert (doc["flat"], doc["universal"], doc["classical"]) == \
            ("yes", "yes", "yes")
        assert doc["witness"]["elements"] == ["2"]
        assert doc["witness"]["details"][0]["class_order"] == 2

    def test_multiple_primes(self, capsys):
        code, doc, _ = run_json(capsys, "classify", "--ring", "quad:-5",
                                "--prime", "p2,p3bar,p11")
        assert code == 0
        labels = [d["prime"] for d in doc["witness"]["details"]]
        assert labels == ["p2", "p3bar", "p11"]
        assert doc["witness"]["details"][2]["generator"] == "11"

    def test_repeated_prime_is_listed_once(self, capsys):
        # p2 is ramified in Z[sqrt(-5)], so p2bar names the same ideal
        code, out, _ = run(capsys, "classify", "--ring", "quad:-5",
                           "--prime", "p2,p2bar")
        assert code == 0
        assert "prime: {p2}\n" in out and "witness: denominators {2}\n" in out
        code, doc, _ = run_json(capsys, "classify", "--ring", "quad:-5",
                                "--prime", "p3,p3")
        assert code == 0 and doc["prime"] == "{p3}"
        assert [d["prime"] for d in doc["witness"]["details"]] == ["p3"]
        assert doc["witness"]["elements"] == ["2-sqrt(-5)"]

    def test_other_discriminant(self, capsys):
        code, out, _ = run(capsys, "classify", "--ring", "quad:-1",
                           "--prime", "p5")
        assert code == 0 and "classical localisation: yes" in out

    def test_eighteen_digit_d(self, capsys):
        # D = 5 mod 8, so 2 is inert: only the squarefree test grows with |d|
        code, doc, _ = run_json(capsys, "classify", "--ring",
                                "quad:-1000000000000000003", "--prime", "p2")
        assert code == 0
        assert doc["ring"] == "quad:-1000000000000000003"
        assert doc["witness"]["elements"] == ["2"]

    def test_classify_past_the_forms_bound(self, capsys):
        # p2 is ramified and not principal: the class walk needs no class
        # number, so the class group's size does not bound classify
        code, doc, _ = run_json(capsys, "classify", "--ring", "quad:-250000000001",
                                "--prime", "p2")
        assert code == 0
        assert doc["witness"]["details"] == [
            {"prime": "p2", "class_order": 2, "generator": "2"}]

    def test_unprintable_generator(self, capsys):
        # class orders above 10^4: a generator of p^n would have more than
        # 4300 digits, and the walk stops as soon as that is certain
        for ring, prime, ideal, bound in (
                ("quad:-250000000003", "p7", "(7, (3+sqrt(-250000000003))/2)", 10191),
                ("quad:-999999999989", "p3", "(3, 1+sqrt(-999999999989))", 18051)):
            code, out, err = run(capsys, "classify", "--ring", ring, "--prime", prime)
            assert (code, out) == (2, ""), ring
            assert err == ("input error: the class order of %s is above %d, so a "
                           "generator of its power has more than 4300 digits, too "
                           "long to print%s\n" % (ideal, bound, TOO_LONG))

    def test_input_errors(self, capsys):
        cases = [
            ("classify", "--ring", "quad:-5", "--prime", "p11bar"),  # inert
            ("classify", "--ring", "quad:-5", "--prime", "p6"),  # composite
            ("classify", "--ring", "quad:-5", "--prime", "q2"),
            ("classify", "--ring", "quad:-5"),
            ("classify", "--ring", "quad:abc", "--prime", "p2"),
            ("classify", "--ring", "quad:-4", "--prime", "p2"),
        ]
        for argv in cases:
            code, _, err = run(capsys, *argv)
            assert code == 2, argv
            assert err.startswith("input error:"), argv

    def test_unread_options(self, capsys):
        for extra, option in ((("--fp", "S0"), "--fp"),
                              (("--assert-irreducible",), "--assert-irreducible")):
            code, out, err = run(capsys, "classify", "--ring", "quad:-5",
                                 "--prime", "p2", *extra)
            assert (code, out) == (2, ""), extra
            assert err == "input error: %s does not apply to quad:-5\n" % option


TOO_LONG = " (verdict.PRINT_DIGITS = 4300)"


class TestInputBounds:
    """A number past the print bound is refused before it is built, with one line."""

    @pytest.mark.parametrize("argv, message", [
        (("classify", "--ring", "ell:0,1", "--prime", "1e10000000,1"),
         "a rational number has an exponent of 4300 or more, too long to print" + TOO_LONG),
        (("classify", "--ring", "ell:0,1", "--prime", "2,3e-4300"),
         "a rational number has an exponent of 4300 or more, too long to print" + TOO_LONG),
        (("ell", "torsion", "--curve", "0,1_0e1_000_000", "--point", "O"),
         "a rational number has an exponent of 4300 or more, too long to print" + TOO_LONG),
        (("classify", "--ring", "ell:0,%s" % ("7" * 5000), "--prime", "O"),
         "a rational number has an integer of more than 4300 digits, too long to print"
         + TOO_LONG),
        (("classify", "--ring", "quad:-5", "--prime", "p" + "7" * 5000),
         "--prime has an integer of more than 4300 digits, too long to print" + TOO_LONG),
        (("classify", "--ring", "quad:-" + "7" * 5000, "--prime", "p2"),
         "the ring id has an integer of more than 4300 digits, too long to print" + TOO_LONG),
        (("classify", "--ring", "segre", "--fp", "%s*S0*T0 + S1*T1" % ("7" * 5000)),
         "the polynomial has an integer of more than 4300 digits, too long to print" + TOO_LONG),
        (("classify", "--ring", "segre", "--fp", "S0^" + "7" * 5000),
         "the polynomial has an integer of more than 4300 digits, too long to print" + TOO_LONG),
        (("classify", "--ring", "segre", "--fp", "S0^{0}*S0^{0}*T0 + S1^{0}*S1^{0}*T1"
          .format("9" * 4300)),
         "an S or T degree of f has an integer of more than 4300 digits, too long to print"
         + TOO_LONG),
        (("classify", "--ring", "ell:1e7188,1", "--prime", "0,1"),
         "a rational number has an exponent of 4300 or more, too long to print" + TOO_LONG),
        # no mantissa: not a number Fraction reads, whatever the exponent
        (("classify", "--ring", "ell:e7188,1", "--prime", "0,1"),
         "cannot read 'e7188' as a rational number"),
        (("classify", "--ring", "ell:e718,1", "--prime", "0,1"),
         "cannot read 'e718' as a rational number"),
    ])
    def test_refused(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", "input error: %s\n" % message)

    def test_largest_printable_values_still_read(self, capsys):
        code, doc, _ = run_json(capsys, "classify", "--ring", "quad:-5",
                                "--prime", "p" + "0" * 4299 + "2")
        assert code == 0 and doc["prime"] == "{p%s2}" % ("0" * 4299)
        # 10^4299 is read, and the point is then refused as off the curve
        code, _, err = run(capsys, "ell", "torsion", "--curve", "0,1", "--point", "1e4299,2")
        assert (code, err) == (2, "input error: point (1%s..., 2) is not on "
                                  "y^2 = x^3 + (0)x + (1)\n" % ("0" * 39))


BIG = "x" * 100_000
# S0 divides each of its 4000 terms of bidegree (1, 4000)
REDUCIBLE = " + ".join("%d*S0*T0^%d*T1^%d" % (k + 1, k, 4000 - k) for k in range(4000))


class TestQuotedInput:
    """A refusal quotes at most errors.QUOTE_CHARS characters of an input:
    a 100 KB malformed argument to each --ring family and to each other
    subcommand exits 2 with a short line on stderr."""

    @pytest.mark.parametrize("argv", [
        ("--ring", BIG),
        ("--ring", "quad:" + BIG, "--prime", "p2"),
        ("--ring", "quad:-5", "--prime", "p" + BIG),
        ("--ring", "quad:-5", "--prime", "p2" + "0" * 4000 + BIG),
        ("--ring", "ell:0," + BIG, "--prime", "O"),
        ("--ring", "ell:0,1", "--prime", BIG),
        ("--ring", "ell:0,1", "--prime", "1/" + BIG + ",2"),
        ("--ring", "ell:0,1", "--prime", "1/%s,1/%s" % ("3" * 4300, "7" * 4300)),
        ("--ring", "segre", "--fp", "S0*T0 + " + BIG),
        ("--ring", "segre", "--fp", REDUCIBLE),
        ("--ring", "segre", "--prime", "(%s)" % BIG),
        ("--ring", "segre", "--prime", "(%s)" % ",".join(["X"] * 50_000)),
        ("--ring", "twoplanes", "--prime", "(%s)" % BIG),
        ("--ring", "twoplanes", "--prime", "(%s)" % ("," * 100_000)),
        ("--ring", "dim3hyper", "--prime", "(%s)" % BIG),
        ("--ring", "quad:" + BIG, "--fp", "S0"),
        ("--ring", "segre", "--fp", " + ".join("S0^%d" % k for k in range(1, 10_000))),
    ], ids=["unknown ring", "quad ring", "quad prime", "quad prime digits", "ell curve",
            "ell point", "ell coordinate", "ell point off the curve", "segre fp",
            "segre fp reducible", "segre prime", "segre prime names", "twoplanes prime",
            "twoplanes empty prime", "dim3hyper prime", "option of another family",
            "segre fp degrees"])
    def test_refusal_is_short(self, capsys, argv):
        code, out, err = run(capsys, "classify", *argv)
        assert (code, out) == (2, "") and err.startswith("input error: ")
        assert len(err) < 1024, err[:200]

    # FILE is a file holding the text given; `catalog list` takes no
    # argument but --format, whose refusal argparse writes
    @pytest.mark.parametrize("argv, text", [
        (("classgroup", "--disc", "-" + "7" * 4290), None),
        (("ell", "torsion", "--curve", "0," + BIG, "--point", "O"), None),
        (("ell", "torsion", "--curve", "0,1", "--point", BIG), None),
        (("cech", "--vars", "X,Y", "--rel", BIG, "--ideal", "X", "--i", "1"), None),
        (("cech", "--vars", "X,Y", "--rel", "X*" + BIG, "--ideal", "X", "--i", "1"), None),
        (("cech", "--vars", "X,Y", "--ideal", BIG, "--i", "1"), None),
        (("cech", "--vars", "X", "--ideal", "X", "--i", "1", "--box", "9" * 4300), None),
        (("snf", "--matrix", BIG), None),
        (("snf", "--matrix", "FILE"), "1 1\n" + BIG),
        (("snf", "--matrix", "FILE"), "%s 1\n1\n" % ("9" * 4300)),
        (("spec", "enumerate", "--poset", BIG), None),
        (("spec", "enumerate", "--poset", "FILE"), "%s < %s\n" % (BIG, BIG)),
        (("spec", "enumerate", "--poset", "FILE"), "a < b < %s\n" % BIG),
    ], ids=["classgroup disc", "ell torsion curve", "ell torsion point", "cech rel",
            "cech rel names", "cech ideal", "cech box", "snf path", "snf entry", "snf header",
            "spec path",
            "spec self-edge", "spec line"])
    def test_subcommand_refusal_is_short(self, capsys, tmp_path, argv, text):
        if text is not None:
            (tmp_path / "input.txt").write_text(text)
            argv = [str(tmp_path / "input.txt") if arg == "FILE" else arg for arg in argv]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "") and err.startswith("input error: ")
        assert len(err) < 1024, err[:200]

    def test_inconclusive_is_short(self, capsys):
        # (0, 1/10^2000) lies on y^2 = x^3 + 1/10^4000, a model with a
        # denominator, which `ell torsion` names when it gives up
        code, out, err = run(capsys, "ell", "torsion", "--curve", "0,1/1" + "0" * 4000,
                             "--point", "0,1/1" + "0" * 2000)
        assert (code, out) == (4, "") and err.startswith("inconclusive: ")
        assert len(err) < 1024, err[:200]

    @pytest.mark.parametrize("path", ["nonexist.txt", "d" * 40, "d" * 41])
    def test_short_quotes_keep_their_bytes(self, capsys, tmp_path, monkeypatch, path):
        # a quote of up to errors.QUOTE_CHARS characters reads as before
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, "snf", "--matrix", path)
        cut = path if len(path) <= 40 else path[:40] + "..."
        quoted = repr(path) if len(path) <= 40 else repr(path[:40]) + "..."
        assert (code, out, err) == (2, "", "input error: cannot read %s: [Errno 2] No such file "
                                    "or directory: %s\n" % (cut, quoted))

    def test_short_polynomial_names_every_degree(self, capsys):
        # a 23-character f whose six degrees take 48 characters to list
        code, out, err = run(capsys, "classify", "--ring", "segre", "--fp", "S0+T0+S0*T0+S0^2+T0^2+1")
        assert (code, out, err) == (2, "", "input error: not bihomogeneous: S,T degrees "
                                    "[(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)]\n")

    @pytest.mark.parametrize("n", [39, 40, 41])
    def test_short_labels_and_coefficients_keep_their_bytes(self, capsys, tmp_path, n):
        # a quote cuts the input it names, never the fixed text around it
        label = "a" * n
        quoted = repr(label) if n <= 40 else repr(label[:40]) + "..."
        (tmp_path / "cycle.txt").write_text("%s < b\nb < %s\n" % (label, label))
        code, out, err = run(capsys, "spec", "enumerate", "--poset", str(tmp_path / "cycle.txt"))
        assert (code, out, err) == (2, "", "input error: containment cycle through %s\n" % quoted)
        b = "1" + "0" * (n - 1)
        cut = b if n <= 40 else b[:40] + "..."
        code, out, err = run(capsys, "ell", "torsion", "--curve", "0," + b, "--point", "1,1")
        assert (code, out, err) == (2, "", "input error: point (1, 1) is not on "
                                    "y^2 = x^3 + (0)x + (%s)\n" % cut)
        # (0, 1/d) lies on y^2 = x^3 + 1/d^2, whose denominator has n - 2 digits
        d = 10 ** (n // 2 - 1) if n % 2 else 4 * 10 ** (n // 2 - 2)
        b = "1/%d" % d ** 2
        assert len(b) == n
        cut = b if n <= 40 else b[:40] + "..."
        code, out, err = run(capsys, "ell", "torsion", "--curve", "0," + b, "--point", "0,1/%d" % d)
        assert (code, out, err) == (4, "", "inconclusive: torsion test needs integer "
                                    "coefficients, got y^2 = x^3 + (0)x + (%s)\n" % cut)


PRIME_BOUND = ("cannot test primality past the trial division bound: "
               "the square root is above quadorder.TRIAL_STEPS = 1000000")
SQUAREFREE_BOUND = ("cannot test squarefreeness past the trial division bound: "
                    "the cube root of |d| is above quadorder.TRIAL_STEPS = 1000000")


class TestTrialDivisionBound:
    """A prime or a d past the trial division bound ends at once with exit 2.

    Each call runs as a fresh process under a timeout, so an unbounded
    division loop fails the test instead of hanging the suite."""

    @pytest.mark.parametrize("argv, message", [
        (("classify", "--ring", "quad:-5", "--prime", "p1000000000000000003"), PRIME_BOUND),
        (("classify", "--ring", "quad:-5", "--prime", "p1000002000001"), PRIME_BOUND),
        (("classify", "--ring", "quad:-1000000000000000000000000000099", "--prime", "p2"),
         SQUAREFREE_BOUND),
        (("classgroup", "--disc", "-1000000000000000000000000000003"), SQUAREFREE_BOUND),
    ])
    def test_refused(self, argv, message):
        proc = run_module(*argv, capture_output=True, text=True, timeout=30)
        assert (proc.returncode, proc.stdout, proc.stderr) == \
            (2, "", "input error: %s\n" % message)

    def test_largest_prime_below_the_bound_answers(self):
        proc = run_module("classify", "--ring", "quad:-5", "--prime", "p999999999989",
                          "--format", "json", capture_output=True, text=True, timeout=30)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["prime"] == "{p999999999989}"

    @pytest.mark.parametrize("prime", ["p999999999989", "p999999999959"])  # split, inert
    def test_prime_divided_once(self, monkeypatch, prime):
        # decompose_prime proves l prime; classify_dedekind takes its word
        calls, is_prime = [], quadorder._is_prime
        monkeypatch.setattr(quadorder, "_is_prime",
                            lambda n: calls.append(n) or is_prime(n))
        assert classify("quad:-5", prime, None, False).rule.conclusive
        assert calls == [int(prime[1:])]


class TestClassgroup:
    def test_minus_twenty(self, capsys):
        code, out, _ = run(capsys, "classgroup", "--disc", "-20")
        assert code == 0
        assert "class number: 2" in out
        assert "form: 1 0 5" in out and "form: 2 2 3" in out

    def test_minus_twenty_json(self, capsys):
        code, doc, _ = run_json(capsys, "classgroup", "--disc", "-20")
        assert code == 0
        assert doc["class_number"] == 2
        assert doc["reduced_forms"] == [[1, 0, 5], [2, 2, 3]]

    def test_json_layout_on_seeded_discriminants(self, capsys):
        # the fixed layout is what json.dumps(sort_keys=True, indent=2) prints,
        # and it lists the forms of the text output; -3010279 has h = 1661
        rng = random.Random(2929)
        discs = []
        for _ in range(60):
            d = -rng.randint(1, 10 ** rng.randint(2, 6))
            discs.append(d if d % 4 == 1 else 4 * d)  # fundamental when d is squarefree
        listed = []
        for D in discs + [-3010279]:
            code, out, _ = run(capsys, "classgroup", "--disc", str(D), "--format", "json")
            if code:
                continue
            doc = json.loads(out)
            assert out == json.dumps(doc, sort_keys=True, indent=2) + "\n", D
            text = run(capsys, "classgroup", "--disc", str(D))[1].splitlines()
            assert text[:2] == ["discriminant: %d" % D, "class number: %d" % doc["class_number"]]
            assert [line.split()[1:] for line in text[2:]] == \
                [list(map(str, f)) for f in doc["reduced_forms"]], D
            assert all(line.startswith("form: ") for line in text[2:]), D
            listed.append(doc["class_number"])
        assert len(listed) > 20 and listed[-1] == 1661

    def test_class_number_one(self, capsys):
        code, doc, _ = run_json(capsys, "classgroup", "--disc", "-19")
        assert code == 0 and doc["class_number"] == 1

    def test_rejections(self, capsys):
        for disc in ("-21", "-16", "-12", "20"):
            code, _, err = run(capsys, "classgroup", "--disc", disc)
            assert code == 2, disc
            assert err.startswith("input error:"), disc


class TestClassifyEll:
    def test_non_torsion_point(self, capsys):
        code, out, _ = run(capsys, "classify", "--ring", "ell:0,-4",
                           "--prime", "2,2")
        assert code == 0
        assert "flat epimorphism: yes" in out
        assert "universal localisation: no" in out
        assert "classical localisation: no" in out
        assert "torsion: infinite" in out

    def test_torsion_point_json(self, capsys):
        code, doc, _ = run_json(capsys, "classify", "--ring", "ell:0,1",
                                "--prime", "2,3")
        assert code == 0
        assert doc["torsion"] == 6
        assert doc["classical"] == "yes"
        prog = doc["witness"]["line_program"]
        assert len(prog) == 5
        assert {"line", "exponent"} == set(prog[0])
        assert {"form", "kind", "through"} == set(prog[0]["line"])

    def test_two_torsion(self, capsys):
        code, doc, _ = run_json(capsys, "classify", "--ring", "ell:-1,0",
                                "--prime", "0,0")
        assert code == 0 and doc["torsion"] == 2

    def test_point_at_infinity(self, capsys):
        code, doc, _ = run_json(capsys, "classify", "--ring", "ell:0,1",
                                "--prime", "O")
        assert code == 0 and doc["torsion"] == 1

    def test_non_integral_model_is_inconclusive(self, capsys):
        code, doc, _ = run_json(capsys, "classify", "--ring", "ell:1/4,0",
                                "--prime", "1/2,1/2")
        assert code == 4
        assert doc["flat"] == "yes" and doc["universal"] == "unknown"

    def test_ring_id_is_rendered_from_the_curve(self, capsys):
        for ring in ("ell:0,+1", "ell:0, 1", "ell:0,2/2", "ell:0,1"):
            code, doc, _ = run_json(capsys, "classify", "--ring", ring,
                                    "--prime", "2,3")
            assert (code, doc["ring"]) == (0, "ell:0,1"), ring
        code, out, _ = run(capsys, "classify", "--ring", "ell:0/3,-8/2",
                           "--prime", "2,2")
        assert code == 0 and out.startswith("ring: ell:0,-4\n")

    def test_errors(self, capsys):
        for argv in (("classify", "--ring", "ell:0,1", "--prime", "1,1"),
                     ("classify", "--ring", "ell:0,0", "--prime", "1,1"),
                     ("classify", "--ring", "ell:0", "--prime", "1,1"),
                     ("classify", "--ring", "ell:0,1"),
                     ("classify", "--ring", "ell:0,1", "--prime", "2,3",
                      "--fp", "S0*T0")):
            code, _, err = run(capsys, *argv)
            assert code == 2, argv


class TestClassifySegre:
    def test_huge_balanced_exponent(self, capsys):
        # the lift is checked by embedding it again, which adds exponents
        e = 10 ** 9
        code, doc, err = run_json(capsys, "classify", "--ring", "segre", "--fp",
                                  "S0^%d*T0^%d + S1^%d*T1^%d" % (e, e, e, e))
        assert (code, err) == (0, "")
        assert doc["witness"]["element"] == "X^1000000000 + U^1000000000"

    def test_coordinate_pair(self, capsys):
        code, out, _ = run(capsys, "classify", "--ring", "segre",
                           "--prime", "(X,V)")
        assert code == 0
        assert "flat epimorphism: no" in out

    def test_balanced_fp(self, capsys):
        code, doc, _ = run_json(capsys, "classify", "--ring", "segre",
                                "--fp", "S0*T0 + S1*T1")
        assert code == 0
        assert doc["classical"] == "yes"
        assert doc["witness"]["element"] == "X + U"

    def test_unbalanced_fp(self, capsys):
        code, doc, _ = run_json(capsys, "classify", "--ring", "segre",
                                "--fp", "S0*T0^2 + S1*T1^2")
        assert code == 0
        assert (doc["flat"], doc["universal"]) == ("yes", "no")

    def test_one_sided_nonlinear_inconclusive(self, capsys):
        code, doc, _ = run_json(capsys, "classify", "--ring", "segre",
                                "--fp", "S0^2 + S1^2")
        assert code == 4
        assert doc["flat"] == "unknown"

    def test_assert_irreducible_flag(self, capsys):
        code, doc, _ = run_json(capsys, "classify", "--ring", "segre",
                                "--fp", "S0^2*T0^2 + S1^2*T1^2",
                                "--assert-irreducible")
        assert code == 0
        assert any("asserted by caller" in n for n in doc["notes"])

    def test_errors(self, capsys):
        for argv in (("classify", "--ring", "segre", "--prime", "(X,U)"),
                     ("classify", "--ring", "segre", "--fp", "S0*T0 + S1*T0"),
                     ("classify", "--ring", "segre", "--fp", "S0*W1"),
                     ("classify", "--ring", "segre",
                      "--prime", "(X,V)", "--fp", "S0"),
                     ("classify", "--ring", "segre",
                      "--prime", "(X,V)", "--assert-irreducible"),
                     ("classify", "--ring", "segre")):
            code, _, err = run(capsys, *argv)
            assert code == 2, argv

    def test_variable_factor_is_reducible(self, capsys):
        for extra in ((), ("--assert-irreducible",)):
            code, out, err = run(capsys, "classify", "--ring", "segre",
                                 "--fp", "S0^3*T0", *extra)
            assert (code, out) == (2, ""), extra
            assert err == ("input error: f = S0^3*T0 is reducible, "
                           "it does not define a prime\n")

    def test_box_below_one(self, capsys):
        assert_box_refused(capsys, "--ring", "segre", "--prime", "(X,V)")
        assert_box_refused(capsys, "--ring", "segre", "--fp", "S0*T0 + 2*S1*T1")


class TestClassifyTwoplanes:
    def test_the_bad_prime(self, capsys):
        code, doc, _ = run_json(capsys, "classify", "--ring", "twoplanes",
                                "--prime", "(X,Y)")
        assert code == 0
        assert (doc["flat"], doc["universal"], doc["classical"]) == \
            ("no", "no", "no")
        assert doc["witness"]["type"] == "cohomology"
        assert doc["witness"]["multidegree"] == [-1, -1, 0]

    def test_maximal_ideal_height_violation(self, capsys):
        code, doc, _ = run_json(capsys, "classify", "--ring", "twoplanes",
                                "--prime", "(X,Y,U)")
        assert code == 0
        assert doc["flat"] == "no"
        assert doc["witness"] == {"type": "height-violation",
                                  "prime": "(X, Y, U)", "height": 2}

    def test_single_variable_prime(self, capsys):
        code, doc, _ = run_json(capsys, "classify", "--ring", "twoplanes",
                                "--prime", "(X)")
        assert code == 0
        assert doc["classical"] == "yes"
        assert doc["witness"]["elements"] == ["X"]

    def test_two_branch_prime_is_partial(self, capsys):
        # (X, U) cuts the two branches apart: flat yes, the rest honest unknown
        code, doc, _ = run_json(capsys, "classify", "--ring", "twoplanes",
                                "--prime", "(X,U)")
        assert code == 4
        assert doc["flat"] == "yes"
        assert doc["universal"] == "unknown"

    def test_errors(self, capsys):
        for prime in ("(Y)", "(Z)", "()"):
            code, _, _ = run(capsys, "classify", "--ring", "twoplanes",
                             "--prime", prime)
            assert code == 2, prime
        code, _, err = run(capsys, "classify", "--ring", "twoplanes",
                           "--prime", "(X,Y)", "--fp", "S0")
        assert code == 2 and "--fp" in err

    def test_box_below_one(self, capsys):
        for prime in ("(X)", "(X,U)", "(X,Y)", "(X,Y,U)"):
            assert_box_refused(capsys, "--ring", "twoplanes", "--prime", prime)


class TestClassifyDim3:
    def test_xy_prime(self, capsys):
        code, doc, _ = run_json(capsys, "classify", "--ring", "dim3hyper",
                                "--prime", "(X,Y)")
        assert code == 0
        assert (doc["flat"], doc["universal"], doc["classical"]) == \
            ("no", "no", "no")
        assert doc["witness"]["multidegree"] == [-1, -1, 0]
        assert any("killing V" in s for s in doc["witness"]["steps"])

    def test_xv_prime(self, capsys):
        code, doc, _ = run_json(capsys, "classify", "--ring", "dim3hyper",
                                "--prime", "(X,V)")
        assert code == 0
        assert doc["witness"]["multidegree"] == [-1, 0, -1]
        assert any("killing Y" in s for s in doc["witness"]["steps"])

    def test_maximal_ideal(self, capsys):
        code, doc, _ = run_json(capsys, "classify", "--ring", "dim3hyper",
                                "--prime", "(X,Y,U,V)")
        assert code == 0
        assert doc["witness"]["height"] == 3

    def test_unsupported_primes(self, capsys):
        for prime in ("(X,U)", "(X)", "(W)"):
            code, _, _ = run(capsys, "classify", "--ring", "dim3hyper",
                             "--prime", prime)
            assert code == 2, prime

    def test_errors(self, capsys):
        for extra in (("--fp", "S0"), ("--assert-irreducible",)):
            code, _, err = run(capsys, "classify", "--ring", "dim3hyper",
                               "--prime", "(X,V)", *extra)
            assert code == 2, extra
            assert extra[0] in err

    def test_box_below_one(self, capsys):
        for prime in ("(X,Y)", "(X,V)", "(X,Y,U,V)"):
            assert_box_refused(capsys, "--ring", "dim3hyper", "--prime", prime)


class TestDispatch:
    def test_nagata_not_representable(self, capsys):
        code, _, err = run(capsys, "classify", "--ring", "nagata")
        assert code == 3
        assert err.startswith("not representable:")

    def test_classifier_read_at_call_time(self, monkeypatch):
        # the traced benchmark rebinds these module attributes after import
        seen = []
        for module, name in ((quadorder, "classify_dedekind"), (elliptic, "classify_point"),
                             (segre, "classify_segre"), (lcohom, "classify_twoplanes"),
                             (lcohom, "classify_dim3hyper")):
            def recorded(*args, _classify=getattr(module, name), _name=name):
                seen.append(_name)
                return _classify(*args)
            monkeypatch.setattr(module, name, recorded)
        for ring, prime, fp in (("quad:-5", "p2", ""), ("ell:0,1", "2,3", ""),
                                ("segre", "(X,V)", ""), ("segre", "", "S0*T0 + S1*T1"),
                                ("twoplanes", "(X,Y)", ""), ("dim3hyper", "(X,Y)", "")):
            assert classify(ring, prime, fp).rule.conclusive
        assert seen == ["classify_dedekind", "classify_point", "classify_segre",
                        "classify_segre", "classify_twoplanes", "classify_dim3hyper"]

    def test_unknown_ring(self, capsys):
        code, _, err = run(capsys, "classify", "--ring", "mystery")
        assert code == 2
        assert "catalog list" in err

    def test_no_box_option(self, capsys):
        # a classifier takes only its ring and its prime
        code, out, _ = run(capsys, "classify", "--help")
        assert code == 0 and "--ring" in out and "--box" not in out
        for argv in (("quad:-5", "--prime", "p2"), ("ell:0,1", "--prime", "2,3"),
                     ("dim3hyper", "--prime", "(U,V)"), ("nagata",)):
            for box in ("3", "0"):
                code, out, err = run(capsys, "classify", "--ring", *argv, "--box", box)
                assert (code, out) == (2, ""), argv
                assert err.splitlines()[-1] == "uniloc: error: unrecognized arguments: --box " + box


class TestEllTorsion:
    def test_finite(self, capsys):
        code, out, _ = run(capsys, "ell", "torsion", "--curve", "0,1",
                           "--point", "2,3")
        assert code == 0 and out.strip() == "torsion: 6"

    def test_infinite_json(self, capsys):
        code, doc, _ = run_json(capsys, "ell", "torsion", "--curve", "0,-4",
                                "--point", "2,2")
        assert code == 0
        assert doc == {"schema": 1, "curve": "ell:0,-4", "point": "2,2",
                       "torsion": "infinite"}

    def test_point_spellings(self, capsys):
        for spelling in ("O", "o", "inf", "infinity"):
            code, out, _ = run(capsys, "ell", "torsion", "--curve", "0,1",
                               "--point", spelling)
            assert code == 0 and "torsion: 1" in out

    def test_infinity_skips_integrality(self, capsys):
        code, out, _ = run(capsys, "ell", "torsion", "--curve", "1/4,0",
                           "--point", "O")
        assert code == 0 and "torsion: 1" in out

    def test_non_integral_model(self, capsys):
        code, _, err = run(capsys, "ell", "torsion", "--curve", "1/4,0",
                           "--point", "1/2,1/2")
        assert code == 4
        assert err.startswith("inconclusive:")

    def test_errors(self, capsys):
        for argv in (("ell", "torsion", "--curve", "0,1", "--point", "1,1"),
                     ("ell", "torsion", "--curve", "0", "--point", "O"),
                     ("ell", "torsion", "--curve", "0,1", "--point", "1,2,3")):
            code, _, _ = run(capsys, *argv)
            assert code == 2, argv


class TestCech:
    def test_twoplanes_h2_table(self, capsys):
        code, doc, _ = run_json(capsys, "cech", "--vars", "X,Y,U",
                                "--rel", "XU", "--ideal", "X,Y", "--i", "2",
                                "--box", "3")
        assert code == 0
        assert doc["witness"] == [-1, -1, 0]
        assert len(doc["dim_by_degree"]) == 9
        assert all(v == 1 for v in doc["dim_by_degree"].values())
        assert doc["dim_by_degree"]["-1,-1,0"] == 1
        assert set(doc["dim_by_degree"]) == {
            "%d,%d,0" % (x, y) for x in (-3, -2, -1) for y in (-3, -2, -1)}

    def test_star_relation_spelling(self, capsys):
        code1, doc1, _ = run_json(capsys, "cech", "--vars", "X,Y,U",
                                  "--rel", "X*U", "--ideal", "X,Y", "--i", "2")
        code2, doc2, _ = run_json(capsys, "cech", "--vars", "X,Y,U",
                                  "--rel", "XU", "--ideal", "X,Y", "--i", "2")
        assert code1 == code2 == 0 and doc1 == doc2

    def test_no_witness_is_proved_zero(self, capsys):
        # depth two kills H^1 of k[X,Y]; the sign-pattern scan proves it
        code, doc, err = run_json(capsys, "cech", "--vars", "X,Y",
                                  "--ideal", "X,Y", "--i", "1")
        assert (code, err) == (0, "")
        assert doc["witness"] is None
        assert doc["note"] == ("all 9 sign patterns of the multidegree give "
                               "zero: H^1 is identically zero")
        assert doc["dim_by_degree"] == {}

    def test_beyond_length_is_conclusive_zero(self, capsys):
        code, doc, _ = run_json(capsys, "cech", "--vars", "X,Y",
                                "--ideal", "X,Y", "--i", "3")
        assert code == 0
        assert doc["witness"] is None
        assert "identically zero" in doc["note"]

    def test_text_output(self, capsys):
        code, out, _ = run(capsys, "cech", "--vars", "X,Y,U", "--rel", "XU",
                           "--ideal", "X,Y", "--i", "2", "--box", "1")
        assert code == 0
        assert "algebra: k[X,Y,U]/(XU)" in out
        assert "H^2 dim 1 at (-1,-1,0)" in out

    def test_errors(self, capsys):
        for argv in (("cech", "--vars", "X,Y", "--rel", "XX",
                      "--ideal", "X", "--i", "1"),
                     ("cech", "--vars", "X,Y", "--rel", "XZ",
                      "--ideal", "X", "--i", "1"),
                     ("cech", "--vars", "a1,b2", "--rel", "a1b2",
                      "--ideal", "a1", "--i", "1"),
                     ("cech", "--vars", "X,Y", "--ideal", "Z", "--i", "1"),
                     ("cech", "--vars", "X,Y", "--ideal", "X", "--i", "-1"),
                     ("cech", "--vars", "X,Y", "--ideal", "X", "--i", "1",
                      "--box", "0")):
            code, _, _ = run(capsys, *argv)
            assert code == 2, argv

    def test_oversized_table_refused(self, capsys, monkeypatch):
        # 10^11 rows, counted from the sign patterns before any row is built
        argv = ("cech", "--vars", "X", "--ideal", "X", "--i", "1", "--box", "100000000000")
        for fmt in ("text", "json"):
            start = time.perf_counter()
            code, out, err = run(capsys, *argv, "--format", fmt)
            assert time.perf_counter() - start < 0.5
            assert (code, out) == (2, "")
            assert err == ("input error: the table for --box 100000000000 has more than "
                           "lcohom.CECH_ROWS_BOUND = %d rows\n" % lcohom.CECH_ROWS_BOUND)
        # twoplanes H^2 has 3^2 rows in box 3 and 4^2 in box 4
        monkeypatch.setattr(lcohom, "CECH_ROWS_BOUND", 9)
        twoplanes = ("cech", "--vars", "X,Y,U", "--rel", "XU", "--ideal", "X,Y", "--i", "2")
        assert run(capsys, *twoplanes, "--box", "3")[0] == 0
        assert run(capsys, *twoplanes, "--box", "4")[0] == 2

    def test_one_sign_pattern_scan(self, capsys, monkeypatch):
        calls = []
        key_dim = lcohom._key_dim

        def counted(*args):
            calls.append(args)
            return key_dim(*args)

        monkeypatch.setattr(lcohom, "_key_dim", counted)
        code, doc, _ = run_json(capsys, "cech", "--vars", "X,Y,U,V,W",
                                "--ideal", "X,Y", "--i", "1")
        assert code == 0 and doc["witness"] is None
        # 2^5 = 32 candidate patterns, and the complex takes one of 4
        # shapes (which of X, Y are negative): one _key_dim call per shape
        # but X and Y both negative, which is zero in degree 1 without one
        assert len(calls) == 3

    def test_relation_tests_refused_before_the_algebra(self, capsys, monkeypatch):
        # the 3003 relations of size 5 over 15 variables make a 1.8 s scan; a
        # relation named twice counts once
        monkeypatch.setattr(lcohom.MonomialAlgebra, "make", None)
        names = ["v%d" % j for j in range(15)]
        rels = ["*".join(r) for r in combinations(names, 5)]
        code, out, err = run(capsys, "cech", "--vars", ",".join(names), "--ideal", "v0",
                             "--rel", ",".join(rels + rels[:10]), "--i", "1")
        assert (code, out) == (2, "")
        assert err == ("input error: the sign-pattern scan tests 3003 relations at each of "
                       "2^15 candidates, past lcohom.CECH_RELATION_TESTS_BOUND = %d\n"
                       % lcohom.CECH_RELATION_TESTS_BOUND)

    def test_many_relations_refused_before_the_algebra(self, capsys, monkeypatch):
        # the 4950 pairs of 100 variables name 100 variables in a relation:
        # refused before the algebra compares its relations pairwise
        monkeypatch.setattr(lcohom.MonomialAlgebra, "make", None)
        names = ["v%d" % j for j in range(100)]
        rels = ",".join("%s*%s" % (r, s) for j, r in enumerate(names) for s in names[j + 1:])
        code, out, err = run(capsys, "cech", "--vars", ",".join(names), "--ideal", "v0",
                             "--rel", rels, "--i", "1")
        assert (code, out) == (2, "")
        assert err == ("input error: the sign-pattern scan over 100 variables in a relation "
                       "or the ideal is past lcohom.CECH_SCAN_BOUND = %d\n"
                       % lcohom.CECH_SCAN_BOUND)


class TestSnf:
    def test_small_matrix(self, capsys, tmp_path):
        mat = tmp_path / "m.txt"
        mat.write_text("# comment\n2 2\n2 4\n6 8\n")
        code, doc, _ = run_json(capsys, "snf", "--matrix", str(mat))
        assert code == 0
        assert doc["diagonal"] == [2, 4]
        assert doc["cokernel"] == {"free_rank": 0, "invariant_factors": [2, 4]}

    def test_row_vector(self, capsys, tmp_path):
        mat = tmp_path / "m.txt"
        mat.write_text("1 2\n1 1\n")
        code, doc, _ = run_json(capsys, "snf", "--matrix", str(mat))
        assert code == 0
        assert doc["cokernel"] == {"free_rank": 1, "invariant_factors": []}

    def test_zero_rows(self, capsys, tmp_path):
        # the header keeps the column count that an empty row list loses
        mat = tmp_path / "m.txt"
        mat.write_text("0 5\n")
        code, doc, _ = run_json(capsys, "snf", "--matrix", str(mat))
        assert code == 0
        assert (doc["D"], doc["U"], doc["diagonal"]) == ([], [], [])
        assert doc["W"] == [[int(i == j) for j in range(5)] for i in range(5)]
        assert doc["cokernel"] == {"free_rank": 5, "invariant_factors": []}

    def test_header_counts_are_digits(self, capsys, tmp_path):
        mat = tmp_path / "m.txt"
        for text in ("2 -3\n1 2 3\n", "\u00b2 1\n3\n"):
            mat.write_text(text)
            code, out, err = run(capsys, "snf", "--matrix", str(mat))
            assert (code, out) == (2, ""), text
            assert err == 'input error: first line must be "rows cols"\n'

    def test_cost_refused_before_elimination(self, capsys, tmp_path, monkeypatch):
        # eliminating a 5 x 5 matrix of 4299-digit entries takes 0.8 s, only to
        # reach the print refusal; the digits of its rows' longest entries
        # give a floor on their Hadamard bound that refuses it unread
        monkeypatch.setattr(abgroup, "smith_normal_form", None)
        r = random.Random(5)
        mat = tmp_path / "m.txt"
        mat.write_text("5 5\n" + "".join(
            " ".join(str(r.randint(-10 ** 4299 + 1, 10 ** 4299 - 1)) for _ in range(5)) + "\n"
            for _ in range(5)))
        code, out, err = run(capsys, "snf", "--matrix", str(mat))
        assert (code, out) == (2, "")
        assert err == ("input error: a 5 x 5 matrix with a Hadamard bound of at least 71390 bits "
                       "has n^2 * h^1.5 >= 476865695, past abgroup.SNF_COST_BOUND = %d\n"
                       % abgroup.SNF_COST_BOUND)

    def test_cost_floor_reads_no_entry(self, capsys, tmp_path, monkeypatch):
        # a 90 x 90 file of 4300-digit entries, 35 MB: reading its entries
        # took 1.3 s on a shared 2-core host before the exact bound refused
        # it; the floor refuses it before any int is built
        read = []
        monkeypatch.setattr(abgroup, "read_number",
                            lambda text, what, *kind: read.append(what) or read_number(text, what))
        mat = tmp_path / "m.txt"
        mat.write_text("90 90\n" + (" ".join(["9" * 4300] * 90) + "\n") * 90)
        code, out, err = run(capsys, "snf", "--matrix", str(mat))
        assert (code, out) == (2, "")
        assert err.startswith("input error: a 90 x 90 matrix with a Hadamard bound of at least ")
        assert "past abgroup.SNF_COST_BOUND = %d" % abgroup.SNF_COST_BOUND in err
        assert read == ["the matrix header"] * 2

    def test_row_errors_quote_a_prefix(self, capsys, tmp_path):
        # the 35 MB file of 4300-digit entries with its last entry spelled
        # "...x", and a row of them an entry short: each error quotes 40
        # characters of the row, not all 387 KB of it
        row = " ".join(["9" * 4300] * 90)
        mat = tmp_path / "m.txt"
        for text, message in (("90 90\n" + (row + "\n") * 89 + row[:-1] + "x\n",
                               "non-integer entry in row %r...\n"),
                              ("1 90\n" + row[:-4301] + "\n",
                               "row %r... does not have 90 entries\n")):
            mat.write_text(text)
            code, out, err = run(capsys, "snf", "--matrix", str(mat))
            assert (code, out, err) == (2, "", "input error: " + message % ("9" * 40))
            assert len(err) < 1024
        # a short row is quoted whole
        mat.write_text("2 2\n1 2\n3\n")
        assert run(capsys, "snf", "--matrix", str(mat)) == (
            2, "", "input error: row '3' does not have 2 entries\n")

    def test_cost_floor_passed_reads_exactly(self, capsys, tmp_path):
        # entries in [-133, 133]: three digits give a floor of 630 bits on h,
        # under the bound; the entries read give 877 bits, past it
        r = random.Random(90)
        mat = tmp_path / "m.txt"
        mat.write_text("90 90\n" + "".join(
            " ".join(str(r.randint(-133, 133)) for _ in range(90)) + "\n" for _ in range(90)))
        code, out, err = run(capsys, "snf", "--matrix", str(mat))
        assert (code, out) == (2, "")
        assert err == ("input error: a 90 x 90 matrix with a Hadamard bound of 877 bits has "
                       "n^2 * h^1.5 = 210370291, past abgroup.SNF_COST_BOUND = %d\n"
                       % abgroup.SNF_COST_BOUND)

    def test_cost_floor_keeps_read_errors(self, capsys, tmp_path):
        # past the floor, a file that does not read gets the error of its
        # first bad row, as without the floor
        big = "-0_0" + "9" * 4298
        rows = [" ".join([big] * 5)] * 5
        mat = tmp_path / "m.txt"
        for bad, message in (("x", "non-integer entry in row"), ("9" * 4301, "PRINT_DIGITS"),
                             ("1__0", "non-integer entry in row"),
                             (big + " 1", "does not have 5 entries")):
            mat.write_text("5 5\n" + "\n".join(rows[:3] + [" ".join([big] * 4 + [bad])] + rows[4:]))
            code, out, err = run(capsys, "snf", "--matrix", str(mat))
            assert (code, out) == (2, "") and message in err, (bad[:8], err[:100])
        # all read, the same rows are refused on the floor
        mat.write_text("5 5\n" + "\n".join(rows))
        code, out, err = run(capsys, "snf", "--matrix", str(mat))
        assert (code, out) == (2, "") and "Hadamard bound of at least" in err

    def test_cost_floor_reads_only_the_bad_row(self, capsys, tmp_path, monkeypatch):
        # the 35 MB file of 4300-digit entries with its last entry spelled
        # "...x": its first row that does not read is found from its tokens
        # and read alone (0.9 s on a shared 2-core host when every row
        # before it was read)
        read = []
        monkeypatch.setattr(abgroup, "read_number",
                            lambda text, what, *kind: read.append(what) or read_number(text, what))
        row = " ".join(["9" * 4300] * 90)
        mat = tmp_path / "m.txt"
        mat.write_text("90 90\n" + (row + "\n") * 89 + row[:-1] + "x\n")
        assert run(capsys, "snf", "--matrix", str(mat)) == (
            2, "", "input error: non-integer entry in row %r...\n" % ("9" * 40))
        assert read == ["the matrix header"] * 2 + ["matrix row 90"] * 90

    def test_cost_floor_errors_match_the_full_read(self, capsys, tmp_path, monkeypatch):
        # with the bound patched to 0 every file with a nonzero digit is past
        # the floor: a file with a row that does not read gets the error of
        # the full read, which the real bound takes on these small files
        rng = random.Random(34)
        good = ["7", "-12", "+3", "1_0", "0", "-0_0", "00", "\u0663", "9" * 30]
        bad = ["x", "1__0", "_1", "1_", "++1", "1.5", "0x1", "9" * 4301]
        mat = tmp_path / "m.txt"
        floored = 0
        for _ in range(300):
            rows, cols = rng.randint(1, 4), rng.randint(1, 4)
            lines = []
            for _ in range(rows):
                n = cols + (rng.random() < 0.1) * rng.choice((-1, 1))
                lines.append(" ".join(rng.choice(bad if rng.random() < 0.05 else good)
                                      for _ in range(n)))
            mat.write_text("%d %d\n%s\n" % (rows, cols, "\n".join(lines)))
            full = run(capsys, "snf", "--matrix", str(mat))
            with monkeypatch.context() as m:
                m.setattr(abgroup, "SNF_COST_BOUND", 0)
                floor = run(capsys, "snf", "--matrix", str(mat))
            if floor != full:  # only a file whose rows all read is refused on the cost
                assert full[0] == 0 and floor[:2] == (2, ""), (lines, full, floor)
                assert floor[2].endswith("past abgroup.SNF_COST_BOUND = 0\n")
                floored += "at least" in floor[2]
        assert floored > 50

    def test_cost_floor_is_a_floor(self):
        # every spelling read_number reads as an int passes _reads_as_int and
        # no other; the floor never passes the bits of x * x
        rng = random.Random(2)
        alphabet = "0123456789_+-x\u0663\uff17"
        spellings = ["".join(rng.choice(alphabet) for _ in range(rng.randint(1, 8)))
                     for _ in range(3000)]
        spellings += [sign + "0" * zeros + "_".join(str(rng.randint(1, 10 ** 40))
                                                    for _ in range(rng.randint(1, 3)))
                      for sign in ("", "+", "-") for zeros in (0, 1, 5) for _ in range(50)]
        spellings += ["9" * 4300, "9" * 4301, "-" + "1" * 4300, "1_" * 4300 + "1"]
        reads = 0
        for t in spellings:
            try:
                x = read_number(t, "x")
            except (ValueError, InputError):
                assert not abgroup._reads_as_int(t), t
                continue
            assert abgroup._reads_as_int(t), t
            assert abgroup._square_bits_floor(t) <= (x * x).bit_length(), t
            reads += 1
        assert reads > 500

    def test_one_smith_normal_form_call(self, capsys, tmp_path, monkeypatch):
        calls = []
        snf = abgroup.smith_normal_form
        monkeypatch.setattr(abgroup, "smith_normal_form",
                            lambda M: calls.append(M) or snf(M))
        mat = tmp_path / "m.txt"
        mat.write_text("2 3\n2 4 4\n-6 6 12\n")
        code, doc, _ = run_json(capsys, "snf", "--matrix", str(mat))
        assert code == 0
        assert len(calls) == 1
        assert doc == {
            "schema": 1,
            "D": [[2, 0, 0], [0, 6, 0]],
            "U": [[1, 0], [3, 1]],
            "W": [[1, 0, -2], [0, -1, 4], [0, 1, -3]],
            "diagonal": [2, 6],
            "cokernel": {"free_rank": 1, "invariant_factors": [2, 6]},
        }

    def test_unprintable_entries(self, tmp_path):
        # D = diag(1, (10^2999 + 1)(10^2999 + 3)) has a 5999-digit entry
        mat = tmp_path / "m.txt"
        mat.write_text("2 2\n%d 0\n0 %d\n" % (10 ** 2999 + 1, 10 ** 2999 + 3))
        for fmt in ("text", "json"):
            proc = run_module("snf", "--matrix", str(mat), "--format", fmt,
                              capture_output=True, text=True)
            assert (proc.returncode, proc.stdout) == (2, ""), fmt
            assert proc.stderr == ("input error: the Smith normal form has an integer "
                                   "of more than 4300 digits, too long to print%s\n"
                                   % TOO_LONG)

    def test_overlong_entry(self, capsys, tmp_path):
        # int() would refuse 10^4400 as if it were not a number
        mat = tmp_path / "m.txt"
        mat.write_text("2 1\n3\n1%s\n" % ("0" * 4400))
        code, out, err = run(capsys, "snf", "--matrix", str(mat))
        assert (code, out) == (2, "")
        assert err == ("input error: matrix row 2 has an integer of more than "
                       "4300 digits, too long to print%s\n" % TOO_LONG)
        mat.write_text("%s 1\n3\n" % ("7" * 5000))
        code, out, err = run(capsys, "snf", "--matrix", str(mat))
        assert (code, out) == (2, "")
        assert err == ("input error: the matrix header has an integer of more than "
                       "4300 digits, too long to print%s\n" % TOO_LONG)

    def test_text_output(self, capsys, tmp_path):
        mat = tmp_path / "m.txt"
        mat.write_text("1 1\n5\n")
        code, out, _ = run(capsys, "snf", "--matrix", str(mat))
        assert code == 0
        assert "D = U * M * W with" in out
        assert "invariant factors [5]" in out

    def test_errors(self, capsys, tmp_path):
        bad_header = tmp_path / "a.txt"
        bad_header.write_text("two cols\n1 2\n")
        bad_rows = tmp_path / "b.txt"
        bad_rows.write_text("2 2\n1 2\n")
        bad_entry = tmp_path / "c.txt"
        bad_entry.write_text("1 2\n1 x\n")
        empty = tmp_path / "d.txt"
        empty.write_text("# nothing\n")
        for path in (bad_header, bad_rows, bad_entry, empty,
                     tmp_path / "missing.txt"):
            code, _, _ = run(capsys, "snf", "--matrix", str(path))
            assert code == 2, path


class TestSpecEnumerate:
    def test_truncated_spectrum(self, capsys, tmp_path):
        poset = tmp_path / "p.txt"
        poset.write_text("(0) < (2)\n(0) < (3)\n(0) < (5)\n")
        code, doc, _ = run_json(capsys, "spec", "enumerate",
                                "--poset", str(poset))
        assert code == 0
        assert doc["count"] == 9
        assert doc["heights"]["(0)"] == 0 and doc["heights"]["(2)"] == 1
        assert doc["closed_sets"][0] == []
        assert sorted(doc["closed_sets"][-1]) == ["(0)", "(2)", "(3)", "(5)"]

    def test_text(self, capsys, tmp_path):
        poset = tmp_path / "p.txt"
        poset.write_text("a < b\n")
        code, out, _ = run(capsys, "spec", "enumerate", "--poset", str(poset))
        assert code == 0
        assert "count: 3" in out
        assert "closed: {b}" in out

    def test_json_layout_on_random_posets(self, capsys, tmp_path):
        # the fixed layout is what json.dumps(sort_keys=True, indent=2) prints,
        # escapes included, and it lists the closed sets of the text output
        rng = random.Random(3030)
        poset = tmp_path / "p.txt"
        for _ in range(40):
            labels = rng.sample(["p%d" % k for k in range(20)] + ["\u00e9", 'q"', "b\\"],
                                rng.randint(1, 12))
            lines = ["%s < %s" % (labels[i], labels[j]) for i in range(len(labels))
                     for j in range(i + 1, len(labels)) if rng.random() < 0.25]
            poset.write_text("\n".join(lines + labels) + "\n")
            code, out, _ = run(capsys, "spec", "enumerate", "--poset", str(poset),
                               "--format", "json")
            doc = json.loads(out)
            assert code == 0 and out == json.dumps(doc, sort_keys=True, indent=2) + "\n"
            text = run(capsys, "spec", "enumerate", "--poset", str(poset))[1].splitlines()
            assert [line[len("closed: {"):-1] for line in text[3:]] == \
                [", ".join(c) for c in doc["closed_sets"]]

    def test_errors(self, capsys, tmp_path):
        cycle = tmp_path / "c.txt"
        cycle.write_text("a < b\nb < a\n")
        bad = tmp_path / "bad.txt"
        bad.write_text("a < b < c\n")
        for path in (cycle, bad, tmp_path / "missing.txt"):
            code, _, _ = run(capsys, "spec", "enumerate", "--poset", str(path))
            assert code == 2, path

    def test_long_top_down_chain(self, capsys, tmp_path):
        poset = tmp_path / "chain.txt"
        poset.write_text("".join("n%d < n%d\n" % (i - 1, i) for i in range(1199, 0, -1)))
        code, out, err = run(capsys, "spec", "enumerate", "--poset", str(poset))
        assert (code, out) == (2, "")
        assert err == ("input error: poset has 1200 nodes, enumeration is capped at "
                       "spectool.ENUM_BOUND = 16\n")

    def test_size_refused_before_the_order_is_built(self, capsys, tmp_path, monkeypatch):
        # the order stores every node's closure: a chain of n nodes takes n^2/2
        # entries, so a call that reached build would not finish
        monkeypatch.setattr(spectool.SpecPoset, "build", None)
        poset = tmp_path / "chain.txt"
        poset.write_text("".join("n%d < n%d\n" % (i, i + 1) for i in range(100000)))
        start = time.perf_counter()
        code, out, err = run(capsys, "spec", "enumerate", "--poset", str(poset))
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert err == ("input error: poset has 100001 nodes, enumeration is capped at "
                       "spectool.ENUM_BOUND = 16\n")
        # the size comes first, before the cycle that building would find
        poset.write_text("".join("n%d < n%d\n" % (i, (i + 1) % 17) for i in range(17)))
        code, _, err = run(capsys, "spec", "enumerate", "--poset", str(poset))
        assert (code, err) == (2, "input error: poset has 17 nodes, enumeration is capped "
                                  "at spectool.ENUM_BOUND = 16\n")


LABELS = st.sampled_from(["a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k", "l"])
POSET_LINES = st.one_of(
    st.tuples(LABELS, LABELS).map(lambda e: "%s < %s" % e),  # self-loops and cycles too
    LABELS,
    st.sampled_from(["", "# note", "a < b < c", "a <", "< b", "two words", "<"]),
)
NAMES = st.sampled_from(["X", "Y", "U", "V", "Z", ""])
FORMATS = st.sampled_from(["text", "json"])


def ell_multiples():
    """("a,b", "x,y") for O and kP, 1 <= |k| <= 4, on the benchmark's
    curves, the catalogued three among them, and on their non-integral
    models (a/u^4, b/u^6) with the points (x/u^2, y/u^3)."""
    out = []
    for a, b, P in ELL_CURVES:
        a, b = Fraction(a), Fraction(b)
        for Q in ec_multiples_brute(a, b, tuple(map(Fraction, P)), 4):
            for u in (1, 2, 3):
                point = "O" if Q is None else "%s,%s" % (Q[0] / u ** 2, Q[1] / u ** 3)
                out.append(("%s,%s" % (a / u ** 4, b / u ** 6), point))
    return out


RATIONAL_TEXT = st.one_of(
    st.fractions(min_value=-40, max_value=40, max_denominator=6).map(str),
    # exponent notation: Fraction builds 10^|e|, so a large e is refused unbuilt
    st.tuples(st.sampled_from(["1", "-2.5", "0", ".5", "3_0"]), st.sampled_from("eE"),
              st.one_of(st.integers(-6, 6), st.sampled_from(
                  [4299, 4300, -4300, "1_0000000", 10 ** 7, 10 ** 100]))
              ).map(lambda t: "%s%s%s" % t),
    st.just("7" * 5000),
)
CURVE_TEXT = st.one_of(
    st.tuples(RATIONAL_TEXT, RATIONAL_TEXT).map(",".join),  # singular (0,0) too
    st.sampled_from(["-3,2", "1/4,0", "0", "1,2,3", "a,b", "1/0,1", "nan,1", " , "]),
    st.text(max_size=8),
)
POINT_TEXT = st.one_of(
    st.tuples(RATIONAL_TEXT, RATIONAL_TEXT).map(",".join),
    st.sampled_from(["O", "inf", "", "1", "1,2,3", "x,y", "1/0,2", "2,3,"]),
    st.text(max_size=8),
)
ELL_INPUTS = st.one_of(st.sampled_from(ell_multiples()), st.tuples(CURVE_TEXT, POINT_TEXT))


def mostly(common, *rare):
    """common in about three draws of four, else one of rare."""
    return st.sampled_from([0, 0, 0, 1]).flatmap(
        lambda r: st.one_of(*rare) if r else common)


BOX = st.sampled_from([[]] * 6 + [["--box", "3"], ["--box", "0"]])  # classify has no --box
LONG_DIGITS = "7" * 5000
QUAD_RINGS = mostly(
    st.sampled_from([-1, -2, -3, -5, -6, -10, -23, -47, -71, -163, -10007, -999983]),
    st.integers(-10 ** 6, 10 ** 6), st.integers(-10 ** 31, 10 ** 31),
    st.sampled_from(["", "x", "-4", "0", "-" + LONG_DIGITS])).map("quad:{}".format)
ELL = mostly(st.sampled_from([2, 3, 5, 7, 11, 13, 29, 101, 10007, 99999989]),
             st.integers(0, 100), st.integers(0, 10 ** 8), st.integers(0, 10 ** 20),
             st.sampled_from([10 ** 12 + 39, 10 ** 18 + 3]))
QUAD_PRIMES = mostly(
    st.lists(st.tuples(ELL, st.sampled_from(["", "", "bar"])).map("p%s%s".__mod__),
             min_size=1, max_size=3).map(",".join),
    st.sampled_from(["", "p", "2", "p2bar,", "p" + LONG_DIGITS]),
    st.text(max_size=8))
VARIABLE_SETS = mostly(
    st.sampled_from(["(X)", "(U)", "(X,Y)", "(X,V)", "(Y,U)", "(U,V)", "(V, X)", "(X,U)",
                     "(X,Y,U)", "(X,Y,U,V)"]),
    st.lists(NAMES, max_size=5).map(lambda ns: "(%s)" % ",".join(ns)),
    st.text(max_size=8))
# exponents up to 10^9: the lift of a balanced f is checked by adding exponents
EXPONENT = mostly(st.integers(0, 3), st.integers(0, 10 ** 9), st.just(LONG_DIGITS))
COEFFICIENT = mostly(st.integers(-3, 3).map(str),
                     st.sampled_from(["1/2", "3/0", "-7/4", LONG_DIGITS, "1/" + LONG_DIGITS]))
S_VARIABLE = mostly(st.sampled_from(["S0", "S1", "T0", "T1"]), st.sampled_from(["X", "s0"]))
FACTOR = st.one_of(S_VARIABLE, COEFFICIENT,
                   st.tuples(S_VARIABLE, EXPONENT).map("%s^%s".__mod__))
SEGRE_FP = mostly(
    # c1*S0^a*T0^b +- c2*S1^a*T1^b, bihomogeneous of bidegree (a, b)
    st.tuples(COEFFICIENT, EXPONENT, EXPONENT, st.sampled_from([" + ", " - "]), COEFFICIENT)
    .map(lambda t: "{0}*S0^{1}*T0^{2}{3}{4}*S1^{1}*T1^{2}".format(*t)),
    st.lists(st.lists(FACTOR, min_size=1, max_size=4).map("*".join),
             min_size=1, max_size=4).map(" + ".join),
    st.text(alphabet="ST01^*+-/ 23", max_size=16))
CLASSIFY = st.one_of(
    st.tuples(QUAD_RINGS, QUAD_PRIMES.map(lambda p: ["--prime=" + p])),
    st.tuples(st.just("segre"), st.one_of(
        VARIABLE_SETS.map(lambda p: ["--prime=" + p]),
        st.tuples(SEGRE_FP, st.sampled_from([[], [], ["--assert-irreducible"]]))
        .map(lambda t: ["--fp=" + t[0]] + t[1]))),
    st.tuples(st.sampled_from(["twoplanes", "dim3hyper"]),
              VARIABLE_SETS.map(lambda p: ["--prime=" + p])),
)
MATRIX_ENTRY = st.one_of(st.integers(-10 ** 6, 10 ** 6), st.integers(-10 ** 40, 10 ** 40))
MATRIX_TEXT = st.tuples(st.integers(0, 6), st.integers(0, 6)).flatmap(
    lambda shape: st.tuples(
        mostly(st.just("%d %d" % shape),
               st.sampled_from(["", "2", "a b", "-1 2", "2 -3", "\u00b2 1", "1 1",
                                LONG_DIGITS + " 1"])),
        st.lists(st.lists(MATRIX_ENTRY, min_size=shape[1], max_size=shape[1])
                 .map(lambda row: " ".join(map(str, row))),
                 min_size=shape[0], max_size=shape[0]),
        mostly(st.just([]), st.sampled_from([["x"], ["1.5"], ["1e5"], ["1_0"], [LONG_DIGITS],
                                             ["# note"], ["1 2 3 4 5 6 7"]])),
    ).map(lambda t: "\n".join([t[0]] + t[1] + t[2]) + "\n"))
DISC = mostly(st.one_of(st.sampled_from([-3, -4, -20, -23, -47, -163, -40003, -999983]),
                        st.integers(-10 ** 7, 10 ** 7)).map(str),
              st.integers(-10 ** 31, -10 ** 12).map(str),
              st.sampled_from(["", "x", "-4000000000003", "-" + LONG_DIGITS,
                               "-1000000000000000000000000000003"]))


def main_quietly(argv):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


class TestFuzz:
    """Any input ends in a stated exit code, never in an exception."""

    @settings(max_examples=150, deadline=None)
    @given(lines=st.lists(POSET_LINES, max_size=16))
    def test_spec_enumerate(self, tmp_path_factory, lines):
        poset = tmp_path_factory.mktemp("fuzz") / "poset.txt"
        poset.write_text("\n".join(lines) + "\n")
        assert main_quietly(["spec", "enumerate", "--poset", str(poset)]) in (0, 2, 3, 4)

    @settings(max_examples=150, deadline=None)
    @given(variables=st.lists(NAMES, max_size=4), free=st.integers(0, 20),
           rel=st.lists(st.lists(NAMES, max_size=3), max_size=3),
           ideal=st.lists(NAMES, max_size=4),
           i=st.integers(-2, 5),
           box=st.integers(-1, 3) | st.sampled_from([10 ** 6, 10 ** 11, 2 ** 64]),
           star=st.booleans(), fmt=st.sampled_from(["text", "json"]))
    def test_cech(self, variables, free, rel, ideal, i, box, star, fmt):
        # up to 24 variables, most of them free: in no relation and no generator
        variables = variables + ["W%d" % k for k in range(free)]
        argv = ["cech", "--vars=" + ",".join(variables),
                "--rel=" + ",".join(("*" if star else "").join(r) for r in rel),
                "--ideal=" + ",".join(ideal), "--i=%d" % i, "--box=%d" % box,
                "--format=" + fmt]
        assert main_quietly(argv) in (0, 2, 3, 4)

    @settings(max_examples=150, deadline=None)
    @given(curve_point=ELL_INPUTS, fmt=FORMATS)
    def test_ell_torsion(self, curve_point, fmt):
        curve, point = curve_point
        argv = ["ell", "torsion", "--curve=" + curve, "--point=" + point, "--format=" + fmt]
        assert main_quietly(argv) in (0, 2, 3, 4)

    @settings(max_examples=150, deadline=None)
    @given(curve_point=ELL_INPUTS, box=BOX, fmt=FORMATS)
    def test_classify_ell(self, curve_point, box, fmt):
        curve, point = curve_point
        argv = ["classify", "--ring=ell:" + curve, "--prime=" + point, "--format=" + fmt]
        assert main_quietly(argv + box) in (0, 2, 3, 4)

    @settings(max_examples=300, deadline=None)
    @given(ring_options=CLASSIFY, box=BOX, fmt=FORMATS)
    def test_classify(self, ring_options, box, fmt):
        ring, options = ring_options
        argv = ["classify", "--ring=" + ring, *options, "--format=" + fmt]
        assert main_quietly(argv + box) in (0, 2, 3, 4)

    @settings(max_examples=150, deadline=None)
    @given(text=MATRIX_TEXT, fmt=FORMATS)
    def test_snf(self, tmp_path_factory, text, fmt):
        matrix = tmp_path_factory.mktemp("fuzz") / "matrix.txt"
        matrix.write_text(text)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(["snf", "--matrix", str(matrix), "--format=" + fmt])
        assert code in (0, 2, 3, 4)
        if code == 0 and fmt == "json":
            # the first line that is not blank or a comment is the header "r c"
            header = next(filter(None, (line.split("#", 1)[0].strip()
                                        for line in text.splitlines())))
            rows, cols = map(int, header.split())
            doc = json.loads(out.getvalue())
            assert [len(row) for row in doc["U"]] == [rows] * rows
            assert [len(row) for row in doc["W"]] == [cols] * cols
            rank = sum(1 for d in doc["diagonal"] if d)
            assert doc["cokernel"]["free_rank"] + rank == cols

    @settings(max_examples=150, deadline=None)
    @given(disc=DISC, fmt=FORMATS)
    def test_classgroup(self, disc, fmt):
        assert main_quietly(["classgroup", "--disc=" + disc, "--format=" + fmt]) in (0, 2, 3, 4)


class TestHarness:
    def test_no_subcommand_prints_help(self, capsys):
        code, out, _ = run(capsys)
        assert code == 2
        assert "usage: uniloc" in out

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0

    def test_unknown_flag(self, capsys):
        assert run(capsys, "classify", "--rings", "segre")[0] == 2

    def test_deterministic_output(self, capsys):
        first = run(capsys, "classify", "--ring", "segre", "--prime", "(X,V)",
                    "--format", "json")
        second = run(capsys, "classify", "--ring", "segre", "--prime", "(X,V)",
                     "--format", "json")
        assert first == second

    def test_module_entry_point(self):
        proc = run_module("classgroup", "--disc", "-20", "--format", "json",
                          capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["class_number"] == 2

    def test_failed_self_check_is_one_line(self, capsys, monkeypatch):
        monkeypatch.setattr(elliptic, "check_line_program", lambda *args: False)
        code, out, err = run(capsys, "classify", "--ring", "ell:0,1", "--prime", "2,3")
        assert (code, out) == (1, "")
        assert err == "internal error: constructed program failed its own checker\n"

    def test_closed_stdout_is_not_a_traceback(self):
        # help is written through argparse, the listing through _print: the
        # final flush of cli.run finds the reader gone either way
        for argv in (("--help",), ("catalog", "list")):
            for buffered in (True, False):
                read_end, write_end = os.pipe()
                os.close(read_end)
                try:
                    proc = fresh(*argv, buffered=buffered, stdout=write_end,
                                 stderr=subprocess.PIPE, text=True)
                finally:
                    os.close(write_end)
                assert (proc.returncode, proc.stderr) == (0, ""), (argv, buffered)



def fresh(*argv, buffered, **kwargs):
    """Run `python -m uniloc.cli`, its stdout block buffered unless
    PYTHONUNBUFFERED is set, as it may be in the caller's environment."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    return run_module(*argv, env=env, timeout=60, **kwargs)


ENDINGS = [  # (argv, the code main returns), one for each exit code that ends a call
    (("--help",), 0),
    (("catalog", "list"), 0),
    (("classify", "--ring", "quad:-5", "--prime", "p2"), 0),
    (("classify",), 2),
    (("classify", "--ring", "quad:-5"), 2),
    (("classify", "--ring", "segre", "--fp", "S0^2 + S1^2", "--prime", "(X,V)"), 2),
    (("classify", "--ring", "nagata"), 3),
    (("classify", "--ring", "segre", "--fp", "S0^2 + S1^2"), 4),
    (("ell", "torsion", "--curve", "1/4,0", "--point", "1/2,1/2"), 4),
]


class TestFreshProcess:
    """`python -m uniloc.cli` and the console script end through cli.run,
    which flushes and leaves by os._exit: what a fresh process writes
    and returns must be what main() writes and returns in process."""

    @pytest.mark.parametrize("buffered", (True, False), ids=("buffered", "unbuffered"))
    @pytest.mark.parametrize("fmt", ("text", "json"))
    @pytest.mark.parametrize("argv, code", ENDINGS, ids=[" ".join(a) for a, _ in ENDINGS])
    def test_same_as_main(self, capsys, argv, code, fmt, buffered):
        want = run(capsys, *argv, "--format", fmt)
        assert want[0] == code
        proc = fresh(*argv, "--format", fmt, buffered=buffered, capture_output=True, text=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == want

    @pytest.fixture(scope="class")
    def large(self, tmp_path_factory):
        """(argv, stdout of main) for the two large outputs."""
        files = tmp_path_factory.mktemp("large")
        poset, mat = files / "antichain.txt", files / "m.txt"
        poset.write_text("".join("n%d\n" % j for j in range(16)))
        r = random.Random(90)
        mat.write_text("90 90\n" + "".join(
            " ".join(str(r.randint(-9, 9)) for _ in range(90)) + "\n" for _ in range(90)))
        out = []
        for argv in (("spec", "enumerate", "--poset", str(poset), "--format", "json"),
                     ("snf", "--matrix", str(mat), "--format", "text")):
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                assert main(list(argv)) == 0
            out.append((argv, stdout.getvalue().encode()))
        return out

    @pytest.mark.parametrize("buffered", (True, False), ids=("buffered", "unbuffered"))
    def test_large_output_arrives_whole(self, large, tmp_path, buffered):
        # 7.3 MB of closed sets and a 1.2 MB Smith normal form, through a
        # pipe and into a file
        (enum_argv, enum_out), (snf_argv, snf_out) = large
        assert len(enum_out) > 7 * 10 ** 6 and len(snf_out) > 10 ** 6
        proc = fresh(*enum_argv, buffered=buffered, capture_output=True)
        assert (proc.returncode, proc.stderr) == (0, b"") and proc.stdout == enum_out
        with open(tmp_path / "out", "wb") as f:
            proc = fresh(*snf_argv, buffered=buffered, stdout=f, stderr=subprocess.PIPE)
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert (tmp_path / "out").read_bytes() == snf_out

    def test_main_returns_in_process(self, capsys, monkeypatch):
        def leave(code):
            raise AssertionError("os._exit(%r) in process" % (code,))

        monkeypatch.setattr(os, "_exit", leave)
        for argv, code in ENDINGS:
            assert main(list(argv)) == code
        capsys.readouterr()

    def test_run_flushes_then_exits_with_the_code(self, capsys, monkeypatch):
        class Left(Exception):
            pass

        def leave(code):
            raise Left(code)

        def final(stream, payload_text=None):
            if payload_text is None:
                flushed.append(stream)
            flush(stream, payload_text)

        flushed, flush = [], cli._flush
        monkeypatch.setattr(os, "_exit", leave)
        monkeypatch.setattr(cli, "_flush", final)
        for argv, code in ENDINGS:
            monkeypatch.setattr(sys, "argv", ["uniloc", *argv])
            flushed.clear()
            with pytest.raises(Left) as left:
                cli.run()
            assert left.value.args == (code,)
            assert flushed == [sys.stdout, sys.stderr]
        capsys.readouterr()

    def test_escaping_exception_is_a_traceback(self):
        proc = run_python("-c", "import uniloc.cli as c\n"
                                "c.main = lambda: 1 / 0\n"
                                "c.run()", capture_output=True, text=True, timeout=60)
        assert proc.returncode == 1
        assert proc.stderr.startswith("Traceback") and "ZeroDivisionError" in proc.stderr

    def test_console_script_runs_run(self):
        # the console script that pip writes for [project.scripts]: it
        # imports the named function and exits with what it returns
        pyproject = README.with_name("pyproject.toml").read_text()
        assert 'uniloc = "uniloc.cli:run"' in pyproject.split("[project.scripts]")[1]
        tree = ast.parse(Path(cli.__file__).read_text())
        block = [node for node in tree.body if isinstance(node, ast.If)][-1]
        assert ast.unparse(block) == "if __name__ == '__main__':\n    run()"
        proc = run_python("-c", "import sys\n"
                                "from uniloc.cli import run\n"
                                "sys.argv[0] = 'uniloc'\n"
                                "sys.exit(run())", "classify", "--ring", "quad:-5",
                          "--prime", "p2", "--format", "json",
                          capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert json.loads(proc.stdout)["ring"] == "quad:-5"

# Prints which uniloc modules ran (module code executed, from the "exec" audit
# event) by `import uniloc.cli` and by the whole call, and which were in
# sys.modules right after the import.
AUDIT = """
import contextlib, io, json, os, sys
ran = set()

COLD = {"dataclasses", "inspect", "pathlib", "typing"}

def hook(event, args):
    path = getattr(args[0], "co_filename", "") if event == "exec" else ""
    if os.path.basename(os.path.dirname(path)) == "uniloc":
        ran.add(os.path.basename(path)[:-3])

sys.addaudithook(hook)
from uniloc import cli
doc = {"import": sorted(ran),
       "registered": sorted(m.partition(".")[2] for m in sys.modules
                            if m.startswith("uniloc."))}
with contextlib.redirect_stdout(io.StringIO()):
    doc["exit"] = cli.main(sys.argv[1:])
doc["ran"] = sorted(ran)
doc["stdlib"] = sorted(COLD & set(sys.modules))
print(json.dumps(doc))
"""

FAMILY_MODULES = {"abgroup", "elliptic", "lcohom", "quadorder", "segre", "spectool"}


def audit(*argv):
    # -S: no site, whose .pth files can import typing or pathlib on their own
    proc = run_python("-S", "-c", AUDIT, *argv, capture_output=True, text=True,
                      timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def traced_modules():
    """bench/tracing.py UNILOC_MODULES, read without importing the bench."""
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and node.targets[0].id == "UNILOC_MODULES":
            return set(ast.literal_eval(node.value))
    raise AssertionError("UNILOC_MODULES not found in %s" % TRACING)


class TestLazyFamilies:
    """A call compiles and runs only the family modules its subcommand uses."""

    def test_import_runs_no_family_module(self):
        doc = audit("catalog", "list")
        assert doc["import"] == ["__init__", "cli", "errors"]
        assert doc["exit"] == 0 and doc["ran"] == doc["import"]

    def test_import_registers_every_traced_module(self):
        # the tracer looks each module up in sys.modules right after the import
        registered = set(audit("catalog", "list")["registered"])
        assert traced_modules() - {"divisors"} <= registered

    def test_classify_runs_only_its_family(self):
        doc = audit("classify", "--ring", "quad:-5", "--prime", "p2")
        assert doc["exit"] == 0
        assert FAMILY_MODULES & set(doc["ran"]) == {"quadorder"}

    def test_snf_runs_only_abgroup(self, tmp_path):
        mat = tmp_path / "m.txt"
        mat.write_text("2 2\n2 4\n6 8\n")
        doc = audit("snf", "--matrix", str(mat))
        assert doc["exit"] == 0
        assert FAMILY_MODULES & set(doc["ran"]) == {"abgroup"}


class TestColdImports:
    """No call imports dataclasses, inspect, typing or pathlib: a fresh
    process paid about 13 ms for dataclasses and its inspect alone.  pytest
    has them all loaded, so only a fresh child can tell."""

    @pytest.mark.parametrize("argv", [
        ("catalog", "list"),
        ("classify", "--ring", "quad:-5", "--prime", "p2"),
        ("classify", "--ring", "ell:0,1", "--prime", "2,3"),
        ("classify", "--ring", "segre", "--fp", "S0*T0 + S1*T1"),
        ("classify", "--ring", "twoplanes", "--prime", "(X,Y)"),
        ("classify", "--ring", "dim3hyper", "--prime", "(X,Y)"),
        ("classgroup", "--disc", "-20"),
        ("ell", "torsion", "--curve", "0,1", "--point", "2,3"),
        ("cech", "--vars", "X,Y,U", "--rel", "XU", "--ideal", "X,Y", "--i", "2"),
        ("snf", "--matrix", "{matrix}"),
        ("spec", "enumerate", "--poset", "{poset}"),
    ], ids=" ".join)
    def test_call_imports_none(self, tmp_path, argv):
        files = {"matrix": tmp_path / "m.txt", "poset": tmp_path / "p.txt"}
        files["matrix"].write_text("2 2\n2 4\n6 8\n")
        files["poset"].write_text("a < b\n")
        doc = audit(*(arg.format(**files) for arg in argv))
        assert (doc["exit"], doc["stdlib"]) == (0, [])


# Runs the CLI as `python -m uniloc.cli` does, then prints to stderr, as
# it ends, which uniloc files the call compiled, in order, and which of
# argparse, decimal, fractions, gettext, json and locale it loaded.
COMPILE = """
import os, runpy, sys
compiled = []

def hook(event, args):
    if event == "compile" and os.path.basename(os.path.dirname(str(args[1]))) == "uniloc":
        compiled.append(os.path.basename(args[1])[:-3])

sys.addaudithook(hook)
leave = os._exit

def report(code):  # run() ends the call with os._exit
    loaded = sorted({"argparse", "decimal", "fractions", "gettext", "json", "locale"}
                    & set(sys.modules))
    print(repr((code, compiled, loaded)), file=sys.stderr, flush=True)
    leave(code)

os._exit = report
runpy.run_module("uniloc.cli", run_name="__main__", alter_sys=True)
"""


class TestColdCompile:
    """What a fresh call compiles where no bytecode is cached or written
    (PYTHONDONTWRITEBYTECODE, and PYTHONPYCACHEPREFIX an empty directory):
    the modules of its subcommand, each once, and neither argparse nor
    json nor, off the paths that read rationals, fractions.  Only help
    and usage errors load argparse.  Files and modules are counted;
    nothing is timed."""

    CALLS = [
        ("catalog", "list"),
        ("catalog", "list", "--format", "json"),
        ("classify", "--ring", "quad:-5", "--prime", "p2"),
        ("classify", "--ring", "quad:-5", "--prime", "p2", "--format", "json"),
        ("classify", "--ring", "twoplanes", "--prime", "(X,Y)", "--format", "json"),
        ("classify", "--ring", "ell:0,1", "--prime", "2,3", "--format", "json"),
        ("classify", "--ring", "segre", "--fp", "S0*T0 + S1*T1", "--format", "json"),
        ("classgroup", "--disc", "-20", "--format", "json"),
        ("ell", "torsion", "--curve", "0,1", "--point", "2,3", "--format", "json"),
        ("cech", "--vars", "X,Y,U", "--rel", "XU", "--ideal", "X,Y", "--i", "2", "--format",
         "json"),
        ("snf", "--matrix", "{matrix}", "--format", "json"),
        ("spec", "enumerate", "--poset", "{poset}", "--format", "json"),
    ]
    # the paths that read a rational: a curve, a point or a polynomial
    RATIONAL = {"ell", "segre"}

    # calls that argparse answers: help, a usage error and an abbreviation
    FALLBACK = [
        ("--help",),
        ("classify", "--help"),
        ("classify",),
        ("classify", "--ri", "quad:-5", "--prime", "p2"),
    ]

    @staticmethod
    def cold_run(tmp_path, *argv):
        """(code, compiled, loaded, stdout, stderr) of a fresh call."""
        files = {"matrix": tmp_path / "m.txt", "poset": tmp_path / "p.txt"}
        files["matrix"].write_text("2 2\n2 4\n6 8\n")
        files["poset"].write_text("a < b\n")
        cache = tmp_path / "pycache"
        cache.mkdir()
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPYCACHEPREFIX=str(cache))
        # -S: no site, whose .pth files can import json on their own
        proc = run_python("-S", "-c", COMPILE, *(arg.format(**files) for arg in argv),
                          env=env, capture_output=True, text=True, timeout=60)
        assert not any(cache.iterdir())
        *err, report = proc.stderr.splitlines(keepends=True)
        return (*ast.literal_eval(report), proc.stdout, "".join(err))

    @classmethod
    def cold_call(cls, tmp_path, *argv):
        return cls.cold_run(tmp_path, *argv)[:3]

    def test_catalog_compiles_only_the_cli(self, tmp_path):
        code, compiled, loaded = self.cold_call(tmp_path, "catalog", "list")
        assert (code, compiled, loaded) == (0, ["__init__", "cli", "errors"], [])

    def test_quad_adds_only_verdict_and_quadorder(self, tmp_path):
        code, compiled, loaded = self.cold_call(tmp_path, "classify", "--ring", "quad:-5",
                                                "--prime", "p2")
        assert (code, loaded) == (0, [])
        assert compiled == ["__init__", "cli", "errors", "quadorder", "verdict"]

    def test_spec_adds_only_spectool(self, tmp_path):
        code, compiled, loaded = self.cold_call(tmp_path, "spec", "enumerate", "--poset",
                                                "{poset}", "--format", "json")
        assert (code, compiled, loaded) == (0, ["__init__", "cli", "errors", "spectool"], [])

    @pytest.mark.parametrize("argv", CALLS, ids=" ".join)
    def test_each_module_once(self, tmp_path, argv):
        code, compiled, loaded = self.cold_call(tmp_path, *argv)
        assert code == 0 and len(compiled) == len(set(compiled))
        assert compiled[:3] == ["__init__", "cli", "errors"]
        if any(name in arg for arg in argv for name in self.RATIONAL):
            assert not {"argparse", "gettext", "json", "locale"} & set(loaded)
        else:
            assert loaded == []

    @pytest.mark.parametrize("argv", FALLBACK, ids=" ".join)
    def test_argparse_answers_help_and_errors(self, tmp_path, capsys, argv):
        code, compiled, loaded, out, err = self.cold_run(tmp_path, *argv)
        assert "argparse" in loaded and compiled == ["__init__", "cli", "errors"] + (
            ["quadorder", "verdict"] if code == 0 and out.startswith("ring:") else [])
        assert (code, out, err) == run(capsys, *argv)

    def test_abbreviation_answers_as_the_full_name(self, capsys):
        assert cli.read_argv(["classify", "--ri", "quad:-5", "--prime", "p2"]) is None
        assert run(capsys, "classify", "--ri", "quad:-5", "--prime", "p2") == run(
            capsys, "classify", "--ring", "quad:-5", "--prime", "p2")


# values that argparse reads as a value, as an option, or refuses
READ_VALUES = ("-5", "-1.5", "-.5", "-x", "", "json", "xml", "3", "1.5", "x", "p2",
               "-1/2*S0 + 3*S1", "--", "-h")
# tokens an insert puts in: option names exact, abbreviated, with =value or
# unknown, --help, and command words
EDIT_TOKENS = ("--ring", "--ri", "--i", "--box", "--fo", "--format=json", "--disc=-20",
               "--prime=", "--assert-irreducible=1", "--help", "-h", "--", "classify", "list")


@st.composite
def cli_argvs(draw):
    """argv from the command table: the words of a command that runs, its
    required options and some others, each as --name value or
    --name=value, then up to three edits.  An edit inserts a token,
    deletes one, replaces one by a value, or cuts an option name short or
    gives it =value."""
    command = draw(st.sampled_from([c for c in cli.COMMANDS if c.handler]))
    argv = list(command.words)
    for option in draw(st.permutations(command.options)):
        if option.type is bool:
            argv += [option.name] * draw(st.integers(0, 2))
        elif option.required or draw(st.booleans()):
            values = option.choices or (("-20", "3") if option.type is int else ("-5", "", "p2"))
            value = draw(st.sampled_from(values))
            argv += draw(st.sampled_from(([option.name, value], [option.name + "=" + value])))
    for _ in range(draw(st.sampled_from((0, 0, 1, 2, 3)))):
        edit = draw(st.sampled_from(("insert", "delete", "value", "name")))
        # a value or name edit hits an option: its =value, the word after
        # it, or its name
        names = [k for k, arg in enumerate(argv) if arg.startswith("--")]
        at = draw(st.sampled_from(edit in ("value", "name") and names or range(len(argv) + 1)))
        if edit == "insert" or at == len(argv):
            argv.insert(at, draw(st.sampled_from(EDIT_TOKENS)))
        elif edit == "delete":
            del argv[at]
        elif edit == "value":
            value = draw(st.sampled_from(READ_VALUES))
            if "=" in argv[at]:
                argv[at] = argv[at].partition("=")[0] + "=" + value
            else:
                argv[at + 1:at + 2] = [value]
        else:
            argv[at] = draw(st.sampled_from((argv[at][:3], argv[at][:4], argv[at] + "=1")))
    return argv


def bench_argvs():
    """Every argv of the cli-cold corpus and of the kernel-sweep rungs of
    seeds 1 to 5, as bench/workloads.py draws them."""
    sys.path.insert(0, str(TRACING.parent))
    try:
        import workloads
    finally:
        sys.path.remove(str(TRACING.parent))
    config = json.loads(TRACING.with_name("config.json").read_text())["kernel_sweep"]
    argvs = [argv for _, argv, _ in workloads.corpus()]
    for seed in range(1, 6):
        for op in workloads.kernel_sweep(random.Random(seed), config):
            if op["kind"] == "spec":  # the bench writes the poset file before the call
                op["argv"] = ["spec", "enumerate", "--poset", "poset.txt", "--format", "json"]
            argvs.extend([op["argv"]] if "argv" in op else [])
    return argvs


class TestReadArgv:
    """read_argv reads well-formed argv as argparse does, and leaves the
    rest to it: whenever it returns a namespace, argparse parses the same
    argv to one with equal vars()."""

    @staticmethod
    def assert_agrees(argv):
        args = cli.read_argv(argv)
        if args is not None:
            try:
                parsed = cli.build_parser().parse_args(argv)
            except SystemExit:
                raise AssertionError("argparse refuses %r" % (argv,)) from None
            assert vars(args) == vars(parsed), argv
        return args

    @settings(max_examples=1000, derandomize=True)
    @given(argv=cli_argvs())
    def test_agrees_with_argparse(self, argv):
        with contextlib.redirect_stderr(io.StringIO()), contextlib.redirect_stdout(io.StringIO()):
            self.assert_agrees(argv)

    def test_golden_argvs(self):
        cases = json.loads(README.with_name("tests").joinpath("golden_verdicts.json").read_text())
        read = [self.assert_agrees(case["argv"]) is not None for case in cases]
        assert sum(read) == 177  # the 12 others are usage errors or read only by argparse

    def test_bench_argvs(self):
        # all but the two usage errors `classify` and no command at all
        unread = [argv for argv in bench_argvs() if self.assert_agrees(argv) is None]
        assert unread == [["classify"], []]

    def test_forms(self):
        args = cli.read_argv(["cech", "--vars=X,Y", "--ideal", "X", "--i", "-1", "--box=-2",
                              "--format", "json", "--rel", ""])
        assert vars(args) == {"command": "cech", "vars": "X,Y", "ideal": "X", "i": -1,
                              "box": -2, "format": "json", "rel": "", "func": cli._cmd_cech}
        assert vars(cli.read_argv(["classify", "--ring", "segre", "--assert-irreducible",
                                   "--prime", "-.5"]))["prime"] == "-.5"
        for argv in (["classify", "--ring", "quad:-5", "--format", "xml"],
                     ["classify", "--ring", "-x"],
                     ["classify", "--ring"],
                     ["classify", "--ring=x", "--assert-irreducible=1"],
                     ["classify", "--", "--ring", "x"],
                     ["ell", "torsion", "--curve", "0,1", "--point=--"],
                     ["classify", "--ring", "x", "stray"],
                     ["classgroup", "--disc", "1.5"],
                     ["catalog"],
                     ["catalog", "list", "-h"]):
            assert cli.read_argv(argv) is None, argv


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.tuples(inner, inner)
    | st.dictionaries(st.text(max_size=3), inner, max_size=4)
    | st.dictionaries(st.integers(), inner, max_size=4),
    max_leaves=20)


class TestJsonText:
    """--format json prints what json.dumps(sort_keys=True, indent=2) would."""

    @settings(max_examples=300)
    @given(value=JSON_VALUES)
    def test_matches_json_dumps(self, value):
        assert json_text(value) == json.dumps(value, sort_keys=True, indent=2)

    def test_non_string_keys(self):
        value = {2: [1], 10: {"b": (), "a": {}}, -1: "é"}
        assert json_text(value) == json.dumps(value, sort_keys=True, indent=2)

    def test_nested_dict_scalars(self):
        # the dict branch writes int and str values inline, as the list one does
        value = {"n": -12345678901234567890, "s": "é\n\"", "t": True, "f": False, "z": None,
                 "x": 1.5, "e": [], "d": {}, "u": (), "i": {1: 0, -2: "a", 10: {"k": [{}]}},
                 "l": [{"b": 1, "a": None}, {0: False}], "": {"": 0.0}}
        assert json_text(value) == json.dumps(value, sort_keys=True, indent=2)

    def test_parser_reused_across_calls(self, capsys):
        assert run(capsys, "classgroup", "--disc", "-20", "--format", "text")[0] == 0
        code, doc, _ = run_json(capsys, "classgroup", "--disc", "-23")
        assert (code, doc["class_number"]) == (0, 3)
        assert run(capsys, "classgroup")[0] == 2
        assert "form: 1 1 6" in run(capsys, "classgroup", "--disc", "-23")[1]
