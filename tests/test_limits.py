"""The limits table: every bound of the bounded-time contract, called on
both sides.

A uniloc call has a budget of 1 s, and an input that could take longer
is refused by a bound: exit 2, with a message that names the bound and
its value.  ROWS lists each bound once, with the calls it accepts, the
largest first, and the calls it refuses, the smallest first.  Every call
runs as a fresh process under a 10 s timeout, two at a time.  An
accepted call must exit 0; a refused one must exit 2, print nothing on
stdout and name "<module>.<NAME> = <value>" on stderr, the value read
from the running code.  A bound reached only from the library is called
through `python -c`, in a child that turns an InputError into the CLI's
exit 2.

README.md shows the same rows in its Limits table, and
tests/test_readme.py requires a README row for each entry here, with the
value of its constant.
"""

import importlib
import os
import random
import subprocess
import sys
from collections import namedtuple
from concurrent.futures import ThreadPoolExecutor
from itertools import combinations, islice
from pathlib import Path
from string import ascii_lowercase

import pytest

import uniloc

SRC = str(Path(uniloc.__file__).resolve().parents[1])
TIMEOUT_S = 10

# label: what the call is; args: the interpreter's arguments, where {name}
# stands for the path of a file that holds files[name]
Call = namedtuple("Call", "label args files")
# constant: "<module>.<NAME>" in uniloc; accepted and refused: Calls
Row = namedtuple("Row", "constant accepted refused")

LIBRARY = """import sys
from uniloc.errors import InputError
try:
    CODE
except InputError as exc:
    print("input error: %s" % exc, file=sys.stderr)
    sys.exit(2)
"""


def cli(label, *argv, **files):
    return Call(label, ("-m", "uniloc.cli") + argv, files)


def library(label, *lines):
    return Call(label, ("-c", LIBRARY.replace("CODE", "\n    ".join(lines))), {})


def names(n):
    return ",".join("v%d" % j for j in range(n))


def seeded_matrix(n, bound):
    """The n x n matrix of random.Random(n).randint(-bound, bound), row by row."""
    r = random.Random(n)
    return "%d %d\n" % (n, n) + "".join(
        " ".join(str(r.randint(-bound, bound)) for _ in range(n)) + "\n" for _ in range(n))


def cech_relations(m, size, count):
    """`cech` over m variables, all but v0 free of the ideal, with the
    first count relations of the given size."""
    rels = islice(combinations(["v%d" % j for j in range(m)], size), count)
    return ("cech", "--vars", names(m), "--ideal", "v0", "--i", "1", "--box", "1",
            "--rel", ",".join("*".join(r) for r in rels))


def antichain(n):
    return "".join("a%d\n" % i for i in range(n))


CHAIN = "".join("n%d < n%d\n" % (i, i + 1) for i in range(100000))
# 21 833 pairs of 260 two-letter names: a 131 KB argument, just under the
# 128 KiB that Linux allows for one
PAIRS = [x + y for x in ascii_lowercase for y in ascii_lowercase][:260]
PAIR_RELATIONS = ",".join("%s*%s" % p for p in islice(combinations(PAIRS, 2), 21833))

ROWS = [
    Row("verdict.PRINT_DIGITS",
        accepted=(cli("a 4300-digit prime", "classify", "--ring", "quad:-5",
                      "--prime", "p" + "0" * 4299 + "2"),
                  cli("the class walk of p2 in quad:-1000000007, order 26 629", "classify",
                      "--ring", "quad:-1000000007", "--prime", "p2")),
        refused=(cli("a 4301-digit prime", "classify", "--ring", "quad:-5",
                     "--prime", "p" + "0" * 4300 + "2"),
                 cli("the class walk of p7 in quad:-250000000003", "classify",
                     "--ring", "quad:-250000000003", "--prime", "p7"))),
    Row("quadorder.TRIAL_STEPS",
        accepted=(cli("the largest prime below 1000001^2", "classify", "--ring", "quad:-5",
                      "--prime", "p1000001999917"),
                  cli("the largest squarefree |d| = 3 mod 8 below 1000001^3", "classify",
                      "--ring", "quad:-1000003000002999995", "--prime", "p2")),
        refused=(cli("the prime 1000001^2", "classify", "--ring", "quad:-5",
                     "--prime", "p1000002000001"),
                 cli("|d| = 1000001^3", "classify", "--ring", "quad:-1000003000003000001",
                     "--prime", "p2"))),
    Row("quadorder.FORMS_BOUND",
        accepted=(cli("classgroup -29999999999", "classgroup", "--disc", "-29999999999",
                      "--format", "json"),),
        refused=(cli("classgroup -30000000003", "classgroup", "--disc", "-30000000003"),)),
    Row("spectool.ENUM_BOUND",
        accepted=(cli("a 16-node antichain", "spec", "enumerate", "--poset", "{poset}",
                      "--format", "json", poset=antichain(16)),
                  library("a 100 001-node library chain, its heights and height condition",
                          "from uniloc.spectool import SpecPoset, check_height_condition",
                          "nodes = ['n%d' % i for i in range(100001)]",
                          "P = SpecPoset.from_text(''.join('%s < %s\\n' % e"
                          " for e in zip(nodes, nodes[1:])))",
                          "assert P.heights()['n100000'] == 100000",
                          "assert not check_height_condition(P, nodes[50000:])")),
        refused=(cli("a 17-node antichain", "spec", "enumerate", "--poset", "{poset}",
                     poset=antichain(17)),
                 cli("a 100 001-node chain", "spec", "enumerate", "--poset", "{poset}",
                     poset=CHAIN))),
    Row("lcohom.CECH_SCAN_BOUND",
        accepted=(cli("15 generators", "cech", "--vars", names(15), "--ideal", names(15),
                      "--i", "1", "--box", "1"),
                  cli("12 variables, 8 generators", "cech", "--vars", names(12),
                      "--ideal", names(8), "--i", "1", "--box", "1"),
                  cli("16 variables, 10 generators", "cech", "--vars", names(16),
                      "--ideal", names(10), "--i", "1", "--box", "1"),
                  cli("24 variables, 10 generators", "cech", "--vars", names(24),
                      "--ideal", names(10), "--i", "1", "--box", "1"),
                  cli("12 generators at --i 6", "cech", "--vars", names(12),
                      "--ideal", names(12), "--i", "6", "--box", "1"),
                  cli("one relation over 15 generators at --i 7", "cech", "--vars", names(15),
                      "--ideal", names(15), "--rel", names(15).replace(",", "*"),
                      "--i", "7", "--box", "1")),
        refused=(cli("16 generators", "cech", "--vars", names(16), "--ideal", names(16),
                     "--i", "1", "--box", "1"),
                 cli("21 833 relations over 260 variables", "cech", "--vars", ",".join(PAIRS),
                     "--ideal", "aa", "--rel", PAIR_RELATIONS, "--i", "1", "--box", "1"))),
    Row("lcohom.CECH_RELATION_TESTS_BOUND",
        accepted=(cli("15 variables, 128 relations of 7", *cech_relations(15, 7, 128)),),
        refused=(cli("15 variables, 129 relations of 7", *cech_relations(15, 7, 129)),)),
    Row("lcohom.CECH_ROWS_BOUND",
        accepted=(cli("200 000 rows", "cech", "--vars", "X", "--ideal", "X", "--i", "1",
                      "--box", "200000"),),
        refused=(cli("200 001 rows", "cech", "--vars", "X", "--ideal", "X", "--i", "1",
                     "--box", "200001"),
                 cli("10^11 rows", "cech", "--vars", "X", "--ideal", "X", "--i", "1",
                     "--box", "100000000000"))),
    Row("lcohom.ENUM_VARIABLE_BOUND",
        accepted=(library("the facets of k[v0..v15]",
                          "from uniloc.lcohom import MonomialAlgebra",
                          "A = MonomialAlgebra.make(['v%d' % j for j in range(16)])",
                          "assert len(A.facets()) == 1"),),
        refused=(library("the facets of k[v0..v16]",
                         "from uniloc.lcohom import MonomialAlgebra",
                         "MonomialAlgebra.make(['v%d' % j for j in range(17)]).facets()"),)),
    Row("abgroup.SNF_DIM_BOUND",
        accepted=(cli("the seeded 90 x 90 matrix, entries in [-9, 9]", "snf",
                      "--matrix", "{m}", m=seeded_matrix(90, 9)),
                  cli("the seeded 70 x 70 matrix, entries in [-9, 9]", "snf",
                      "--matrix", "{m}", m=seeded_matrix(70, 9))),
        # refused on the header, before any row is read: W alone has cols^2 entries
        refused=(cli("a 1 x 91 row", "snf", "--matrix", "{m}", m="1 91\n" + "1 " * 91),
                 cli("a 91 x 1 header", "snf", "--matrix", "{m}", m="91 1\n"),
                 cli("a 0 x 2000 header", "snf", "--matrix", "{m}", m="0 2000\n"))),
    Row("abgroup.SNF_COST_BOUND",
        accepted=(cli("the seeded 90 x 90 matrix, entries in [-132, 132]", "snf",
                      "--matrix", "{m}", m=seeded_matrix(90, 132)),),
        # the second is weighed by its digits and refused before any entry is read
        refused=(cli("the seeded 90 x 90 matrix, entries in [-133, 133]", "snf",
                     "--matrix", "{m}", m=seeded_matrix(90, 133)),
                 cli("a 90 x 90 matrix of 4300-digit entries, 35 MB", "snf", "--matrix", "{m}",
                     m="90 90\n" + (" ".join(["9" * 4300] * 90) + "\n") * 90))),
]

CALLS = [(row.constant, code, call) for row in ROWS
         for code, calls in ((0, row.accepted), (2, row.refused)) for call in calls]
# one after another the calls take 7-9 s on a shared 2-core host
WORKERS = 2


def value(constant):
    module, name = constant.split(".")
    return getattr(importlib.import_module("uniloc." + module), name)


def test_each_bound_once_on_both_sides():
    assert len({row.constant for row in ROWS}) == len(ROWS)
    assert all(row.accepted and row.refused for row in ROWS)
    assert all(isinstance(value(row.constant), int) for row in ROWS)


def run(call, directory):
    """The finished process of call, its files written under directory."""
    args = list(call.args)
    for name, text in call.files.items():
        path = directory / name
        path.write_text(text)
        args = [a.replace("{%s}" % name, str(path)) for a in args]
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=TIMEOUT_S)


@pytest.fixture(scope="module")
def started(request, tmp_path_factory):
    """index -> the future of run(CALLS[index]) for each selected test_call,
    started WORKERS at a time in the order the tests run."""
    indices = [item.callspec.params["index"] for item in request.session.items
               if getattr(item, "function", None) is test_call]
    with ThreadPoolExecutor(WORKERS) as pool:
        yield {i: pool.submit(run, CALLS[i][2], tmp_path_factory.mktemp("call"))
               for i in indices}


@pytest.mark.parametrize("index", range(len(CALLS)), ids=[
    "%s %s %s" % (constant, "accepts" if code == 0 else "refuses", call.label)
    for constant, code, call in CALLS])
def test_call(index, started):
    constant, code, _ = CALLS[index]
    proc = started[index].result()
    if code == 0:
        assert proc.returncode == 0, proc.stderr[-500:]
    else:
        assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr[-500:]
        assert "%s = %d" % (constant, value(constant)) in proc.stderr
