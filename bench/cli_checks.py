"""Checks for one cli-cold call: (exit code, stdout, stderr) against the
corpus entry's expectation, with the same independent answers as checks.py."""

from __future__ import annotations

import json

import checks as C
from workloads import CATALOG_IDS


def read_matrix(path):
    lines = [ln.split("#", 1)[0].split() for ln in (C.ROOT / path).read_text().splitlines()]
    lines = [ln for ln in lines if ln]
    return [[int(x) for x in row] for row in lines[1:]]


def read_poset(path):
    nodes, edges = [], []
    for raw in (C.ROOT / path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if "<" in line:
            child, parent = (s.strip() for s in line.split("<"))
            nodes += [n for n in (child, parent) if n not in nodes]
            edges.append((child, parent))
        elif line and line not in nodes:
            nodes.append(line)
    return nodes, edges


def invariant_factors(M):
    """Smith diagonal from gcds of k-minors (tests/oracles.py)."""
    diag, prev = [], 1
    for k in range(1, min(len(M), len(M[0])) + 1):
        g = C.ORACLES.gcd_of_k_minors(M, k)
        if g == 0:
            diag += [0] * (min(len(M), len(M[0])) - k + 1)
            break
        diag.append(g // prev)
        prev = g
    return diag


def lines_with(text, prefix):
    return [ln[len(prefix):] for ln in text.splitlines() if ln.startswith(prefix)]


def check(argv, exp, out):
    """(status, reason) for one call."""
    code, stdout, stderr = out
    if code not in (0, 2, 3, 4):
        return C.FAILED, "exit %d: %s" % (code, stderr.strip()[-200:])
    as_json = argv[-2:] == ["--format", "json"]
    kind = exp["kind"]
    if kind == "exit":
        if code != exp["exit"]:
            return C.FAILED, "exit %d, expected %d" % (code, exp["exit"])
        return (C.UNDECIDED if code == 4 else C.DECIDED), ""
    if kind == "classify":
        return check_classify(exp["verdict"], code, stdout, stderr, as_json)
    if kind == "cech" and code == 4 and not exp["table"]:
        # no witness in the box, and the table agrees that there is none
        problem = _cech(exp, json.loads(stdout) if as_json else None, stdout, argv)
        return (C.FAILED, problem) if problem else (C.UNDECIDED, "")
    if code != 0:
        return C.FAILED, "exit %d: %s" % (code, stderr.strip()[-200:])
    doc = json.loads(stdout) if as_json else None
    problem = CHECKS[kind](exp, doc, stdout, argv)
    return (C.FAILED, problem) if problem else (C.DECIDED, "")


def check_classify(exp, code, stdout, stderr, as_json):
    if code in (2, 3) or (code == 4 and not stdout.strip()):
        return C.check_verdict(exp, ("exit", code, stderr))
    if as_json:
        doc = json.loads(stdout)
        status, reason = C.check_verdict(exp, ("verdict", doc, None))
    else:
        got = C.text_triple(stdout)
        status, reason = C.compare_triple(exp.get("triple", ()), got), ""
        if status == C.FAILED:
            reason = "verdict %s, expected %s" % (got, exp.get("triple"))
    if status != C.FAILED and (code == 4) != (status == C.UNDECIDED):
        return C.FAILED, "exit %d does not match a %s verdict" % (code, status)
    return status, reason


def _catalog(exp, doc, stdout, argv):
    ids = [e["id"] for e in doc["entries"]] if doc else \
        [ln.split()[0] for ln in stdout.splitlines() if ln[:1].strip()]
    return None if ids == CATALOG_IDS else "catalog ids %s" % ids


def _classgroup(exp, doc, stdout, argv):
    if doc:
        return C.check_classgroup(exp["disc"], doc, exp["forms"])
    forms = [[int(x) for x in f.split()] for f in lines_with(stdout, "form: ")]
    if lines_with(stdout, "class number: ") != [str(len(exp["forms"]))] or forms != exp["forms"]:
        return "class group text differs from the %d reduced forms" % len(exp["forms"])
    return None


def _torsion(exp, doc, stdout, argv):
    got = doc["torsion"] if doc else lines_with(stdout, "torsion: ")[0]
    return None if str(got) == str(exp["order"]) else "torsion %s, expected %s" % (got, exp["order"])


def _cech(exp, doc, stdout, argv):
    if doc:
        return C.check_cech(exp["table"], doc)
    i = argv[argv.index("--i") + 1]
    want = sorted("H^%s dim %d at (%s)" % (i, d, k) for k, d in exp["table"].items())
    got = sorted(ln for ln in stdout.splitlines() if ln.startswith("H^"))
    return None if got == want else "cech text table differs"


def _snf(exp, doc, stdout, argv):
    M = read_matrix("bench/corpus/%s.txt" % exp["file"])
    diag = invariant_factors(M)
    if not doc:
        return None if lines_with(stdout, "diagonal: ") == [str(diag)] else "diagonal differs"
    if doc["diagonal"] != diag:
        return "diagonal %s, expected %s" % (doc["diagonal"], diag)
    if C.matmul(C.matmul(doc["U"], M), doc["W"]) != doc["D"]:
        return "U*M*W != D"
    if len(M) == len(M[0]) and C.det_bareiss(M):
        return C.check_snf(M, doc["D"], doc["U"], doc["W"])
    return None


def _spec(exp, doc, stdout, argv):
    nodes, edges = read_poset("bench/corpus/%s.txt" % exp["file"])
    heights, count = C.poset_facts(nodes, edges)
    got = (doc["count"], doc["heights"]) if doc else \
        (int(lines_with(stdout, "count: ")[0]), heights)
    return None if got == (count, heights) else "count %r, expected %d" % (got[0], count)


CHECKS = {"catalog": _catalog, "classgroup": _classgroup, "torsion": _torsion,
          "cech": _cech, "snf": _snf, "spec": _spec}
