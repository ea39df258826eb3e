"""Tests of the benchmark itself: seeded inputs, and checkers that accept
the correct answers and reject wrong ones.

    PYTHONPATH=src python3 -m pytest -q bench
"""

import contextlib
import io
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import checks as C  # noqa: E402
import cli_checks  # noqa: E402
import run  # noqa: E402
import workloads as W  # noqa: E402

run.load_program()
CFG = json.loads((BENCH / "config.json").read_text())


def describe(ops) -> str:
    """A canonical rendering of generated inputs."""
    def plain(v):
        if isinstance(v, Fraction):
            return str(v)
        if isinstance(v, dict):
            return {str(k): plain(x) for k, x in v.items()}
        if isinstance(v, (list, tuple)):
            return [plain(x) for x in v]
        return v
    return json.dumps(plain(ops), sort_keys=True)


def mix(seed):
    return W.classify_mix(random.Random(seed), CFG["classify_mix"])


def ladder(seed):
    rng = random.Random(seed)
    ks = CFG["kernel_sweep"]
    return W.kernel_sweep(rng, ks) + W.kernel_probes(rng, ks)


@pytest.fixture(scope="module")
def mix_ops():
    return mix(7)


def test_same_seed_same_inputs():
    assert describe(mix(3)) == describe(mix(3))
    assert describe(ladder(3)) == describe(ladder(3))
    assert describe(mix(3)) != describe(mix(4))
    assert describe(ladder(3)) != describe(ladder(4))


def test_mix_has_the_configured_shares(mix_ops):
    slots = CFG["classify_mix"]["slots"]
    ids = [op["id"] for op in mix_ops]
    assert sum(i.startswith("quad-tail-") for i in ids) == slots["quad-tail"]
    assert sum(i.startswith("quad-plateau-") for i in ids) == slots["quad-plateau"]
    assert sum(i.startswith("nagata-") for i in ids) == slots["nagata"]
    assert len(ids) == len(set(ids))


def test_checkers_accept_the_seed_answers(mix_ops):
    outcomes = {C.DECIDED: 0, C.UNDECIDED: 0}
    for op in mix_ops:
        status, reason = run.check_classify(op, run.run_classify(op))
        assert status != C.FAILED, (op["id"], op["ring"], op["prime"], op["fp"], reason)
        outcomes[status] += 1
    assert outcomes[C.DECIDED] > outcomes[C.UNDECIDED] > 0


def test_kernel_checkers_accept_the_seed_answers():
    run.WORK.mkdir(exist_ok=True)
    cheap = ("d1e3", "d1e4", "n5", "n10", "n20", "v3b2", "v4b2", "p4", "p8", "p12",
             "chain12", "l1e2", "l1e3", "l1e4")
    ops = [op for op in ladder(5) if op["id"] in cheap]
    assert len(ops) == len(cheap)
    for op in ops:
        run.prepare_kernel(op)
        status, reason = run.check_kernel(op, run.run_kernel(op))
        assert status == C.DECIDED, (op["metric"], reason)


def call_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def test_corpus_checkers_accept_the_seed_answers():
    for name, argv, exp in W.corpus():
        status, reason = cli_checks.check(argv, exp, call_in_process(argv))
        assert status != C.FAILED, (name, reason)


def flip(triple):
    other = {C.YES: C.NO, C.NO: C.YES, C.UNKNOWN: C.YES}
    return (other[triple[0]],) + tuple(triple[1:])


def test_checkers_reject_a_wrong_verdict_triple(mix_ops):
    seen = set()
    for op in mix_ops:
        out = run.run_classify(op)
        if out[0] != "verdict" or op["family"] in seen:
            continue
        doc = json.loads(out[2])
        if C.UNKNOWN in (doc["flat"], doc["universal"], doc["classical"]):
            continue
        seen.add(op["family"])
        doc["flat"], doc["universal"], doc["classical"] = flip(
            (doc["flat"], doc["universal"], doc["classical"]))
        assert C.check_verdict(op["expect"], ("verdict", doc, None))[0] == C.FAILED, op["id"]
    assert seen == {"quad", "ell", "segre", "table"}


def test_checkers_reject_wrong_witnesses(mix_ops):
    quad = next(op for op in mix_ops if op["id"].startswith("quad-tail-"))
    doc = json.loads(run.run_classify(quad)[2])
    doc["witness"]["details"][0]["generator"] = "1+sqrt(%d)" % quad["expect"]["d"]
    assert C.check_verdict(quad["expect"], ("verdict", doc, None))[0] == C.FAILED
    ell = next(op for op in mix_ops if op["ring"] == "ell:-43,166" and op["prime"] != "O")
    doc = json.loads(run.run_classify(ell)[2])
    doc["torsion"] = 6
    assert C.check_verdict(ell["expect"], ("verdict", doc, None))[0] == C.FAILED
    malformed = next(op for op in mix_ops if op["family"] == "malformed")
    assert C.check_verdict(malformed["expect"], ("exit", 4, ""))[0] == C.FAILED


def test_snf_check_rejects_a_wrong_diagonal():
    M = [[2, 4, 4], [-6, 6, 12], [10, -4, -16]]
    D, U, W_ = (X.to_rows() for X in run.abgroup.smith_normal_form(
        run.abgroup.IntMatrix.from_rows(M)))
    assert C.check_snf(M, D, U, W_) is None
    D[2][2] *= 2
    assert C.check_snf(M, D, U, W_) is not None


def test_benchmark_json_lists_every_metric():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert {m["name"] for m in doc["end_to_end"]} == {
        "setup_s", "p50_ms", "p90_ms", "ops_per_s", "decided_share", "peak_rss_mb"}
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == run.per_layer_names(CFG)
