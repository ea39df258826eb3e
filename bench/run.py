"""Run one workload of the uniloc benchmark and print its metrics.

    python3 bench/run.py --workload classify-mix --seed 1 --seconds 15 --trace 0

Workloads (bench/README.md says why each exists):
  cli-cold      the fixed corpus as fresh `python -m uniloc.cli` children
  classify-mix  a seeded draw of classify calls in process
  kernel-sweep  size ladders over the tool layers in process

Every op is checked against an answer computed without uniloc (checks.py).
With --trace 0 the last stdout line holds the end-to-end metrics; with
--trace 1 it holds the per-layer metrics of a traced run, which alternates
traced and untraced passes to report the tracing overhead.  Lines before
it, starting with '#', are a human-readable report.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
WORK = ROOT / ".bench_work"
WORKLOADS = ("cli-cold", "classify-mix", "kernel-sweep")


class OpTimeout(BaseException):
    """Raised by SIGALRM when an in-process op passes the per-op limit."""


def _alarm(signum, frame):
    raise OpTimeout()


def timed(fn, limit):
    """(result, seconds, timed_out) of fn() under a wall-clock limit."""
    result, timed_out = None, False
    start = perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, limit)
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OpTimeout:
        timed_out = True
    return result, perf_counter() - start, timed_out


@dataclass(frozen=True)
class _Pair:
    x: object
    y: object


def reference_work():
    """A fixed piece of pure-Python work in the style of uniloc's kernels:
    integer loops, Fractions, frozen dataclasses, tuples and a dict."""
    acc, table, kept = 0, {}, []
    q = Fraction(1, 3)
    for i in range(1, 2000):
        acc = (acc * 31 + i * i) % 1000003
        table[i & 255] = acc
        if i % 16 == 0:
            kept.append(_Pair(Fraction(i, 7) + q, (i, acc)))
            q = q * Fraction(i % 5 + 1, 3) / (1 + Fraction(i % 3, 2))
            if len(kept) > 40:
                kept = [p for p in kept if p.y[1] % 2]
    return acc, len(kept)


class Speed:
    """Scales wall times to a machine of fixed speed.

    This benchmark runs on shared hosts whose speed drifts by tens of
    percent over seconds.  Every half second of use, scale() times
    reference_work (best of three) and returns NOMINAL_MS / that time, so
    a time multiplied by it reads as on a machine where reference_work
    takes NOMINAL_MS.  The raw reference times are reported as well.
    """

    NOMINAL_MS = 1.5
    INTERVAL_S = 0.5

    def __init__(self):
        self.samples = []
        self._at = None
        self._factor = 1.0

    def scale(self, fresh=False):
        now = perf_counter()
        if fresh or self._at is None or now - self._at >= self.INTERVAL_S:
            best = float("inf")
            for _ in range(3):
                start = perf_counter()
                reference_work()
                best = min(best, perf_counter() - start)
            self.samples.append(best * 1e3)
            self._factor = self.NOMINAL_MS / (best * 1e3)
            self._at = perf_counter()
        return self._factor


def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def setup_times(repeats, speed):
    """Scaled wall seconds of fresh interpreters that import uniloc.cli."""
    out = []
    for _ in range(repeats):
        before = speed.scale(fresh=True)
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "import uniloc.cli"], env=child_env(),
                       cwd=ROOT, check=True, timeout=60)
        took = perf_counter() - start
        out.append(took * (before + speed.scale(fresh=True)) / 2)
    return out


def percentile(values, q):
    """Linear interpolation between order statistics, or None when fewer
    than ten samples lie beyond it.  A failed op is an infinite time."""
    if len(values) * (1 - q) < 10 - 1e-9:
        return None
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    if s[hi] == float("inf"):
        return s[lo] if pos == lo else float("inf")
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


class Tally:
    """Per-op outcomes and scaled wall times of the timed passes."""

    def __init__(self, speed):
        self.speed = speed
        self.samples = []  # (op id, scaled seconds, or inf for a failed op)
        self.status = {C.DECIDED: 0, C.UNDECIDED: 0, C.FAILED: 0}
        self.failures = []

    def add(self, seconds, status, op_id="", reason="", factor=None):
        seconds *= self.speed.scale() if factor is None else factor
        self.status[status] += 1
        self.samples.append((op_id, float("inf") if status == C.FAILED else seconds))
        if status == C.FAILED and len(self.failures) < 20:
            self.failures.append("%s: %s" % (op_id, reason))

    @property
    def attempted(self):
        return sum(self.status.values())

    def denoised_ms(self):
        """Each sample replaced by the median time of its op over the run.

        Every op runs once per pass, so this keeps the mix as it is and
        removes the pass-to-pass noise of single calls.
        """
        by_op = {}
        for op_id, t in self.samples:
            by_op.setdefault(op_id, []).append(t)
        median = {k: statistics.median(v) for k, v in by_op.items()}
        return [median[op_id] * 1e3 for op_id, _ in self.samples]

    def end_to_end(self, setup, peak_rss_mb):
        done = self.status[C.DECIDED] + self.status[C.UNDECIDED]
        ms = self.denoised_ms()
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "p50_ms": (percentile(ms, 0.5), "ms"),
            "p90_ms": (percentile(ms, 0.9), "ms"),
            "ops_per_s": (done / (sum(ms) / 1e3), "1/s"),
            "decided_share": (self.status[C.DECIDED] / self.attempted, "ratio"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        p99 = percentile(ms, 0.99)
        report = ["ops %d: decided %d, undecided %d, failed %d" % (
            self.attempted, self.status[C.DECIDED], self.status[C.UNDECIDED],
            self.status[C.FAILED])]
        report.append("p99_ms %s (n=%d)" % ("%.3f" % p99 if p99 is not None
                                            else "not reported, under 1000 samples", len(ms)))
        raw = sum(t for _, t in self.samples)
        report.append("ops_per_s from summed scaled times, not denoised: %.3f" % (done / raw))
        ref = self.speed.samples
        report.append("reference_work median %.3f ms over %d samples (nominal %.1f ms): "
                      "times are scaled by nominal / measured" % (
                          statistics.median(ref), len(ref), self.speed.NOMINAL_MS))
        return metrics, report


# in-process ops -------------------------------------------------------------

def run_classify(op):
    try:
        v = cli.classify(op["ring"], op["prime"], op["fp"], op["asserted"])
        return ("verdict", v.to_text(), v.to_json())
    except errors.NotRepresentableError as exc:
        return ("exit", 3, str(exc))
    except errors.InconclusiveError as exc:
        return ("exit", 4, str(exc))
    except errors.InputError as exc:
        return ("exit", 2, str(exc))
    except Exception as exc:  # a traceback in the CLI: the op failed
        return ("crash", repr(exc))


def check_classify(op, out):
    if out[0] == "crash":
        return C.FAILED, out[1]
    if out[0] == "verdict":
        out = ("verdict", json.loads(out[2]), out[1])
    return C.check_verdict(op["expect"], out)


def cli_main(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, buf.getvalue()


def prepare_kernel(op):
    """Build what an op's timed call needs, outside the timed region."""
    if op["kind"] == "spec":
        path = WORK / ("poset-%s.txt" % op["id"])
        path.write_text(op["text"])
        op["argv"] = ["spec", "enumerate", "--poset", str(path), "--format", "json"]
        op["facts"] = C.poset_facts(op["nodes"], op["edges"])
    elif op["kind"] == "heights":
        op["poset"] = spectool.SpecPoset.build(op["nodes"], op["edges"])
    elif op["kind"] == "decompose":
        op["order"] = quadorder.QuadOrder(op["d"])
    elif op["kind"] == "snf":
        op["int_matrix"] = abgroup.IntMatrix.from_rows(op["matrix"])
    elif op["kind"] == "classgroup":
        op["forms"] = C.reduced_forms(op["disc"])


def run_kernel(op):
    kind = op["kind"]
    try:
        if kind in ("classgroup", "cech", "spec"):
            return cli_main(op["argv"])
        if kind == "snf":
            return abgroup.smith_normal_form(op["int_matrix"])
        if kind == "heights":
            return op["poset"].heights()
        return quadorder.decompose_prime(op["order"], op["ell"])
    except Exception as exc:  # a traceback in uniloc: the op failed
        return ("crash", repr(exc))


def check_kernel(op, out):
    kind = op["kind"]
    if isinstance(out, tuple) and out[0] == "crash":
        return C.FAILED, out[1]
    if kind in ("classgroup", "cech", "spec"):
        code, text = out
        if code != 0:
            return C.FAILED, "exit %d" % code
        doc = json.loads(text)
        if kind == "classgroup":
            problem = C.check_classgroup(op["disc"], doc, op["forms"])
        elif kind == "cech":
            problem = C.check_cech(C.cech_table(op["dims"], op["m"], op["box"]), doc)
        else:
            heights, count = op["facts"]
            problem = None if (doc["count"], doc["heights"]) == (count, heights) else \
                "count %r, expected %d" % (doc["count"], count)
    elif kind == "snf":
        problem = C.check_snf(op["matrix"], *(M.to_rows() for M in out))
    elif kind == "heights":
        want = {n: i for i, n in enumerate(op["nodes"])}
        problem = None if out == want else "heights differ from the chain positions"
    else:
        ok = (type(out).__name__ == "Split" and out.p.a == op["ell"] and out.p.b == op["b"]
              and out.pbar.b == -op["b"])
        problem = None if ok else "decomposition %r, expected split with b = %d" % (out, op["b"])
    return (C.FAILED, problem) if problem else (C.DECIDED, "")


def checked(check, *args):
    """A checker's verdict; a checker that cannot read the output fails the op."""
    try:
        return check(*args)
    except Exception as exc:
        return C.FAILED, "unreadable output: %r" % (exc,)


def inprocess_passes(ops, run_op, check_op, limit, seconds, min_ops, trace, tally,
                     rungs=None):
    """A checked warm-up pass, then whole timed passes until seconds pass.

    With trace, passes alternate untraced and traced; returns the merged
    traced snapshot, the op-time sums of both kinds of pass, and the
    warm-up outputs.
    """
    first = {}
    for op in ops:
        out, took, timed_out = timed(lambda: run_op(op), limit)
        status, reason = (C.FAILED, "past the %.1f s limit" % limit) if timed_out \
            else checked(check_op, op, out)
        first[op["id"]] = (out, status, reason)
    acc = tracing.empty()
    sums = {False: [], True: []}
    start = perf_counter()
    traced = False
    while True:
        tracer = tracing.Tracer() if traced else None
        if tracer:
            tracer.install()
        total = 0.0
        try:
            for op in ops:
                before = list(tracer.spans.get(op.get("layer"), [0, 0.0])) if tracer else None
                out, took, timed_out = timed(lambda: run_op(op), limit)
                total += took
                want, status, reason = first[op["id"]]
                if timed_out:
                    status, reason = C.FAILED, "past the %.1f s limit" % limit
                elif out != want:
                    status, reason = C.FAILED, "output differs from the warm-up pass"
                if not trace or traced:
                    tally.add(took, status, op["id"], reason)
                if tracer and rungs is not None:
                    after = tracer.spans.get(op["layer"], [0, 0.0])
                    rungs.setdefault(op["metric"], []).append(
                        ((after[1] - before[1]) * 1e3, after[0] - before[0]))
        finally:
            if tracer:
                tracer.uninstall()
                tracing.merge(acc, tracer.snapshot())
        sums[traced].append(total)
        if trace:
            traced = not traced
        if perf_counter() - start >= seconds and not traced \
                and (trace or tally.attempted >= min_ops):
            break
    return acc, sums, first


# per-layer metrics ----------------------------------------------------------

LAYER_METRICS = (
    # name, unit, how to read it from the merged spans per op
    ("cli.parse_ms", "ms", ("self", "cli.build_parser", "cli.parse_args")),
    ("verdict.render.self_ms", "ms", ("self", "verdict.to_text", "verdict.to_json")),
    ("verdict.check_citations.calls", "count", ("calls", "verdict.check_citations")),
    ("quadorder.is_principal.self_ms", "ms", ("self", "quadorder.is_principal")),
    ("quadorder.is_principal.max_ms", "ms", ("max", "quadorder.is_principal")),
    ("quadorder.class_order.self_ms", "ms", ("self", "quadorder.class_order")),
    ("quadorder.class_number.calls", "count", ("calls", "quadorder.class_number")),
    ("quadorder.ideal_mul.calls", "count", ("calls", "quadorder.ideal_mul")),
    ("quadorder.reduce.calls", "count", ("calls", "quadorder.reduce")),
    ("quadorder.decompose_prime.self_ms", "ms", ("self", "quadorder.decompose_prime")),
    ("quadorder.reduced_forms.self_ms", "ms", ("self", "quadorder.reduced_forms")),
    ("elliptic.add.calls", "count", ("calls", "elliptic.add")),
    ("elliptic.torsion_order.self_ms", "ms", ("self", "elliptic.torsion_order")),
    ("elliptic.miller_function.self_ms", "ms", ("self", "elliptic.miller_function")),
    ("elliptic.check_line_program.self_ms", "ms", ("self", "elliptic.check_line_program")),
    ("elliptic.program_lines", "count", ("counter", "elliptic.program_lines")),
    ("segre.parse.self_ms", "ms", ("self", "segre.parse")),
    ("segre.classify_segre.self_ms", "ms", ("self", "segre.classify_segre")),
    ("lcohom.cech_dim.calls", "count", ("calls", "lcohom.cech_dim")),
    ("lcohom.cech_dim.self_ms", "ms", ("self", "lcohom.cech_dim")),
    ("lcohom.certify_nonvanishing.self_ms", "ms", ("self", "lcohom.certify_nonvanishing")),
    ("abgroup.smith_normal_form.self_ms", "ms", ("self", "abgroup.smith_normal_form")),
    ("spectool.heights.self_ms", "ms", ("self", "spectool.heights")),
    ("spectool.enumerate_closed.self_ms", "ms", ("self", "spectool.enumerate_closed")),
)


def rung_layout(ks):
    names = []
    for target in ks["classgroup_disc"]:
        names.append(("quadorder.reduced_forms.%s_ms" % W.rung_name("d", target), "ms"))
    for n in ks["snf_n"]:
        names += [("abgroup.snf.n%d_ms" % n, "ms"), ("abgroup.snf.n%d_bits" % n, "bits")]
    for m, box in ks["cech"]:
        base = "lcohom.cech_dim.v%db%d" % (m, box)
        names += [(base + "_ms", "ms"), (base + "_calls", "count")]
    for lengths in ks["enumerate_chains"]:
        names.append(("spectool.enumerate_closed.p%d_ms" % sum(lengths), "ms"))
    for n in ks["chain_nodes"] + [ks["probe_chain"]]:
        names.append(("spectool.heights.chain%d_ms" % n, "ms"))
    for target in ks["decompose_ell"] + [ks["probe_ell"]]:
        names.append(("quadorder.decompose_prime.%s_ms" % W.rung_name("l", target), "ms"))
    names.append(("lcohom.cech_dim.v%db%d_ms" % tuple(ks["probe_cech"]), "ms"))
    return names


def quad_probe_metric(ring):
    return "quadorder.is_principal.d%s_ms" % ring.split("-")[1]


def per_layer_names(cfg):
    """Every per-layer metric, in BENCHMARK.json order."""
    names = [("import.site_ms", "ms"), ("import.uniloc_ms", "ms")]
    names += [("import.uniloc.%s_ms" % m, "ms") for m in tracing.IMPORT_MODULES]
    names.append(("cli.golden_diffs", "count"))
    names += [(name, unit) for name, unit, _ in LAYER_METRICS]
    names += [("lcohom.witness_yield", "ratio"), ("abgroup.snf.max_bits", "bits")]
    names += rung_layout(cfg["kernel_sweep"])
    names.append((quad_probe_metric(cfg["classify_mix"]["probe"][0]), "ms"))
    names += [("probe.timeouts", "count"), ("trace.overhead_pct", "%")]
    return names


def layer_values(acc, ops_traced):
    out = {}
    spans, counters = acc["spans"], acc["counters"]
    for name, _, (how, *sources) in LAYER_METRICS:
        if how == "max":
            out[name] = spans.get(sources[0], [0, 0.0, 0.0])[2] * 1e3
            continue
        if how == "self":
            total = sum(spans.get(s, [0, 0.0])[1] for s in sources) * 1e3
        elif how == "calls":
            total = sum(spans.get(s, [0])[0] for s in sources)
        else:
            total = counters.get(sources[0], 0)
        out[name] = total / ops_traced if ops_traced else 0.0
    cech_calls = spans.get("lcohom.cech_dim", [0])[0]
    out["lcohom.witness_yield"] = counters.get("lcohom.witnesses", 0) / cech_calls \
        if cech_calls else 0.0
    out["abgroup.snf.max_bits"] = counters.get("abgroup.snf.max_bits", 0)
    return out


def import_layers(repeats):
    runs = [tracing.import_profile(sys.executable, child_env(), ROOT) for _ in range(repeats)]
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}


def overhead_pct(sums):
    return (statistics.median(sums[True]) / statistics.median(sums[False]) - 1) * 100


# workloads ------------------------------------------------------------------

def probe_ops(ops_probes, limit, trace, values, report):
    """Run each known hang once under the limit; count the time-outs."""
    timeouts = 0
    for op, run_op, check_op, metric, span in ops_probes:
        tracer = tracing.Tracer() if trace else None
        if tracer:
            tracer.install()
        try:
            out, took, timed_out = timed(lambda: run_op(op), limit)
        finally:
            if tracer:
                tracer.uninstall()
        if timed_out:
            timeouts += 1
            report.append("probe %s: past the %.1f s limit after %.3f s" % (metric, limit, took))
        else:
            status, reason = checked(check_op, op, out)
            report.append("probe %s: finished in %.3f s, %s %s" % (metric, took, status, reason))
        if tracer:
            values[metric] = tracer.spans.get(span, [0, 0.0])[1] * 1e3
    values["probe.timeouts"] = timeouts


def classify_mix(args, cfg, trace, tally, values, report):
    mix = cfg["classify_mix"]
    ops = W.classify_mix(random.Random(args.seed), mix)
    limit = cfg["time_limit_s"]["classify-mix"]
    acc, sums, _ = inprocess_passes(ops, run_classify, check_classify, limit, args.seconds,
                                    cfg["min_ops"], trace, tally)
    ring, prime = mix["probe"]
    expect = C.quad_expectation(int(ring.split(":")[1]), [(int(prime[1:]), False)])
    probe = W.classify_op("probe", "quad", ring, prime, expect=expect)
    probe_ops([(probe, run_classify, check_classify, quad_probe_metric(ring),
                "quadorder.is_principal")],
              limit, trace, values, report)
    if trace:
        values.update(layer_values(acc, len(ops) * len(sums[True])))
        values["trace.overhead_pct"] = overhead_pct(sums)
    report.append("pool of %d ops, %d timed passes" % (len(ops), len(sums[False]) + len(sums[True])))


def kernel_sweep(args, cfg, trace, tally, values, report):
    ks = cfg["kernel_sweep"]
    rng = random.Random(args.seed)
    ops = W.kernel_sweep(rng, ks)
    probes = W.kernel_probes(rng, ks)
    WORK.mkdir(exist_ok=True)
    for op in ops + probes:
        prepare_kernel(op)
    limit = cfg["time_limit_s"]["kernel-sweep"]
    rungs = {}
    acc, sums, first = inprocess_passes(ops, run_kernel, check_kernel, limit, args.seconds,
                                        cfg["min_ops"], trace, tally, rungs)
    probe_ops([(op, run_kernel, check_kernel, op["metric"] + "_ms", op["layer"])
               for op in probes], limit, trace, values, report)
    if trace:
        values.update(layer_values(acc, len(ops) * len(sums[True])))
        values["trace.overhead_pct"] = overhead_pct(sums)
        for op in ops:
            values[op["metric"] + "_ms"] = statistics.median(ms for ms, _ in rungs[op["metric"]])
            if op["kind"] == "snf":  # largest transform entry, next to the time
                _, U, W_ = first[op["id"]][0]
                values[op["metric"] + "_bits"] = C.bit_size(U.to_rows() + W_.to_rows())
            if op["kind"] == "cech":
                values[op["metric"] + "_calls"] = rungs[op["metric"]][0][1]
    report.append("ladder of %d rungs, %d timed passes" % (len(ops), len(sums[False]) + len(sums[True])))


def run_cli(argv, limit, trace_file=None):
    if trace_file is None:
        cmd = [sys.executable, "-m", "uniloc.cli"] + argv
    else:
        cmd = [sys.executable, str(BENCH / "trace_child.py"), str(trace_file)] + argv
    start = perf_counter()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=child_env(), cwd=ROOT,
                              timeout=limit)
    except subprocess.TimeoutExpired:
        return None, perf_counter() - start, True
    return (proc.returncode, proc.stdout, proc.stderr), perf_counter() - start, False


def cli_cold(args, cfg, trace, tally, values, report):
    speed = tally.speed
    entries = W.corpus()
    golden = json.loads((BENCH / "golden.json").read_text())
    limit = cfg["time_limit_s"]["cli-cold"]
    rng = random.Random(args.seed)
    WORK.mkdir(exist_ok=True)
    trace_file = WORK / "trace-child.json"
    run_cli(["catalog", "list"], limit)  # compile bytecode before timing
    acc = tracing.empty()
    sums = {False: [], True: []}
    first, diffs = {}, set()
    traced, calls, start = False, 0, perf_counter()
    while True:
        order = entries[:]
        rng.shuffle(order)
        total = 0.0
        for name, argv, exp in order:
            before = speed.scale(fresh=True)
            out, took, timed_out = run_cli(argv, limit, trace_file if traced else None)
            factor = (before + speed.scale(fresh=True)) / 2  # the call's own neighbourhood
            total += took
            if timed_out:
                status, reason = C.FAILED, "past the %.1f s limit" % limit
            else:
                if name not in first:
                    first[name] = (out,) + checked(CLI.check, argv, exp, out)
                want, status, reason = first[name]
                if out != want:
                    status, reason = C.FAILED, "output differs from the first call"
                if list(out) != golden.get(name):
                    diffs.add(name)
            if not trace or traced:
                tally.add(took, status, name, reason, factor)
                calls += 1
            if traced and trace_file.exists():
                tracing.merge(acc, json.loads(trace_file.read_text()))
                trace_file.unlink()
        sums[traced].append(total)
        if trace:
            traced = not traced
        enough = perf_counter() - start >= args.seconds and (trace or (
            calls >= cfg["min_ops"] and len(sums[False]) >= cfg["cli_cold_passes"]))
        if enough and not traced:
            break
    values["cli.golden_diffs"] = len(diffs)
    report.append("golden diffs: %d of %d entries%s" % (
        len(diffs), len(entries), (" (%s)" % ", ".join(sorted(diffs)[:8])) if diffs else ""))
    if trace:
        values.update(layer_values(acc, len(entries) * len(sums[True])))
        values["trace.overhead_pct"] = overhead_pct(sums)
    report.append("corpus of %d entries, %d passes" % (len(entries), len(sums[False]) + len(sums[True])))


RUNNERS = {"cli-cold": cli_cold, "classify-mix": classify_mix, "kernel-sweep": kernel_sweep}


def main(argv=None):
    parser = argparse.ArgumentParser(description="uniloc benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "uniloc" / "cli.py").is_file() \
            or not (ROOT / "tests" / "oracles.py").is_file():
        print("bench: %s holds no uniloc sources (src/uniloc, tests/oracles.py)" % ROOT,
              file=sys.stderr)
        return 2
    load_program()
    cfg = json.loads((BENCH / "config.json").read_text())
    signal.signal(signal.SIGALRM, _alarm)
    speed = Speed()
    # half the set-up samples before the workload and half after it, so
    # that one slow stretch of the host does not set the median
    repeats = cfg["setup_repeats"]
    setup = setup_times(repeats // 2 + 1, speed)
    tally = Tally(speed)
    values = {name: 0 for name, _ in per_layer_names(cfg)}
    report = []
    RUNNERS[args.workload](args, cfg, bool(args.trace), tally, values, report)
    setup += setup_times(repeats - len(setup), speed)
    who = resource.RUSAGE_CHILDREN if args.workload == "cli-cold" else resource.RUSAGE_SELF
    peak = resource.getrusage(who).ru_maxrss / 1024
    e2e, lines = tally.end_to_end(setup, peak)
    if args.trace:
        values.update(import_layers(cfg["setup_repeats"]))
        units = dict(per_layer_names(cfg))
        metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    else:
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in e2e.items()}
    for line in report + lines + ["failure %s" % f for f in tally.failures]:
        print("# " + line)
    if not args.trace:
        for name, m in metrics.items():
            print("# %s %s %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": tally.status[C.FAILED] == 0, "attempted": tally.attempted,
                      "failed": tally.status[C.FAILED], "metrics": metrics}))
    return 0


def load_program():
    """Import uniloc and the benchmark modules that need it."""
    global C, CLI, W, tracing, cli, errors, abgroup, quadorder, spectool
    sys.path.insert(0, str(ROOT / "src"))
    import checks as C
    import cli_checks as CLI
    import tracing
    import workloads as W
    from uniloc import abgroup, cli, errors, quadorder, spectool


if __name__ == "__main__":
    sys.exit(main())
