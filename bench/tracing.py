"""Spans around the public functions of each uniloc layer, from outside.

A Tracer replaces each traced function, wherever a uniloc module holds a
reference to it, by a wrapper that times the call and charges it to the
function's span.  A span's self time is its duration minus the time of
the traced calls it made.  Spans are aggregated in memory per function
(calls, self time, largest single call), since a cech table makes tens
of thousands of calls; uninstall() puts the original functions back.

Recursive helpers (SpecPoset.height, lcohom._rank) are not traced: a
wrapper on every recursive step would cost more than the work measured.
"""

from __future__ import annotations

import argparse
import re
import subprocess
import sys
from time import perf_counter

# span name -> (module, attribute); "Class.method" patches the class
TRACED = {
    "cli.build_parser": ("cli", "build_parser"),
    "cli.parse_args": ("argparse", "ArgumentParser.parse_args"),
    "verdict.to_text": ("verdict", "Verdict.to_text"),
    "verdict.to_json": ("verdict", "Verdict.to_json"),
    "verdict.check_citations": ("verdict", "check_citations"),
    "quadorder.is_principal": ("quadorder", "is_principal"),
    "quadorder.class_order": ("quadorder", "class_order"),
    "quadorder.class_number": ("quadorder", "class_number"),
    "quadorder.ideal_mul": ("quadorder", "ideal_mul"),
    "quadorder.reduce": ("quadorder", "reduce"),
    "quadorder.decompose_prime": ("quadorder", "decompose_prime"),
    "quadorder.reduced_forms": ("quadorder", "reduced_forms"),
    "elliptic.add": ("elliptic", "add"),
    "elliptic.torsion_order": ("elliptic", "torsion_order"),
    "elliptic.miller_function": ("elliptic", "miller_function"),
    "elliptic.check_line_program": ("elliptic", "check_line_program"),
    "segre.parse": ("segre", "parse_polynomial"),
    "segre.classify_segre": ("segre", "classify_segre"),
    "lcohom.cech_dim": ("lcohom", "cech_dim"),
    "lcohom.certify_nonvanishing": ("lcohom", "certify_nonvanishing"),
    "abgroup.smith_normal_form": ("abgroup", "smith_normal_form"),
    "spectool.heights": ("spectool", "SpecPoset.heights"),
    "spectool.enumerate_closed": ("spectool", "enumerate_closed"),
}

UNILOC_MODULES = ("cli", "verdict", "quadorder", "elliptic", "segre", "lcohom",
                  "abgroup", "spectool", "errors", "divisors")


def _observe_program(stats, result):
    stats["elliptic.program_lines"] = stats.get("elliptic.program_lines", 0) + len(result)


def _observe_witness(stats, result):
    if result.found:
        stats["lcohom.witnesses"] = stats.get("lcohom.witnesses", 0) + 1


def _observe_snf(stats, result):
    _, U, W = result
    bits = max((abs(x).bit_length() for M in (U, W) for x in M.entries), default=0)
    stats["abgroup.snf.max_bits"] = max(stats.get("abgroup.snf.max_bits", 0), bits)


# counters read off a traced call's result, outside its timed span
OBSERVERS = {
    "elliptic.miller_function": _observe_program,
    "lcohom.certify_nonvanishing": _observe_witness,
    "abgroup.smith_normal_form": _observe_snf,
}


class Tracer:
    def __init__(self):
        self.spans = {}     # name -> [calls, self seconds, largest call seconds]
        self.counters = {}  # name -> number
        self._stack = []    # child time accumulated by each open span
        self._undo = []

    def _wrap(self, name, fn):
        stack, spans, counters = self._stack, self.spans, self.counters
        observe = OBSERVERS.get(name)

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = perf_counter() - start
                child = stack.pop()
                if stack:
                    stack[-1] += took
                span = spans.setdefault(name, [0, 0.0, 0.0])
                span[0] += 1
                span[1] += took - child
                span[2] = max(span[2], took)
            if observe:
                observe(counters, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        modules = {m: sys.modules["uniloc." + m] for m in UNILOC_MODULES
                   if "uniloc." + m in sys.modules}
        for name, (module, attr) in TRACED.items():
            owner = argparse if module == "argparse" else modules[module]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(name, original))
                self._undo.append((cls, meth, original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            for mod in modules.values():  # every from-import binding too
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._undo.append((mod, key, original))

    def uninstall(self):
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    def snapshot(self):
        return {"spans": {k: list(v) for k, v in self.spans.items()},
                "counters": dict(self.counters)}


def merge(into, snap):
    """Add one snapshot into an accumulated one."""
    for name, (calls, self_s, largest) in snap["spans"].items():
        span = into["spans"].setdefault(name, [0, 0.0, 0.0])
        span[0] += calls
        span[1] += self_s
        span[2] = max(span[2], largest)
    for name, value in snap["counters"].items():
        if name.endswith("max_bits"):
            into["counters"][name] = max(into["counters"].get(name, 0), value)
        else:
            into["counters"][name] = into["counters"].get(name, 0) + value


def empty():
    return {"spans": {}, "counters": {}}


# interpreter start and imports ----------------------------------------------

IMPORT_MODULES = ("cli", "verdict", "quadorder", "elliptic", "segre", "lcohom",
                  "abgroup", "spectool", "errors")

_IMPORT_LINE = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)$")


def import_profile(python, env, cwd):
    """Milliseconds per import layer from one `-X importtime` run."""
    proc = subprocess.run([python, "-X", "importtime", "-c", "import uniloc.cli"],
                          capture_output=True, text=True, env=env, cwd=cwd, timeout=60)
    if proc.returncode != 0:
        raise RuntimeError("import uniloc.cli failed: %s" % proc.stderr[-500:])
    self_us, cumulative_us, top_uniloc_us = {}, {}, 0
    for line in proc.stderr.splitlines():
        m = _IMPORT_LINE.match(line)
        if m:
            name = m.group(4)
            self_us[name] = int(m.group(1))
            cumulative_us[name] = int(m.group(2))
            if len(m.group(3)) == 1 and name.split(".")[0] == "uniloc":
                top_uniloc_us += int(m.group(2))  # everything `import uniloc.cli` pulled in
    out = {"import.site_ms": cumulative_us.get("site", 0) / 1e3,
           "import.uniloc_ms": top_uniloc_us / 1e3}
    for m in IMPORT_MODULES:
        out["import.uniloc.%s_ms" % m] = self_us.get("uniloc." + m, 0) / 1e3
    return out
