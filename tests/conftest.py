"""Collects the acceptance results and prints one line per criterion,
registers the Hypothesis profile that CI selects, and gives the tests a
counter of Fraction constructions."""

from fractions import Fraction

import pytest
from hypothesis import settings

# `--hypothesis-profile=ci`: the same examples on every run, and a failure
# prints the blob that replays it; local runs keep the random default
settings.register_profile("ci", derandomize=True, print_blob=True)

_DOCS = {}
_RESULTS = {}


@pytest.fixture
def count_fractions(monkeypatch):
    """count_fractions(fn): how many Fractions fn() builds, counted as
    calls of Fraction.__new__."""
    new = Fraction.__new__

    def count(fn):
        built = []

        def counted(cls, *args, **kwargs):
            built.append(args)
            return new(cls, *args, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(Fraction, "__new__", counted)
            fn()
        return len(built)

    return count


def pytest_collection_modifyitems(config, items):
    for item in items:
        if "test_acceptance" not in item.nodeid:
            continue
        doc = (getattr(item, "obj", None).__doc__ or "").strip().splitlines()
        _DOCS[item.nodeid] = doc[0] if doc else item.name


def pytest_runtest_logreport(report):
    if report.when != "call" or "test_acceptance" not in report.nodeid:
        return
    _RESULTS[report.nodeid] = (report.outcome, report.duration)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _RESULTS:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for nodeid in sorted(_RESULTS):
        outcome, duration = _RESULTS[nodeid]
        word = "PASS" if outcome == "passed" else "FAIL"
        terminalreporter.write_line(
            "%s  %s  (%.2fs)" % (word, _DOCS.get(nodeid, nodeid), duration))
