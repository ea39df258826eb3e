"""Collects the acceptance results and prints one line per criterion,
registers the Hypothesis profile that CI selects, gives the tests a
counter of Fraction constructions, and fails a test that runs past
TEST_TIME_LIMIT_S."""

import signal
from fractions import Fraction

import pytest
from hypothesis import settings

# `--hypothesis-profile=ci`: the same examples on every run, and a failure
# prints the blob that replays it; local runs keep the random default
settings.register_profile("ci", derandomize=True, print_blob=True)

_DOCS = {}
_RESULTS = {}

# the slowest tier-1 test takes about 1.5 s on a shared 2-core host; a test
# that runs 60 s is stuck, say in a loop that stopped making progress, and
# fails with a traceback into that loop instead of hanging the suite
TEST_TIME_LIMIT_S = 60


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


class TimeLimitExceeded(BaseException):
    """Not an Exception, so that Hypothesis does not catch it and rerun the
    stuck example to shrink it."""


def _expired(signum, frame):
    raise TimeLimitExceeded("the test ran past %d s" % TEST_TIME_LIMIT_S)


@pytest.fixture(autouse=True)
def _time_limit():
    if not hasattr(signal, "SIGALRM"):  # Windows has no alarm
        yield
        return
    previous = signal.signal(signal.SIGALRM, _expired)
    signal.alarm(TEST_TIME_LIMIT_S)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.hookimpl(tryfirst=True)
def pytest_runtest_makereport(item, call):
    # the alarm can land on an instruction without a line number, whose
    # traceback entry pytest cannot print: drop those entries
    if call.excinfo is None or not call.excinfo.errisinstance(TimeLimitExceeded):
        return
    tb = call.excinfo.tb
    while tb.tb_next is not None:
        if tb.tb_next.tb_lineno is None:
            tb.tb_next = tb.tb_next.tb_next
        else:
            tb = tb.tb_next


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
