"""Byte-identity guard for the CLI verdicts.

golden_verdicts.json holds, for each recorded argv, the exit code,
stdout and stderr of an in-process `uniloc.cli.main` call.  The cases
cover every reachable classify branch in text and JSON, plus
`catalog list`, argparse's refusal of a missing `--ring` and of
`--box`, which classify does not take, and `classgroup`, `ell
torsion`, `cech`, `snf` and `spec enumerate` in text and JSON with
their refusals.  The `spec` and `snf` calls read the files under
tests/posets and tests/matrices by paths relative to the repository
root, where every case runs.  The fixture is never
regenerated as a whole: a refactor must reproduce it byte for byte, and
a deliberate output change re-records only the entries it names.
"""

import json
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from uniloc.cli import main

FIXTURE = Path(__file__).with_name("golden_verdicts.json")
ROOT = FIXTURE.parent.parent
CASES = json.loads(FIXTURE.read_text())


def run_main(argv):
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return {"argv": list(argv), "exit": code,
            "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.mark.parametrize("case", CASES, ids=[" ".join(c["argv"]) for c in CASES])
def test_replay(case, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert run_main(case["argv"]) == case
