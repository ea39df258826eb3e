"""The command transcripts in README.md against the real CLI output.

A fenced block whose first line is `$ uniloc ...` is a transcript: the
lines after the command are what `uniloc.cli.main` prints, in full, or
up to a last line `...` that marks where the transcript stops.  The
`cech` example in the command list shows output without its command
line; it is checked against the call it documents.  The Limits table
must have one row for each bound of tests/test_limits.py, with the value
its constant has in the running code.
"""

import re
import shlex
import textwrap
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from test_limits import ROWS, value
from uniloc.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
BLOCKS = [textwrap.dedent(b)
          for b in re.findall(r"^ *```[a-z]*\n(.*?)^ *```", README, re.M | re.S)]
PROMPT = "$ uniloc "
TRANSCRIPTS = [(shlex.split(lines[0][len(PROMPT):]), lines[1:])
               for lines in (b.splitlines() for b in BLOCKS)
               if lines[0].startswith(PROMPT) and len(lines) > 1]
LIMITS = README[README.index("\n## Limits\n"):]
LIMITS = LIMITS[:LIMITS.index("\n## ", 1)]
# | `module.NAME` | `value` | ...
LIMIT_ROWS = dict(re.findall(r"^\| `([\w.]+)` \| `([\d_]+)` \|", LIMITS, re.M))
CECH_ARGV = ["cech", "--vars", "X,Y,U", "--rel", "XU", "--ideal", "X,Y",
             "--i", "2", "--box", "1"]


def run_main(argv):
    out = StringIO()
    with redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


def test_readme_shows_both_classify_transcripts():
    assert [argv[:3] for argv, _ in TRANSCRIPTS] == [
        ["classify", "--ring", "quad:-5"], ["classify", "--ring", "ell:0,-4"]]


@pytest.mark.parametrize("argv, shown", TRANSCRIPTS,
                         ids=[" ".join(argv) for argv, _ in TRANSCRIPTS])
def test_transcript(argv, shown):
    code, out = run_main(argv)
    assert code == 0
    if shown[-1] == "...":
        assert out.startswith("\n".join(shown[:-1]) + "\n")
    else:
        assert out == "\n".join(shown) + "\n"


def test_cech_example():
    shown = [b for b in BLOCKS if b.startswith("algebra: ")]
    assert len(shown) == 1
    assert run_main(CECH_ARGV) == (0, shown[0])


def test_limits_table_lists_every_bound():
    assert sorted(LIMIT_ROWS) == sorted(row.constant for row in ROWS)


@pytest.mark.parametrize("constant", sorted(LIMIT_ROWS))
def test_limits_table_value(constant):
    assert int(LIMIT_ROWS[constant]) == value(constant)
