"""One traced uniloc CLI call, for the traced cli-cold run.

    python3 bench/trace_child.py SPANS.json <uniloc arguments>

Behaves like `python -m uniloc.cli <arguments>` with the tracer of
tracing.py installed, and writes the call's spans to SPANS.json.
"""

import json
import sys
from pathlib import Path

import tracing
from uniloc import cli


def main():
    out = Path(sys.argv[1])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = cli.main(sys.argv[2:])
    finally:
        tracer.uninstall()
        out.write_text(json.dumps(tracer.snapshot()))
    return code


if __name__ == "__main__":
    sys.exit(main())
