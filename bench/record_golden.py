"""Record the cli-cold golden outputs: exit code, stdout and stderr of
every corpus entry, written to bench/golden.json.

    python3 bench/record_golden.py

Run it from the root of a checkout of the commit whose outputs become the
reference; the benchmark reports later differences as cli.golden_diffs.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402


def main():
    golden = {}
    for name, argv, _ in workloads.corpus():
        proc = subprocess.run([sys.executable, "-m", "uniloc.cli"] + argv, capture_output=True,
                              text=True, env=run.child_env(), cwd=ROOT, timeout=60)
        golden[name] = [proc.returncode, proc.stdout, proc.stderr]
    path = ROOT / "bench" / "golden.json"
    path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print("recorded %d entries in %s" % (len(golden), path.relative_to(ROOT)))


if __name__ == "__main__":
    main()
