"""Run each perfbench workload once per pinned seed and check its digest.

Usage, from the repository root::

    python benchmarks/check_perfbench_digests.py

For every ``(workload, seed)`` in ``benchmarks/perfbench_digests.json`` this
runs ``perfbench/run.py --seconds 0`` (one cold pass) and fails unless the
run reports ``"correct": true`` and its simulated-statistics digest equals
the pinned one.  A changed digest means the simulation itself changed.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

PINNED = Path(__file__).with_name("perfbench_digests.json")


def run_once(workload: str, seed: str) -> tuple:
    """``(correct, digest)`` of one ``--seconds 0`` perfbench run."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", seed, "--seconds", "0"],
        capture_output=True, text=True, check=True,
    ).stdout
    digest = re.search(r"simulated: digest=([0-9a-f]+)", out)
    result = json.loads(out.strip().splitlines()[-1])
    return result["correct"], digest.group(1) if digest else None


def main() -> int:
    failures = 0
    for workload, seeds in json.loads(PINNED.read_text()).items():
        for seed, pinned in seeds.items():
            correct, digest = run_once(workload, seed)
            ok = correct and digest == pinned
            failures += not ok
            print(f"{workload} seed={seed}: correct={correct} digest={digest}"
                  f" pinned={pinned} {'ok' if ok else 'FAIL'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
