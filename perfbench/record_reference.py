"""Regenerate ``reference.json``, the output values later commits must match.

    python3 perfbench/record_reference.py

Runs each workload once at seed 0.  For the Langevin workloads it stores the
ensemble work mean and its standard error (later runs must land within a
5·sqrt(2)·stderr window of the mean); for verify-bounds the Szilard ``lhs``
values and the convergence works ``W`` (later runs must match to 1e-12
relative).
"""

from __future__ import annotations

import json
import shutil
import sys
import time

import run
import workloads

SEED = 0


def main() -> int:
    run.WORKDIR.mkdir(exist_ok=True)
    reference = {"source_sha256": run.source_digest()}
    try:
        for name in workloads.NAMES:
            data = run.spawn(name, SEED, time.monotonic() + run.RUN_LIMIT_S)
            if data.get("problems") or data["exit_code"] != 0:
                print(f"{name}: call failed: {data}", file=sys.stderr)
                return 1
            reference[name] = {"seed": SEED,
                               **workloads.reference_values(name, run.WORKDIR)}
    finally:
        shutil.rmtree(run.WORKDIR, ignore_errors=True)
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
