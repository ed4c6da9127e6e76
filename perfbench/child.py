"""One timed ``infothermo`` CLI call in a fresh interpreter.

    python3 perfbench/child.py --workload NAME --seed N --workdir DIR
        --result FILE --spawned-at T [--trace] [--one-core] [--import-only]

Imports ``infothermo`` from the checkout's ``src``, builds the workload's
arguments, times ``cli.main`` between two runs of the workload's speed probe
(``perfbench/speed.py``) and writes its measurements as JSON to ``--result``;
with ``--import-only`` it writes the library versions instead.
``--spawned-at`` is the parent's ``time.monotonic()`` just before the spawn
(one system-wide clock), so set-up time covers interpreter start, imports and
input building.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--one-core", action="store_true")
    ap.add_argument("--import-only", action="store_true")
    args = ap.parse_args()

    if args.one_core:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    import infothermo.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"infothermo imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.import_only:
        result = {"python": platform.python_version(),
                  **{pkg: metadata.version(pkg) for pkg in ("numpy", "scipy")}}
    else:
        result = timed_call(cli, args)
    args.result.write_text(json.dumps(result))
    return 0


def timed_call(cli, args) -> dict:
    argv = workloads.cli_args(args.workload, args.seed, args.workdir)
    for name in workloads.outputs(args.workload):
        (args.workdir / name).unlink(missing_ok=True)
    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.install()  # rebinds cli.main to its wrapper
    setup_end = time.monotonic()

    import speed  # not at the top: numpy must load after the one-core pinning
    probe_before = speed.probe(args.workload)

    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    error = None
    t0 = time.perf_counter()
    try:
        code = cli.main(argv)
    except Exception:  # a crash is a failed call, reported to the parent
        code, error = None, traceback.format_exc()
    wall = time.perf_counter() - t0
    usage1 = resource.getrusage(resource.RUSAGE_SELF)
    probe_after = speed.probe(args.workload)

    out = {
        "exit_code": code,
        "error": error,
        "setup_s": setup_end - args.spawned_at,
        "wall_s": wall,
        "cpu_s": (usage1.ru_utime - usage0.ru_utime) + (usage1.ru_stime - usage0.ru_stime),
        "peak_rss_mb": usage1.ru_maxrss / 1024.0,
        "probe_before_s": probe_before,
        "probe_after_s": probe_after,
    }
    if tracer is not None:
        out["trace"] = tracer.aggregate()
    return out


if __name__ == "__main__":
    sys.exit(main())
