"""Outside-in benchmark of the ``infothermo`` command-line tool.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Runs from the root of a checkout.  Each call of a workload is one fresh child
interpreter (``perfbench/child.py``) that imports ``infothermo`` from ``src``
and times one ``cli.main`` call; children run one at a time, so at most one
program occupies the cores.  Calls repeat with the same seed until
``--seconds`` is used up; every call's outputs are checked and must be
byte-identical across the run.

``--trace 0`` prints the end-to-end metrics: medians over the calls of
``wall_s`` (the ``cli.main`` call), ``setup_s`` (child start until
``infothermo.cli`` is imported and the inputs are built), ``cpu_s`` (user +
sys of the call), ``peak_rss_mb`` and ``throughput_per_s`` (particle-steps
per second on the Langevin workloads, randomized suite instances per second
on verify-bounds).  Timings are scaled to a reference machine speed by the
workload's probe in ``perfbench/speed.py``, which the child runs just before
and just after ``cli.main``; the unscaled medians go into the context line.
``--trace 1`` alternates untraced and traced calls and prints the per-layer
metrics from the spans of ``perfbench/tracer.py``, scaled the same way; on
``langevin-ensemble`` each cycle adds a traced call pinned to one core.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the machine, the versions, the source and the workload's reason.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = HERE / ".work"
CHILD = HERE / "child.py"

MIN_CALLS = 3           # per untraced run, whatever --seconds says
MIN_TRACED_CYCLES = 2   # so the counters can be seen to repeat
MIN_COVERAGE = 0.95
PROBE_LIMIT_S = 30.0
RUN_LIMIT_S = 140.0     # every call of a workload ends by then, so a run ends < 180 s
PINNED_WORKLOAD = "langevin-ensemble"
SCHEDULE_BUILDERS = ("protocols.erasure_schedule",
                     "protocols.measurement_transport_schedule",
                     "protocols.fuzzed_erasure_schedule")


def spawn(name: str, seed: int, deadline: float, *, trace=False, one_core=False,
          import_only=False) -> dict:
    """Run one child, killed at deadline; return its measurements or problems."""
    result = WORKDIR / "result.json"
    result.unlink(missing_ok=True)
    cmd = [sys.executable, str(CHILD), "--workload", name, "--seed", str(seed),
           "--workdir", str(WORKDIR), "--result", str(result),
           "--spawned-at", repr(time.monotonic())]
    cmd += ["--trace"] * trace + ["--one-core"] * one_core + ["--import-only"] * import_only
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdin=subprocess.DEVNULL,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"problems": [f"child killed after {timeout:.0f} s"]}
    if proc.returncode != 0 or not result.exists():
        return {"problems": [f"child exited {proc.returncode}: {proc.stderr[-2000:]}"]}
    return json.loads(result.read_text())


def output_digest(name: str) -> str:
    h = hashlib.sha256()
    for file in workloads.outputs(name):
        h.update((WORKDIR / file).read_bytes())
    return h.hexdigest()


def slowdowns(name: str, data: dict) -> dict:
    """How much slower than the reference speed the machine ran one call's
    ``cli.main`` (the probes around it) and its set-up (the probe after it,
    square-rooted: see speed.py)."""
    before, after = data["probe_before_s"], data["probe_after_s"]
    reference = speed.reference_s(name)
    return {"setup_slowdown": (before / reference) ** 0.5,
            "slowdown": (before + after) / (2.0 * reference)}


def call(name: str, seed: int, reference: dict, deadline: float, **flags) -> dict:
    """One checked call: measurements plus the list of what went wrong."""
    data = spawn(name, seed, deadline, **flags)
    problems = data.setdefault("problems", [])
    if problems:
        return data
    data |= slowdowns(name, data)
    if data["exit_code"] != 0:
        problems.append(f"exit code {data['exit_code']}: {data['error']}")
        return data
    problems += workloads.check_outputs(name, WORKDIR, reference)
    data["digest"] = output_digest(name)
    data["output_bytes"] = sum((WORKDIR / f).stat().st_size
                               for f in workloads.outputs(name))
    return data


def keep_calling(cycle, seconds: float, min_cycles: int) -> list:
    """Repeat cycle() until --seconds would be overrun, at least min_cycles times."""
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    calls, cycles = [], 0
    while True:
        calls += cycle(deadline)
        cycles += 1
        elapsed = time.monotonic() - start
        next_end = elapsed * (cycles + 1) / cycles
        if next_end > RUN_LIMIT_S or (cycles >= min_cycles and next_end > seconds):
            return calls


def median(values):
    """Median; counts stay whole numbers."""
    values = list(values)
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return float(statistics.median(values))


def end_to_end(name: str, calls: list) -> tuple[dict, dict]:
    """The end-to-end metrics, and the unscaled medians for the context."""
    timed = [c for c in calls if "wall_s" in c]
    wall = median(c["wall_s"] / c["slowdown"] for c in timed)
    metrics = {
        "wall_s": wall,
        "setup_s": median(c["setup_s"] / c["setup_slowdown"] for c in timed),
        "cpu_s": median(c["cpu_s"] / c["slowdown"] for c in timed),
        "peak_rss_mb": median(c["peak_rss_mb"] for c in timed),
        "throughput_per_s": workloads.work_items(name) / wall,
    }
    unscaled = {key: median(c[key] for c in timed)
                for key in ("wall_s", "setup_s", "cpu_s", "setup_slowdown", "slowdown")}
    return metrics, {"unscaled_medians": unscaled}


def layers(trace: dict, wall: float) -> dict:
    """Per-layer metrics of one traced call."""
    fns, mods, counts = trace["functions"], trace["modules"], trace["counts"]

    def s(fn):
        return fns.get(fn, {}).get("s", 0.0)

    def calls(fn):
        return fns.get(fn, {}).get("calls", 0)

    sim_s = s("langevin.simulate_erasure")
    steps = counts["langevin.particle_steps"]
    return {
        "langevin.simulate_erasure.s": sim_s,
        "langevin.simulate_erasure.particle_steps_per_s": steps / sim_s if sim_s else 0.0,
        "langevin.self_s": mods.get("langevin", 0.0),
        "langevin.particle_steps": steps,
        "langevin.tune_tilt_for_ratio.s": s("langevin.tune_tilt_for_ratio"),
        "langevin.basin_free_energies.calls": calls("langevin.basin_free_energies"),
        "langevin.basin_free_energies.s": s("langevin.basin_free_energies"),
        "langevin.jarzynski_check.s": s("langevin.jarzynski_check"),
        "serialization.write_csv.s": s("serialization.write_csv"),
        "serialization.write_json.s": s("serialization.write_json"),
        "serialization.bytes": counts["serialization.bytes"],
        "cli.self_s": mods.get("cli", 0.0),
        "protocols.run_schedule.s": s("protocols.run_schedule"),
        "protocols.run_schedule.calls": calls("protocols.run_schedule"),
        "protocols.steps": counts["protocols.steps"],
        "protocols.schedule_build.s": sum(fns.get(fn, {}).get("self_s", 0.0)
                                          for fn in SCHEDULE_BUILDERS),
        "protocols.szilard_reconciliation.s": s("protocols.szilard_reconciliation"),
        "protocols.erasure_convergence.s": s("protocols.erasure_convergence"),
        "protocols.self_s": mods.get("protocols", 0.0),
        "measurement.qc_mutual_information.calls":
            calls("measurement.qc_mutual_information"),
        "measurement.qc_mutual_information.s": s("measurement.qc_mutual_information"),
        "measurement.self_s": mods.get("measurement", 0.0),
        "memory.self_s": mods.get("memory", 0.0),
        "memory.free_energies.calls": calls("memory.free_energies"),
        "operators.self_s": mods.get("operators", 0.0),
        "trace.coverage": sum(mods.values()) / wall,
    }


def scaled(metrics: dict, c: dict) -> dict:
    """Per-layer metrics of call c at the reference speed: times (names ending
    in s) divided by its slowdown, rates (names ending in per_s) multiplied."""
    factor = c["slowdown"]
    return {key: value * factor if key.endswith("_per_s")
            else value / factor if key.endswith((".s", "_s")) else value
            for key, value in metrics.items()}


def count_vector(trace: dict) -> dict:
    """Every exact counter of one traced call, by name."""
    out = {f"{fn}.calls": v["calls"] for fn, v in trace["functions"].items()}
    out |= trace["counts"]
    out |= {f"steps_under.{k}": v for k, v in trace["steps_under"].items()}
    return out


def check_traced(name: str, traced: list) -> dict:
    """Check the traced calls; return each counter against its closed form.

    A call fails when its counters do not repeat exactly, when its spans do
    not cover the call, or when the particle-steps differ from
    n_traj * round(tau / dt): the work may get cheaper, never smaller.  The
    other closed forms describe how the program splits its work today, so a
    deviation is reported, not failed.
    """
    first = None
    want = workloads.particle_steps(name)
    for c in traced:
        if c["problems"]:
            continue
        counts = count_vector(c["trace"])
        if counts["langevin.particle_steps"] != want:
            c["problems"].append(f"{counts['langevin.particle_steps']} particle-steps, "
                                 f"expected {want}")
        if counts["serialization.bytes"] != c["output_bytes"]:
            c["problems"].append("serialization.bytes differs from the output files")
        coverage = sum(c["trace"]["modules"].values()) / c["wall_s"]
        if coverage < MIN_COVERAGE:
            c["problems"].append(f"trace.coverage {coverage:.3f} < {MIN_COVERAGE}")
        if first is None:
            first = counts
        elif counts != first:
            c["problems"].append("counters differ between traced calls")
    if first is None:
        return {}
    closed = {key: {"value": first.get(key, 0), "closed_form": form}
              for key, form in workloads.expected_counts(name).items()}
    for key, entry in closed.items():
        if entry["value"] != entry["closed_form"]:
            print(f"{name}: note: count {key} = {entry['value']}, "
                  f"closed form {entry['closed_form']}", file=sys.stderr)
    return closed


def per_layer(name: str, calls: list) -> tuple[dict, dict]:
    plain = [c for c in calls if not c.get("traced") and "wall_s" in c]
    traced = [c for c in calls if c.get("traced") and not c.get("pinned")
              and "trace" in c]
    pinned = [c for c in calls if c.get("pinned") and "trace" in c]
    closed = check_traced(name, traced + pinned)
    if not traced or not plain:
        return {}, closed
    per_call = [scaled(layers(c["trace"], c["wall_s"]), c) for c in traced]
    metrics = {key: median(m[key] for m in per_call) for key in per_call[0]}
    # a pinned call's own probes run pinned too, so scaling by them would
    # cancel the lost parallelism; use the slowdown of the unpinned calls
    metrics["langevin.simulate_erasure.one_core_s"] = (
        median(c["trace"]["functions"]["langevin.simulate_erasure"]["s"] for c in pinned)
        / median(c["slowdown"] for c in plain)
        if pinned else 0.0)
    metrics["trace.overhead"] = (median(c["wall_s"] / c["slowdown"] for c in traced)
                                 / median(c["wall_s"] / c["slowdown"] for c in plain) - 1.0)
    return metrics, {"closed_forms": closed}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 reference: dict) -> tuple[list, dict, dict]:
    """All calls of one run, the metrics they give and notes for the context."""
    def plain(deadline):
        return [call(name, seed, reference, deadline)]

    def traced(deadline):
        cycle = plain(deadline) + [call(name, seed, reference, deadline, trace=True)
                                   | {"traced": True}]
        if name == PINNED_WORKLOAD:
            cycle.append(call(name, seed, reference, deadline, trace=True, one_core=True)
                         | {"traced": True, "pinned": True})
        return cycle

    calls = keep_calling(traced if trace else plain, seconds,
                         MIN_TRACED_CYCLES if trace else MIN_CALLS)
    digests = {c["digest"] for c in calls if "digest" in c}
    if len(digests) > 1:
        for c in calls:
            c["problems"].append("outputs differ between calls with one seed")
    if not any("wall_s" in c for c in calls):
        return calls, {}, {}
    if trace:
        return calls, *per_layer(name, calls)
    return calls, *end_to_end(name, calls)


def git_commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def report(name: str, seed: int, args, calls: list, metrics: dict, notes: dict,
           spec: dict, versions: dict) -> dict:
    """Print the human-readable lines and the context; return the result."""
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    failed = sum(1 for c in calls if c["problems"])
    for c in calls:
        for problem in c["problems"]:
            print(f"{name}: FAILED call: {problem}", file=sys.stderr)
    print(f"{name}: {len(calls)} calls, failed_fraction {failed / len(calls):.4g}")
    for key, value in metrics.items():
        print(f"{name}: {key} = {value:.6g} {units[key]}")
    context = {
        "workload": name, "why": why[name], "seed": seed, "seconds": args.seconds,
        "trace": args.trace, "calls": len(calls), "failed_fraction": failed / len(calls),
        "cores": os.cpu_count(), "affinity_cores": len(os.sched_getaffinity(0)),
        "machine": platform.machine(), **versions,
        "git_commit": git_commit(), "source_sha256": source_digest(),
        **{f"{key}_per_call": [c.get(key) for c in calls if "wall_s" in c]
           for key in ("wall_s", "setup_s", "cpu_s", "setup_slowdown", "slowdown")},
        **notes,
    }
    print(json.dumps({"context": context}))
    return {
        "correct": failed == 0 and bool(metrics),
        "attempted": len(calls),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*workloads.NAMES, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "infothermo" / "cli.py").is_file() or not spec_path.is_file():
        print("perfbench: run from a checkout holding src/infothermo and BENCHMARK.json",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    reference = workloads.load_reference()
    WORKDIR.mkdir(exist_ok=True)
    try:
        # imports once before timing, so set-up is measured with warm file caches
        probe = spawn(workloads.NAMES[0], args.seed, time.monotonic() + PROBE_LIMIT_S,
                      import_only=True)
        if probe.get("problems"):
            print(f"perfbench: cannot import infothermo: {probe['problems'][0]}",
                  file=sys.stderr)
            return 2
        names = workloads.NAMES if args.workload == "all" else (args.workload,)
        results = {}
        for name in names:
            calls, metrics, notes = run_workload(name, args.seed, args.seconds,
                                                 bool(args.trace), reference)
            results[name] = report(name, args.seed, args, calls, metrics, notes,
                                   spec, probe)
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)

    if not all(r["metrics"] for r in results.values()):
        print("perfbench: no call produced timings", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{k}": v for name, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
