"""The benchmark's workloads: CLI arguments, work counts and output checks.

Each workload is one fixed-scale ``infothermo`` CLI call.  The benchmark seed
becomes the CLI ``--seed``; every other input is fixed here.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")

DT = 1e-3
LANGEVIN = {
    # criterion 7's production ensemble width on the ratio-4 memory
    "langevin-ensemble": {"n_traj": 10_000, "tau": 20.0, "ratio": 4.0},
    # the ensemble width of the tier-1 Langevin tests, symmetric memory
    "langevin-small": {"n_traj": 256, "tau": 100.0, "ratio": 1.0},
}
INSTANCES = 100
SZILARD_STEPS = 10_000
CONVERGENCE_GRID = (100, 1000, 10_000)

NAMES = (*LANGEVIN, "verify-bounds")


def outputs(name: str) -> tuple[str, ...]:
    """Files one call writes, relative to its work directory."""
    if name in LANGEVIN:
        return (f"{name}.csv", f"{name}.json")
    return ("bounds.json", "convergence.csv")


def cli_args(name: str, seed: int, workdir: Path) -> list[str]:
    if name in LANGEVIN:
        w = LANGEVIN[name]
        ratio = [] if w["ratio"] == 1.0 else ["--ratio", repr(w["ratio"])]
        return ["langevin", "--seed", str(seed), "--n-traj", str(w["n_traj"]), *ratio,
                "--dt", repr(DT), "--tau", repr(w["tau"]),
                "--out", str(workdir / f"{name}.csv")]
    return ["verify-bounds", "--seed", str(seed), "--instances", str(INSTANCES),
            "--out", str(workdir / "bounds.json"),
            "--convergence-out", str(workdir / "convergence.csv")]


def particle_steps(name: str) -> int:
    if name not in LANGEVIN:
        return 0
    w = LANGEVIN[name]
    return w["n_traj"] * int(round(w["tau"] / DT))


def work_items(name: str) -> int:
    """Throughput numerator: particle-steps, or randomized suite instances."""
    return particle_steps(name) if name in LANGEVIN else 3 * INSTANCES


def expected_counts(name: str) -> dict:
    """Closed forms of the traced counters at the workload's fixed inputs."""
    counts = {
        "langevin.particle_steps": particle_steps(name),
        "cli.main.calls": 1,
        "serialization.write_csv.calls": 1,
        "serialization.write_json.calls": 1,
    }
    if name in LANGEVIN:
        counts |= {
            "langevin.simulate_erasure.calls": 1,
            "langevin.jarzynski_check.calls": 1,
            "measurement.qc_mutual_information.calls": 0,
            "protocols.run_schedule.calls": 0,
            "protocols.steps": 0,
        }
        if LANGEVIN[name]["ratio"] == 1.0:
            # one quadrature for the bound, one for the gated Jarzynski oracle
            counts["langevin.basin_free_energies.calls"] = 2
        return counts
    n = SZILARD_STEPS
    return counts | {
        "langevin.simulate_erasure.calls": 0,
        # the measurement suite calls it twice per instance, Szilard once per t
        "measurement.qc_mutual_information.calls": 2 * INSTANCES + 2,
        # per t: transport schedule (4n + 5 steps) plus erasure (2n + 5)
        "steps_under.protocols.szilard_reconciliation": 2 * (6 * n + 10),
        "steps_under.protocols.erasure_convergence":
            sum(2 * m + 5 for m in CONVERGENCE_GRID),
    }


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def reference_values(name: str, workdir: Path) -> dict:
    """The values of one call's outputs that later commits are checked against."""
    if name in LANGEVIN:
        summary = json.loads((workdir / f"{name}.json").read_text())
        return {"mean": summary["mean"], "stderr": summary["stderr"]}
    report = json.loads((workdir / "bounds.json").read_text())
    with open(workdir / "convergence.csv", newline="") as fh:
        rows = {int(r["n_steps"]): float(r["W"]) for r in csv.DictReader(fh)}
    return {
        "szilard_lhs": {k: v["lhs"] for k, v in sorted(report["szilard"].items())},
        "convergence_W": {str(m): rows[m] for m in CONVERGENCE_GRID},
    }


def check_outputs(name: str, workdir: Path, reference: dict) -> list[str]:
    """Problems with one call's outputs; empty when the call is correct."""
    try:
        if name in LANGEVIN:
            return _check_langevin(name, workdir, reference[name])
        return _check_bounds(workdir, reference[name])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]


def _check_langevin(name: str, workdir: Path, ref: dict) -> list[str]:
    summary = json.loads((workdir / f"{name}.json").read_text())
    with open(workdir / f"{name}.csv", newline="") as fh:
        rows = sum(1 for _ in csv.DictReader(fh))
    problems = []
    if rows != LANGEVIN[name]["n_traj"]:
        problems.append(f"{rows} trajectory rows, expected {LANGEVIN[name]['n_traj']}")
    stderr = summary["stderr"]
    if not summary["success_fraction"] >= 0.99:
        problems.append(f"success_fraction {summary['success_fraction']} < 0.99")
    if not summary["landauer_margin"] >= -3.0 * stderr:
        problems.append(f"landauer_margin {summary['landauer_margin']} < -3 stderr")
    # two independent estimates differ by sqrt(2) stderr: a 5-sigma window
    window = 5.0 * math.sqrt(2.0) * stderr
    if not abs(summary["mean"] - ref["mean"]) <= window:
        problems.append(f"mean {summary['mean']} outside {ref['mean']} +- {window}")
    return problems


def _check_bounds(workdir: Path, ref: dict) -> list[str]:
    report = json.loads((workdir / "bounds.json").read_text())
    problems = []
    if report["passed"] is not True:
        problems.append("verify-bounds reports passed = false")
    if not report["min_margin"] >= -1e-6:
        problems.append(f"min_margin {report['min_margin']} < -1e-6")
    for suite in ("measurement_suite", "erasure_suite", "fuzzed_erasure_suite"):
        if len(report[suite]) != INSTANCES:
            problems.append(f"{suite} has {len(report[suite])} rows")
    got = reference_values("verify-bounds", workdir)
    for group in ("szilard_lhs", "convergence_W"):
        for key, want in ref[group].items():
            value = got[group][key]
            if not abs(value - want) <= 1e-12 * abs(want):
                problems.append(f"{group}[{key}] = {value!r}, reference {want!r}")
    return problems
