"""Command-line front end.

Subcommands wrap the verification suites, the two-box closed forms, and the
Langevin simulator with reproducible, file-based outputs.  Exit codes form a
stable contract: 0 success, 1 scientific-check failure, 2 input/usage error.
Every subcommand is deterministic under (config, seed): rerunning produces
byte-identical primary output files.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .langevin import (
    EnsembleParams,
    basin_free_energies,
    erasure_protocol_schedule,
    jarzynski_check,
    load_schedule,
    reset_free_energy,
    simulate_erasure,
    symmetric_double_well,
    tune_tilt_for_ratio,
)
from .measurement import (
    InvalidMeasurementError,
    model_from_json,
    outcome_statistics,
    qc_mutual_information,
    shannon_entropy,
)
from .numerics import POLICY
from .operators import DensityOperator, matrix_from_json
from .protocols import (
    erasure_bound_suite,
    erasure_convergence,
    measurement_bound_suite,
    szilard_reconciliation,
)
from .serialization import write_csv, write_json
from .twobox import SWEEP_COLUMNS, TwoBoxParams, point_report, sweep

EXIT_OK = 0
EXIT_SCIENCE = 1
EXIT_USAGE = 2


class UsageError(Exception):
    """Bad input file or option combination; maps to exit code 2."""


def _load_json_file(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc


def _resolve(args: argparse.Namespace, defaults: dict) -> dict:
    """Config precedence: CLI flags over config-file values over defaults."""
    config = dict(defaults)
    if getattr(args, "config", None):
        payload = _load_json_file(args.config)
        if not isinstance(payload, dict):
            raise UsageError(f"{args.config}: config file must hold a JSON object")
        unknown = set(payload) - set(defaults)
        if unknown:
            raise UsageError(f"{args.config}: unknown config keys {sorted(unknown)}")
        config.update(payload)
    for key in defaults:
        value = getattr(args, key, None)
        if value is not None:
            config[key] = value
    return config


def _provenance(config: dict) -> dict:
    return {"version": __version__, "config": config}


def _require_seed(config: dict):
    if config.get("seed") is None:
        raise UsageError("--seed is required for randomized subcommands")


def _parse_grid(spec: str) -> np.ndarray:
    try:
        start, stop, step = (float(v) for v in spec.split(":"))
    except ValueError as exc:
        raise UsageError(f"invalid grid {spec!r}, expected start:stop:step") from exc
    if step <= 0 or stop < start:
        raise UsageError(f"invalid grid {spec!r}")
    count = int(round((stop - start) / step)) + 1
    grid = np.linspace(start, stop, count)
    if grid.min() <= 0.0 or grid.max() >= 1.0:
        raise UsageError("grid values must lie strictly inside (0, 1)")
    return grid


# ---------------------------------------------------------------------------
# Subcommands

def cmd_qcmi(args: argparse.Namespace) -> int:
    defaults = {"state": None, "povm": None, "out": "qcmi.json", "format": "json"}
    config = _resolve(args, defaults)
    if not config["state"] or not config["povm"]:
        raise UsageError("--state and --povm input files are required")

    state_payload = _load_json_file(config["state"])
    povm_payload = _load_json_file(config["povm"])
    try:
        matrix = matrix_from_json(state_payload)
    except ValueError as exc:
        raise UsageError(f"{config['state']}: {exc}") from exc

    checks = {}
    try:
        rho = DensityOperator(matrix)
        model = model_from_json(povm_payload)
        checks["inputs_valid"] = True
    except InvalidMeasurementError as exc:
        # structurally sound POVM payload violating a physics invariant
        report = _provenance(config) | {"checks": {"inputs_valid": False},
                                        "error": str(exc)}
        write_json(config["out"], report)
        print(f"qcmi: invariant failure: {exc}", file=sys.stderr)
        return EXIT_SCIENCE
    except ValueError as exc:
        if "malformed" in str(exc) or "payload" in str(exc):
            raise UsageError(f"{config['povm']}: {exc}") from exc
        report = _provenance(config) | {"checks": {"inputs_valid": False},
                                        "error": str(exc)}
        write_json(config["out"], report)
        print(f"qcmi: invariant failure: {exc}", file=sys.stderr)
        return EXIT_SCIENCE

    stats = outcome_statistics(rho, model)
    h = shannon_entropy(stats.probabilities)
    info = qc_mutual_information(rho, model)
    checks["information_in_range"] = bool(-POLICY.bound <= info <= h + POLICY.bound)
    checks["probabilities_normalized"] = bool(
        abs(stats.probabilities.sum() - 1.0) <= POLICY.povm)
    report = _provenance(config) | {
        "H": h,
        "I": info,
        "p_k": stats.probabilities.tolist(),
        "checks": checks,
    }
    write_json(config["out"], report)
    ok = all(checks.values())
    print(f"qcmi: H = {h:.6f} nats, I = {info:.6f} nats -> {config['out']}")
    return EXIT_OK if ok else EXIT_SCIENCE


def cmd_verify_bounds(args: argparse.Namespace) -> int:
    defaults = {
        "seed": None,
        "temperature": 1.0,
        "instances": 100,
        "n_steps": None,
        "out": "bounds.json",
        "format": "json",
        "convergence_out": None,
    }
    config = _resolve(args, defaults)
    _require_seed(config)
    seed = int(config["seed"])
    temp = float(config["temperature"])
    n = int(config["instances"])
    n_steps = config["n_steps"] if config["n_steps"] is None else int(config["n_steps"])

    meas_rows = measurement_bound_suite(seed, n, n_steps=n_steps, temperature=temp)
    eras_rows = erasure_bound_suite(seed + 1, n, n_steps=n_steps, temperature=temp)
    fuzz_rows = erasure_bound_suite(seed + 2, n, fuzz=True, temperature=temp)
    szilard = {
        f"t={t}": szilard_reconciliation(t, temp).to_json() for t in (0.5, 0.8)
    }

    margins = (
        [r["measurement_margin"] for r in meas_rows]
        + [r["sum_margin"] for r in meas_rows]
        + [r["erasure_margin"] for r in meas_rows]
        + [r["margin"] for r in eras_rows]
        + [r["margin"] for r in fuzz_rows]
        + [s["margin"] for s in szilard.values()]
    )
    min_margin = float(min(margins))
    ok = min_margin >= -POLICY.suite_margin
    report = _provenance(config) | {
        "measurement_suite": meas_rows,
        "erasure_suite": eras_rows,
        "fuzzed_erasure_suite": fuzz_rows,
        "szilard": szilard,
        "min_margin": min_margin,
        "passed": ok,
    }
    write_json(config["out"], report)

    if config["convergence_out"]:
        from .memory import two_branch_layout

        rows = erasure_convergence(two_branch_layout(0.0), temp, (0.5, 0.5),
                                   (100, 1000, 10000))
        write_csv(config["convergence_out"], ("n_steps", "W", "bound", "margin"), rows)

    if not ok:
        offenders = []
        for label, rows, key in (("measurement", meas_rows, "measurement_margin"),
                                 ("erasure", eras_rows, "margin"),
                                 ("fuzz", fuzz_rows, "margin")):
            for r in rows:
                if r.get(key, 0.0) < -POLICY.suite_margin:
                    offenders.append(f"{label} seed={r['seed']} index={r['index']}")
        print("verify-bounds: VIOLATION "
              f"min margin {min_margin:.3e}; replay: {'; '.join(offenders)}",
              file=sys.stderr)
        return EXIT_SCIENCE
    print(f"verify-bounds: {len(margins)} margins >= {-POLICY.suite_margin:.0e}, "
          f"min margin {min_margin:.3e} -> {config['out']}")
    return EXIT_OK


def cmd_twobox(args: argparse.Namespace) -> int:
    defaults = {"t": None, "temperature": 1.0, "volume": 1.0,
                "out": "twobox.json", "format": "json"}
    config = _resolve(args, defaults)
    if config["t"] is None:
        raise UsageError("--t is required")
    try:
        params = TwoBoxParams(float(config["t"]), volume=float(config["volume"]),
                              temperature=float(config["temperature"]))
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    report = _provenance(config) | point_report(params)
    if config["format"] == "csv":
        row = sweep([params.t], params.temperature)[0]
        write_csv(config["out"], SWEEP_COLUMNS, [row])
    else:
        write_json(config["out"], report)
    print(f"twobox: t = {params.t}, W_eras = {report['W_eras']:.6f}, "
          f"W_meas = {report['W_meas']:.6f} -> {config['out']}")
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    defaults = {"grid": "0.1:0.9:0.1", "temperature": 1.0,
                "out": "sweep.csv", "format": "csv"}
    config = _resolve(args, defaults)
    grid = _parse_grid(config["grid"])
    rows = sweep(grid, float(config["temperature"]))
    if config["format"] == "json":
        write_json(config["out"], _provenance(config) | {"rows": rows})
    else:
        write_csv(config["out"], SWEEP_COLUMNS, rows)
    print(f"sweep: {len(rows)} rows -> {config['out']}")
    return EXIT_OK


def cmd_langevin(args: argparse.Namespace) -> int:
    defaults = {
        "seed": None,
        "temperature": 1.0,
        "n_traj": 10_000,
        "dt": 1e-3,
        "tau": 750.0,
        "ratio": 1.0,
        "quartic": 1.0,
        "barrier": 6.5,
        "push_tilt": None,
        "schedule": None,
        "out": "langevin.csv",
        "format": "csv",
    }
    config = _resolve(args, defaults)
    _require_seed(config)
    temp = float(config["temperature"])
    summary_path = str(Path(config["out"]).with_suffix(".json"))
    if Path(summary_path) == Path(config["out"]):
        raise UsageError(f"--out {config['out']} would be overwritten by the JSON "
                         "summary; use another suffix, e.g. .csv")

    ratio = float(config["ratio"])
    try:
        if ratio == 1.0:
            pot = symmetric_double_well(float(config["quartic"]), float(config["barrier"]))
        else:
            pot = tune_tilt_for_ratio(float(config["quartic"]), float(config["barrier"]),
                                      ratio, temp)
    except ValueError as exc:
        raise UsageError(f"no double well for ratio {ratio}: {exc}") from exc
    if config["schedule"]:
        try:
            schedule = load_schedule(config["schedule"])
        except (OSError, ValueError) as exc:
            raise UsageError(f"{config['schedule']}: {exc}") from exc
    else:
        push = config["push_tilt"]
        schedule = erasure_protocol_schedule(
            pot, float(config["tau"]),
            push_tilt=None if push is None else float(push))

    try:
        params = EnsembleParams(
            n_traj=int(config["n_traj"]), seed=int(config["seed"]),
            dt=float(config["dt"]), temperature=temp)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    try:
        ensemble = simulate_erasure(pot, schedule, params)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc

    eq = basin_free_energies(pot, temp)
    bound = temp * shannon_entropy(params.initial_weights) - eq.delta_f
    landauer_margin = ensemble.mean_work - bound
    # the erasure bound applies to completed resets only
    completed = ensemble.success_fraction >= 0.99
    # the exponential work average of a completed reset from an equilibrium
    # ensemble recovers the constrained (reset) free energy; otherwise the
    # z-score has no sampleable oracle and is reported without gating
    je_gated = completed and abs(params.initial_weights[0] - eq.p_eq_left) <= 1e-3
    expected = reset_free_energy(pot, temp) if je_gated else 0.0
    jz = jarzynski_check(ensemble, expected)

    rows = [
        {
            "trajectory_index": i,
            "seed": int(ensemble.trajectory_seeds[i]),
            "W": float(ensemble.works[i]),
            "final_basin": int(ensemble.final_basins[i]),
        }
        for i in range(params.n_traj)
    ]
    write_csv(config["out"], ("trajectory_index", "seed", "W", "final_basin"), rows)

    summary = _provenance(config) | {
        "mean": ensemble.mean_work,
        "stderr": ensemble.stderr,
        "success_fraction": ensemble.success_fraction,
        "erasure_bound": bound,
        "landauer_margin": landauer_margin,
        "delta_f_memory": eq.delta_f,
        "equilibrium_left_weight": eq.p_eq_left,
        "jarzynski": jz.to_json(),
        "jarzynski_gated": je_gated,
    }
    write_json(summary_path, summary)

    failed = (completed and landauer_margin < -3.0 * ensemble.stderr) or (
        je_gated and jz.flagged)
    print(f"langevin: mean W = {ensemble.mean_work:.4f} +- {ensemble.stderr:.4f} "
          f"(bound {bound:.4f}), success {ensemble.success_fraction:.4f} "
          f"-> {config['out']}, {summary_path}")
    if failed:
        print("langevin: FAILED scientific checks "
              f"(landauer margin {landauer_margin:.4f}, |z| = {abs(jz.z_score):.2f})",
              file=sys.stderr)
        return EXIT_SCIENCE
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="infothermo",
        description="Information-thermodynamics verification toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser):
        p.add_argument("--config", help="JSON config file (flags override it)")
        p.add_argument("--out", help="output file path")
        p.add_argument("--format", choices=("json", "csv"))
        p.add_argument("--temperature", type=float, help="bath temperature (k_B = 1)")

    p = sub.add_parser("qcmi", help="information measures of a measurement")
    common(p)
    p.add_argument("--state", help="density-matrix JSON file")
    p.add_argument("--povm", help="measurement-model JSON file")
    p.set_defaults(handler=cmd_qcmi)

    p = sub.add_parser("verify-bounds", help="randomized bound-verification suites")
    common(p)
    p.add_argument("--seed", type=int)
    p.add_argument("--instances", type=int, help="instances per suite")
    p.add_argument("--n-steps", dest="n_steps", type=int,
                   help="fixed protocol step count (default: randomized speeds)")
    p.add_argument("--convergence-out", dest="convergence_out",
                   help="also emit the quasi-static convergence CSV here")
    p.set_defaults(handler=cmd_verify_bounds)

    p = sub.add_parser("twobox", help="two-box memory closed forms at one asymmetry")
    common(p)
    p.add_argument("--t", type=float, help="left-box volume fraction in (0,1)")
    p.add_argument("--volume", type=float, help="total box volume")
    p.set_defaults(handler=cmd_twobox)

    p = sub.add_parser("sweep", help="two-box work table over an asymmetry grid")
    common(p)
    p.add_argument("--grid", help="start:stop:step inside (0,1)")
    p.set_defaults(handler=cmd_sweep)

    p = sub.add_parser("langevin", help="double-well erasure simulation")
    common(p)
    p.add_argument("--seed", type=int)
    p.add_argument("--n-traj", dest="n_traj", type=int)
    p.add_argument("--dt", type=float)
    p.add_argument("--tau", type=float, help="protocol duration")
    p.add_argument("--ratio", type=float,
                   help="target basin weight ratio Z_left : Z_right (1 = symmetric)")
    p.add_argument("--push-tilt", dest="push_tilt", type=float)
    p.add_argument("--schedule", help="protocol schedule JSON file")
    p.set_defaults(handler=cmd_langevin)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except UsageError as exc:
        print(f"{args.command}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
