"""Command-line front end.

Subcommands wrap the verification suites, the two-box closed forms, and the
Langevin simulator with reproducible, file-based outputs.  Exit codes form a
stable contract: 0 success, 1 scientific-check failure, 2 input/usage error.
Every subcommand is deterministic under (config, seed): rerunning produces
byte-identical primary output files.

Each option is declared once (`Option`); `_resolve` converts every flag and
config-file value with it; a subcommand builds its inputs in one
`_input_errors` block; `main` alone maps exceptions to exit codes.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from .langevin import (
    MAX_STEPS, EnsembleParams, basin_free_energies, check_protocol,
    erasure_protocol_schedule, jarzynski_check, reset_free_energy, schedule_from_json,
    simulate_erasure, symmetric_double_well, tune_tilt_for_ratio,
)
from .measurement import (
    model_from_json, outcome_statistics, qc_mutual_information, shannon_entropy,
)
from .memory import two_branch_layout
from .numerics import POLICY
from .operators import (
    DensityOperator, MalformedPayloadError, matrix_from_json, temperature_value,
)
from .protocols import (
    erasure_bound_suite, erasure_convergence, measurement_bound_suite,
    szilard_reconciliation,
)
from .serialization import write_csv, write_json
from .twobox import SWEEP_COLUMNS, TwoBoxParams, point_report, sweep

EXIT_OK = 0
EXIT_SCIENCE = 1
EXIT_USAGE = 2


class UsageError(Exception):
    """Bad input file, option value or option combination; maps to exit code 2."""


@contextmanager
def _input_errors():
    """Report a ValueError raised while a subcommand builds its inputs as bad input."""
    try:
        yield
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _load_json_file(path: str, parse: Callable = None):
    """A JSON file's payload, read by the wire-format reader `parse` if given."""
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    try:
        return payload if parse is None else parse(payload)
    except MalformedPayloadError as exc:
        raise UsageError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Options: each one is a --flag and a config-file key of the same name

def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("not a finite number")
    return value


def _integer(minimum: int, maximum: int = None) -> Callable[[str], int]:
    def convert(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise ValueError(f"must be >= {minimum}")
        if maximum is not None and value > maximum:
            raise ValueError(f"must be <= {maximum}")
        return value
    return convert


def _json_or_csv(text: str) -> str:
    if text not in ("json", "csv"):
        raise ValueError("expected json or csv")
    return text


@dataclass(frozen=True)
class Option:
    """One input: `convert` turns its text into the value, raising ValueError."""

    name: str
    convert: Callable[[str], object] = str
    default: object = None
    help: str = None
    required: bool = False

    @property
    def flag(self) -> str:
        return "--" + self.name.replace("_", "-")


@dataclass(frozen=True)
class Command:
    """A subcommand: its handler, its flags and its config-file-only keys."""

    run: Callable[[dict], int]
    help: str
    options: tuple[Option, ...]
    config_only: tuple[Option, ...] = ()


def _out(default: str) -> Option:
    return Option("out", str, default, "output file path")


def _format(default: str) -> Option:
    return Option("format", _json_or_csv, default, "output format: json or csv")


TEMPERATURE = Option("temperature", lambda text: temperature_value(_finite(text)), 1.0,
                     "bath temperature (k_B = 1)")
SEED = Option("seed", _integer(0), help="random seed", required=True)


def _resolve(args: argparse.Namespace, command: Command) -> dict:
    """Config precedence: CLI flags over config-file values over defaults.

    A config-file null counts as absent.  Every other value, from a flag or
    from the file, goes through its option's converter, applied to its text.
    """
    options = command.options + command.config_only
    given = {}
    if args.config:
        payload = _load_json_file(args.config)
        if not isinstance(payload, dict):
            raise UsageError(f"{args.config}: config file must hold a JSON object")
        unknown = set(payload) - {opt.name for opt in options}
        if unknown:
            raise UsageError(f"{args.config}: unknown config keys {sorted(unknown)}")
        given.update(payload)
    given.update((opt.name, getattr(args, opt.name)) for opt in command.options
                 if getattr(args, opt.name) is not None)
    config = {}
    for opt in options:
        value = given.get(opt.name)
        if value is None:
            if opt.required:
                raise UsageError(f"{opt.flag} is required")
            config[opt.name] = opt.default
            continue
        try:
            if type(value) not in (str, int, float):
                raise ValueError("expected a number or a string")
            config[opt.name] = opt.convert(str(value))
        except ValueError as exc:
            raise UsageError(f"{opt.name} {json.dumps(value)}: {exc}") from exc
    return config


def _provenance(config: dict) -> dict:
    return {"version": __version__, "config": config}


MAX_GRID_POINTS = 100_000
# the langevin noise block holds 1024 float32 kicks per trajectory: 0.4 GB here
MAX_TRAJECTORIES = 100_000


def _parse_grid(spec: str) -> np.ndarray:
    """start:stop:step inside (0, 1), at most MAX_GRID_POINTS points."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"invalid grid {spec!r}, expected start:stop:step")
    start, stop, step = (_finite(v) for v in parts)
    if step <= 0 or stop < start:
        raise ValueError(f"invalid grid {spec!r}")
    # capped before rounding: a tiny step makes the quotient huge or infinite
    count = int(round(min((stop - start) / step, MAX_GRID_POINTS))) + 1
    if count > MAX_GRID_POINTS:
        raise ValueError(f"grid {spec!r} has more than {MAX_GRID_POINTS} points")
    grid = np.linspace(start, stop, count)
    if grid.min() <= 0.0 or grid.max() >= 1.0:
        raise ValueError("grid values must lie strictly inside (0, 1)")
    return grid


# ---------------------------------------------------------------------------
# Subcommands

def cmd_qcmi(config: dict) -> int:
    matrix = _load_json_file(config["state"], matrix_from_json)
    try:
        model = _load_json_file(config["povm"], model_from_json)
        rho = DensityOperator(matrix)
    except ValueError as exc:
        # a well-formed payload that violates a physics invariant
        print(f"qcmi: invariant failure: {exc}", file=sys.stderr)
        report = {"checks": {"inputs_valid": False}, "error": str(exc)}
    else:
        if rho.dim != model.dim:
            raise UsageError(f"state dimension {rho.dim} differs from the "
                             f"measurement dimension {model.dim}")
        stats = outcome_statistics(rho, model)
        h = shannon_entropy(stats.probabilities)
        info = qc_mutual_information(rho, model)
        report = {"H": h, "I": info, "p_k": stats.probabilities.tolist(), "checks": {
            "inputs_valid": True,
            "information_in_range": bool(-POLICY.bound <= info <= h + POLICY.bound),
            "probabilities_normalized": bool(
                abs(stats.probabilities.sum() - 1.0) <= POLICY.povm),
        }}
    write_json(config["out"], _provenance(config) | report)
    if "I" in report:
        print(f"qcmi: H = {report['H']:.6f} nats, I = {report['I']:.6f} nats "
              f"-> {config['out']}")
    return EXIT_OK if all(report["checks"].values()) else EXIT_SCIENCE


def cmd_verify_bounds(config: dict) -> int:
    if (config["convergence_out"]
            and Path(config["convergence_out"]).resolve() == Path(config["out"]).resolve()):
        raise UsageError(f"--convergence-out {config['convergence_out']} would overwrite "
                         "the --out report; use another path")
    temp, seed, n = config["temperature"], config["seed"], config["instances"]
    n_steps = config["n_steps"]
    meas_rows = measurement_bound_suite(seed, n, n_steps=n_steps, temperature=temp)
    eras_rows = erasure_bound_suite(seed + 1, n, n_steps=n_steps, temperature=temp)
    fuzz_rows = erasure_bound_suite(seed + 2, n, fuzz=True, temperature=temp)
    szilard = {f"t={t}": szilard_reconciliation(t, temp).to_json() for t in (0.5, 0.8)}

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
        rows = erasure_convergence(two_branch_layout(0.0), temp, (0.5, 0.5),
                                   (100, 1000, 10000))
        write_csv(config["convergence_out"], ("n_steps", "W", "bound", "margin"), rows)

    if not ok:
        suites = (("measurement", meas_rows, "measurement_margin"),
                  ("erasure", eras_rows, "margin"), ("fuzz", fuzz_rows, "margin"))
        offenders = [f"{label} seed={r['seed']} index={r['index']}"
                     for label, rows, key in suites
                     for r in rows if r.get(key, 0.0) < -POLICY.suite_margin]
        print("verify-bounds: VIOLATION "
              f"min margin {min_margin:.3e}; replay: {'; '.join(offenders)}",
              file=sys.stderr)
        return EXIT_SCIENCE
    print(f"verify-bounds: {len(margins)} margins >= {-POLICY.suite_margin:.0e}, "
          f"min margin {min_margin:.3e} -> {config['out']}")
    return EXIT_OK


def cmd_twobox(config: dict) -> int:
    with _input_errors():
        params = TwoBoxParams(config["t"], volume=config["volume"],
                              temperature=config["temperature"])
    report = _provenance(config) | point_report(params)
    if config["format"] == "csv":
        write_csv(config["out"], SWEEP_COLUMNS, sweep([params.t], params.temperature))
    else:
        write_json(config["out"], report)
    print(f"twobox: t = {params.t}, W_eras = {report['W_eras']:.6f}, "
          f"W_meas = {report['W_meas']:.6f} -> {config['out']}")
    return EXIT_OK


def cmd_sweep(config: dict) -> int:
    with _input_errors():
        grid = _parse_grid(config["grid"])
    rows = sweep(grid, config["temperature"])
    if config["format"] == "json":
        write_json(config["out"], _provenance(config) | {"rows": rows})
    else:
        write_csv(config["out"], SWEEP_COLUMNS, rows)
    print(f"sweep: {len(rows)} rows -> {config['out']}")
    return EXIT_OK


def cmd_langevin(config: dict) -> int:
    with _input_errors():
        summary_path = str(Path(config["out"]).with_suffix(".json"))
        if Path(summary_path) == Path(config["out"]):
            raise UsageError(f"--out {config['out']} would be overwritten by the JSON "
                             "summary; use another suffix, e.g. .csv")
        params = EnsembleParams(n_traj=config["n_traj"], seed=config["seed"],
                                dt=config["dt"], temperature=config["temperature"])
        temp = params.temperature
        a, b, ratio = config["quartic"], config["barrier"], config["ratio"]
        pot = (symmetric_double_well(a, b) if ratio == 1.0
               else tune_tilt_for_ratio(a, b, ratio, temp))
        eq = basin_free_energies(pot, temp)
        if config["schedule"]:
            schedule = _load_json_file(config["schedule"], schedule_from_json)
        else:
            schedule = erasure_protocol_schedule(pot, config["tau"],
                                                 push_tilt=config["push_tilt"])
        check_protocol(pot, schedule, params)

    ensemble = simulate_erasure(pot, schedule, params)
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

    columns = zip(ensemble.trajectory_seeds, ensemble.works, ensemble.final_basins)
    rows = [{"trajectory_index": i, "seed": int(s), "W": float(w), "final_basin": int(b)}
            for i, (s, w, b) in enumerate(columns)]
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

COMMANDS = {
    "qcmi": Command(cmd_qcmi, "information measures of a measurement", (
        _out("qcmi.json"),
        Option("state", help="density-matrix JSON file", required=True),
        Option("povm", help="measurement-model JSON file", required=True),
    )),
    "verify-bounds": Command(cmd_verify_bounds, "randomized bound-verification suites", (
        _out("bounds.json"), TEMPERATURE, SEED,
        Option("instances", _integer(1), 100, "instances per suite"),
        Option("n_steps", _integer(1), None,
               "fixed protocol step count (default: randomized speeds)"),
        Option("convergence_out", help="also emit the quasi-static convergence CSV here"),
    )),
    "twobox": Command(cmd_twobox, "two-box memory closed forms at one asymmetry", (
        _out("twobox.json"), _format("json"), TEMPERATURE,
        Option("t", _finite, help="left-box volume fraction in (0,1)", required=True),
        Option("volume", _finite, 1.0, "total box volume"),
    )),
    "sweep": Command(cmd_sweep, "two-box work table over an asymmetry grid", (
        _out("sweep.csv"), _format("csv"), TEMPERATURE,
        Option("grid", str, "0.1:0.9:0.1",
               f"start:stop:step inside (0,1), at most {MAX_GRID_POINTS} points"),
    )),
    "langevin": Command(cmd_langevin, "double-well erasure simulation", (
        _out("langevin.csv"), TEMPERATURE, SEED,
        Option("n_traj", _integer(1, MAX_TRAJECTORIES), 10_000,
               f"ensemble size, at most {MAX_TRAJECTORIES}"),
        Option("dt", _finite, 1e-3, "time step"),
        Option("tau", _finite, 750.0, f"protocol duration, at most {MAX_STEPS} steps of dt"),
        Option("ratio", _finite, 1.0,
               "target basin weight ratio Z_left : Z_right (1 = symmetric)"),
        Option("push_tilt", _finite, None, "tilt of the push stage"),
        Option("schedule", help="protocol schedule JSON file"),
    ), config_only=(
        Option("quartic", _finite, 1.0),
        Option("barrier", _finite, 6.5),
    )),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="infothermo",
        description="Information-thermodynamics verification toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--config", help="JSON config file (flags override it)")
        for opt in command.options:
            p.add_argument(opt.flag, dest=opt.name, help=opt.help)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = COMMANDS[args.command]
    try:
        return command.run(_resolve(args, command))
    except (UsageError, OSError) as exc:  # OSError: an output that cannot be written
        print(f"{args.command}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ArithmeticError as exc:  # an always-on cross-check or a divergence
        print(f"{args.command}: check failed: {exc}", file=sys.stderr)
        return EXIT_SCIENCE


if __name__ == "__main__":
    sys.exit(main())
