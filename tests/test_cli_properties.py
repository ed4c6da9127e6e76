"""Property test of the CLI exit-code contract over generated inputs.

Every subcommand, for any mix of flags and config-file values, valid or not,
must return 0, 1 or 2 (an argparse rejection, SystemExit(2), counts as 2),
raise nothing else and print no traceback.  Option values come from small
per-option pools, mostly valid ones, so that many runs reach the science code;
every run stays tiny: at most 2 suite instances, at most 16 trajectories,
protocols no longer than 1.
"""

import contextlib
import io
import json
import os
import tempfile

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import event, given, settings, strategies as st  # noqa: E402

from infothermo.cli import main  # noqa: E402
from builders import matrix_to_json, model_to_json, projective_model  # noqa: E402

# candidate texts per option: (valid, invalid)
TEMPERATURE = (["1", "0.5", "0.05"], ["0", "-1", "nan", "inf", "-inf", "hot"])
SEED = (["0", "7"], ["-1", "1.5", "x"])
OUT = (["out.csv"], ["out.json", "missing/out.csv", ""])
FORMAT = (["json", "csv"], ["xml"])
BROKEN_FILES = ["truncated.json", "list.json", "missing.json"]

POOLS = {
    "qcmi": {
        "state": (["state2.json"], ["state3.json", "state_trace.json", *BROKEN_FILES]),
        "povm": (["povm2.json"], ["povm3.json", "povm_incomplete.json",
                                  "povm_malformed.json", *BROKEN_FILES]),
        "out": OUT,
    },
    "verify-bounds": {
        "seed": SEED, "temperature": TEMPERATURE,
        "instances": (["1", "2"], ["0", "-3", "x"]),
        "n_steps": (["2", "10"], ["0", "-1", "2.5"]),
        "out": OUT, "convergence_out": (["conv.csv"], ["missing/conv.csv"]),
    },
    "twobox": {
        "t": (["0.5", "0.8"], ["0", "1", "-0.1", "nan", "x"]),
        "volume": (["1", "2"], ["0", "-1", "inf"]),
        "temperature": TEMPERATURE, "out": OUT,
    },
    "sweep": {
        "grid": (["0.1:0.9:0.1", "0.2:0.8:0.2"],
                 ["0:1:0.1", "0.9:0.1:0.1", "0.1:0.9:0", "0.1:0.9:nan", "0.1:inf:0.1",
                  "a:b:c", "0.5"]),
        "temperature": TEMPERATURE, "format": FORMAT, "out": OUT,
    },
    "langevin": {
        "seed": SEED, "temperature": TEMPERATURE,
        "n_traj": (["1", "16"], ["0", "-1", "x"]),
        "dt": (["0.001", "0.0005"], ["0.05", "0", "-0.001", "nan"]),
        "schedule": (["frozen.json"], ["schedule_malformed.json", "schedule_nan.json",
                                       *BROKEN_FILES]),
        "tau": (["0.5", "1"], ["0", "-1", "inf", "nan"]),
        "ratio": (["1", "4"], ["0", "-1", "1e6", "nan"]),
        "push_tilt": (["30"], ["0", "-30", "nan"]),
        "quartic": (["1"], ["0", "-1", "x"]),
        "barrier": (["6.5"], ["2", "0", "-6.5"]),
        "out": OUT,
    },
}
CONFIG_ONLY = {"quartic", "barrier"}
# options whose default would make a large run: always given, never null;
# a schedule sets its own duration, so a run with one may leave out tau
BOUNDED = {"instances", "n_traj", "tau"}


def write_input_files():
    def dump(name, payload):
        with open(name, "w") as fh:
            json.dump(payload, fh)

    dump("state2.json", matrix_to_json(np.diag([0.25, 0.75]).astype(complex)))
    dump("state3.json", matrix_to_json(np.eye(3, dtype=complex) / 3))
    dump("state_trace.json", matrix_to_json(np.diag([0.8, 0.8]).astype(complex)))
    dump("povm2.json", model_to_json(projective_model(2)))
    dump("povm3.json", model_to_json(projective_model(3)))
    half = np.sqrt(np.diag([0.5, 0.5])).astype(complex)
    dump("povm_incomplete.json", {"outcomes": [{"k": 0, "operators": [matrix_to_json(half)]}]})
    dump("povm_malformed.json", {"outcomes": [{"k": 0}]})
    dump("schedule_malformed.json", {"duration": 1.0})
    dump("schedule_nan.json", {"duration": float("nan"), "knots": [
        {"time": 0.0, "coefficients": [1.0, 6.5, 0.0]},
        {"time": float("nan"), "coefficients": [1.0, 6.5, 0.0]}]})
    dump("frozen.json", {"duration": 0.5, "knots": [
        {"time": 0.0, "coefficients": [1.0, 6.5, 0.0]},
        {"time": 0.5, "coefficients": [1.0, 6.5, 0.0]}]})
    dump("list.json", [1, 2])
    with open("truncated.json", "w") as fh:
        fh.write('{"dim": 2, "re": [[1, 0]')


def config_value(draw, text: str, nullable: bool):
    """A JSON value a config file might hold for an option given as text."""
    forms = [text] * 5
    for number in (int, float):  # float takes NaN and Infinity too
        try:
            forms += [number(text)] * 5
            break
        except ValueError:
            pass
    forms += [[text], True] + ([None] if nullable else [])
    return draw(st.sampled_from(forms))


def option_text(draw, pool):
    valid, invalid = pool
    return draw(st.sampled_from(valid if draw(st.integers(0, 19)) < 18 else invalid))


@st.composite
def invocations(draw):
    command = draw(st.sampled_from(["langevin", *POOLS]))  # langevin has the most options
    argv, config = [command], {}
    for name, pool in POOLS[command].items():
        sources = ["flag", "flag", "config", "config", "both"]
        scheduled = "--schedule" in argv or config.get("schedule") is not None
        if name not in BOUNDED or (name == "tau" and scheduled):
            sources.append("absent")
        if name in CONFIG_ONLY:
            sources = [s for s in sources if s in ("config", "absent")]
        source = draw(st.sampled_from(sources))
        if source in ("flag", "both"):
            argv += ["--" + name.replace("_", "-"), option_text(draw, pool)]
        if source in ("config", "both"):
            text = option_text(draw, pool)
            config[name] = config_value(draw, text, nullable=name not in BOUNDED)
    if draw(st.integers(0, 19)) == 0:
        config["bogus"] = 1
    payload = draw(st.sampled_from([config] * 18 + [[config], "text"]))
    return argv, payload


@settings(max_examples=1000, deadline=None, database=None)
@given(invocations())
def test_every_input_exits_0_1_or_2(invocation):
    argv, payload = invocation
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            write_input_files()
            with open("cfg.json", "w") as fh:
                json.dump(payload, fh)
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                try:
                    code = main([*argv, "--config", "cfg.json"])
                except SystemExit as exc:
                    code = exc.code
        finally:
            os.chdir(cwd)
    event(f"{argv[0]} exit {code}")  # shown by pytest --hypothesis-show-statistics
    assert code in (0, 1, 2), (argv, payload, err.getvalue())
    assert "Traceback" not in err.getvalue()
