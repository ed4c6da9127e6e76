import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import infothermo
from infothermo import cli
from infothermo.cli import main
from infothermo.memory import RECONCILIATION_BOUND, BoundReport

from builders import matrix_to_json, model_to_json, projective_model, trivial_model

LN2 = np.log(2.0)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def write_state(path, diag):
    path.write_text(json.dumps(matrix_to_json(np.diag(diag).astype(complex))))


class TestQcmi:
    def test_projective_reports_i_equals_h(self, tmp_path):
        state = tmp_path / "state.json"
        povm = tmp_path / "povm.json"
        out = tmp_path / "report.json"
        write_state(state, [0.25, 0.75])
        povm.write_text(json.dumps(model_to_json(projective_model(2))))
        code = main(["qcmi", "--state", str(state), "--povm", str(povm),
                     "--out", str(out)])
        assert code == 0
        report = read_json(out)
        assert report["I"] == pytest.approx(report["H"], abs=1e-10)
        assert report["checks"]["information_in_range"]
        assert report["version"]
        assert report["config"]["state"] == str(state)

    def test_trivial_povm_zero_information(self, tmp_path):
        state = tmp_path / "state.json"
        povm = tmp_path / "povm.json"
        out = tmp_path / "report.json"
        write_state(state, [0.3, 0.7])
        povm.write_text(json.dumps(model_to_json(trivial_model([0.6, 0.4], 2))))
        assert main(["qcmi", "--state", str(state), "--povm", str(povm),
                     "--out", str(out)]) == 0
        assert abs(read_json(out)["I"]) < 1e-9

    def test_malformed_json_exits_2_with_line(self, tmp_path, capsys):
        state = tmp_path / "state.json"
        state.write_text('{"dim": 2, "re": [[1, 0], [0, 0]]')  # truncated
        povm = tmp_path / "povm.json"
        povm.write_text(json.dumps(model_to_json(projective_model(2))))
        code = main(["qcmi", "--state", str(state), "--povm", str(povm),
                     "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert "line" in capsys.readouterr().err

    def test_invalid_state_exits_1(self, tmp_path, capsys):
        state = tmp_path / "state.json"
        write_state(state, [0.8, 0.8])  # trace 1.6
        povm = tmp_path / "povm.json"
        povm.write_text(json.dumps(model_to_json(projective_model(2))))
        code = main(["qcmi", "--state", str(state), "--povm", str(povm),
                     "--out", str(tmp_path / "r.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert "state trace 1.6 differs" in err
        assert "np.float64" not in err
        assert "state trace 1.6 differs" in json.loads((tmp_path / "r.json").read_text())["error"]

    def test_malformed_povm_payload_exits_2(self, tmp_path):
        state = tmp_path / "state.json"
        write_state(state, [0.5, 0.5])
        povm = tmp_path / "povm.json"
        povm.write_text(json.dumps({"outcomes": [{"k": 0}]}))  # missing operators
        code = main(["qcmi", "--state", str(state), "--povm", str(povm),
                     "--out", str(tmp_path / "r.json")])
        assert code == 2

    def test_incomplete_povm_exits_1(self, tmp_path):
        state = tmp_path / "state.json"
        write_state(state, [0.5, 0.5])
        povm = tmp_path / "povm.json"
        half = np.sqrt(np.diag([0.5, 0.5])).astype(complex)
        povm.write_text(json.dumps(
            {"outcomes": [{"k": 0, "operators": [matrix_to_json(half)]}]}))
        code = main(["qcmi", "--state", str(state), "--povm", str(povm),
                     "--out", str(tmp_path / "r.json")])
        assert code == 1

    def test_missing_inputs_exit_2(self, tmp_path):
        assert main(["qcmi", "--out", str(tmp_path / "r.json")]) == 2


class TestVerifyBounds:
    def test_default_suite_passes(self, tmp_path):
        out = tmp_path / "bounds.json"
        code = main(["verify-bounds", "--seed", "42", "--instances", "5",
                     "--out", str(out)])
        assert code == 0
        report = read_json(out)
        assert report["passed"]
        assert report["min_margin"] >= -1e-6

    def test_fast_protocols_strictly_positive(self, tmp_path):
        out = tmp_path / "bounds.json"
        assert main(["verify-bounds", "--seed", "7", "--instances", "4",
                     "--n-steps", "2", "--out", str(out)]) == 0
        report = read_json(out)
        for row in report["measurement_suite"]:
            assert row["measurement_margin"] > 0
        for row in report["erasure_suite"]:
            assert row["margin"] > 0

    def test_requires_seed(self, tmp_path):
        assert main(["verify-bounds", "--out", str(tmp_path / "b.json")]) == 2

    def test_replay_identical(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        main(["verify-bounds", "--seed", "5", "--instances", "3", "--out", str(out1)])
        main(["verify-bounds", "--seed", "5", "--instances", "3", "--out", str(out2)])
        a = json.loads(out1.read_text())
        b = json.loads(out2.read_text())
        a["config"].pop("out"), b["config"].pop("out")
        assert a == b

    def test_convergence_out_colliding_with_out_exits_2(self, tmp_path, capsys):
        out = tmp_path / "same.out"
        assert main(["verify-bounds", "--seed", "1", "--instances", "1",
                     "--out", str(out), "--convergence-out", str(out)]) == 2
        assert "would overwrite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("temperature", ["0.05", "1e-3"])
    def test_unparked_branch_at_low_temperature_exits_1(self, tmp_path, capsys, temperature):
        # the random layouts' levels lie in [0, 2) at every T, but the cap that
        # parks an empty branch is 50 T, so a transport schedule cannot empty
        # the standard branch; that once ended in a traceback
        code = main(["verify-bounds", "--seed", "0", "--instances", "2",
                     "--temperature", temperature, "--out", str(tmp_path / "b.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("verify-bounds: check failed: conditional schedule")
        assert len(err.splitlines()) == 1
        assert list(tmp_path.iterdir()) == []

    def test_check_failure_names_its_instance(self, tmp_path, capsys):
        # a failed check ends its one line with the replay label of the
        # instance that raised it, which replays the failure on its own
        code = main(["verify-bounds", "--seed", "0", "--instances", "2",
                     "--temperature", "0.05", "--out", str(tmp_path / "b.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert err == ("verify-bounds: check failed: conditional schedule 2 leaves weight "
                       "4.155e-06 outside branch 2 (measurement seed=0 index=0)\n")
        with pytest.raises(ArithmeticError, match=r"\(measurement seed=0 index=0\)$"):
            cli.measurement_bound_suite(0, 1, temperature=0.05)

    def test_sum_violation_names_its_row(self, tmp_path, monkeypatch, capsys):
        suite = cli.measurement_bound_suite

        def violated(*args, **kwargs):
            rows = suite(*args, **kwargs)
            rows[1]["sum_margin"] = -1.0
            return rows

        monkeypatch.setattr(cli, "measurement_bound_suite", violated)
        assert main(["verify-bounds", "--seed", "5", "--instances", "2",
                     "--out", str(tmp_path / "b.json")]) == 1
        err = capsys.readouterr().err
        assert "VIOLATION min margin -1.000e+00" in err
        assert "replay: sum seed=5 index=1\n" in err

    def test_szilard_violation_names_its_t(self, tmp_path, monkeypatch, capsys):
        reconcile = cli.szilard_reconciliation
        monkeypatch.setattr(cli, "szilard_reconciliation", lambda t, temp: (
            BoundReport(RECONCILIATION_BOUND, 1.0, 0.0) if t == 0.8 else reconcile(t, temp)))
        assert main(["verify-bounds", "--seed", "5", "--instances", "2",
                     "--out", str(tmp_path / "b.json")]) == 1
        assert "replay: szilard t=0.8\n" in capsys.readouterr().err

    def test_convergence_csv(self, tmp_path):
        out = tmp_path / "bounds.json"
        conv = tmp_path / "conv.csv"
        main(["verify-bounds", "--seed", "3", "--instances", "2",
              "--out", str(out), "--convergence-out", str(conv)])
        lines = conv.read_text().strip().split("\n")
        assert lines[0] == "n_steps,W,bound,margin"
        assert len(lines) == 4


class TestTwobox:
    def test_symmetric_point(self, tmp_path):
        out = tmp_path / "tb.json"
        assert main(["twobox", "--t", "0.5", "--out", str(out)]) == 0
        report = read_json(out)
        assert report["W_eras"] == pytest.approx(LN2, abs=1e-15)

    def test_four_fifths_free_erasure(self, tmp_path):
        out = tmp_path / "tb.json"
        assert main(["twobox", "--t", "0.8", "--out", str(out)]) == 0
        assert abs(read_json(out)["W_eras"]) < 1e-15

    def test_boundary_exits_2(self, tmp_path):
        assert main(["twobox", "--t", "1.0", "--out", str(tmp_path / "t.json")]) == 2

    def test_config_file_precedence(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"t": 0.8, "volume": 2.0}))
        out = tmp_path / "tb.json"
        assert main(["twobox", "--config", str(cfg), "--t", "0.5",
                     "--out", str(out)]) == 0
        report = read_json(out)
        assert report["t"] == 0.5          # flag wins
        assert report["volume"] == 2.0     # config file beats default

    def test_unknown_config_key_exits_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        assert main(["twobox", "--config", str(cfg), "--t", "0.5",
                     "--out", str(tmp_path / "t.json")]) == 2

    def test_format_is_not_an_option(self, tmp_path):
        # twobox writes JSON only; the table at one t is `sweep --grid t:t:1`
        out = tmp_path / "t.csv"
        with pytest.raises(SystemExit) as exc:
            main(["twobox", "--t", "0.3", "--format", "csv", "--out", str(out)])
        assert exc.value.code == 2
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"format": "csv"}))
        assert main(["twobox", "--config", str(cfg), "--t", "0.3", "--out", str(out)]) == 2
        assert not out.exists()


class TestSweep:
    def test_nine_rows_constant_sum(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--grid", "0.1:0.9:0.1", "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "t,W_eras,W_meas,sum,dF,eq3_margin,eq2_margin"
        assert len(lines) == 10
        for line in lines[1:]:
            assert float(line.split(",")[3]) == pytest.approx(LN2, abs=1e-12)

    def test_byte_identical_rerun(self, tmp_path):
        out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        main(["sweep", "--grid", "0.2:0.8:0.2", "--out", str(out1)])
        main(["sweep", "--grid", "0.2:0.8:0.2", "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_bad_grid_exits_2(self, tmp_path):
        assert main(["sweep", "--grid", "0:1:0.1", "--out", str(tmp_path / "s.csv")]) == 2


class TestLangevin:
    def test_small_run_and_determinism(self, tmp_path):
        out1, out2 = tmp_path / "l1.csv", tmp_path / "l2.csv"
        args = ["langevin", "--seed", "9", "--n-traj", "300", "--tau", "10",
                "--dt", "1e-3"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text().strip().split("\n")
        assert lines[0] == "trajectory_index,seed,W,final_basin"
        assert len(lines) == 301
        summary = read_json(tmp_path / "l1.json")
        assert summary["success_fraction"] >= 0.99
        assert summary["clamp_hits"] == 0
        assert summary["jarzynski_gated"]

    def test_frozen_schedule_zero_work(self, tmp_path):
        sched = tmp_path / "frozen.json"
        sched.write_text(json.dumps({
            "duration": 0.5,
            "knots": [
                {"time": 0.0, "coefficients": [1.0, 6.5, 0.0]},
                {"time": 0.5, "coefficients": [1.0, 6.5, 0.0]},
            ],
        }))
        out = tmp_path / "l.csv"
        code = main(["langevin", "--seed", "4", "--n-traj", "50", "--dt", "1e-3",
                     "--schedule", str(sched), "--out", str(out)])
        assert code == 0
        works = [float(r.split(",")[2]) for r in out.read_text().strip().split("\n")[1:]]
        assert works == [0.0] * 50
        # the schedule's own duration ran, not a --tau default
        assert read_json(tmp_path / "l.json")["config"]["tau"] is None

    def test_unstable_dt_exits_2(self, tmp_path):
        assert main(["langevin", "--seed", "1", "--n-traj", "8", "--tau", "5",
                     "--dt", "0.05", "--out", str(tmp_path / "l.csv")]) == 2

    def test_requires_seed(self, tmp_path):
        assert main(["langevin", "--out", str(tmp_path / "l.csv")]) == 2

    @pytest.mark.parametrize("flags", [
        ["--n-traj", "0", "--tau", "1"],
        ["--schedule", "missing.json"],
        ["--schedule", "malformed.json"],
        ["--ratio", "1e6", "--tau", "1"],  # no tilt in the bracket reaches this ratio
        ["--tau", "0.0004"],               # under half a step: no step to take
    ])
    def test_bad_input_exits_2(self, tmp_path, capsys, flags):
        (tmp_path / "malformed.json").write_text('{"duration": 1.0, "knots": [')
        flags = [str(tmp_path / f) if f.endswith(".json") else f for f in flags]
        out = tmp_path / "l.csv"
        assert main(["langevin", "--seed", "1", "--n-traj", "8",
                     "--out", str(out), *flags]) == 2
        assert "error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("duration, middle", [
        # the last knot's time is the duration: NaN there once ended in a traceback
        (float("nan"), [1.0, 6.5, 0.0]),
        # an infinite tilt once ran to mean W = nan, a NaN one to a divergence
        (1.0, [1.0, 6.5, float("inf")]),
        (1.0, [1.0, 6.5, float("nan")]),
    ], ids=["nan-duration", "infinite-tilt", "nan-tilt"])
    def test_non_finite_schedule_exits_2(self, tmp_path, capsys, duration, middle):
        sched = tmp_path / "s.json"
        sched.write_text(json.dumps({"duration": duration, "knots": [
            {"time": 0.0, "coefficients": [1.0, 6.5, 0.0]},
            {"time": 0.5, "coefficients": middle},
            {"time": duration, "coefficients": [1.0, 6.5, 0.0]}]}))
        out = tmp_path / "l.csv"
        assert main(["langevin", "--seed", "1", "--n-traj", "8", "--schedule", str(sched),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "must be finite" in err and "Traceback" not in err
        assert not out.exists()

    def test_push_tilt_with_schedule_exits_2(self, tmp_path, capsys):
        # a schedule sets its own tilts and duration; --push-tilt would be
        # ignored yet recorded in the summary's config
        sched = tmp_path / "s.json"
        sched.write_text(json.dumps(FROZEN_SCHEDULE))
        out = tmp_path / "l.csv"
        assert main(["langevin", "--seed", "1", "--n-traj", "8", "--schedule", str(sched),
                     "--push-tilt", "99", "--out", str(out)]) == 2
        assert "--push-tilt" in capsys.readouterr().err
        assert not out.exists()

    def test_tau_with_schedule_exits_2(self, tmp_path, capsys):
        # a schedule sets its own duration; --tau was once ignored yet
        # recorded in the summary's config
        sched = tmp_path / "s.json"
        sched.write_text(json.dumps(FROZEN_SCHEDULE))
        out = tmp_path / "l.csv"
        assert main(["langevin", "--seed", "1", "--n-traj", "8", "--schedule", str(sched),
                     "--tau", "99", "--out", str(out)]) == 2
        assert "--tau" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("end", [0, -1], ids=["first", "last"])
    @pytest.mark.parametrize("quartic", [0.0, -1.0])
    def test_non_positive_quartic_at_an_end_exits_2(self, tmp_path, capsys, end, quartic):
        payload = json.loads(json.dumps(FROZEN_SCHEDULE))
        payload["knots"][end]["coefficients"][0] = quartic
        sched = tmp_path / "s.json"
        sched.write_text(json.dumps(payload))
        out = tmp_path / "l.csv"
        assert main(["langevin", "--seed", "1", "--n-traj", "8", "--schedule", str(sched),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "quartic coefficient must be positive" in err and "Traceback" not in err
        assert not out.exists()

    def test_out_colliding_with_summary_exits_2(self, tmp_path):
        out = tmp_path / "runs.json"
        assert main(["langevin", "--seed", "1", "--n-traj", "8", "--tau", "1",
                     "--out", str(out)]) == 2
        assert not out.exists()

    def test_narrow_deep_well_exits_2_without_warnings(self, tmp_path):
        # the basin free energies stay finite; dt = 1e-3 is far above the
        # stability budget of a well this stiff
        config = tmp_path / "narrow.json"
        config.write_text(json.dumps({"quartic": 1e12, "barrier": 1e7}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["langevin", "--seed", "1", "--n-traj", "8", "--tau", "1",
                         "--config", str(config), "--out", str(tmp_path / "l.csv")]) == 2

    @pytest.mark.parametrize("temperature", ["1e-300", "1e-30"])
    def test_overflowing_basin_quadrature_exits_1(self, tmp_path, capsys, temperature):
        # rounding puts V below its minimum at some nodes, so e^{-(V - V_min)/T}
        # overflows and Z = inf; that once ran on to a summary with NaN
        # free energies.  The overflow raises no numpy warning (the test
        # config makes one an error): the refused Z is the one message
        out = tmp_path / "l.csv"
        code = main(["langevin", "--seed", "1", "--n-traj", "2", "--tau", "0.5",
                     "--temperature", temperature, "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert "basin quadrature" in err and "Traceback" not in err
        assert len(err.splitlines()) == 1
        assert list(tmp_path.iterdir()) == []

    def test_non_finite_summary_exits_1(self, tmp_path, capsys):
        # a push tilt of 1e160 gives works near 1e156: finite, but their
        # standard error overflows to inf, which the summary once wrote as a
        # bare `inf`; the overflows raise no numpy warning (the test config
        # makes one an error), and the refused summary leaves no CSV behind
        code = main(["langevin", "--seed", "1", "--n-traj", "2", "--tau", "0.5",
                     "--push-tilt", "1e160", "--out", str(tmp_path / "l.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert "non-finite" in err and "Traceback" not in err
        assert len(err.splitlines()) == 1
        assert list(tmp_path.iterdir()) == []

    def test_negative_ratio_exits_2_without_warnings(self, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["langevin", "--seed", "1", "--n-traj", "8", "--tau", "1",
                         "--ratio", "-1", "--out", str(tmp_path / "l.csv")]) == 2


FROZEN_SCHEDULE = {"duration": 1.0, "knots": [
    {"time": 0.0, "coefficients": [1.0, 6.5, 0.0]},
    {"time": 1.0, "coefficients": [1.0, 6.5, 0.0]},
]}


@pytest.mark.parametrize("argv, victim, payload", [
    pytest.param(["langevin", "--seed", "1", "--n-traj", "8", "--schedule", "s.json",
                  "--out", "s.csv"], "s.json", FROZEN_SCHEDULE, id="langevin-summary-on-schedule"),
    pytest.param(["qcmi", "--state", "st.json", "--povm", "povm.json", "--out", "st.json"],
                 "st.json", matrix_to_json(np.diag([0.5, 0.5]).astype(complex)),
                 id="qcmi-out-on-state"),
    pytest.param(["verify-bounds", "--config", "cfg.json", "--out", "cfg.json"],
                 "cfg.json", {"seed": 1, "instances": 1}, id="verify-out-on-config"),
])
def test_output_onto_input_exits_2(tmp_path, monkeypatch, capsys, argv, victim, payload):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "povm.json").write_text(json.dumps(model_to_json(projective_model(2))))
    (tmp_path / victim).write_text(json.dumps(payload))
    before = (tmp_path / victim).read_bytes()
    assert main(argv) == 2
    assert "would overwrite" in capsys.readouterr().err
    assert (tmp_path / victim).read_bytes() == before


@pytest.mark.parametrize("argv, code, csv_digest, json_digest", [
    pytest.param(["--seed", "3", "--n-traj", "131", "--tau", "5"], 0,
                 "612b51c92f9f1c7a", "f116f34a9dc32285", id="symmetric"),
    pytest.param(["--seed", "7", "--n-traj", "131", "--tau", "5", "--ratio", "4"], 0,
                 "b3f1fa9eab35b49b", "841751dd360e1f99", id="ratio-4"),
    pytest.param(["--seed", "5", "--n-traj", "300", "--tau", "3", "--push-tilt", "150"], 1,
                 "a6949208f44903ef", "cda9df3c4f4d6e73", id="push-tilt-clamped"),
    pytest.param(["--seed", "7", "--n-traj", "2100", "--tau", "5", "--ratio", "4"], 0,
                 "bb55776dd1aeed69", "16ce10bc0d4d277d", id="ratio-4-two-processes"),
])
def test_langevin_outputs_are_pinned(tmp_path, monkeypatch, argv, code, csv_digest,
                                     json_digest):
    """Whole `langevin` outputs, pinned by the first 16 hex digits of their
    sha256: two runs with a partial chunk of width 3, one whose clamp
    fires 52 287 times and whose checks fail, and one of 17 chunks, the
    last of width 52, which two processes integrate on a host that allows
    this one two cores.

    The digests were recorded with numpy 2.4.6 and Python 3.11.7. Langevin
    bytes reproduce for a given numpy build and CPU SIMD level (README), so
    another build may move them. A change that moves a digest on the
    recorded build changes the outputs: it is a declared byte change
    (ROADMAP item 15), never a reason to edit a digest quietly.
    """
    monkeypatch.chdir(tmp_path)
    assert main(["langevin", *argv, "--out", "run.csv"]) == code
    digests = [hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()[:16]
               for name in ("run.csv", "run.json")]
    assert digests == [csv_digest, json_digest]


@pytest.mark.parametrize("argv, digests", [
    pytest.param(["verify-bounds", "--seed", "3", "--instances", "5", "--out", "b.json",
                  "--convergence-out", "c.csv"],
                 {"b.json": "1a765970a9cb6017", "c.csv": "0342b89ff4849208"},
                 id="verify-bounds"),
    pytest.param(["twobox", "--t", "0.8", "--out", "tb.json"],
                 {"tb.json": "845bfd778f96c0b3"}, id="twobox"),
    pytest.param(["sweep", "--grid", "0.1:0.9:0.1", "--out", "sw.csv"],
                 {"sw.csv": "175c86e35882e5fe"}, id="sweep"),
])
def test_protocol_outputs_are_pinned(tmp_path, monkeypatch, argv, digests):
    """Whole outputs of the protocol engine and the two-box closed forms,
    pinned by the first 16 hex digits of their sha256: the bound reports,
    their free-energy changes and their serialization.

    The digests were recorded with numpy 2.4.6 and Python 3.11.7. A change
    that moves a digest on the recorded build changes the outputs: it is a
    declared byte change, never a reason to edit a digest quietly.
    """
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()[:16]
            for name in digests} == digests


def test_cli_import_leaves_scipy_unloaded():
    # numpy is the only runtime dependency; scipy serves the tests alone
    src = Path(infothermo.__file__).resolve().parents[1]
    probe = "import sys, infothermo.cli; print('scipy' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": str(src)}, check=True, timeout=60)
    assert result.stdout.strip() == "False"


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def case(argv, config, *, id, message=""):
    """A rejected input, its config file (or None) and a part of its message."""
    return pytest.param(argv, config, message, id=id)


# Each of these once ended in a traceback (the first seventeen), with the
# wrong exit code (the next seven), sized its arrays from the input with no
# cap (the next three), or gave a message that names no option (the last).
# Relative paths resolve in tmp_path.
VERIFY = ["verify-bounds", "--seed", "1", "--instances", "1"]
LANGEVIN = ["langevin", "--seed", "1", "--n-traj", "8", "--tau", "1"]
REJECTED_INPUTS = [
    case([*VERIFY, "--temperature", "-1"], None, id="verify-negative-temperature"),
    case([*VERIFY, "--n-steps", "0"], None, id="verify-zero-steps"),
    case(["verify-bounds", "--seed", "-1", "--instances", "1"], None,
         id="verify-negative-seed"),
    case(["verify-bounds", "--seed", "1"], {"instances": "abc"},
         id="verify-config-instances-text"),
    case(["verify-bounds", "--instances", "1"], {"seed": "x"},
         id="verify-config-seed-text"),
    case(["sweep"], {"grid": 5}, id="sweep-config-grid-number"),
    case(["sweep", "--grid", "0.1:0.9:nan"], None, id="sweep-nan-step"),
    case(["sweep", "--grid", "0.1:inf:0.1"], None, id="sweep-inf-stop"),
    case(["sweep", "--grid", "0.1:0.9:1e-12"], None, id="sweep-grid-too-fine"),
    case(["sweep", "--temperature", "-2"], None, id="sweep-negative-temperature"),
    case(LANGEVIN, {"temperature": "hot"}, id="langevin-config-temperature-text"),
    case([*LANGEVIN, "--temperature", "-1"], None,
         id="langevin-negative-temperature"),
    case(["langevin", "--seed", "1", "--n-traj", "8", "--tau", "-1"], None,
         id="langevin-negative-tau"),
    case(["langevin", "--seed", "1", "--n-traj", "8", "--tau", "inf"], None,
         id="langevin-infinite-tau"),
    case([*LANGEVIN, "--push-tilt", "nan"], None, id="langevin-nan-push-tilt"),
    case(["qcmi", "--state", "state2.json", "--povm", "povm3.json"], None,
         id="qcmi-dimension-mismatch"),
    case(["twobox", "--t", "0.5", "--out", "missing/tb.json"], None,
         id="out-in-missing-directory"),
    case([*VERIFY, "--temperature", "inf"], None, id="verify-infinite-temperature"),
    case(["twobox", "--t", "0.5", "--temperature", "inf"], None,
         id="twobox-infinite-temperature"),
    case(["verify-bounds", "--seed", "1", "--instances", "-3"], None,
         id="verify-negative-instances"),
    case(["sweep", "--grid", "0.1:0.9:5e-324"], None, id="sweep-subnormal-step"),
    case([*LANGEVIN, "--tau", "1e300", "--dt", "1e-300"], None,
         id="langevin-infinite-step-count"),
    case(["qcmi", "--state", "state-nan.json", "--povm", "povm2.json"], None,
         message="non-finite entry", id="qcmi-nan-state"),
    case(["qcmi", "--state", "state2.json", "--povm", "povm-inf.json"], None,
         message="non-finite entry", id="qcmi-infinite-povm"),
    case([*LANGEVIN, "--n-traj", "100001"], None, id="langevin-too-many-trajectories"),
    case([*LANGEVIN, "--tau", "1e5"], None, id="langevin-too-many-steps"),
    case([*VERIFY, "--n-steps", "100001"], None, id="verify-too-many-steps"),
    case([*LANGEVIN, "--out", "/"], None, message="--out needs a file name",
         id="langevin-out-without-file-name"),
]


@pytest.mark.parametrize("argv, config, message", REJECTED_INPUTS)
def test_rejected_input_exits_2_without_traceback(tmp_path, monkeypatch, capsys,
                                                   argv, config, message):
    monkeypatch.chdir(tmp_path)
    write_state(tmp_path / "state2.json", [0.5, 0.5])
    (tmp_path / "povm3.json").write_text(json.dumps(model_to_json(projective_model(3))))
    # Python's json writes and reads NaN and Infinity
    (tmp_path / "povm2.json").write_text(json.dumps(model_to_json(projective_model(2))))
    write_state(tmp_path / "state-nan.json", [0.5, np.nan])
    povm = model_to_json(projective_model(2))
    povm["outcomes"][0]["operators"][0]["re"][1][1] = np.inf
    (tmp_path / "povm-inf.json").write_text(json.dumps(povm))
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv = [*argv, "--config", "cfg.json"]
    if "--out" not in argv:
        argv = [*argv, "--out", "out.csv"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"{argv[0]}: error:" in err
    assert message in err
    assert not (tmp_path / "out.csv").exists()
