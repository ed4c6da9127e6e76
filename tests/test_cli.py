import json
import warnings

import numpy as np
import pytest

from infothermo.cli import main
from infothermo.measurement import model_to_json, projective_model, trivial_model
from infothermo.operators import matrix_to_json

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

    def test_invalid_state_exits_1(self, tmp_path):
        state = tmp_path / "state.json"
        write_state(state, [0.8, 0.8])  # trace 1.6
        povm = tmp_path / "povm.json"
        povm.write_text(json.dumps(model_to_json(projective_model(2))))
        code = main(["qcmi", "--state", str(state), "--povm", str(povm),
                     "--out", str(tmp_path / "r.json")])
        assert code == 1

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

    def test_unstable_dt_exits_2(self, tmp_path):
        assert main(["langevin", "--seed", "1", "--n-traj", "8", "--tau", "5",
                     "--dt", "0.05", "--out", str(tmp_path / "l.csv")]) == 2

    def test_requires_seed(self, tmp_path):
        assert main(["langevin", "--out", str(tmp_path / "l.csv")]) == 2

    @pytest.mark.parametrize("flags", [
        ["--n-traj", "0"],
        ["--schedule", "missing.json"],
        ["--schedule", "malformed.json"],
        ["--ratio", "1e6"],  # no tilt in the bracket reaches this ratio
    ])
    def test_bad_input_exits_2(self, tmp_path, capsys, flags):
        (tmp_path / "malformed.json").write_text('{"duration": 1.0, "knots": [')
        flags = [str(tmp_path / f) if f.endswith(".json") else f for f in flags]
        out = tmp_path / "l.csv"
        assert main(["langevin", "--seed", "1", "--n-traj", "8", "--tau", "1",
                     "--out", str(out), *flags]) == 2
        assert "error" in capsys.readouterr().err
        assert not out.exists()

    def test_out_colliding_with_summary_exits_2(self, tmp_path):
        out = tmp_path / "runs.json"
        assert main(["langevin", "--seed", "1", "--n-traj", "8", "--tau", "1",
                     "--out", str(out)]) == 2
        assert not out.exists()

    def test_negative_ratio_exits_2_without_warnings(self, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["langevin", "--seed", "1", "--n-traj", "8", "--tau", "1",
                         "--ratio", "-1", "--out", str(tmp_path / "l.csv")]) == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


# Each of these once ended in a traceback (the first seventeen), with the
# wrong exit code (the next five), or sized its arrays from the input with no
# cap (the last two).  Relative paths resolve in tmp_path.
VERIFY = ["verify-bounds", "--seed", "1", "--instances", "1"]
LANGEVIN = ["langevin", "--seed", "1", "--n-traj", "8", "--tau", "1"]
REJECTED_INPUTS = [
    pytest.param([*VERIFY, "--temperature", "-1"], None, id="verify-negative-temperature"),
    pytest.param([*VERIFY, "--n-steps", "0"], None, id="verify-zero-steps"),
    pytest.param(["verify-bounds", "--seed", "-1", "--instances", "1"], None,
                 id="verify-negative-seed"),
    pytest.param(["verify-bounds", "--seed", "1"], {"instances": "abc"},
                 id="verify-config-instances-text"),
    pytest.param(["verify-bounds", "--instances", "1"], {"seed": "x"},
                 id="verify-config-seed-text"),
    pytest.param(["sweep"], {"grid": 5}, id="sweep-config-grid-number"),
    pytest.param(["sweep", "--grid", "0.1:0.9:nan"], None, id="sweep-nan-step"),
    pytest.param(["sweep", "--grid", "0.1:inf:0.1"], None, id="sweep-inf-stop"),
    pytest.param(["sweep", "--grid", "0.1:0.9:1e-12"], None, id="sweep-grid-too-fine"),
    pytest.param(["sweep", "--temperature", "-2"], None, id="sweep-negative-temperature"),
    pytest.param(LANGEVIN, {"temperature": "hot"}, id="langevin-config-temperature-text"),
    pytest.param([*LANGEVIN, "--temperature", "-1"], None,
                 id="langevin-negative-temperature"),
    pytest.param(["langevin", "--seed", "1", "--n-traj", "8", "--tau", "-1"], None,
                 id="langevin-negative-tau"),
    pytest.param(["langevin", "--seed", "1", "--n-traj", "8", "--tau", "inf"], None,
                 id="langevin-infinite-tau"),
    pytest.param([*LANGEVIN, "--push-tilt", "nan"], None, id="langevin-nan-push-tilt"),
    pytest.param(["qcmi", "--state", "state2.json", "--povm", "povm3.json"], None,
                 id="qcmi-dimension-mismatch"),
    pytest.param(["twobox", "--t", "0.5", "--out", "missing/tb.json"], None,
                 id="out-in-missing-directory"),
    pytest.param([*VERIFY, "--temperature", "inf"], None, id="verify-infinite-temperature"),
    pytest.param(["twobox", "--t", "0.5", "--temperature", "inf"], None,
                 id="twobox-infinite-temperature"),
    pytest.param(["verify-bounds", "--seed", "1", "--instances", "-3"], None,
                 id="verify-negative-instances"),
    pytest.param(["sweep", "--grid", "0.1:0.9:5e-324"], None, id="sweep-subnormal-step"),
    pytest.param([*LANGEVIN, "--tau", "1e300", "--dt", "1e-300"], None,
                 id="langevin-infinite-step-count"),
    pytest.param([*LANGEVIN, "--n-traj", "100001"], None, id="langevin-too-many-trajectories"),
    pytest.param([*LANGEVIN, "--tau", "1e5"], None, id="langevin-too-many-steps"),
]


@pytest.mark.parametrize("argv, config", REJECTED_INPUTS)
def test_rejected_input_exits_2_without_traceback(tmp_path, monkeypatch, capsys,
                                                   argv, config):
    monkeypatch.chdir(tmp_path)
    write_state(tmp_path / "state2.json", [0.5, 0.5])
    (tmp_path / "povm3.json").write_text(json.dumps(model_to_json(projective_model(3))))
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv = [*argv, "--config", "cfg.json"]
    if "--out" not in argv:
        argv = [*argv, "--out", "out.csv"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"{argv[0]}: error:" in err
    assert not (tmp_path / "out.csv").exists()
