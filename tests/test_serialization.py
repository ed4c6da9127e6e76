import json

import numpy as np
import pytest

from infothermo.serialization import csv_rows, dumps, format_float, write_csv, write_json


class TestFloatFormat:
    def test_seventeen_digits_round_trip(self):
        for x in (np.log(2.0), 1 / 3, 0.1, 2.0 ** -52, -1.5e300):
            assert float(format_float(x)) == x

    def test_simple_values_stay_short(self):
        assert format_float(0.5) == "0.5"
        assert format_float(2.0) == "2"

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -np.inf, np.float64("nan")])
    def test_non_finite_refused_without_touching_the_file(self, tmp_path, value):
        # JSON has no literal for NaN or an infinity; a refused write leaves
        # an existing file as it was and creates no new one
        with pytest.raises(FloatingPointError, match="non-finite"):
            format_float(value)
        old = tmp_path / "old.json"
        old.write_text("kept\n")
        with pytest.raises(FloatingPointError):
            write_json(old, {"ok": 1.0, "bad": [value]})
        with pytest.raises(FloatingPointError):
            write_csv(tmp_path / "new.csv", ("x",), [{"x": 0.5}, {"x": value}])
        assert old.read_text() == "kept\n"
        assert not (tmp_path / "new.csv").exists()


class TestJson:
    def test_sorted_keys_and_parseable(self):
        text = dumps({"b": 1.5, "a": [True, None, 2], "c": {"y": 0.1, "x": "s"}})
        assert text.index('"a"') < text.index('"b"') < text.index('"c"')
        parsed = json.loads(text)
        assert parsed["c"]["y"] == 0.1

    def test_numpy_values(self):
        text = dumps({"v": np.float64(0.25), "arr": np.array([1.0, 2.0]),
                      "n": np.int64(3)})
        parsed = json.loads(text)
        assert parsed == {"v": 0.25, "arr": [1.0, 2.0], "n": 3}

    def test_deterministic_bytes(self, tmp_path):
        payload = {"x": np.log(3.0), "y": [1e-17, 12345.678]}
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        write_json(p1, payload)
        write_json(p2, payload)
        assert p1.read_bytes() == p2.read_bytes()

    def test_rejects_unknown_type(self):
        with pytest.raises(TypeError):
            dumps({"x": object()})


class TestGoldenMatrixWireFormat:
    def test_matrix_schema_frozen(self):
        # golden text for the {"dim", "re", "im"} schema under the 17g policy
        from builders import matrix_to_json

        m = np.diag([2 / 3, 1 / 3]).astype(complex)
        assert dumps(matrix_to_json(m)) == (
            '{"dim": 2, "im": [[0, 0], [0, 0]], '
            '"re": [[0.66666666666666663, 0], [0, 0.33333333333333331]]}\n'
        )


class TestCsv:
    def test_header_and_rows(self):
        text = csv_rows(("a", "b"), [{"a": 1, "b": 0.5}, {"a": 2, "b": np.log(2.0)}])
        lines = text.strip().split("\n")
        assert lines[0] == "a,b"
        assert lines[1] == "1,0.5"
        assert float(lines[2].split(",")[1]) == np.log(2.0)

    def test_write(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ("x",), [{"x": 0.1}])
        assert path.read_text() == "x\n0.10000000000000001\n"
