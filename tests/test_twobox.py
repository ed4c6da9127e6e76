import numpy as np
import pytest
from scipy import optimize

from infothermo.memory import twobox_layout, free_energy_change
from infothermo.twobox import (
    TwoBoxParams,
    delta_free_energy,
    entropy_balance,
    erasure_works,
    measurement_works,
    point_report,
    sweep,
)

LN2 = np.log(2.0)


class TestParams:
    @pytest.mark.parametrize("t", [0.0, 1.0, -0.2, 1.5])
    def test_boundary_rejected(self, t):
        with pytest.raises(ValueError):
            TwoBoxParams(t)

    def test_negative_volume_rejected(self):
        with pytest.raises(ValueError):
            TwoBoxParams(0.5, volume=-1.0)


class TestErasureWorks:
    def test_symmetric_is_landauer(self):
        report = erasure_works(TwoBoxParams(0.5))
        assert report["W_eras"] == pytest.approx(LN2, abs=1e-15)

    def test_four_fifths_is_free(self):
        report = erasure_works(TwoBoxParams(0.8))
        assert report["W_eras"] == pytest.approx(0.0, abs=1e-15)

    def test_two_thirds(self):
        report = erasure_works(TwoBoxParams(2 / 3))
        assert report["W_eras"] == pytest.approx(0.5 * LN2, abs=1e-15)

    def test_stage_sum(self):
        p = TwoBoxParams(0.37, temperature=1.7)
        report = erasure_works(p)
        assert sum(report["stages"].values()) == pytest.approx(report["W_eras"], abs=1e-14)
        assert report["stages"]["partition_removal"] == 0.0

    def test_closed_form(self):
        for t in np.linspace(0.05, 0.95, 19):
            report = erasure_works(TwoBoxParams(float(t), temperature=2.0))
            expected = 2.0 * LN2 - 1.0 * np.log(t / (1 - t))
            assert report["W_eras"] == pytest.approx(expected, abs=1e-12)


class TestMeasurementWorks:
    def test_symmetric_costs_nothing(self):
        report = measurement_works(TwoBoxParams(0.5))
        assert report["W_meas"] == pytest.approx(0.0, abs=1e-15)

    def test_four_fifths(self):
        report = measurement_works(TwoBoxParams(0.8))
        assert report["W_meas"] == pytest.approx(LN2, abs=1e-12)

    def test_outcome_one_stage_split(self):
        p = TwoBoxParams(0.8)
        stages = measurement_works(p)["stages"]
        assert stages["outcome1_total"] == pytest.approx(np.log(4.0), abs=1e-12)
        assert stages["outcome1_expansion"] == pytest.approx(np.log(0.8), abs=1e-12)
        assert stages["outcome0"] == 0.0

    def test_total_work_constant(self):
        for t in np.linspace(0.1, 0.9, 17):
            p = TwoBoxParams(float(t))
            total = erasure_works(p)["W_eras"] + measurement_works(p)["W_meas"]
            assert total == pytest.approx(LN2, abs=1e-12)


class TestEntropyBalance:
    def test_symmetric(self):
        report = entropy_balance(TwoBoxParams(0.5))
        assert report["delta_S_total"] == pytest.approx(-LN2, abs=1e-15)

    def test_four_fifths(self):
        report = entropy_balance(TwoBoxParams(0.8))
        assert report["delta_S_total"] == pytest.approx(0.0, abs=1e-15)

    def test_volume_independent(self):
        values = [entropy_balance(TwoBoxParams(0.3, volume=v))["delta_S_total"]
                  for v in (0.1, 1.0, 42.0)]
        assert values[0] == pytest.approx(values[1], abs=1e-12)
        assert values[1] == pytest.approx(values[2], abs=1e-12)

    def test_components(self):
        report = entropy_balance(TwoBoxParams(0.8, volume=2.0))
        assert report["S_phys_final"] == pytest.approx(np.log(1.6), abs=1e-12)
        assert report["H_initial"] == pytest.approx(LN2, abs=1e-15)
        assert report["H_final"] == 0.0


class TestSaturationAndSymmetry:
    def test_bounds_saturate_exactly(self):
        # ties the closed forms to the layout free energies
        for t in (0.3, 0.5, 0.8):
            p = TwoBoxParams(float(t))
            df = delta_free_energy(p)
            layout_df = free_energy_change(
                twobox_layout(t, 1.0).branch_free_energies(1.0), [0.5, 0.5])
            assert df == pytest.approx(layout_df, abs=1e-12)
            assert erasure_works(p)["W_eras"] == pytest.approx(LN2 - df, abs=1e-12)
            assert measurement_works(p)["W_meas"] == pytest.approx(df, abs=1e-12)

    def test_reflection_symmetry(self):
        for t in (0.2, 0.35, 0.45):
            w1 = erasure_works(TwoBoxParams(t))["W_eras"]
            w2 = erasure_works(TwoBoxParams(1 - t))["W_eras"]
            assert w1 + w2 == pytest.approx(2 * LN2, abs=1e-12)
            m1 = measurement_works(TwoBoxParams(t))["W_meas"]
            m2 = measurement_works(TwoBoxParams(1 - t))["W_meas"]
            assert m1 == pytest.approx(-m2, abs=1e-12)

    def test_erasure_work_strictly_decreasing(self):
        grid = np.linspace(0.05, 0.95, 50)
        works = [erasure_works(TwoBoxParams(float(t)))["W_eras"] for t in grid]
        assert all(a > b for a, b in zip(works, works[1:]))

    def test_zero_cost_root_is_four_fifths(self):
        root = optimize.brentq(
            lambda t: erasure_works(TwoBoxParams(t))["W_eras"], 0.55, 0.95,
            xtol=1e-14)
        assert root == pytest.approx(0.8, abs=1e-12)


class TestSweep:
    def test_headline_rows(self):
        rows = sweep([0.5, 0.8])
        assert rows[0]["W_eras"] == pytest.approx(LN2, abs=1e-15)
        assert rows[1]["W_eras"] == pytest.approx(0.0, abs=1e-15)
        assert rows[1]["W_meas"] == pytest.approx(LN2, abs=1e-12)

    def test_margins_identically_zero(self):
        rows = sweep(np.linspace(0.01, 0.99, 99))
        for row in rows:
            assert abs(row["eq3_margin"]) < 1e-12
            assert abs(row["eq2_margin"]) < 1e-12
            assert row["sum"] == pytest.approx(LN2, abs=1e-12)

    def test_landauer_breaks_above_half(self):
        rows = sweep(np.linspace(0.51, 0.99, 25))
        assert all(row["W_eras"] < LN2 for row in rows)

    def test_point_report_fields(self):
        report = point_report(TwoBoxParams(0.8, volume=2.0))
        assert report["W_eras"] == pytest.approx(0.0, abs=1e-12)
        assert report["entropy_balance"]["delta_S_total"] == pytest.approx(0.0, abs=1e-12)
        assert report["dF"] == pytest.approx(LN2, abs=1e-12)
