import numpy as np
import pytest

from infothermo.memory import (
    ERASURE_BOUND,
    RECONCILIATION_BOUND,
    BoundReport,
    MemoryLayout,
    free_energy_change,
    random_layout,
    two_branch_layout,
    twobox_layout,
)

LN2 = np.log(2.0)


class TestMemoryLayout:
    def test_dimensions(self):
        layout = MemoryLayout((np.zeros(2), np.array([0.5, 1.0, 1.5])))
        assert layout.outcome_count == 2
        assert layout.branch_dims == (2, 3)
        assert layout.total_dim == 5
        assert np.array_equal(layout.branch_of_level(), [0, 0, 1, 1, 1])

    def test_rejects_empty_branch(self):
        with pytest.raises(ValueError):
            MemoryLayout((np.zeros(1), np.array([])))

    def test_twobox_boundary_rejected(self):
        with pytest.raises(ValueError):
            twobox_layout(1.0)


def layout_free_energy_change(layout, t, probabilities):
    return free_energy_change(layout.branch_free_energies(t), probabilities)


class TestFreeEnergies:
    def test_symmetric_branches(self):
        layout = MemoryLayout((np.array([0.0, 1.0]), np.array([0.0, 1.0])))
        assert layout_free_energy_change(layout, 1.0, [0.5, 0.5]) == pytest.approx(
            0.0, abs=1e-12)

    def test_single_level_gap(self):
        eps = 0.8
        layout = two_branch_layout(eps)
        assert layout_free_energy_change(layout, 1.0, [0.5, 0.5]) == pytest.approx(
            eps / 2, abs=1e-12)
        f = layout.branch_free_energies(1.0)
        assert f[1] == pytest.approx(eps, abs=1e-12)

    def test_twobox_mapping(self):
        # branch partition functions in ratio t:(1-t) give (T/2) ln(t/(1-t))
        for t in (0.5, 2 / 3, 0.8):
            layout = twobox_layout(t, 1.0)
            assert layout_free_energy_change(layout, 1.0, [0.5, 0.5]) == pytest.approx(
                0.5 * np.log(t / (1 - t)), abs=1e-12)

    def test_degeneracy_equivalent_to_energy(self):
        # d-fold degenerate zero-energy branch matches a -T ln d level shift
        by_degeneracy = MemoryLayout((np.zeros(4), np.zeros(1)))
        by_energy = twobox_layout(0.8, 1.0)
        df1 = layout_free_energy_change(by_degeneracy, 1.0, [0.5, 0.5])
        df2 = layout_free_energy_change(by_energy, 1.0, [0.5, 0.5])
        assert df1 == pytest.approx(df2, abs=1e-12)

    def test_temperature_scaling(self):
        layout = two_branch_layout(1.0)
        f = layout.branch_free_energies(2.0)
        z = np.exp(-f / 2.0)
        assert f[0] == pytest.approx(0.0, abs=1e-12)
        assert z[1] == pytest.approx(np.exp(-0.5), abs=1e-12)
        assert layout_free_energy_change(layout, 2.0, [0.25, 0.75]) == pytest.approx(
            0.75 * f[1], abs=1e-12)

    def test_invalid_probabilities(self):
        f = two_branch_layout(1.0).branch_free_energies(1.0)
        with pytest.raises(ValueError):
            free_energy_change(f, [0.7, 0.7])
        with pytest.raises(ValueError, match="length"):
            free_energy_change(f, [0.2, 0.3, 0.5])


class TestBoundReport:
    def test_ge_type_margin(self):
        r = BoundReport(ERASURE_BOUND, lhs=1.0, rhs=0.8)
        assert r.margin == pytest.approx(0.2)
        assert r.satisfied

    def test_violated(self):
        r = BoundReport(ERASURE_BOUND, lhs=0.5, rhs=0.8)
        assert not r.satisfied

    def test_reconciliation_slack_direction(self):
        # <=-type: lhs below rhs is the satisfied direction
        r = BoundReport(RECONCILIATION_BOUND, lhs=-0.3, rhs=0.0)
        assert r.margin == pytest.approx(0.3)
        assert r.satisfied
        bad = BoundReport(RECONCILIATION_BOUND, lhs=0.5, rhs=0.0)
        assert not bad.satisfied

    def test_verdict_is_derived_as_python_types(self):
        # the margin and flag are no constructor inputs; numpy inputs are
        # stored as Python floats, and the flag turns at -1e-8
        with pytest.raises(TypeError):
            BoundReport(ERASURE_BOUND, 1.0, 0.0, margin=1.0, satisfied=False)
        r = BoundReport(ERASURE_BOUND, np.float64(1.0), np.float64(1.0 + 5e-9))
        assert [type(v) for v in (r.lhs, r.rhs, r.margin, r.satisfied)] == [
            float, float, float, bool]
        assert r.satisfied
        assert not BoundReport(ERASURE_BOUND, 1.0, 1.0 + 2e-8).satisfied

    def test_unknown_tag(self):
        with pytest.raises(ValueError):
            BoundReport("bogus", 0.0, 0.0)


def test_random_layout_deterministic():
    a = random_layout(np.random.default_rng(5), 1.0)
    b = random_layout(np.random.default_rng(5), 1.0)
    assert a.branch_dims == b.branch_dims
    for x, y in zip(a.energies, b.energies):
        assert np.array_equal(x, y)


@pytest.mark.parametrize("temperature", [0.05, 1e-30, 3.0])
def test_random_layout_scales_with_temperature(temperature):
    # the same draws, levels in [0, 2 T): a layout in units of T
    unit = random_layout(np.random.default_rng(5), 1.0)
    scaled = random_layout(np.random.default_rng(5), temperature)
    assert scaled.branch_dims == unit.branch_dims
    for x, y in zip(scaled.energies, unit.energies):
        assert np.allclose(x / temperature, y, rtol=1e-15, atol=0.0)
