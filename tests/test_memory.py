import numpy as np
import pytest

from infothermo.memory import (
    ERASURE_BOUND,
    RECONCILIATION_BOUND,
    BoundReport,
    MemoryLayout,
    bound_report,
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


class TestFreeEnergies:
    def test_symmetric_branches(self):
        layout = MemoryLayout((np.array([0.0, 1.0]), np.array([0.0, 1.0])))
        assert free_energy_change(layout, 1.0, [0.5, 0.5]) == pytest.approx(0.0, abs=1e-12)

    def test_single_level_gap(self):
        eps = 0.8
        layout = two_branch_layout(eps)
        assert free_energy_change(layout, 1.0, [0.5, 0.5]) == pytest.approx(eps / 2, abs=1e-12)
        _, f = layout.branch_free_energies(1.0)
        assert f[1] == pytest.approx(eps, abs=1e-12)

    def test_twobox_mapping(self):
        # branch partition functions in ratio t:(1-t) give (T/2) ln(t/(1-t))
        for t in (0.5, 2 / 3, 0.8):
            layout = twobox_layout(t, 1.0)
            assert free_energy_change(layout, 1.0, [0.5, 0.5]) == pytest.approx(
                0.5 * np.log(t / (1 - t)), abs=1e-12)

    def test_degeneracy_equivalent_to_energy(self):
        # d-fold degenerate zero-energy branch matches a -T ln d level shift
        by_degeneracy = MemoryLayout((np.zeros(4), np.zeros(1)))
        by_energy = twobox_layout(0.8, 1.0)
        df1 = free_energy_change(by_degeneracy, 1.0, [0.5, 0.5])
        df2 = free_energy_change(by_energy, 1.0, [0.5, 0.5])
        assert df1 == pytest.approx(df2, abs=1e-12)

    def test_temperature_scaling(self):
        layout = two_branch_layout(1.0)
        z, f = layout.branch_free_energies(2.0)
        assert f[0] == pytest.approx(0.0, abs=1e-12)
        assert z[1] == pytest.approx(np.exp(-0.5), abs=1e-12)
        assert free_energy_change(layout, 2.0, [0.25, 0.75]) == pytest.approx(
            0.75 * f[1], abs=1e-12)

    def test_invalid_probabilities(self):
        layout = two_branch_layout(1.0)
        with pytest.raises(ValueError):
            free_energy_change(layout, 1.0, [0.7, 0.7])


class TestBoundReport:
    def test_ge_type_margin(self):
        r = bound_report(ERASURE_BOUND, lhs=1.0, rhs=0.8)
        assert r.margin == pytest.approx(0.2)
        assert r.satisfied

    def test_violated(self):
        r = bound_report(ERASURE_BOUND, lhs=0.5, rhs=0.8)
        assert not r.satisfied

    def test_reconciliation_slack_direction(self):
        # <=-type: lhs below rhs is the satisfied direction
        r = bound_report(RECONCILIATION_BOUND, lhs=-0.3, rhs=0.0)
        assert r.margin == pytest.approx(0.3)
        assert r.satisfied
        bad = bound_report(RECONCILIATION_BOUND, lhs=0.5, rhs=0.0)
        assert not bad.satisfied

    def test_flag_consistency_enforced(self):
        with pytest.raises(ValueError):
            BoundReport(tag=ERASURE_BOUND, lhs=1.0, rhs=0.0, margin=1.0, satisfied=False)

    def test_unknown_tag(self):
        with pytest.raises(ValueError):
            bound_report("bogus", 0.0, 0.0)


def test_random_layout_deterministic():
    a = random_layout(np.random.default_rng(5))
    b = random_layout(np.random.default_rng(5))
    assert a.branch_dims == b.branch_dims
    for x, y in zip(a.energies, b.energies):
        assert np.array_equal(x, y)
