import json
from dataclasses import asdict

import numpy as np
import pytest

import infothermo
from infothermo.measurement import (
    MeasurementModel, outcome_statistics, qc_mutual_information, random_classical_model,
    shannon_entropy,
)
from infothermo.memory import (
    MemoryLayout, free_energy_change, random_layout, two_branch_layout, twobox_layout,
)
from infothermo.protocols import (
    ACROSS,
    WITHIN,
    InvalidScheduleError,
    NotAnErasureError,
    Stage,
    branch_canonical_distribution,
    erasure_bound_suite,
    erasure_convergence,
    erasure_schedule,
    fuzzed_erasure_schedule,
    measurement_bound_suite,
    measurement_transport_schedule,
    reconcile_demon,
    run_erasure_protocol,
    run_measurement_process,
    run_schedule,
    szilard_reconciliation,
    verify_sum_bound,
)
from infothermo.serialization import dumps

from builders import diagonal_state

LN2 = np.log(2.0)


def binary_copy_model():
    return MeasurementModel((
        (np.diag([1.0, 0.0]).astype(complex),),
        (np.diag([0.0, 1.0]).astype(complex),),
    ))


class TestEngineBasics:
    def test_quench_changes_energy_not_distribution(self):
        layout = two_branch_layout(0.0)
        start = branch_canonical_distribution(layout, 1.0, [0.5, 0.5])
        # one-level branches: relaxing within them leaves the distribution alone
        record = run_schedule(layout, 1.0, start, [Stage(np.array([0.0, 2.0]), WITHIN)])
        assert np.array_equal(record.final_distribution, start)
        assert record.work == pytest.approx(1.0, abs=1e-12)
        assert record.heat == 0.0

    def test_thermalize_changes_distribution_not_work(self):
        layout = two_branch_layout(1.0)
        start = np.array([1.0, 0.0])
        # a row equal to the current energies quenches nothing
        record = run_schedule(layout, 1.0, start,
                              [Stage(layout.level_energies(), ACROSS)])
        gibbs = np.exp([0.0, -1.0])
        gibbs /= gibbs.sum()
        assert np.allclose(record.final_distribution, gibbs, atol=1e-12)
        assert record.work == 0.0
        assert record.heat != 0.0

    def test_within_preserves_branch_weights(self):
        layout = MemoryLayout((np.zeros(2), np.full(2, 0.5)))
        start = branch_canonical_distribution(layout, 1.0, [0.3, 0.7])
        record = run_schedule(layout, 1.0, start,
                              [Stage(np.array([0.0, 3.0, 0.5, 0.5]), WITHIN)])
        assert np.allclose(record.branch_weights("final"), [0.3, 0.7], atol=1e-12)

    def test_first_law_exact(self):
        layout = two_branch_layout(0.7)
        sched = erasure_schedule(layout, 1.0, [0.4, 0.6], 500)
        record, _ = run_erasure_protocol(layout, 1.0, [0.4, 0.6], sched)
        assert abs(record.first_law_residual()) < 1e-9


def run_one_quench_at_a_time(layout, t, start, stages):
    """Reference engine: every row of every stage as one quench and one
    relaxation, with 1-D dot products and running sums."""
    def gibbs(e):
        w = np.exp(-(e - e.min()) / t)
        return w / w.sum()

    dist = np.asarray(start, dtype=float).copy()
    energies = layout.level_energies().copy()
    slices = layout.branch_slices()
    work = heat = 0.0
    for stage in stages:
        weights = [dist[s].sum() for s in slices]
        for row in stage.path:
            work += float(dist @ (row - energies))
            energies = row.copy()
            if stage.scope == ACROSS:
                relaxed = gibbs(energies)
            else:
                relaxed = np.concatenate([w * gibbs(energies[s])
                                          for w, s in zip(weights, slices)])
            heat += float((relaxed - dist) @ energies)
            dist = relaxed
    return work, heat, dist, energies


class TestRampParity:
    """The array-evaluated stages reproduce the step-by-step ledgers of the
    one-quench-at-a-time reference bit for bit, ramps and single rows alike."""

    @staticmethod
    def assert_same_run(layout, t, start, stages):
        record = run_schedule(layout, t, start, stages)
        work, heat, dist, energies = run_one_quench_at_a_time(layout, t, start, stages)
        assert record.work == work
        assert record.heat == heat
        assert np.array_equal(record.final_distribution, dist)
        assert np.array_equal(record.final_energies, energies)

    @pytest.mark.parametrize("seed,n", [(seed, n) for seed in range(4)
                                        for n in (1, 2, 100)] + [(4, 10_000)])
    def test_builders_match_step_by_step(self, seed, n):
        rng = np.random.default_rng([11, seed])
        layout = random_layout(rng, 1.0)
        t = float(rng.uniform(0.5, 2.0))
        p = rng.dirichlet(np.ones(layout.outcome_count))
        self.assert_same_run(layout, t, branch_canonical_distribution(layout, t, p),
                             erasure_schedule(layout, t, p, n))
        start = branch_canonical_distribution(
            layout, t, np.eye(layout.outcome_count)[0])
        for k in range(1, layout.outcome_count):
            self.assert_same_run(layout, t, start,
                                 measurement_transport_schedule(layout, t, k, n))

    @pytest.mark.parametrize("seed", range(5))
    def test_fuzzed_schedules_match_step_by_step(self, seed):
        rng = np.random.default_rng([12, seed])
        layout = random_layout(rng, 1.0)
        t = float(rng.uniform(0.5, 2.0))
        p = rng.dirichlet(np.ones(layout.outcome_count))
        self.assert_same_run(layout, t, branch_canonical_distribution(layout, t, p),
                             fuzzed_erasure_schedule(rng, layout, t, p))

    def test_stage_length_checked(self):
        layout = two_branch_layout(0.0)
        with pytest.raises(ValueError, match="length"):
            run_schedule(layout, 1.0, [0.5, 0.5], [Stage(np.zeros((1, 3)), ACROSS)])

    def test_stage_rejects_empty_path_and_unknown_scope(self):
        with pytest.raises(ValueError, match="row"):
            Stage(np.empty((0, 2)))
        with pytest.raises(ValueError, match="scope"):
            Stage(np.zeros(2), "sideways")


class TestErasure:
    def test_symmetric_quasi_static_hits_landauer(self):
        layout = two_branch_layout(0.0)
        sched = erasure_schedule(layout, 1.0, [0.5, 0.5], 10_000)
        record, report = run_erasure_protocol(layout, 1.0, [0.5, 0.5], sched)
        assert abs(record.work - LN2) / LN2 < 0.01
        assert report.satisfied

    def test_zero_cost_erasure_for_tuned_asymmetry(self):
        # delta_f = T ln 2 memory erases for free
        layout = twobox_layout(0.8, 1.0)
        sched = erasure_schedule(layout, 1.0, [0.5, 0.5], 10_000)
        record, report = run_erasure_protocol(layout, 1.0, [0.5, 0.5], sched)
        assert abs(record.work) < 1e-2
        assert report.rhs == pytest.approx(0.0, abs=1e-12)

    def test_fast_schedule_dissipates(self):
        layout = two_branch_layout(0.0)
        sched = erasure_schedule(layout, 1.0, [0.5, 0.5], 2)
        record, report = run_erasure_protocol(layout, 1.0, [0.5, 0.5], sched)
        assert report.margin > 0.1

    def test_not_an_erasure_rejected(self):
        layout = two_branch_layout(0.0)
        with pytest.raises(NotAnErasureError):
            run_erasure_protocol(layout, 1.0, [0.5, 0.5],
                                 [Stage(layout.level_energies())])

    def test_unrestored_energies_rejected(self):
        layout = two_branch_layout(0.0)
        sched = [Stage(np.array([0.0, 60.0]), ACROSS)]
        with pytest.raises(InvalidScheduleError):
            run_erasure_protocol(layout, 1.0, [0.5, 0.5], sched)

    def test_ramp_ending_away_from_base_rejected(self):
        # the first row restores the base energies, but the rows after it do not
        layout = two_branch_layout(0.0)
        base = layout.level_energies()
        sched = [Stage([base, [0.0, 30.0], [0.0, 60.0]], ACROSS)]
        with pytest.raises(InvalidScheduleError):
            run_erasure_protocol(layout, 1.0, [0.5, 0.5], sched)

    def test_convergence_is_one_over_n(self):
        layout = two_branch_layout(0.0)
        rows = erasure_convergence(layout, 1.0, [0.5, 0.5], (100, 1000))
        assert all(r["margin"] > 0 for r in rows)
        ratio = rows[0]["margin"] / rows[1]["margin"]
        assert 5.0 < ratio < 20.0

    def test_general_layout_saturation(self):
        # bound is tight for arbitrary layouts and weights
        rng = np.random.default_rng(3)
        layout = MemoryLayout((np.zeros(2), np.full(3, 1.3)))
        p = [0.35, 0.65]
        sched = erasure_schedule(layout, 1.0, p, 10_000)
        record, report = run_erasure_protocol(layout, 1.0, p, sched)
        assert 0 <= report.margin < 5e-4


class TestMeasurement:
    def test_error_free_copy_symmetric_memory_costs_nothing(self):
        layout = two_branch_layout(0.0)
        rho = diagonal_state([0.5, 0.5])
        record, report, _ = run_measurement_process(
            layout, 1.0, binary_copy_model(), rho, n_steps=10_000)
        assert abs(record.work) < 1e-3
        assert report.rhs == pytest.approx(0.0, abs=1e-12)

    def test_twobox_asymmetric_memory(self):
        layout = twobox_layout(0.8, 1.0)
        rho = diagonal_state([0.5, 0.5])
        record, report, _ = run_measurement_process(
            layout, 1.0, binary_copy_model(), rho, n_steps=10_000)
        assert record.work == pytest.approx(0.5 * np.log(4.0), abs=1e-3)
        assert report.satisfied

    def test_outcome_zero_costs_nothing(self):
        layout = two_branch_layout(0.0)
        rho = diagonal_state([1.0, 0.0])
        record, _, _ = run_measurement_process(
            layout, 1.0, binary_copy_model(), rho, n_steps=100)
        assert record.work == pytest.approx(0.0, abs=1e-12)

    def test_returns_the_information_of_its_bound(self):
        temperature = 2.0
        layout = twobox_layout(0.7, temperature)
        model = random_classical_model(np.random.default_rng(4), 3, 2)
        rho = diagonal_state([0.2, 0.5, 0.3])
        _, report, info = run_measurement_process(layout, temperature, model, rho,
                                                  n_steps=50)
        assert info == qc_mutual_information(rho, model)
        p = outcome_statistics(rho, model).probabilities
        expected = (-temperature * (shannon_entropy(p) - info)
                    + free_energy_change(layout.branch_free_energies(temperature), p))
        assert report.rhs == pytest.approx(expected, abs=1e-12)

    def test_rejects_quantum_state(self):
        layout = two_branch_layout(0.0)
        rho = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
        from infothermo.operators import DensityOperator
        with pytest.raises(ValueError, match="diagonal"):
            run_measurement_process(layout, 1.0, binary_copy_model(),
                                    DensityOperator(rho), n_steps=10)

    def test_rejects_outcome_mismatch(self):
        layout = two_branch_layout(0.0)
        rng = np.random.default_rng(0)
        model = random_classical_model(rng, 2, 3)
        with pytest.raises(ValueError, match="outcomes"):
            run_measurement_process(layout, 1.0, model, diagonal_state([0.5, 0.5]))

    def test_aggregate_first_law(self):
        layout = twobox_layout(0.7, 1.0)
        record, _, _ = run_measurement_process(
            layout, 1.0, binary_copy_model(), diagonal_state([0.5, 0.5]), n_steps=200)
        assert abs(record.first_law_residual()) < 1e-9

    def test_transport_schedule_shape(self):
        layout = twobox_layout(0.7, 1.0)
        assert measurement_transport_schedule(layout, 1.0, 0, 100) == []
        sched = measurement_transport_schedule(layout, 1.0, 1, 100)
        assert np.allclose(sched[-1].path[-1], layout.level_energies())


class TestCompositeBounds:
    def test_sum_bound_two_box_pair(self):
        layout = twobox_layout(0.8, 1.0)
        rho = diagonal_state([0.5, 0.5])
        meas, _, _ = run_measurement_process(layout, 1.0, binary_copy_model(), rho,
                                          n_steps=10_000)
        p = meas.branch_weights("final")
        eras, _ = run_erasure_protocol(
            layout, 1.0, p, erasure_schedule(layout, 1.0, p, 10_000))
        info = qc_mutual_information(rho, binary_copy_model())
        report = verify_sum_bound(meas, eras, info, 1.0)
        assert report.lhs == pytest.approx(LN2, abs=2e-3)
        assert report.rhs == pytest.approx(info, abs=1e-12)
        assert 0 <= report.margin < 2e-3

    def test_sum_bound_rejects_mismatched_layouts(self):
        l1, l2 = twobox_layout(0.8), twobox_layout(0.6)
        rho = diagonal_state([0.5, 0.5])
        meas, _, _ = run_measurement_process(l1, 1.0, binary_copy_model(), rho, n_steps=50)
        p = meas.branch_weights("final")
        eras, _ = run_erasure_protocol(l2, 1.0, p, erasure_schedule(l2, 1.0, p, 50))
        with pytest.raises(ValueError, match="layout"):
            verify_sum_bound(meas, eras, LN2, 1.0)

    def test_szilard_engine_reconciliation(self):
        for t in (0.5, 0.8):
            report = szilard_reconciliation(t)
            assert report.lhs <= 1e-9
            assert report.satisfied

    def test_reconcile_trivial_demon(self):
        # no information gained, no work extracted: trivially consistent
        layout = two_branch_layout(0.0)
        rho = diagonal_state([1.0, 0.0])
        meas, _, _ = run_measurement_process(layout, 1.0, binary_copy_model(), rho,
                                          n_steps=100)
        p = np.clip(meas.branch_weights("final"), 0, None)
        eras, _ = run_erasure_protocol(layout, 1.0, p,
                                       erasure_schedule(layout, 1.0, p, 100))
        report = reconcile_demon(0.0, 0.0, meas, eras)
        assert report.satisfied


class TestRandomizedSuites:
    def test_erasure_suite_margins(self):
        rows = erasure_bound_suite(101, 40)
        assert all(r["margin"] >= -1e-6 for r in rows)

    def test_fuzzed_schedules_respect_bound(self):
        rows = erasure_bound_suite(202, 200, fuzz=True)
        assert all(r["margin"] >= -1e-6 for r in rows)

    def test_measurement_suite_margins(self):
        rows = measurement_bound_suite(303, 40)
        for r in rows:
            assert r["measurement_margin"] >= -1e-6
            assert r["erasure_margin"] >= -1e-6
            assert r["sum_margin"] >= -1e-6

    def test_suite_replayable(self):
        a = erasure_bound_suite(7, 5)
        b = erasure_bound_suite(7, 5)
        assert a == b

    @pytest.mark.parametrize("fuzz, suite", [(False, "erasure"), (True, "fuzz")])
    def test_failed_check_names_its_instance(self, monkeypatch, fuzz, suite):
        # the label is the one `verify-bounds` prints to replay a violation
        from infothermo import protocols

        calls = []

        def fail_second(*args):
            calls.append(args)
            if len(calls) == 2:
                raise NotAnErasureError("injected")
            return run_erasure_protocol(*args)

        monkeypatch.setattr(protocols, "run_erasure_protocol", fail_second)
        with pytest.raises(NotAnErasureError) as info:
            erasure_bound_suite(7, 3, fuzz=fuzz)
        assert str(info.value) == f"injected ({suite} seed=7 index=1)"

    def test_fuzzed_schedule_restores_energies(self):
        rng = np.random.default_rng(9)
        layout = two_branch_layout(0.4)
        sched = fuzzed_erasure_schedule(rng, layout, 1.0, [0.5, 0.5])
        assert np.allclose(sched[-1].path[-1], layout.level_energies())


def test_record_and_bound_json_round_trip():
    layout = two_branch_layout(0.0)
    sched = erasure_schedule(layout, 1.0, [0.5, 0.5], 50)
    _, report = run_erasure_protocol(layout, 1.0, [0.5, 0.5], sched)
    bound_payload = asdict(report)
    assert sorted(bound_payload) == ["lhs", "margin", "rhs", "satisfied", "tag"]
    assert bound_payload["tag"] == "erasure"
    assert bound_payload["satisfied"] is True
    assert json.loads(dumps(bound_payload)) == bound_payload


def test_all_exports_resolve():
    missing = [name for name in infothermo.__all__ if not hasattr(infothermo, name)]
    assert missing == []
