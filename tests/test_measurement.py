import numpy as np
import pytest

from infothermo.measurement import (
    InvalidMeasurementError,
    MeasurementModel,
    OutcomeStatistics,
    ReconstructionError,
    classical_decompose,
    model_from_json,
    outcome_statistics,
    qc_mutual_information,
    random_classical_model,
    shannon_entropy,
)
from infothermo.operators import DensityOperator

from builders import (
    classical_mutual_information,
    diagonal_state,
    model_to_json,
    projective_model,
    random_instance,
    random_model,
    trivial_model,
)

LN2 = np.log(2.0)


class TestShannon:
    def test_uniform_binary(self):
        assert shannon_entropy([0.5, 0.5]) == pytest.approx(LN2, abs=1e-12)

    def test_deterministic(self):
        assert shannon_entropy([1.0, 0.0]) == 0.0

    def test_two_thirds(self):
        expected = np.log(3.0) - (2 / 3) * LN2
        assert shannon_entropy([2 / 3, 1 / 3]) == pytest.approx(expected, abs=1e-12)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            shannon_entropy([0.5, 0.4])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            shannon_entropy([1.1, -0.1])

    @pytest.mark.parametrize("p", [[0.5, np.nan], [np.nan, np.nan], [np.inf, 0.0]])
    def test_rejects_non_finite(self, p):
        # a NaN trips no comparison: [0.5, nan] once gave 0.3466 nats
        with pytest.raises(ValueError, match="probabilities sum to (nan|inf)"):
            shannon_entropy(p)


class TestMeasurementModel:
    def test_incomplete_povm_rejected(self):
        half = np.diag([0.5, 0.5]).astype(complex)
        with pytest.raises(InvalidMeasurementError, match="identity"):
            MeasurementModel(((np.sqrt(half),),))

    def test_projective_is_diagonal(self):
        model = projective_model(3)
        assert model.outcome_count == 3
        for e in model.effects:
            assert np.array_equal(e, np.diag(np.diag(e)))

    def test_effects_are_no_constructor_input(self):
        # the effects are derived from the operators, never passed in
        ops = ((np.eye(2, dtype=complex),),)
        with pytest.raises(TypeError):
            MeasurementModel(ops, effects=(np.eye(2),))
        assert np.array_equal(MeasurementModel(ops).effects[0], np.eye(2))

    def test_effects_sum_to_identity(self):
        rng = np.random.default_rng(0)
        model = random_model(rng, 3, 4, ops_per_outcome=2)
        total = sum(model.effects)
        assert np.max(np.abs(total - np.eye(3))) < 1e-9

    def test_json_round_trip(self):
        rng = np.random.default_rng(1)
        model = random_model(rng, 2, 3, ops_per_outcome=2)
        back = model_from_json(model_to_json(model))
        for a, b in zip(model.operators, back.operators):
            for m1, m2 in zip(a, b):
                assert np.max(np.abs(m1 - m2)) == 0.0

    def test_json_malformed(self):
        with pytest.raises(ValueError, match="malformed"):
            model_from_json({"outcomes": [{"k": 0}]})


class TestOutcomeStatistics:
    def test_maximally_mixed_projective(self):
        rho = diagonal_state(np.full(4, 0.25))
        stats = outcome_statistics(rho, projective_model(4))
        assert np.allclose(stats.probabilities, 0.25, atol=1e-12)

    def test_trivial_single_outcome(self):
        rho = random_instance(2, 3, "state")
        stats = outcome_statistics(rho, trivial_model([1.0], 3))
        assert stats.probabilities[0] == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(stats.sigma[0] - rho.entries)) < 1e-10

    def test_sigma_trace_matches_probability(self):
        for seed in range(50):
            rng = np.random.default_rng(seed)
            rho = random_instance(seed, 3, "state")
            model = random_model(rng, 3, 3, ops_per_outcome=2)
            stats = outcome_statistics(rho, model)
            for pk, sigma, ops in zip(stats.probabilities, stats.sigma, model.operators):
                assert np.trace(sigma).real == pytest.approx(pk, abs=1e-9)
                # p_k is the sum of the probabilities tr(M+ M rho) of its operators
                sub = sum(np.trace(m.conj().T @ m @ rho.entries).real for m in ops)
                assert sub == pytest.approx(pk, abs=1e-10)

    def test_invariant_messages_print_plain_numbers(self):
        half = np.diag([0.5, 0.0]).astype(complex)
        with pytest.raises(ValueError) as exc:
            OutcomeStatistics(np.array([0.6, 0.5]), (half, half))
        assert str(exc.value) == "outcome probabilities sum to 1.1"
        with pytest.raises(ValueError) as exc:
            OutcomeStatistics(np.array([0.5, 0.5]),
                              (np.diag([0.4, 0.0]).astype(complex), half))
        assert str(exc.value) == "outcome 0: tr(sigma) 0.4 != p 0.5"


class TestQCMutualInformation:
    def test_error_free_projective_equals_shannon(self):
        # classical error-free readout: information equals outcome entropy
        rho = diagonal_state([0.2, 0.5, 0.3])
        model = projective_model(3)
        h = shannon_entropy([0.2, 0.5, 0.3])
        assert qc_mutual_information(rho, model) == pytest.approx(h, abs=1e-10)

    def test_trivial_povm_gives_zero(self):
        rho = random_instance(9, 3, "state")
        model = trivial_model([0.3, 0.2, 0.5], 3)
        assert qc_mutual_information(rho, model) == pytest.approx(0.0, abs=1e-9)

    def test_dual_formula_agreement_random(self):
        # always-on internal check, exercised over random quantum instances
        for seed in range(300):
            rng = np.random.default_rng(seed)
            dim = int(rng.integers(2, 5))
            rho = random_instance(seed, dim, "state")
            model = random_model(rng, dim, int(rng.integers(2, 4)))
            info = qc_mutual_information(rho, model)
            h = shannon_entropy(outcome_statistics(rho, model).probabilities)
            assert -1e-9 <= info <= h + 1e-9

    def test_outcome_relabeling_invariance(self):
        rng = np.random.default_rng(4)
        rho = random_instance(4, 3, "state")
        model = random_model(rng, 3, 3)
        info = qc_mutual_information(rho, model)
        shuffled = MeasurementModel(model.operators[::-1])
        assert qc_mutual_information(rho, shuffled) == pytest.approx(info, abs=1e-9)

    def test_joint_unitary_invariance(self):
        # M_ki -> M_ki V with rho -> V+ rho V leaves p_k, spectra, and I alone
        for seed in range(20):
            rng = np.random.default_rng(seed)
            rho = random_instance(seed, 3, "state")
            model = random_model(rng, 3, 2, ops_per_outcome=2)
            v = random_instance(seed + 77, 3, "unitary")
            rho_v = DensityOperator(v.conj().T @ rho.entries @ v)
            model_v = MeasurementModel(tuple(
                tuple(m @ v for m in ops) for ops in model.operators))
            s1 = outcome_statistics(rho, model)
            s2 = outcome_statistics(rho_v, model_v)
            assert np.allclose(s1.probabilities, s2.probabilities, atol=1e-9)
            assert qc_mutual_information(rho_v, model_v) == pytest.approx(
                qc_mutual_information(rho, model), abs=1e-9)

    def test_classical_case_matches_classical_mi(self):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            dim = int(rng.integers(2, 5))
            rho = diagonal_state(rng.dirichlet(np.ones(dim)))
            model = random_classical_model(rng, dim, int(rng.integers(2, 4)))
            assert qc_mutual_information(rho, model) == pytest.approx(
                classical_mutual_information(rho, model), abs=1e-8)


class TestClassicalDecompose:
    def test_controlled_copy_gives_projective(self):
        # copy of a classical bit from the system into a fresh two-outcome memory
        u = np.zeros((4, 4))  # joint index s * dim_mb + m
        u[0, 0] = 1.0  # (s=0, m=0) -> (s=0, m=0)
        u[3, 2] = 1.0  # (s=1, m=0) -> (s=1, m=1)
        u[1, 1] = 1.0
        u[2, 3] = 1.0
        rho_s = diagonal_state([0.3, 0.7])
        rho_mb = diagonal_state([1.0, 0.0])
        model = classical_decompose(u, rho_s, rho_mb, branch_of_mb=[0, 1]).model
        flat = [m for ops in model.operators for m in ops]
        assert len(flat) == 2
        assert np.allclose(flat[0], np.diag([1.0, 0.0]), atol=1e-12)
        assert np.allclose(flat[1], np.diag([0.0, 1.0]), atol=1e-12)

    def test_identity_interaction_single_outcome(self):
        rho_s = diagonal_state([0.4, 0.6])
        rho_mb = diagonal_state([0.7, 0.3])
        model = classical_decompose(np.eye(4), rho_s, rho_mb, branch_of_mb=[0, 0]).model
        assert np.max(np.abs(model.effects[0] - np.eye(2))) < 1e-12

    def test_random_permutations_reconstruct(self):
        # 2x2x2 classical space: S=2, memory outcomes 2, bath 2
        branch = [0, 0, 1, 1]  # MB index -> outcome (memory-major, bath inner)
        for seed in range(100):
            rng = np.random.default_rng(seed)
            u = random_instance(seed + 3000, 8, "permutation")
            rho_s = diagonal_state(rng.dirichlet(np.ones(2)))
            bath = rng.dirichlet(np.ones(2))
            mb = np.concatenate([0.999 * bath, [0.0005, 0.0005]])
            rho_mb = diagonal_state(mb)
            details = classical_decompose(u, rho_s, rho_mb, branch_of_mb=branch)
            assert details.max_deviation <= 1e-9
            total = sum(details.model.effects)
            assert np.max(np.abs(total - np.eye(2))) < 1e-9

    def test_rejects_non_classical_state(self):
        rho_s = DensityOperator(np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex))
        with pytest.raises(ValueError, match="diagonal"):
            classical_decompose(np.eye(4), rho_s, diagonal_state([1.0, 0.0]), [0, 1])

    def test_rejects_non_permutation(self):
        h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        u = np.kron(h, np.eye(2))
        with pytest.raises(ValueError, match="permutation"):
            classical_decompose(u, diagonal_state([0.5, 0.5]),
                                diagonal_state([1.0, 0.0]), [0, 1])

    def test_wrong_operators_fail_the_reconstruction_check(self, monkeypatch):
        # operators built from a wrong permutation must not pass: the check
        # evolves the state through the unitary, not through the same map
        from infothermo import measurement

        permutation_map = measurement._permutation_map
        monkeypatch.setattr(measurement, "_permutation_map",
                            lambda u: np.roll(permutation_map(u), 1))
        u = random_instance(50, 8, "permutation")
        with pytest.raises(ReconstructionError):
            classical_decompose(u, diagonal_state([0.25, 0.75]),
                                diagonal_state([0.4, 0.3, 0.2, 0.1]), [0, 0, 1, 1])


class TestProductFormDeviation:
    def test_classical_decomposition_is_exact(self):
        from infothermo.measurement import product_form_deviation

        branch = [0, 0, 1, 1]
        for seed in (0, 1, 2):
            rng = np.random.default_rng(seed)
            u = random_instance(seed + 4000, 8, "permutation")
            rho_s = diagonal_state(rng.dirichlet(np.ones(2)))
            rho_mb = diagonal_state(rng.dirichlet(np.ones(4)))
            details = classical_decompose(u, rho_s, rho_mb, branch)
            flat_ops = [m for ops in details.model.operators for m in ops]
            mb_states = []
            for dst in details.mb_destinations:
                marker = np.zeros(4)
                marker[dst] = 1.0
                mb_states.append(np.diag(marker).astype(complex))
            dev = product_form_deviation(u, rho_s, rho_mb, branch, flat_ops, mb_states)
            assert dev <= 1e-12

    def test_quantum_interaction_measured_not_assumed(self):
        # a genuinely quantum interaction need not admit the classical form;
        # the deviation is reported, not hidden
        from infothermo.measurement import product_form_deviation

        h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        u = np.kron(h, np.eye(2)).astype(complex)
        rho_s = diagonal_state([0.3, 0.7])
        rho_mb = diagonal_state([1.0, 0.0])
        eye = np.eye(2, dtype=complex)
        dev = product_form_deviation(
            u, rho_s, rho_mb, [0, 1], [eye], [np.diag([1.0, 0.0]).astype(complex)])
        assert dev > 0.01
