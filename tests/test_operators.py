import numpy as np
import pytest

from infothermo.operators import (
    DensityOperator,
    MalformedPayloadError,
    matrix_from_json,
    temperature_value,
    von_neumann_entropy,
)

from builders import diagonal_state, matrix_to_json, random_instance

LN2 = np.log(2.0)


class TestValidation:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            DensityOperator(np.array([[0.5, 1.0], [0.0, 0.5]]))

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityOperator(np.diag([0.6, 0.6]).astype(complex))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="negative eigenvalue"):
            DensityOperator(np.diag([1.5, -0.5]).astype(complex))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            DensityOperator(np.zeros((2, 3)))

    def test_temperature_positive(self):
        with pytest.raises(ValueError):
            temperature_value(-1.0)
        assert temperature_value(2.0) == 2.0


class TestVonNeumannEntropy:
    def test_maximally_mixed_qubit(self):
        rho = diagonal_state([0.5, 0.5])
        assert von_neumann_entropy(rho) == pytest.approx(LN2, abs=1e-12)

    def test_pure_state(self):
        v = np.array([1.0, 1.0j]) / np.sqrt(2)
        rho = DensityOperator(np.outer(v, v.conj()))
        assert von_neumann_entropy(rho) == pytest.approx(0.0, abs=1e-12)

    def test_two_thirds_one_third(self):
        # -(2/3) ln(2/3) - (1/3) ln(1/3) = ln 3 - (2/3) ln 2
        rho = diagonal_state([2 / 3, 1 / 3])
        expected = np.log(3.0) - (2 / 3) * LN2
        assert von_neumann_entropy(rho) == pytest.approx(expected, abs=1e-12)

    def test_range(self):
        for seed in range(20):
            rho = random_instance(seed, 4, "state")
            s = von_neumann_entropy(rho)
            assert 0.0 <= s <= np.log(4.0) + 1e-12


class TestTensorAndPartialTrace:
    def test_entropy_additive_on_products(self):
        rho = random_instance(5, 2, "state")
        sigma = random_instance(6, 3, "state")
        s_joint = von_neumann_entropy(DensityOperator(np.kron(rho.entries, sigma.entries)))
        assert s_joint == pytest.approx(
            von_neumann_entropy(rho) + von_neumann_entropy(sigma), abs=1e-10)


class TestRandomInstance:
    def test_deterministic(self):
        a = random_instance(7, 4, "state")
        b = random_instance(7, 4, "state")
        assert np.array_equal(a.entries, b.entries)

    def test_state_valid(self):
        for seed in range(10):
            rho = random_instance(seed, 5, "state")
            vals = np.linalg.eigvalsh(rho.entries)
            assert vals.min() >= -1e-12
            assert vals.sum() == pytest.approx(1.0, abs=1e-10)

    def test_unitary(self):
        for seed in range(10):
            u = random_instance(seed, 4, "unitary")
            assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-10

    def test_permutation(self):
        p = random_instance(3, 4, "permutation")
        assert set(np.unique(p)) <= {0.0, 1.0}
        assert np.array_equal(p.sum(axis=0), np.ones(4))
        assert np.array_equal(p.sum(axis=1), np.ones(4))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            random_instance(0, 2, "bogus")


class TestEntropyIdentities:
    def test_entropy_balance_block_diagonal(self):
        # S(sum p_k rho_k) = H(p) + sum p_k S(rho_k) for orthogonal supports
        for seed in range(50):
            rng = np.random.default_rng(seed)
            dims = rng.integers(1, 4, size=rng.integers(2, 4))
            p = rng.dirichlet(np.ones(dims.size))
            blocks = []
            parts = 0.0
            for k, d in enumerate(dims):
                rho_k = random_instance(1000 * seed + k, int(d), "state")
                blocks.append(p[k] * rho_k.entries)
                parts += p[k] * von_neumann_entropy(rho_k)
            total = DensityOperator(_block_diag(blocks))
            h = -np.sum(p * np.log(p))
            assert von_neumann_entropy(total) == pytest.approx(h + parts, abs=1e-8)

    def test_unitary_invariance(self):
        for seed in range(50):
            rho = random_instance(seed, 4, "state")
            u = random_instance(seed + 500, 4, "unitary")
            rotated = DensityOperator(u @ rho.entries @ u.conj().T)
            assert von_neumann_entropy(rotated) == pytest.approx(
                von_neumann_entropy(rho), abs=1e-9)

    def test_projection_increases_entropy(self):
        for seed in range(50):
            rng = np.random.default_rng(seed)
            dim = 4
            rho = random_instance(seed, dim, "state")
            u = random_instance(seed + 900, dim, "unitary")
            split = int(rng.integers(1, dim))
            pinched = np.zeros((dim, dim), dtype=complex)
            for cols in (slice(0, split), slice(split, dim)):
                p = u[:, cols] @ u[:, cols].conj().T
                pinched += p @ rho.entries @ p
            assert von_neumann_entropy(DensityOperator(pinched)) >= (
                von_neumann_entropy(rho) - 1e-9)


def _block_diag(blocks):
    dim = sum(b.shape[0] for b in blocks)
    out = np.zeros((dim, dim), dtype=complex)
    at = 0
    for b in blocks:
        d = b.shape[0]
        out[at:at + d, at:at + d] = b
        at += d
    return out


class TestMatrixJson:
    def test_round_trip(self):
        m = random_instance(11, 3, "state").entries
        back = matrix_from_json(matrix_to_json(m))
        assert np.max(np.abs(back - m)) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            matrix_from_json({"dim": 2, "re": [[1.0]], "im": [[0.0]]})

    def test_missing_key(self):
        with pytest.raises(ValueError, match="malformed"):
            matrix_from_json({"dim": 2, "re": [[1, 0], [0, 0]]})

    @pytest.mark.parametrize("part, value", [("re", np.nan), ("im", np.inf)])
    def test_non_finite_entry(self, part, value):
        # Python's json reads NaN and Infinity, which no later check trips
        payload = {"dim": 2, "re": [[1.0, 0.0], [0.0, 0.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}
        payload[part][1][1] = value
        with pytest.raises(MalformedPayloadError, match="non-finite entry"):
            matrix_from_json(payload)
