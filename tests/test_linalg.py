import numpy as np
import pytest
from numpy.testing import assert_allclose

from qcert import (
    DensityOperator,
    StateVector,
    ValidationError,
    density_from_ket,
    fidelity_to_pure,
    outcome_probabilities,
    restrict_to_pair,
)
from qcert.errors import ComputationError


def bell_state() -> StateVector:
    return StateVector(2, 2, [1, 0, 0, 1])


def uniform_state(d: int) -> StateVector:
    amps = np.zeros(d * d, dtype=complex)
    amps[np.arange(d) * d + np.arange(d)] = 1.0
    return StateVector(d, d, amps)


def maximally_mixed(d: int) -> DensityOperator:
    return DensityOperator(d, d, np.eye(d * d) / (d * d))


class TestStateVector:
    def test_normalizing_constructor(self):
        psi = StateVector(2, 2, [3, 0, 0, 4])
        assert np.sum(np.abs(psi.amplitudes) ** 2) == pytest.approx(1.0, abs=1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValidationError):
            StateVector(2, 2, [0, 0, 0, 0])

    def test_schmidt_rank(self):
        assert bell_state().schmidt_rank() == 2
        assert StateVector(2, 2, [1, 0, 0, 0]).schmidt_rank() == 1


class TestDensityFromKet:
    def test_bell_corners(self):
        rho = density_from_ket(bell_state())
        for r, c in [(0, 0), (0, 3), (3, 0), (3, 3)]:
            assert rho.matrix[r, c] == pytest.approx(0.5, abs=1e-12)
        assert abs(rho.matrix[1, 1]) < 1e-12

    def test_ground_state(self):
        rho = density_from_ket(StateVector(2, 2, [1, 0, 0, 0]))
        assert_allclose(rho.matrix, np.diag([1, 0, 0, 0]), atol=1e-12)

    def test_purity_one_for_random_kets(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            amp = rng.normal(size=9) + 1j * rng.normal(size=9)
            rho = density_from_ket(StateVector(3, 3, amp))
            assert rho.purity() == pytest.approx(1.0, abs=1e-10)


class TestDensityOperatorInvariants:
    def test_non_hermitian_rejected(self):
        mat = np.diag([1.0, 0, 0, 0]).astype(complex)
        mat[0, 1] = 1e-6
        with pytest.raises(ValidationError, match="Hermitian"):
            DensityOperator(2, 2, mat)

    def test_trace_enforced(self):
        with pytest.raises(ValidationError, match="trace"):
            DensityOperator(2, 2, np.eye(4) / 3)

    def test_negative_eigenvalue_rejected(self):
        mat = np.diag([1.5, -0.5, 0, 0])
        with pytest.raises(ValidationError, match="positivity"):
            DensityOperator(2, 2, mat)

    def test_tiny_negative_clamped(self):
        eps = 1e-12
        mat = np.diag([1 + eps, -eps, 0, 0])
        rho = DensityOperator(2, 2, mat)
        vals = np.linalg.eigvalsh(rho.matrix)
        assert vals[0] >= -1e-15
        assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-12)

    def test_random_mixtures_keep_invariants(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            g = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
            raw = g @ g.conj().T
            raw /= np.trace(raw).real
            rho = DensityOperator(3, 3, raw)
            assert_allclose(rho.matrix, rho.matrix.conj().T, atol=1e-12)
            assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.eigvalsh(rho.matrix)[0] >= -1e-10


class TestJointProbability:
    def test_bell_correlated_outcome(self):
        rho = density_from_ket(bell_state())
        p0 = [1, 0]
        assert outcome_probabilities(rho, [p0], [p0])[0, 0] == pytest.approx(0.5, abs=1e-12)

    def test_bell_anticorrelated_outcome(self):
        rho = density_from_ket(bell_state())
        p0 = [1, 0]
        p1 = [0, 1]
        assert outcome_probabilities(rho, [p0], [p1])[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed_uniform(self):
        rho = maximally_mixed(3)
        rng = np.random.default_rng(5)
        for _ in range(5):
            u = rng.normal(size=3) + 1j * rng.normal(size=3)
            v = rng.normal(size=3) + 1j * rng.normal(size=3)
            pu = u / np.linalg.norm(u)
            pv = v / np.linalg.norm(v)
            assert outcome_probabilities(rho, [pu], [pv])[0, 0] == pytest.approx(1 / 9, abs=1e-12)

    def test_dimension_mismatch(self):
        rho = density_from_ket(bell_state())
        with pytest.raises(ValidationError):
            outcome_probabilities(rho, [[1, 0, 0]], [[1, 0]])

    def test_complete_basis_sums_to_one(self):
        rng = np.random.default_rng(13)
        g = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
        raw = g @ g.conj().T
        rho = DensityOperator(3, 3, raw / np.trace(raw).real)
        total = sum(
            outcome_probabilities(rho, [np.eye(3)[a]], [np.eye(3)[b]])[0, 0]
            for a in range(3)
            for b in range(3)
        )
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_large_imaginary_residue_rejected(self):
        # white-box: bypass validation to plant a non-Hermitian matrix
        rho = density_from_ket(bell_state())
        bad = object.__new__(DensityOperator)
        bad.dim_signal = bad.dim_idler = 2
        mat = np.array(rho.matrix)
        mat[0, 3] += 1e-6j
        bad.matrix = mat
        with pytest.raises(ComputationError, match="imaginary"):
            outcome_probabilities(bad, [np.array([1, 1]) / np.sqrt(2)],
                                  [np.array([1, 1]) / np.sqrt(2)])


class TestFidelityToPure:
    def test_self_fidelity(self):
        psi = bell_state()
        assert fidelity_to_pure(density_from_ket(psi), psi) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed(self):
        assert fidelity_to_pure(maximally_mixed(2), bell_state()) == pytest.approx(0.25, abs=1e-12)

    def test_werner_mixture(self):
        psi = bell_state()
        mat = 0.8 * density_from_ket(psi).matrix + 0.2 * np.eye(4) / 4
        rho = DensityOperator(2, 2, mat)
        assert fidelity_to_pure(rho, psi) == pytest.approx(0.85, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            fidelity_to_pure(maximally_mixed(3), bell_state())


class TestRestrictToPair:
    def test_uniform_ten_mode_pair(self):
        rho = density_from_ket(uniform_state(10))
        res = restrict_to_pair(rho, 0, 5)
        assert res.weight == pytest.approx(0.2, abs=1e-12)
        expected = np.zeros((4, 4))
        expected[0, 0] = expected[0, 3] = expected[3, 0] = expected[3, 3] = 0.5
        assert_allclose(res.operator.matrix, expected, atol=1e-10)

    def test_dark_pair_flagged(self):
        rho = density_from_ket(StateVector(3, 3, [1, 0, 0, 0, 0, 0, 0, 0, 0]))
        res = restrict_to_pair(rho, 1, 2)
        assert res.zero_weight
        assert res.weight == 0.0

    def test_maximally_mixed(self):
        res = restrict_to_pair(maximally_mixed(10), 2, 7)
        assert res.weight == pytest.approx(4 / 100, abs=1e-12)
        assert_allclose(res.operator.matrix, np.eye(4) / 4, atol=1e-12)

    def test_same_mode_rejected(self):
        with pytest.raises(ValidationError):
            restrict_to_pair(maximally_mixed(4), 2, 2)

    def test_weight_equals_joint_probability_sum(self):
        rng = np.random.default_rng(23)
        g = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        raw = g @ g.conj().T
        rho = DensityOperator(4, 4, raw / np.trace(raw).real)
        res = restrict_to_pair(rho, 1, 3)
        basis = np.eye(4)
        total = sum(
            outcome_probabilities(rho, [basis[a]], [basis[b]])[0, 0]
            for a in (1, 3)
            for b in (1, 3)
        )
        assert res.weight == pytest.approx(total, abs=1e-10)
