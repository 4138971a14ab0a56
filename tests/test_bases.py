import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import dft

from qcert import (
    MeasurementBasis,
    RfToneProgram,
    SourceConfig,
    ValidationError,
    cglmp_basis,
    density_from_ket,
    ideal_state,
    k_basis,
    ket_from_tone_program,
    mode_vector,
    outcome_probabilities,
    pair_basis,
    rf_tone_program,
    x_basis,
)


def joint_table(rho, basis_s, basis_i):
    return outcome_probabilities(rho, basis_s.vector_matrix, basis_i.vector_matrix)


def gram(basis):
    mat = basis.vector_matrix
    return mat.conj() @ mat.T


class TestXBasis:
    def test_qubit_case(self):
        b = x_basis(2)
        assert_allclose(b.vector_matrix, np.eye(2), atol=1e-15)
        assert b.labels == (0, 1)

    def test_ten_modes(self):
        b = x_basis(10)
        assert len(b.labels) == 10
        assert b.complete

    @pytest.mark.parametrize("d", range(1, 11))
    def test_gram_identity(self, d):
        assert_allclose(gram(x_basis(d)), np.eye(d), atol=1e-12)

    def test_mode_count_capped(self):
        with pytest.raises(ValidationError):
            x_basis(11)

    def test_vector_matrix_built_once_read_only(self):
        b = k_basis(4)
        assert b.vector_matrix is b.vector_matrix
        assert not b.vector_matrix.flags.writeable
        assert np.array_equal(b.vector_matrix, np.array([mode_vector("K", k, 4) for k in range(4)]))


class TestKBasis:
    def test_qubit_vectors(self):
        b = k_basis(2)
        assert_allclose(b.vector_matrix[0], np.array([1, 1]) / np.sqrt(2), atol=1e-12)
        assert_allclose(b.vector_matrix[1], np.array([1, -1]) / np.sqrt(2), atol=1e-12)

    def test_fourier_orthogonality_ten_modes(self):
        assert_allclose(gram(k_basis(10)), np.eye(10), atol=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 7, 10])
    def test_matches_dft_oracle(self, d):
        # independent construction: conjugate of the standard DFT matrix columns
        expected = dft(d).conj() / np.sqrt(d)
        got = k_basis(d).vector_matrix
        assert_allclose(got, expected.T, atol=1e-12)

    def test_idler_side_is_conjugated(self):
        sig = k_basis(5, side="signal").vector_matrix
        idl = k_basis(5, side="idler").vector_matrix
        assert_allclose(idl, sig.conj(), atol=1e-15)

    def test_same_sign_measurement_anticorrelates_labels(self):
        # with the signal-side kets used on both sides, the uniform source
        # correlates k_s with (-k_i) mod 10
        rho = density_from_ket(ideal_state(SourceConfig.uniform(10)))
        b = k_basis(10, side="signal")
        table = joint_table(rho, b, b)
        for ks in range(10):
            for ki in range(10):
                expected = 0.1 if ks == (-ki) % 10 else 0.0
                assert table[ks, ki] == pytest.approx(expected, abs=1e-12)

    def test_label_convention_correlates_at_equal_labels(self):
        rho = density_from_ket(ideal_state(SourceConfig.uniform(10)))
        table = joint_table(rho, k_basis(10, "signal"), k_basis(10, "idler"))
        assert_allclose(table, np.eye(10) / 10, atol=1e-12)


class TestPairBases:
    def test_z_axis_is_computational(self):
        b = pair_basis("X", 0, 1, "z", 2)
        assert_allclose(b.vector_matrix, np.eye(2), atol=1e-15)
        assert b.labels == (1, -1)

    def test_x_axis_eigenvectors(self):
        b = pair_basis("X", 0, 1, "x", 2)
        assert_allclose(b.vector_matrix[0], np.array([1, 1]) / np.sqrt(2), atol=1e-12)

    def test_pairwise_unbiasedness(self):
        for ax_a, ax_b in [("x", "y"), ("y", "z"), ("z", "x")]:
            a = pair_basis("X", 2, 7, ax_a, 10)
            b = pair_basis("X", 2, 7, ax_b, 10)
            overlaps = np.abs(a.vector_matrix.conj() @ b.vector_matrix.T) ** 2
            assert_allclose(overlaps, np.full((2, 2), 0.5), atol=1e-12)

    def test_same_mode_rejected(self):
        with pytest.raises(ValidationError):
            pair_basis("X", 3, 3, "z", 10)

    def test_embedded_in_full_space(self):
        b = pair_basis("X", 0, 5, "y", 10)
        assert b.dim == 10
        assert not b.complete
        assert_allclose(gram(b), np.eye(2), atol=1e-12)

    def test_k_space_pair_uses_fourier_vectors(self):
        b = pair_basis("K", 0, 5, "z", 10, side="signal")
        assert_allclose(b.vector_matrix[0], k_basis(10).vector_matrix[0], atol=1e-12)

    def test_lost_weight_models_postselection(self):
        rho = density_from_ket(ideal_state(SourceConfig.uniform(10)))
        b = pair_basis("X", 0, 5, "x", 10, side="signal")
        assert b.lost_weight(rho) == pytest.approx(0.8, abs=1e-10)
        full = x_basis(10, side="idler")
        assert full.lost_weight(rho) == pytest.approx(0.0, abs=1e-10)


class TestCglmpBases:
    def test_signal_setting_zero_is_fourier(self):
        for d in (2, 5, 10):
            assert_allclose(
                cglmp_basis("signal", 0, d).vector_matrix,
                k_basis(d).vector_matrix,
                atol=1e-12,
            )

    @pytest.mark.parametrize("d", range(2, 11))
    @pytest.mark.parametrize("side,setting", [("signal", 0), ("signal", 1),
                                              ("idler", 0), ("idler", 1)])
    def test_orthonormal(self, d, side, setting):
        assert_allclose(gram(cglmp_basis(side, setting, d)), np.eye(d), atol=1e-10)

    @pytest.mark.parametrize("d", range(2, 11))
    def test_diagonal_phase_relation_to_fourier(self, d):
        # each detector basis is a diagonal-phase rotation of the Fourier frame,
        # so the cross-Gram determinant has unit modulus
        f = k_basis(d).vector_matrix
        for side in ("signal", "idler"):
            for setting in (0, 1):
                c = cglmp_basis(side, setting, d).vector_matrix
                cross = c.conj() @ f.T
                assert abs(np.linalg.det(cross)) == pytest.approx(1.0, abs=1e-9)

    def test_embedding_pads_with_zeros(self):
        b = cglmp_basis("idler", 1, 4, embed_dim=10)
        assert b.dim == 10
        mat = b.vector_matrix
        assert np.max(np.abs(mat[:, 4:])) == 0.0
        assert_allclose(gram(b), np.eye(4), atol=1e-12)

    def test_bad_inputs(self):
        with pytest.raises(ValidationError):
            cglmp_basis("signal", 2, 3)
        with pytest.raises(ValidationError):
            cglmp_basis("signal", 0, 1)
        with pytest.raises(ValidationError):
            cglmp_basis("both", 0, 3)


class TestToneProgram:
    def test_uniform_superposition_two_tones(self):
        prog = rf_tone_program(k_basis(2).vector_matrix[0])
        assert prog.tones == ((0.0, pytest.approx(1 / np.sqrt(2)), 0.0),
                              (0.8, pytest.approx(1 / np.sqrt(2)), 0.0))

    def test_pi_phase_on_second_tone(self):
        prog = rf_tone_program(k_basis(2).vector_matrix[1])
        phases = [t[2] for t in prog.tones]
        assert phases[0] == pytest.approx(0.0, abs=1e-12)
        assert abs(phases[1]) == pytest.approx(np.pi, abs=1e-12)

    def test_zero_amplitude_modes_omitted(self):
        prog = rf_tone_program(pair_basis("X", 0, 5, "z", 10).vector_matrix[0])
        assert len(prog.tones) == 1
        assert prog.tones[0][0] == 0.0

    @pytest.mark.parametrize("seed", range(5))
    def test_round_trip_reconstruction(self, seed):
        rng = np.random.default_rng(seed)
        vec = rng.normal(size=10) + 1j * rng.normal(size=10)
        vec /= np.linalg.norm(vec)
        prog = rf_tone_program(vec)
        back = ket_from_tone_program(prog, 10)
        assert_allclose(back, vec, atol=1e-12)

    def test_offsets_on_spacing_grid(self):
        prog = rf_tone_program(k_basis(10).vector_matrix[3])
        for f, _, _ in prog.tones:
            assert (f / 0.8) == pytest.approx(round(f / 0.8), abs=1e-12)


class TestNonFiniteInputs:
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_basis_with_a_nan_ket_rejected(self):
        with pytest.raises(ValidationError, match="norm"):
            MeasurementBasis("n", "signal", (0, 1), [[np.nan, 0], [0, 1]])
        # the Gram check on its own: unit rows that are not orthogonal
        with pytest.raises(ValidationError, match="orthonormal"):
            MeasurementBasis("n", "signal", (0, 1), [[1, 0], [1, 0]])

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("vector", [[np.nan, 0], [1, np.nan], [complex(0, np.nan), 0],
                                        [np.inf, 0], [2, 0]])
    def test_non_unit_or_non_finite_kets_rejected(self, vector):
        with pytest.raises(ValidationError, match="norm"):
            MeasurementBasis("n", "idler", (0, 1), [[0, 1], vector])

    @pytest.mark.parametrize("labels, kets", [
        ((0,), np.eye(2)),
        ((0, 1, 2), np.eye(2)),
        ((0,), [1, 0]),
        ((), np.zeros((0, 2))),
        ((0,), [[[1, 0]]]),
    ])
    def test_ket_array_shape_must_match_the_labels(self, labels, kets):
        with pytest.raises(ValidationError, match="one row per label"):
            MeasurementBasis("n", "signal", labels, kets)

    def test_side_must_be_signal_or_idler(self):
        with pytest.raises(ValidationError, match="side"):
            MeasurementBasis("n", "both", (0, 1), np.eye(2))

    def test_kets_are_copied_scaled_and_frozen(self):
        kets = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        b = MeasurementBasis("h", "signal", [1, -1], kets)
        assert b.labels == (1, -1) and b.dim == 2 and b.complete
        assert b.vector_matrix is not kets and not b.vector_matrix.flags.writeable
        assert np.array_equal(b.vector_matrix,
                              np.array([row / np.linalg.norm(row) for row in kets]))

    @pytest.mark.parametrize("tones, spacing", [
        (((0.0, np.nan, 0.0),), 0.8),
        (((0.0, 1.0, np.nan),), 0.8),
        (((np.nan, 1.0, 0.0),), 0.8),
        (((0.0, np.inf, 0.0),), 0.8),
        (((0.0, 1.0, 0.0),), np.nan),
    ])
    def test_tone_program_rejects_non_finite_values(self, tones, spacing):
        with pytest.raises(ValidationError, match="finite"):
            RfToneProgram(tones=tones, tone_spacing_mhz=spacing)

    @pytest.mark.parametrize("spacing", [0.0, -0.0, -1.0])
    def test_tone_program_rejects_a_non_positive_spacing(self, spacing):
        with pytest.raises(ValidationError, match="must be positive"):
            RfToneProgram(tones=((0.0, 1.0, 0.0),), tone_spacing_mhz=spacing)

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_tone_program_of_a_nan_ket_rejected(self):
        with pytest.raises(ValidationError, match="finite"):
            rf_tone_program(np.array([np.nan, 0.0]))
