from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import dft

from qcert import (
    MeasurementBasis,
    Projector,
    RfToneProgram,
    SourceConfig,
    ValidationError,
    cglmp_basis,
    density_from_ket,
    ideal_state,
    joint_probability_table,
    k_basis,
    ket_from_tone_program,
    pair_basis,
    rf_tone_program,
    x_basis,
)


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
        assert len(b.projectors) == 10
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
        assert np.array_equal(b.vector_matrix, np.array([p.vector for p in b.projectors]))


class TestKBasis:
    def test_qubit_vectors(self):
        b = k_basis(2)
        assert_allclose(b.projectors[0].vector, np.array([1, 1]) / np.sqrt(2), atol=1e-12)
        assert_allclose(b.projectors[1].vector, np.array([1, -1]) / np.sqrt(2), atol=1e-12)

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
        table = joint_probability_table(rho, b, b)
        for ks in range(10):
            for ki in range(10):
                expected = 0.1 if ks == (-ki) % 10 else 0.0
                assert table[ks, ki] == pytest.approx(expected, abs=1e-12)

    def test_label_convention_correlates_at_equal_labels(self):
        rho = density_from_ket(ideal_state(SourceConfig.uniform(10)))
        table = joint_probability_table(rho, k_basis(10, "signal"), k_basis(10, "idler"))
        assert_allclose(table, np.eye(10) / 10, atol=1e-12)


class TestPairBases:
    def test_z_axis_is_computational(self):
        b = pair_basis("X", 0, 1, "z", 2)
        assert_allclose(b.vector_matrix, np.eye(2), atol=1e-15)
        assert b.labels == (1, -1)

    def test_x_axis_eigenvectors(self):
        b = pair_basis("X", 0, 1, "x", 2)
        assert_allclose(b.projectors[0].vector, np.array([1, 1]) / np.sqrt(2), atol=1e-12)

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
        assert_allclose(b.projectors[0].vector, k_basis(10).projectors[0].vector, atol=1e-12)

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
        prog = rf_tone_program(k_basis(2).projectors[0])
        assert prog.tones == ((0.0, pytest.approx(1 / np.sqrt(2)), 0.0),
                              (0.8, pytest.approx(1 / np.sqrt(2)), 0.0))

    def test_pi_phase_on_second_tone(self):
        prog = rf_tone_program(k_basis(2).projectors[1])
        phases = [t[2] for t in prog.tones]
        assert phases[0] == pytest.approx(0.0, abs=1e-12)
        assert abs(phases[1]) == pytest.approx(np.pi, abs=1e-12)

    def test_zero_amplitude_modes_omitted(self):
        prog = rf_tone_program(pair_basis("X", 0, 5, "z", 10).projectors[0])
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
        prog = rf_tone_program(k_basis(10).projectors[3])
        for f, _, _ in prog.tones:
            assert (f / 0.8) == pytest.approx(round(f / 0.8), abs=1e-12)


class TestNonFiniteInputs:
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_basis_with_a_nan_ket_rejected(self):
        with pytest.raises(ValidationError, match="norm"):
            MeasurementBasis(name="n", side="signal", dim=2,
                             projectors=(Projector([np.nan, 0], 0), Projector([0, 1], 1)))
        # the Gram check on its own: an outcome that skipped Projector's checks
        nan_outcome = SimpleNamespace(vector=np.array([np.nan, 0], dtype=complex), label=0)
        with pytest.raises(ValidationError, match="orthonormal"):
            MeasurementBasis(name="n", side="signal", dim=2,
                             projectors=(nan_outcome, Projector([0, 1], 1)))

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
