import numpy as np
import pytest
from numpy.testing import assert_allclose

from qcert import (
    SimulationConfig,
    SourceConfig,
    ValidationError,
    density_from_ket,
    fidelity_to_pure,
    fit_noise_to_visibility,
    ideal_state,
    mean_pair_visibility,
    outcome_probabilities,
    noisy_state,
    restrict_to_pair,
    witness,
)


class TestIdealState:
    def test_uniform_ten_mode_amplitudes(self):
        psi = ideal_state(SourceConfig.uniform(10))
        for i in range(10):
            assert abs(psi.amplitude(i, i)) == pytest.approx(1 / np.sqrt(10), abs=1e-12)
        off = [abs(psi.amplitude(i, j)) for i in range(10) for j in range(10) if i != j]
        assert max(off) < 1e-15

    def test_single_mode_is_product(self):
        cfg = SourceConfig(num_modes=2, coefficients=[1, 0])
        psi = ideal_state(cfg)
        svals = np.linalg.svd(psi.amplitudes.reshape(2, 2), compute_uv=False)
        assert np.sum(svals > 1e-12) == 1   # the SVD rank: a product state
        assert abs(psi.amplitude(0, 0)) == pytest.approx(1.0)

    def test_pair_phase_appears_in_restriction(self):
        cfg = SourceConfig(
            num_modes=2,
            coefficients=np.array([1, 1]) / np.sqrt(2),
            phase_mismatch=[0.0, np.radians(17.0)],
        )
        res = restrict_to_pair(density_from_ket(ideal_state(cfg)), 0, 1)
        phase = np.degrees(np.angle(res.operator.matrix[3, 0]))
        assert phase == pytest.approx(17.0, abs=1e-9)


class TestNoisyState:
    def test_zero_noise_is_pure(self):
        cfg = SourceConfig.uniform(4)
        assert_allclose(
            noisy_state(cfg).matrix,
            density_from_ket(ideal_state(cfg)).matrix,
            atol=1e-12,
        )

    def test_full_noise_is_flat(self):
        rho = noisy_state(SourceConfig.uniform(3, noise_fraction=1.0))
        assert_allclose(rho.matrix, np.eye(9) / 9, atol=1e-12)
        p = outcome_probabilities(rho, [[1, 0, 0]], [[0, 1, 0]])[0, 0]
        assert p == pytest.approx(1 / 9, abs=1e-12)

    def test_fidelity_at_twenty_percent_noise(self):
        cfg = SourceConfig.uniform(2, noise_fraction=0.2)
        fid = fidelity_to_pure(noisy_state(cfg), ideal_state(cfg.with_noise(0.0)))
        assert fid == pytest.approx(0.85, abs=1e-12)

    def test_invariants_across_noise_grid(self):
        cfg = SourceConfig.uniform(5)
        for p in np.linspace(0, 1, 6):
            rho = noisy_state(cfg.with_noise(float(p)))
            assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.eigvalsh(rho.matrix)[0] >= -1e-10

    def test_every_pair_maximally_entangled_up_to_phase(self):
        rng = np.random.default_rng(4)
        phases = rng.uniform(-np.pi, np.pi, size=10)
        cfg = SourceConfig.uniform(10, phases=phases)
        rho = density_from_ket(ideal_state(cfg))
        for j, k in [(0, 1), (2, 9), (4, 5)]:
            res = restrict_to_pair(rho, j, k)
            assert abs(res.operator.matrix[0, 3]) == pytest.approx(0.5, abs=1e-10)

    def test_global_phase_invariance(self):
        cfg = SourceConfig.uniform(3)
        rotated = SourceConfig(
            num_modes=3,
            coefficients=cfg.coefficients * np.exp(1j * 0.7),
            phase_mismatch=cfg.phase_mismatch,
        )
        a, b = noisy_state(cfg.with_noise(0.1)), noisy_state(rotated.with_noise(0.1))
        basis = np.eye(3)
        for xs in range(3):
            for xi in range(3):
                pa = outcome_probabilities(a, [basis[xs]], [basis[xi]])[0, 0]
                pb = outcome_probabilities(b, [basis[xs]], [basis[xi]])[0, 0]
                assert pa == pytest.approx(pb, abs=1e-12)


class TestSourceConfigValidation:
    def test_unnormalized_coefficients_rejected(self):
        with pytest.raises(ValidationError):
            SourceConfig(num_modes=2, coefficients=[1.0, 1.0])

    def test_phase_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            SourceConfig(num_modes=3, phase_mismatch=[0.0, 0.0])

    def test_noise_range(self):
        with pytest.raises(ValidationError):
            SourceConfig.uniform(2, noise_fraction=1.5)

    def test_amplitude_spread_factory_normalized(self):
        cfg = SourceConfig.with_amplitude_spread(10, spread=0.1, seed=2)
        assert np.sum(np.abs(cfg.coefficients) ** 2) == pytest.approx(1.0, abs=1e-12)
        assert np.std(np.abs(cfg.coefficients)) > 0

    def test_json_round_trip(self):
        src = SourceConfig.uniform(4, noise_fraction=0.3,
                                   phases=np.radians([0, 5, -10, 90]))
        cfg = SimulationConfig(source=src, bell_dimensions=(2,), tomo_pair=(0, 1))
        back = SimulationConfig.from_json_dict(cfg.to_json_dict()).source
        assert back.num_modes == 4
        assert back.noise_fraction == pytest.approx(0.3)
        assert_allclose(back.coefficients, src.coefficients, atol=1e-15)
        assert_allclose(back.phase_mismatch, src.phase_mismatch, atol=1e-15)

    @pytest.mark.parametrize("dim", [4.7, 4.0, True, "4"])
    def test_json_non_integer_mode_count_rejected(self, dim):
        data = SimulationConfig(source=SourceConfig.uniform(4), bell_dimensions=(2,),
                                tomo_pair=(0, 1)).to_json_dict()
        data["source"]["D"] = dim
        with pytest.raises(ValidationError, match="source.D: expected int"):
            SimulationConfig.from_json_dict(data)

    def test_equal_by_value_and_hashed_alike(self):
        a, b = SourceConfig.uniform(4), SourceConfig.uniform(4)
        assert a is not b and a == b and hash(a) == hash(b)
        assert SourceConfig(4, np.full(4, 0.5), np.zeros(4)) == a
        assert {a: 1}[b] == 1
        assert a != "uniform" and a != a.with_noise(0.1)
        # arrays compare by bytes: one ulp in one phase or amplitude differs
        tiny = np.zeros(4)
        tiny[2] = np.nextafter(0.0, 1.0)
        assert SourceConfig.uniform(4, phases=tiny) != a
        coeffs = a.coefficients.copy()
        coeffs[0] = np.nextafter(coeffs[0].real, 1.0)
        assert SourceConfig(4, coeffs) != a


class TestFitNoise:
    def test_perfect_visibility_means_no_noise(self):
        cfg = SourceConfig.uniform(10)
        assert fit_noise_to_visibility(1.0, cfg) == pytest.approx(0.0, abs=2e-6)

    def test_closed_loop_reproduces_witness_total(self):
        # target the reference operating point: visibility sum 111.6 over 45 pairs
        cfg = SourceConfig.uniform(10)
        p = fit_noise_to_visibility(111.6 / 135.0, cfg)
        total = witness(noisy_state(cfg.with_noise(p)), space="X").total
        assert total == pytest.approx(111.6, abs=0.1)

    def test_monotone_decreasing_in_target(self):
        cfg = SourceConfig.uniform(6)
        targets = np.linspace(0.3, 0.99, 10)
        fits = [fit_noise_to_visibility(float(t), cfg) for t in targets]
        assert all(a > b - 1e-9 for a, b in zip(fits, fits[1:]))

    def test_unreachable_target_rejected(self):
        # a dephased pair caps the visibility ceiling below 1
        cfg = SourceConfig.uniform(2, phases=[0.0, np.pi / 3])
        with pytest.raises(ValidationError):
            fit_noise_to_visibility(0.999, cfg)
        with pytest.raises(ValidationError):
            fit_noise_to_visibility(0.0, SourceConfig.uniform(2))

    def test_mean_visibility_matches_witness_total(self):
        cfg = SourceConfig.uniform(5, noise_fraction=0.25)
        rho = noisy_state(cfg)
        mean = mean_pair_visibility(rho)
        total = witness(rho, space="X").total
        assert mean == pytest.approx(total / (3 * 10), abs=1e-10)  # 10 pairs for 5 modes
