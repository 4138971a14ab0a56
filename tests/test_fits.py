"""Noise fits: the edge-case contract, the dense oracle and the state count.

The fits read two endpoint source states, rho(0) and rho(1) = I/D^2, and
mix their linear pieces at each bisection step.  ``conftest.oracle_objective``
keeps the dense per-step objectives (one ``noisy_state`` per step) that
they must reproduce.
"""

import math

import numpy as np
import pytest

from qcert import DensityOperator, SourceConfig, ValidationError
from qcert import pipeline
from qcert.linalg import SourceState
from qcert.pipeline import fit_noise_to_eof, fit_noise_to_pair_fidelity, fit_noise_to_visibility

from conftest import oracle_fit, oracle_objective


def fit(objective, target, cfg, pair=None):
    if objective == "visibility":
        return fit_noise_to_visibility(target, cfg)
    if objective == "eof":
        return fit_noise_to_eof(target, cfg)
    return fit_noise_to_pair_fidelity(target, cfg, pair)


def scan_source(d, shape):
    """Sources shaped like the exact-scan workload's: uniform amplitudes,
    spread amplitudes, or uniform amplitudes with random phases."""
    if shape == "uniform":
        return SourceConfig.uniform(d)
    if shape == "spread":
        return SourceConfig.with_amplitude_spread(d, 0.2, seed=1000 + d)
    rng = np.random.default_rng(1000 + d)
    return SourceConfig.uniform(d, phases=rng.uniform(-0.6, 0.6, d))


OBJECTIVES = ("visibility", "eof", "fidelity")
SHAPES = ("uniform", "spread", "phases")


class TestEdgeCases:
    def test_one_mode_visibility_fit_rejected(self):
        with pytest.raises(ValidationError, match="needs at least two modes"):
            fit_noise_to_visibility(0.5, SourceConfig.uniform(1))

    def test_fidelity_pair_of_one_mode_rejected(self):
        with pytest.raises(ValidationError, match="pair modes must differ"):
            fit_noise_to_pair_fidelity(0.5, SourceConfig.uniform(4), (0, 0))

    def test_fidelity_pair_outside_the_modes_rejected(self):
        with pytest.raises(ValidationError, match="mode 4 outside the state's mode range"):
            fit_noise_to_pair_fidelity(0.5, SourceConfig.uniform(4), (0, 4))

    def test_one_mode_eof_fit_has_no_reachable_target(self):
        with pytest.raises(ValidationError, match="above the noise-free value"):
            fit_noise_to_eof(0.5, SourceConfig.uniform(1))

    @pytest.mark.parametrize("objective, target", [
        ("visibility", 0.999), ("eof", 2.5), ("fidelity", 0.999)])
    def test_target_above_the_noise_free_value_rejected(self, objective, target):
        # the phase on mode 1 caps the visibility and the (0, 1) fidelity below
        # 1; four modes hold at most log2(4) = 2 ebits
        cfg = SourceConfig.uniform(4, phases=[0.0, 0.5, 0.0, 0.0])
        with pytest.raises(ValidationError, match="above the noise-free value"):
            fit(objective, target, cfg, (0, 1))

    @pytest.mark.parametrize("objective", OBJECTIVES)
    @pytest.mark.parametrize("target", [math.nan, math.inf, -math.inf])
    def test_non_finite_target_rejected(self, objective, target):
        with pytest.raises(ValidationError, match="not finite|must lie in"):
            fit(objective, target, SourceConfig.uniform(4), (0, 2))

    @pytest.mark.parametrize("objective, target, bottom", [
        ("eof", -1.0, "0.0"), ("fidelity", 0.1, "0.25000000000")])
    def test_target_below_the_full_noise_value_rejected(self, objective, target, bottom):
        # no p in [0, 1 - 1e-12] reaches them: the pair fidelity never falls
        # below 1/4, the formation bound below 0
        with pytest.raises(ValidationError,
                           match=f"target {target} below the value {bottom}"):
            fit(objective, target, SourceConfig.uniform(4), (0, 2))

    def test_fidelity_of_an_unpopulated_pair_unreachable(self):
        cfg = SourceConfig(num_modes=3, coefficients=[1, 0, 0])
        with pytest.raises(ValidationError, match="above the noise-free value 0.000000"):
            fit_noise_to_pair_fidelity(0.5, cfg, (1, 2))


ENDPOINT_OBJECTIVE = {
    "visibility": lambda cfg, pair: pipeline._visibility_objective(cfg),
    "eof": lambda cfg, pair: pipeline._eof_objective(cfg, "X"),
    "fidelity": lambda cfg, pair: pipeline._fidelity_objective(cfg, pair),
}


class TestDenseOracle:
    @pytest.mark.parametrize("objective", OBJECTIVES)
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("d", [2, 3, 4, 6, 8, 10])
    def test_fit_matches_the_dense_fit(self, d, shape, objective):
        cfg, pair = scan_source(d, shape), (0, d // 2)
        target = oracle_objective(objective, cfg, pair)(0.17)
        assert fit(objective, target, cfg, pair) == pytest.approx(
            oracle_fit(objective, target, cfg, pair), abs=1e-12)

    @pytest.mark.parametrize("objective", OBJECTIVES)
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("d", [2, 5, 10])
    def test_endpoint_objective_matches_the_dense_one(self, d, shape, objective):
        cfg, pair = scan_source(d, shape), (0, d // 2)
        mixed = ENDPOINT_OBJECTIVE[objective](cfg, pair)
        dense = oracle_objective(objective, cfg, pair)
        for p in np.linspace(0.0, 1.0 - 1e-12, 9):
            assert mixed(p) == pytest.approx(dense(p), abs=1e-12)

    def test_unpopulated_pair_reads_zero_fidelity(self):
        cfg = SourceConfig(num_modes=3, coefficients=[1, 0, 0])
        mixed = pipeline._fidelity_objective(cfg, (1, 2))
        dense = oracle_objective("fidelity", cfg, (1, 2))
        for p in (0.0, 1e-13, 0.3, 1.0):
            assert mixed(p) == pytest.approx(dense(p), abs=1e-12)


class TestTwoStatesPerFit:
    @pytest.mark.parametrize("objective", OBJECTIVES)
    def test_a_fit_builds_two_source_states(self, objective, monkeypatch):
        cfg = SourceConfig.uniform(6)
        target = oracle_objective(objective, cfg, (0, 3))(0.2)
        built, dense_built = [], []
        original = SourceState.__init__

        def counted(self, coefficients, noise_fraction):
            original(self, coefficients, noise_fraction)
            built.append(self.dim_signal)

        monkeypatch.setattr(SourceState, "__init__", counted)
        monkeypatch.setattr(DensityOperator, "__init__",
                            lambda self, *args: dense_built.append(args))
        fit(objective, target, cfg, (0, 3))
        # rho(0) and rho(1); the fidelity fit also restricts each to its pair
        assert sorted(built) == ([2, 2, 6, 6] if objective == "fidelity" else [6, 6])
        assert dense_built == []

