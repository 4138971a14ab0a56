import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qcert import (
    CoincidenceTable,
    CountingParams,
    DensityOperator,
    SourceConfig,
    ValidationError,
    density_from_ket,
    ideal_state,
    noisy_state,
    restrict_to_pair,
    simulate_setting,
)
from qcert import counting
from qcert.errors import ComputationError
from qcert.bases import tomo_settings
from qcert.pipeline import fit_noise_to_pair_fidelity
from qcert.tomo import (
    exact_cells,
    project_to_physical,
    reconstruct,
    reconstruct_exact,
)

from conftest import oracle_bootstrap


def random_two_qubit(rng) -> DensityOperator:
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    raw = g @ g.conj().T
    return DensityOperator(2, 2, raw / np.trace(raw).real)


def embed_pair_state(rho4: DensityOperator, j: int, k: int, d: int) -> DensityOperator:
    """Place a two-qubit state on modes (j, k) of a d x d mode space."""
    big = np.zeros((d * d, d * d), dtype=complex)
    idx = [j * d + j, j * d + k, k * d + j, k * d + k]
    big[np.ix_(idx, idx)] = rho4.matrix
    return DensityOperator(d, d, big)


class TestSettings:
    def test_nine_settings_with_labels(self):
        st = tomo_settings(0, 5)
        assert len(st) == 9
        assert [s.name for s in st[:3]] == ["tomoX:0-5:xx", "tomoX:0-5:xy", "tomoX:0-5:xz"]

    def test_projectors_orthonormal_in_pair(self):
        for s in tomo_settings(2, 7):
            mat = s.basis_s.vector_matrix
            assert_allclose(mat.conj() @ mat.T, np.eye(2), atol=1e-12)

    def test_cells_cover_postselection_weight(self):
        rho = noisy_state(SourceConfig.uniform(10, noise_fraction=0.3))
        cells = exact_cells(rho, 0, 5)
        weight = restrict_to_pair(rho, 0, 5).weight
        assert cells.shape == (3, 3, 2, 2)
        # every axis pair's four cells sum to the post-selection weight
        assert_allclose(cells.sum(axis=(-2, -1)), np.full((3, 3), weight), rtol=0, atol=1e-10)

    def test_same_mode_rejected(self):
        with pytest.raises(ValidationError):
            tomo_settings(4, 4)


class TestPhysicalProjection:
    def test_physical_input_untouched(self):
        rng = np.random.default_rng(2)
        rho = random_two_qubit(rng)
        assert_allclose(project_to_physical(rho.matrix), rho.matrix, atol=1e-12)

    def test_idempotent_and_trace_preserving(self):
        rng = np.random.default_rng(3)
        herm = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        herm = (herm + herm.conj().T) / 2
        herm = herm / np.trace(herm).real
        once = project_to_physical(herm)
        twice = project_to_physical(once)
        assert np.trace(once).real == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh(once)[0] >= -1e-12
        assert_allclose(once, twice, atol=1e-12)

    def test_matches_simplex_projection_oracle(self):
        # independent eigenvalue oracle: threshold water-filling on the simplex
        def simplex(v):
            u = np.sort(v)[::-1]
            rho_idx = np.nonzero(u + (1 - np.cumsum(u)) / np.arange(1, len(u) + 1) > 0)[0][-1]
            theta = (1 - np.cumsum(u)[rho_idx]) / (rho_idx + 1)
            return np.maximum(v + theta, 0)

        rng = np.random.default_rng(4)
        for _ in range(20):
            vals = rng.normal(size=4)
            vals = vals / vals.sum() if abs(vals.sum()) > 0.2 else vals + 1
            vals = vals / vals.sum()
            mat = np.diag(vals).astype(complex)
            got = np.sort(np.linalg.eigvalsh(project_to_physical(mat)))
            assert_allclose(got, np.sort(simplex(vals)), atol=1e-10)


class TestExactReconstruction:
    def test_round_trip_on_random_states(self):
        rng = np.random.default_rng(5)
        worst = 0.0
        for _ in range(100):
            rho4 = random_two_qubit(rng)
            big = embed_pair_state(rho4, 0, 5, 10)
            res = reconstruct_exact(big, 0, 5)
            worst = max(worst, np.linalg.norm(res.operator.matrix - rho4.matrix))
        assert worst < 1e-9

    def test_ideal_pair(self):
        rho = density_from_ket(ideal_state(SourceConfig.uniform(10)))
        res = reconstruct_exact(rho, 0, 5)
        assert res.fidelity == pytest.approx(1.0, abs=1e-9)
        assert res.relative_phase_deg == pytest.approx(0.0, abs=1e-6)
        assert res.postselection_weight == pytest.approx(0.2, abs=1e-10)

    def test_calibrated_pair_state(self):
        phases = np.zeros(10)
        phases[5] = math.radians(17.0)
        cfg = SourceConfig.uniform(10, phases=phases)
        p = fit_noise_to_pair_fidelity(0.878, cfg, (0, 5))
        res = reconstruct_exact(noisy_state(cfg.with_noise(p)), 0, 5)
        assert res.fidelity == pytest.approx(0.878, abs=1e-6)
        assert res.relative_phase_deg == pytest.approx(17.0, abs=1e-6)

    def test_k_space_pair(self):
        rho = density_from_ket(ideal_state(SourceConfig.uniform(10)))
        res = reconstruct_exact(rho, 0, 5, space="K")
        assert res.fidelity == pytest.approx(1.0, abs=1e-9)
        assert res.postselection_weight == pytest.approx(0.2, abs=1e-10)


class TestCountReconstruction:
    def build_table(self, rho, trials, seed, j=0, k=5):
        params = CountingParams(P_S=0.006, eta_r=0.1, P_bg_idler=0.0005)
        records = []
        for st in tomo_settings(j, k, num_modes=rho.dim_signal):
            records.extend(simulate_setting(rho, st.basis_s, st.basis_i,
                                            trials, params, seed, setting_name=st.name))
        return CoincidenceTable(records=tuple(records), metadata={"D": rho.dim_signal})

    def test_sampled_fidelity_within_bootstrap_error(self):
        # per-seed coverage: the reported fidelity stays within three
        # bootstrap sigmas of the exact value (the positivity projection
        # costs a small negative bias at finite counts, well inside 3 sigma)
        rho = noisy_state(SourceConfig.uniform(10, noise_fraction=0.25))
        exact = reconstruct_exact(rho, 0, 5).fidelity
        covered = 0
        for seed in range(100):
            table = self.build_table(rho, trials=10**6, seed=seed)
            res = reconstruct(table, (0, 5), corrected=True, n_bootstrap=30, seed=seed)
            if abs(res.fidelity - exact) <= 3 * res.fidelity_err:
                covered += 1
        assert covered >= 95

    def test_missing_setting_rejected(self):
        rho = density_from_ket(ideal_state(SourceConfig.uniform(10)))
        table = self.build_table(rho, trials=10**5, seed=0)
        partial = CoincidenceTable(
            records=tuple(r for r in table.records if r.setting != "tomoX:0-5:yz"),
            metadata=table.metadata,
        )
        with pytest.raises(ValidationError, match="tomoX:0-5:yz"):
            reconstruct(partial, (0, 5))

    def test_all_zero_counts_rejected(self):
        records = []
        rho = density_from_ket(ideal_state(SourceConfig.uniform(10)))
        for st in tomo_settings(0, 5):
            for a in (1, -1):
                for b in (1, -1):
                    from qcert import CountRecord

                    records.append(CountRecord(
                        setting=st.name, outcome_s=a, outcome_i=b,
                        coincidences=0, singles_s=0, singles_i=0, trials=100))
        table = CoincidenceTable(records=tuple(records))
        with pytest.raises(ComputationError):
            reconstruct(table, (0, 5), n_bootstrap=2)

    def test_fidelity_err_is_bootstrap_spread_of_tomography_settings(self):
        rho = noisy_state(SourceConfig.uniform(10, noise_fraction=0.25))
        table = self.build_table(rho, trials=10**6, seed=4)
        tomo_table = table.restricted(st.name for st in tomo_settings(0, 5))
        fids = [reconstruct(CoincidenceTable(records=tuple(replica), metadata=tomo_table.metadata),
                            (0, 5), corrected=True, n_bootstrap=2).fidelity
                for replica in oracle_bootstrap(tomo_table, seed=9, n_replicas=8)]
        res = reconstruct(table, (0, 5), corrected=True, n_bootstrap=8, seed=9)
        assert res.fidelity_err == pytest.approx(float(np.std(fids, ddof=1)), rel=1e-12)

    @pytest.mark.parametrize("n_bootstrap", [0, 1])
    def test_fewer_than_two_replicas_rejected(self, n_bootstrap):
        rho = density_from_ket(ideal_state(SourceConfig.uniform(10)))
        table = self.build_table(rho, trials=10**5, seed=0)
        with pytest.raises(ValidationError, match="at least 2"):
            reconstruct(table, (0, 5), n_bootstrap=n_bootstrap)

    def test_error_is_nan_when_no_replica_survives(self, monkeypatch):
        def empty_replicas(table, seed, n_replicas, singles=True):
            counts = np.zeros((4, n_replicas, len(table.records)), dtype=np.int64)
            counts[3] = table.counts[3]   # every count zero, trials kept
            yield counts

        rho = density_from_ket(ideal_state(SourceConfig.uniform(10)))
        table = self.build_table(rho, trials=10**5, seed=0)
        monkeypatch.setattr(counting, "_replica_blocks", empty_replicas)
        res = reconstruct(table, (0, 5), n_bootstrap=5)
        assert res.fidelity > 0.5
        assert math.isnan(res.fidelity_err)
