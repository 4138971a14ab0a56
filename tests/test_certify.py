import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies

from qcert import (
    CoincidenceTable,
    CountingParams,
    CountRecord,
    DensityOperator,
    SourceConfig,
    StateVector,
    ValidationError,
    cglmp,
    cglmp_weights,
    density_from_ket,
    eof_bound,
    ideal_state,
    noisy_state,
    restrict_to_pair,
    run_simulation,
    simulate_setting,
    violation_curve,
    visibility_from_counts,
    witness,
    witness_bound,
)
from qcert.bases import (cglmp_basis, joint_probability_table, mode_vector, pair_basis,
                         scan_setting, witness_settings, x_basis)
from qcert.certify import certified_dimension_from_witness, _ebits_from_b, _saturated_ebits
from qcert.errors import ComputationError
from qcert import counting, naming
from qcert.pipeline import PRESET_NAMES, SimulationConfig, build_settings, preset
from qcert.tomo import reconstruct, reconstruct_exact

from conftest import SATURATING_SEED, saturating_table


def uniform_rho(d, noise=0.0):
    return noisy_state(SourceConfig.uniform(d, noise_fraction=noise))


def spread_state(d, seed):
    """A diagonal source with seeded amplitude spread and phases, mixed with a
    seeded full-rank state so that every cross population is non-zero."""
    rng = np.random.default_rng(seed)
    amps = np.zeros(d * d, dtype=complex)
    amps[np.arange(d) * (d + 1)] = (rng.uniform(0.3, 1.0, d)
                                    * np.exp(2j * np.pi * rng.uniform(size=d)))
    psi = StateVector(d, d, amps).amplitudes
    g = rng.normal(size=(d * d, d * d)) + 1j * rng.normal(size=(d * d, d * d))
    mixed = g @ g.conj().T
    return DensityOperator(d, d, 0.8 * np.outer(psi, psi.conj())
                           + 0.2 * mixed / np.trace(mixed).real)


def kron_element(rho, space, bra, ket):
    """<bra|rho|ket> for product mode kets given as (signal, idler) labels,
    each built as one Kronecker product: the dense reference."""
    d = rho.dim_signal

    def product(m_s, m_i):
        return np.kron(mode_vector(space, m_s, d, side="signal"),
                       mode_vector(space, m_i, d, side="idler"))

    return complex(product(*bra).conj() @ rho.matrix @ product(*ket))


def vis_records(cpp, cmm, cpm, cmp_, setting="witX:0-1:x", trials=10**6):
    singles_s = {1: cpp + cpm + 50, -1: cmm + cmp_ + 50}
    singles_i = {1: cpp + cmp_ + 50, -1: cmm + cpm + 50}
    counts = {(1, 1): cpp, (-1, -1): cmm, (1, -1): cpm, (-1, 1): cmp_}
    return [
        CountRecord(setting=setting, outcome_s=a, outcome_i=b, coincidences=c,
                    singles_s=singles_s[a], singles_i=singles_i[b], trials=trials)
        for (a, b), c in counts.items()
    ]


class TestWitnessBound:
    def test_reference_table(self):
        assert [witness_bound(10, d) for d in range(1, 11)] == [
            45, 55, 65, 75, 85, 95, 105, 115, 125, 135
        ]

    def test_seven_mode_bound_value(self):
        assert witness_bound(10, 7) == 105

    def test_strictly_increasing_by_mode_count(self):
        for d in range(1, 10):
            assert witness_bound(10, d + 1) - witness_bound(10, d) == 10

    def test_out_of_range(self):
        with pytest.raises(ValidationError):
            witness_bound(10, 11)
        with pytest.raises(ValidationError):
            witness_bound(10, 0)


class TestCertifiedDimensionRule:
    @pytest.mark.parametrize(
        "total,err,expected",
        [
            (111.6, 0.8, 8),   # above f(7)=105 by more than one sigma
            (126.5, 1.0, 10),  # 125.5 > f(9)=125
            (125.5, 0.9, 9),   # 124.6 < f(9), > f(8)=115
            (135.0, 0.0, 10),
            (40.0, 1.0, 1),
        ],
    )
    def test_margin_rule(self, total, err, expected):
        assert certified_dimension_from_witness(total, err, 10) == expected


class TestVisibilityFromCounts:
    def test_perfect_correlation(self):
        vis = visibility_from_counts(vis_records(50, 50, 0, 0))
        assert vis.value == pytest.approx(1.0, abs=1e-12)

    def test_flat_counts(self):
        vis = visibility_from_counts(vis_records(25, 25, 25, 25))
        assert vis.value == pytest.approx(0.0, abs=1e-12)

    def test_reference_arithmetic(self):
        vis = visibility_from_counts(vis_records(40, 40, 10, 10))
        assert vis.value == pytest.approx(0.6, abs=1e-12)

    def test_zero_counts_flagged(self):
        vis = visibility_from_counts(vis_records(0, 0, 0, 0))
        assert vis.value == 0.0
        assert vis.status == "no-counts"

    def test_poisson_error(self):
        vis = visibility_from_counts(vis_records(40, 40, 10, 10))
        n1, n2, t = 80.0, 20.0, 100.0
        expected = math.sqrt((2 * n2 / t**2) ** 2 * 80 + (2 * n1 / t**2) ** 2 * 20)
        assert vis.std_error == pytest.approx(expected, abs=1e-12)

    def test_missing_cell_rejected(self):
        with pytest.raises(ValidationError):
            visibility_from_counts(vis_records(40, 40, 10, 10)[:3])


class TestWitnessExact:
    @pytest.mark.parametrize("space", ["X", "K"])
    def test_ideal_total_and_dimension(self, space):
        res = witness(uniform_rho(10), space=space)
        assert res.total == pytest.approx(135.0, abs=1e-9)
        assert res.certified_dimension == 10

    def test_schmidt_rank_soundness(self):
        # states with r populated modes never beat the rank-r ceiling
        for r in range(1, 11):
            coeffs = np.zeros(10, dtype=complex)
            coeffs[:r] = 1 / np.sqrt(r)
            rho = density_from_ket(ideal_state(SourceConfig(num_modes=10, coefficients=coeffs)))
            res = witness(rho, space="X")
            assert res.total <= witness_bound(10, r) + 1e-9

    def test_calibrated_noise_value(self):
        res = witness(uniform_rho(10, noise=0.5118110236220473), space="X")
        assert res.total == pytest.approx(111.6, abs=0.01)
        assert res.certified_dimension == 8

    def test_dark_pairs_flagged_not_excluded(self):
        coeffs = np.zeros(10, dtype=complex)
        coeffs[:2] = 1 / np.sqrt(2)
        rho = density_from_ket(ideal_state(SourceConfig(num_modes=10, coefficients=coeffs)))
        res = witness(rho, space="X")
        assert len(res.pair_visibilities) == 45
        assert res.pair_visibilities[(5, 6)].z.status == "no-counts"


class TestWitnessCounts:
    def simulate_pair_table(self, noise=0.0, trials=400_000, seed=0, pairs=None, d=3):
        cfg = SourceConfig.uniform(d, noise_fraction=noise)
        rho = noisy_state(cfg)
        params = CountingParams(P_S=0.006, eta_r=0.1, P_bg_idler=0.001)
        records = []
        pairs = pairs or [(j, k) for j in range(d) for k in range(j + 1, d)]
        for j, k in pairs:
            for ax in ("x", "y", "z"):
                records.extend(simulate_setting(
                    rho,
                    pair_basis("X", j, k, ax, d, side="signal"),
                    pair_basis("X", j, k, ax, d, side="idler"),
                    trials, params, seed,
                    setting_name=naming.witness_setting("X", j, k, ax),
                ))
        return CoincidenceTable(records=tuple(records), metadata={"D": d})

    def test_count_path_matches_exact_on_average(self):
        # corrected estimates from the mixed state itself converge to the
        # exact visibilities
        noise = 0.3
        exact = witness(uniform_rho(3, noise=noise), space="X").total
        totals, errs = [], []
        for seed in range(100):
            table = self.simulate_pair_table(noise=noise, trials=10**6, seed=seed)
            res = witness(table, space="X", corrected=True)
            totals.append(res.total)
            errs.append(res.total_err)
        sigma_mean = np.mean(errs) / math.sqrt(len(totals))
        assert abs(np.mean(totals) - exact) < 3 * sigma_mean

    def test_missing_pair_error_lists_pairs(self):
        table = self.simulate_pair_table(pairs=[(0, 1), (0, 2)])
        with pytest.raises(ValidationError, match=r"\(1, 2\)"):
            witness(table, space="X")


class TestEofExact:
    @pytest.mark.parametrize("d", range(2, 11))
    def test_ideal_reaches_log2_d(self, d):
        res = eof_bound(uniform_rho(d))
        assert res.coherence_sum == pytest.approx(math.sqrt(2 * (d - 1) / d), abs=1e-12)
        assert res.ebits == pytest.approx(math.log2(d), abs=1e-12)
        assert res.certified_dimension == d

    def test_single_pair_of_bell_state(self):
        res = eof_bound(uniform_rho(2), pair_set=[(0, 1)])
        assert res.coherence_sum == pytest.approx(1.0, abs=1e-10)
        assert res.ebits == pytest.approx(1.0, abs=1e-9)

    def test_growing_subset_curve_closed_form(self):
        res = eof_bound(uniform_rho(10))
        for n, b_n, _ in res.curve:
            assert b_n == pytest.approx(math.sqrt(2 * n * (n - 1)) / 10, abs=1e-10)
        assert res.curve[-1][0] == 10

    def test_monotone_under_added_pairs(self):
        rho = uniform_rho(6)
        pairs = [(j, k) for j in range(6) for k in range(j + 1, 6)]
        prev = -1.0
        for n in range(1, len(pairs) + 1):
            res = eof_bound(rho, pair_set=pairs[:n])
            # adding ideal pairs never decreases the bound
            assert res.ebits >= prev - 1e-12
            prev = res.ebits

    def test_k_space_matches_x_space_for_isotropic_noise(self):
        rho = uniform_rho(10, noise=0.2)
        ex = eof_bound(rho, space="X")
        ek = eof_bound(rho, space="K")
        assert ek.ebits == pytest.approx(ex.ebits, abs=1e-9)

    def test_classically_correlated_state_clamps_to_zero(self):
        # diagonal mixture with populations but no coherence
        d = 3
        mat = np.zeros((9, 9), dtype=complex)
        for j in range(3):
            mat[j * 3 + (j + 1) % 3, j * 3 + (j + 1) % 3] = 1 / 3
        res = eof_bound(DensityOperator(3, 3, mat))
        assert res.coherence_sum == 0.0
        assert res.ebits == 0.0
        assert res.certified_dimension == 1

    @pytest.mark.parametrize("space", ["X", "K"])
    @pytest.mark.parametrize("d", [2, 4, 7, 10])
    def test_terms_match_kronecker_reference(self, d, space):
        rho = spread_state(d, seed=d)
        res = eof_bound(rho, space=space)
        for j, k in res.pair_set:
            coherence = abs(kron_element(rho, space, (j, j), (k, k)))
            p_jk = kron_element(rho, space, (j, k), (j, k)).real
            p_kj = kron_element(rho, space, (k, j), (k, j)).real
            cross = math.sqrt(max(p_jk, 0.0) * max(p_kj, 0.0))
            assert cross > 0
            if space == "X":
                assert res.coherences[(j, k)] == coherence
                assert res.cross_terms[(j, k)] == cross
            else:
                assert res.coherences[(j, k)] == pytest.approx(coherence, abs=1e-12)
                assert res.cross_terms[(j, k)] == pytest.approx(cross, abs=1e-12)

    def test_impossible_coherence_sum_rejected(self):
        with pytest.raises(ComputationError):
            _ebits_from_b(1.5)


class TestEofSaturation:
    """At B >= B_cap = sqrt(2(1 - 1/m)), m the modes the pairs touch, the bound
    reads log2 m; B >= sqrt(2) is reported saturated, not refused."""

    @pytest.mark.parametrize("m", [2, 3, 10])
    def test_bound_caps_at_log2_m(self, m):
        b_cap = math.sqrt(2 * (1 - 1 / m))
        for b in (b_cap, 1.5):   # 1.5 > sqrt(2): saturated, never refused
            assert _saturated_ebits(b, m) == (math.log2(m), True)
        below = b_cap * (1 - 1e-9)
        assert _saturated_ebits(below, m) == (_ebits_from_b(below), False)

    def test_saturated_corrected_table(self):
        res = eof_bound(saturating_table(), corrected=True, seed=SATURATING_SEED)
        b_cap = math.sqrt(2 * (1 - 1 / 10))
        assert res.coherence_sum >= math.sqrt(2)
        assert res.saturated
        assert res.ebits == math.log2(10)
        assert res.certified_dimension == 10
        # the delta-method slope's left limit at B_cap, B_cap m / ln 2
        assert math.isfinite(res.ebits_err) and res.ebits_err > 0
        assert res.ebits_err == pytest.approx(
            b_cap * 10 / math.log(2) * res.coherence_sum_err, rel=1e-12)

    def test_curve_entries_cap_at_log2_n(self):
        res = eof_bound(saturating_table(), corrected=True, seed=SATURATING_SEED)
        for n, b_n, ebits in res.curve:
            assert 0 <= ebits <= math.log2(n)
            if b_n >= math.sqrt(2 * (1 - 1 / n)):
                assert ebits == math.log2(n)
            else:
                assert ebits == _ebits_from_b(b_n)
        assert res.curve[-1][1] >= math.sqrt(2)

    def test_pair_subset_caps_at_the_modes_it_touches(self):
        # perfect counts of a Bell pair on modes 0 and 1 of four: B = 1, which
        # is B_cap for the m = 2 modes the pair touches, not for D = 4
        settings = [scan_setting("X", 4), *witness_settings("X", 0, 1, 4)[:2]]
        table = CoincidenceTable(records=tuple(
            CountRecord(st.name, a, b, 100 * (a == b and a in (0, 1, -1)), 200, 200, 10**4)
            for st in settings for row in st.cells for a, b in row), metadata={"D": 4})
        res = eof_bound(table, pair_set=[(0, 1)], n_bootstrap=2)
        assert res.coherence_sum == 1.0
        assert res.saturated
        assert (res.ebits, res.certified_dimension) == (1.0, 2)

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_raw_bounds_never_saturate_on_the_presets(self, name):
        table = run_simulation(replace(preset(name), seed=7, bell_dimensions=()))
        res = eof_bound(table, seed=7)
        assert not res.saturated
        assert res.ebits < math.log2(10)

    def test_corrected_saturation_is_not_the_rule(self):
        # about 30% of corrected calibrated-witness tables saturate; an
        # estimator that saturates on every table shows here
        base = replace(preset("calibrated-witness"), spaces=("X",), bell_dimensions=())
        saturated = [eof_bound(run_simulation(replace(base, seed=seed)), corrected=True,
                               n_bootstrap=2, seed=seed).saturated for seed in range(1, 21)]
        assert sum(saturated) <= 10


class TestEofCounts:
    def build_table(self, noise, trials, seed, d=4):
        cfg = SourceConfig.uniform(d, noise_fraction=noise)
        rho = noisy_state(cfg)
        params = CountingParams(P_S=0.006, eta_r=0.1, P_bg_idler=0.0005)
        records = list(simulate_setting(
            rho, x_basis(d, "signal"), x_basis(d, "idler"), trials, params, seed,
            setting_name=naming.diag_setting("X")))
        for j in range(d):
            for k in range(j + 1, d):
                for ax in ("x", "y", "z"):
                    records.extend(simulate_setting(
                        rho,
                        pair_basis("X", j, k, ax, d, side="signal"),
                        pair_basis("X", j, k, ax, d, side="idler"),
                        trials, params, seed,
                        setting_name=naming.witness_setting("X", j, k, ax)))
        return CoincidenceTable(records=tuple(records), metadata={"D": d})

    def test_estimator_matches_direct_elements_for_real_coherences(self):
        # the witness-visibility reconstruction of |<jj|rho|kk>| is exact when
        # the pair coherence is real: check against the matrix elements using
        # exact weights and visibilities
        rho = uniform_rho(4, noise=0.35)
        direct = eof_bound(rho)
        wit = witness(rho, space="X")
        for (j, k), pv in wit.pair_visibilities.items():
            weight = restrict_to_pair(rho, j, k).weight
            estimate = weight * (pv.x.value + pv.y.value) / 4.0
            assert estimate == pytest.approx(direct.coherences[(j, k)], abs=1e-10)

    def test_estimator_is_safe_underestimate_with_phase(self):
        cfg = SourceConfig.uniform(2, phases=[0.0, np.radians(40.0)])
        rho = density_from_ket(ideal_state(cfg))
        direct = eof_bound(rho).coherences[(0, 1)]
        pv = witness(rho, space="X").pair_visibilities[(0, 1)]
        weight = restrict_to_pair(rho, 0, 1).weight
        estimate = weight * (pv.x.value + pv.y.value) / 4.0
        assert estimate < direct
        assert estimate == pytest.approx(direct * abs(np.cos(np.radians(40.0))), abs=1e-10)

    def test_count_path_converges_to_exact(self):
        noise = 0.2
        exact = eof_bound(uniform_rho(4, noise=noise)).ebits
        vals, errs = [], []
        for seed in range(40):
            table = self.build_table(noise, trials=2 * 10**6, seed=seed)
            res = eof_bound(table, corrected=True, n_bootstrap=25, seed=seed)
            vals.append(res.ebits)
            errs.append(res.ebits_err)
        sigma_mean = np.mean(errs) / math.sqrt(len(vals))
        assert abs(np.mean(vals) - exact) < 4 * sigma_mean

    @pytest.mark.parametrize("path", ["exact", "counts"])
    def test_descending_pair_matches_ascending(self, path):
        # tables hold witX:1-3 only; (3, 1) must read it with both +-1 labels
        # swapped, which leaves every term unchanged
        data = spread_state(4, seed=5) if path == "exact" else self.build_table(0.2, 10**5, 1)
        down = eof_bound(data, pair_set=[(3, 1)], n_bootstrap=5, seed=2)
        up = eof_bound(data, pair_set=[(1, 3)], n_bootstrap=5, seed=2)
        assert down.pair_set == ((3, 1),)
        assert down.coherences[(3, 1)] == pytest.approx(up.coherences[(1, 3)], abs=1e-15)
        assert down.cross_terms[(3, 1)] == pytest.approx(up.cross_terms[(1, 3)], abs=1e-15)
        assert (down.coherence_sum, down.coherence_sum_err) == pytest.approx(
            (up.coherence_sum, up.coherence_sum_err), abs=1e-15)

    def test_bootstrap_errors_positive(self):
        table = self.build_table(0.2, trials=10**6, seed=1)
        res = eof_bound(table, corrected=False, n_bootstrap=20, seed=5)
        assert res.ebits_err > 0
        assert res.coherence_sum_err > 0

    @pytest.mark.parametrize("n_bootstrap", [0, 1])
    def test_fewer_than_two_replicas_rejected(self, n_bootstrap):
        table = self.build_table(0.2, trials=10**5, seed=1)
        with pytest.raises(ValidationError, match="at least 2"):
            eof_bound(table, n_bootstrap=n_bootstrap)

    def test_error_is_nan_when_no_replica_survives(self, monkeypatch):
        # replicas without counts refuse the bound; the error must not read 0
        def empty_replicas(table, seed, n_replicas):
            counts = np.zeros((4, n_replicas, len(table.records)), dtype=np.int64)
            counts[3] = table.counts[3]   # every count zero, trials kept
            yield counts

        table = self.build_table(0.2, trials=10**6, seed=1)
        monkeypatch.setattr(counting, "_replica_blocks", empty_replicas)
        res = eof_bound(table, n_bootstrap=5, seed=5)
        assert res.ebits > 0
        assert math.isnan(res.coherence_sum_err)
        assert math.isnan(res.ebits_err)


class TestEofValidation:
    @pytest.fixture(scope="class", params=["exact", "counts"])
    def ten_mode_data(self, request):
        rho = uniform_rho(10, noise=0.2)
        if request.param == "exact":
            return rho
        cfg = SimulationConfig(source=SourceConfig.uniform(10, noise_fraction=0.2),
                               trials_per_setting=10**5, spaces=("X",), bell_dimensions=())
        return run_simulation(cfg)

    @pytest.mark.parametrize("kwargs", [
        {"pair_set": [(0, 12)]},
        {"pair_set": [(0, 10)]},
        {"pair_set": [(-1, 2)]},
        {"pair_set": [(3, 3)]},
        {"pair_set": [(0, 1), (3, 3)]},
        {"num_modes": 12},
        {"num_modes": 11},
    ])
    def test_bad_pairs_and_mode_counts_rejected(self, ten_mode_data, kwargs):
        with pytest.raises(ValidationError):
            eof_bound(ten_mode_data, n_bootstrap=2, **kwargs)

    def test_edge_pair_accepted(self, ten_mode_data):
        res = eof_bound(ten_mode_data, pair_set=[(0, 9)], n_bootstrap=2)
        assert res.pair_set == ((0, 9),)
        assert res.coherence_sum > 0


class TestTableWithoutModeCount:
    @pytest.fixture(scope="class")
    def tables(self):
        cfg = SimulationConfig(source=SourceConfig.uniform(4, noise_fraction=0.2),
                               trials_per_setting=10**5, spaces=("X",), bell_dimensions=(),
                               tomo_pair=(0, 1))
        table = run_simulation(cfg)
        return table, CoincidenceTable(records=table.records, metadata={})

    def test_witness_and_eof_refuse_alike(self, tables):
        messages = []
        for estimator in (witness, eof_bound):
            with pytest.raises(ValidationError, match="num_modes required") as info:
                estimator(tables[1])
            messages.append(str(info.value))
        assert messages[0] == messages[1]

    def test_num_modes_stands_in_for_d(self, tables):
        with_d, without_d = tables
        assert witness(without_d, num_modes=4) == witness(with_d)
        assert eof_bound(without_d, num_modes=4, n_bootstrap=5) == eof_bound(
            with_d, n_bootstrap=5)


class TestSharedCellReader:
    """Exact and count paths read every setting's cells in the same label order."""

    N = 10**12

    @pytest.fixture(scope="class", params=[4, 10])
    def paths(self, request):
        d = request.param
        rng = np.random.default_rng(d)
        amps = SourceConfig.with_amplitude_spread(d, 0.3, seed=d).coefficients
        source = SourceConfig(num_modes=d, coefficients=amps,
                              phase_mismatch=rng.uniform(-np.pi, np.pi, d),
                              noise_fraction=0.2)
        rho = noisy_state(source)
        cfg = SimulationConfig(source=source, bell_dimensions=tuple(range(2, d + 1)),
                               tomo_pair=(1, d - 1))
        records = []
        for st in build_settings(cfg):
            counts = np.rint(self.N * joint_probability_table(rho, st.basis_s, st.basis_i))
            rows, cols = counts.sum(axis=1), counts.sum(axis=0)
            for a, lab_a in enumerate(st.basis_s.labels):
                for b, lab_b in enumerate(st.basis_i.labels):
                    records.append(CountRecord(
                        setting=st.name, outcome_s=int(lab_a), outcome_i=int(lab_b),
                        coincidences=int(counts[a, b]), singles_s=int(rows[a]),
                        singles_i=int(cols[b]), trials=self.N))
        # table order must not matter: the reader looks cells up by label
        order = rng.permutation(len(records))
        table = CoincidenceTable(records=tuple(records[i] for i in order),
                                 metadata={"D": d})
        return d, rho, table

    @pytest.mark.parametrize("space", ["X", "K"])
    def test_witness(self, paths, space):
        _, rho, table = paths
        exact = witness(rho, space=space)
        counted = witness(table, space=space)
        # the total sums 3 visibilities per pair, each held to 1e-9
        assert counted.total == pytest.approx(
            exact.total, abs=1e-9 * 3 * len(exact.pair_visibilities))
        for pair, pv in exact.pair_visibilities.items():
            for axis in ("x", "y", "z"):
                assert counted.pair_visibilities[pair].axis(axis).value == pytest.approx(
                    pv.axis(axis).value, abs=1e-9)

    def test_cglmp(self, paths):
        d, rho, table = paths
        for dim in range(2, d + 1):
            exact, counted = cglmp(rho, dim), cglmp(table, dim)
            assert counted.bell_parameter == pytest.approx(exact.bell_parameter, abs=1e-9)
            for key, probs in exact.tables.items():
                np.testing.assert_allclose(counted.tables[key], probs, atol=1e-9)

    def test_tomography(self, paths):
        # the noisy state is full rank, so the physical projection leaves the
        # linear inversion of the 36 cells untouched: any cell read under the
        # wrong label moves the reconstructed matrix
        d, rho, table = paths
        exact = reconstruct_exact(rho, 1, d - 1)
        counted = reconstruct(table, (1, d - 1), n_bootstrap=2)
        assert np.linalg.eigvalsh(exact.operator.matrix).min() > 1e-3
        np.testing.assert_allclose(counted.operator.matrix, exact.operator.matrix, atol=1e-9)
        assert counted.relative_phase_deg == pytest.approx(exact.relative_phase_deg, abs=1e-6)


class TestCglmpWeights:
    def test_one_read_only_array_per_dimension(self):
        w = cglmp_weights(5)
        assert cglmp_weights(5) is w
        assert not w.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            w[0, 0, 0, 0] = 1.0
        assert cglmp_weights(4) is not w

    @pytest.mark.parametrize("d", [2, 3, 5, 8])
    def test_deterministic_local_bound_is_two(self, d):
        w = cglmp_weights(d)
        best = -np.inf
        for sa0 in range(d):
            for sa1 in range(d):
                for ib0 in range(d):
                    for ib1 in range(d):
                        val = (w[0, 0, sa0, ib0] + w[1, 0, sa1, ib0]
                               + w[0, 1, sa0, ib1] + w[1, 1, sa1, ib1])
                        best = max(best, val)
        assert best == pytest.approx(2.0, abs=1e-12)


class TestCglmpExact:
    def test_bell_state_reaches_tsirelson_value(self):
        res = cglmp(uniform_rho(2), 2)
        assert res.bell_parameter == pytest.approx(2 * math.sqrt(2), abs=1e-9)

    @pytest.mark.parametrize("d", range(2, 11))
    def test_maximally_mixed_gives_zero(self, d):
        rho = DensityOperator(10, 10, np.eye(100) / 100)
        res = cglmp(rho, d)
        assert res.bell_parameter == pytest.approx(0.0, abs=1e-12)

    def test_known_ideal_sequence(self):
        # reference values for maximally entangled states (higher-d optima
        # computed once with the exact probability tables)
        expected = {3: 2.87293, 4: 2.89624, 6: 2.92020, 10: 2.93980}
        for d, val in expected.items():
            res = cglmp(uniform_rho(d), d)
            assert res.bell_parameter == pytest.approx(val, abs=5e-6)

    def test_affine_in_the_state(self):
        d = 4
        a = uniform_rho(d)
        b = DensityOperator(d, d, np.eye(d * d) / (d * d))
        lam = 0.3
        mix = DensityOperator(d, d, lam * a.matrix + (1 - lam) * b.matrix)
        s_mix = cglmp(mix, d).bell_parameter
        s_lin = lam * cglmp(a, d).bell_parameter + (1 - lam) * cglmp(b, d).bell_parameter
        assert s_mix == pytest.approx(s_lin, abs=1e-9)

    def test_white_noise_scaling_and_threshold(self):
        # S(p) = (1-p) S(0) on the d-mode source, so violation stops at
        # p* = 1 - 2/S(0); verify with a bisection oracle
        d = 5
        s0 = cglmp(uniform_rho(d), d).bell_parameter
        for p in (0.1, 0.25):
            s = cglmp(uniform_rho(d, noise=p), d).bell_parameter
            assert s == pytest.approx((1 - p) * s0, abs=1e-9)
        lo, hi = 0.0, 1.0
        for _ in range(60):
            mid = (lo + hi) / 2
            if cglmp(uniform_rho(d, noise=mid), d).bell_parameter > 2.0:
                lo = mid
            else:
                hi = mid
        assert (lo + hi) / 2 == pytest.approx(1 - 2 / s0, abs=1e-9)

    def test_product_states_respect_local_bound(self):
        rng = np.random.default_rng(17)
        for d in (2, 5, 9):
            for _ in range(50):
                u = rng.normal(size=d) + 1j * rng.normal(size=d)
                v = rng.normal(size=d) + 1j * rng.normal(size=d)
                ket = StateVector(d, d, np.outer(u, v).flatten())
                res = cglmp(density_from_ket(ket), d)
                assert res.bell_parameter <= 2.0 + 1e-9

    @settings(deadline=None, max_examples=40)
    @given(strategies.integers(2, 6), strategies.integers(0, 2**32 - 1), strategies.booleans())
    def test_product_states_respect_local_bound_in_every_dimension(self, dim, seed, mixed):
        rng = np.random.default_rng(seed)

        def local_state():
            g = rng.normal(size=(dim, dim if mixed else 1)) + 1j * rng.normal(
                size=(dim, dim if mixed else 1))
            m = g @ g.conj().T
            return m / np.trace(m).real

        rho = DensityOperator(dim, dim, np.kron(local_state(), local_state()))
        for d in range(2, dim + 1):
            assert cglmp(rho, d).bell_parameter <= 2.0 + 1e-12

    def test_embedded_measurement_dilutes_with_dimension(self):
        # measuring d of 10 modes: isotropic noise occupies d^2 cells while
        # the source only d, so the violation shrinks as d grows
        p = 0.41690962099125367
        rho = uniform_rho(10, noise=p)
        s0 = {d: cglmp(uniform_rho(d), d).bell_parameter for d in (2, 6, 7)}
        for d in (2, 6, 7):
            got = cglmp(rho, d).bell_parameter
            predicted = s0[d] * (1 - p) / ((1 - p) + p * d / 10)
            assert got == pytest.approx(predicted, abs=1e-9)


class TestCglmpCounts:
    def build_table(self, d, noise, trials, seed, embed=10):
        cfg = SourceConfig.uniform(embed, noise_fraction=noise)
        rho = noisy_state(cfg)
        params = CountingParams(P_S=0.006, eta_r=0.1, P_bg_idler=0.0005)
        records = []
        for s in (0, 1):
            for i in (0, 1):
                records.extend(simulate_setting(
                    rho,
                    cglmp_basis("signal", s, d, embed_dim=embed),
                    cglmp_basis("idler", i, d, embed_dim=embed),
                    trials, params, seed,
                    setting_name=naming.bell_setting(d, s, i)))
        return CoincidenceTable(records=tuple(records), metadata={"D": embed})

    def test_converges_to_exact_over_seeds(self):
        d, noise = 3, 0.2
        exact = cglmp(uniform_rho(10, noise=noise), d).bell_parameter
        vals, errs = [], []
        for seed in range(100):
            table = self.build_table(d, noise, trials=10**6, seed=seed)
            res = cglmp(table, d, corrected=True)
            vals.append(res.bell_parameter)
            errs.append(res.bell_parameter_err)
        sigma_mean = np.mean(errs) / math.sqrt(len(vals))
        assert abs(np.mean(vals) - exact) < 3 * sigma_mean

    def test_reported_error_matches_scatter(self):
        d = 2
        vals, errs = [], []
        for seed in range(60):
            table = self.build_table(d, 0.1, trials=10**6, seed=seed)
            res = cglmp(table, d)
            vals.append(res.bell_parameter)
            errs.append(res.bell_parameter_err)
        assert np.mean(errs) == pytest.approx(np.std(vals), rel=0.35)

    def test_missing_setting_named(self):
        table = self.build_table(3, 0.0, trials=10**5, seed=0)
        partial = CoincidenceTable(
            records=tuple(r for r in table.records if r.setting != "bell:d3:s1i0"),
            metadata=table.metadata,
        )
        with pytest.raises(ValidationError, match="bell:d3:s1i0"):
            cglmp(partial, 3)


class TestViolationCurve:
    def test_exact_noise_free_violates_everywhere(self):
        points = violation_curve(SourceConfig.uniform(10), range(2, 11), path="exact")
        assert all(p.violated for p in points)
        assert all(p.bell_parameter > 2.8 for p in points)

    def test_sampled_emits_both_variants(self):
        cfg = SourceConfig.uniform(10, noise_fraction=0.41690962099125367)
        points = violation_curve(cfg, [2, 6, 7], path="sampled",
                                 params=CountingParams(P_S=0.006, eta_r=0.1),
                                 trials=5_000_000, seed=3)
        variants = {(p.d, p.variant) for p in points}
        assert variants == {(2, "raw"), (2, "corrected"), (6, "raw"), (6, "corrected"),
                            (7, "raw"), (7, "corrected")}

    @pytest.mark.parametrize("channel", ["counting", "state"])
    def test_sampled_points_match_simulated_bell_cells(self, channel):
        cfg = SimulationConfig(
            source=SourceConfig.uniform(4, noise_fraction=0.3),
            counting=CountingParams(P_S=0.006, eta_r=0.1, P_bg_idler=0.0005),
            trials_per_setting=300_000, seed=17, spaces=(), bell_dimensions=(2, 3, 4),
            tomo_pair=(0, 1), noise_channel=channel,
        )
        table = run_simulation(cfg)
        points = violation_curve(cfg.source, cfg.bell_dimensions, path="sampled",
                                 params=cfg.counting, trials=cfg.trials_per_setting,
                                 seed=cfg.seed, noise_channel=channel)
        assert len(points) == 6
        for p in points:
            res = cglmp(table, p.d, corrected=p.variant == "corrected")
            assert (p.bell_parameter, p.bell_parameter_err, p.violated) == (
                res.bell_parameter, res.bell_parameter_err, res.violated)

    def test_bad_range_rejected(self):
        with pytest.raises(ValidationError):
            violation_curve(SourceConfig.uniform(4), [2, 7], path="exact")
        with pytest.raises(ValidationError):
            violation_curve(SourceConfig.uniform(4), [], path="exact")
        with pytest.raises(ValidationError):
            violation_curve(SourceConfig.uniform(4), [2, 3], path="sampled")
