import hashlib
import json
import math
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose

from qcert import (
    CoincidenceTable,
    CountingParams,
    CountRecord,
    DensityOperator,
    SourceConfig,
    ValidationError,
    bootstrap_table,
    cglmp,
    density_from_ket,
    eof_bound,
    ideal_state,
    k_basis,
    load_table,
    noisy_state,
    outcome_probabilities,
    pair_basis,
    reconstruct,
    save_table,
    setting_means,
    simulate_setting,
    witness,
    with_accidental_noise,
    x_basis,
)
from qcert import bases, counting, pipeline
from qcert.bases import MAX_MODES, MeasurementBasis, PlannedSetting, scan_setting
from qcert.files import CSV_HEADER
from qcert.linalg import marginal_probabilities
from qcert.counting import (
    _key_word,
    _stream,
    bootstrap_std,
    cell_estimates,
    plan_means,
)
from qcert.pipeline import SimulationConfig

from conftest import (einsum_marginals, einsum_table, oracle_bases, oracle_bootstrap,
                      oracle_cells, oracle_means, oracle_replica_stream, oracle_simulate,
                      oracle_states, oracle_stream)


def rho2():
    return density_from_ket(ideal_state(SourceConfig.uniform(2)))


def full_bases(d=2):
    return x_basis(d, side="signal"), x_basis(d, side="idler")


def make_record(c, s, i, n=100000, setting="t", out=(1, 1)):
    return CountRecord(setting=setting, outcome_s=out[0], outcome_i=out[1],
                       coincidences=c, singles_s=s, singles_i=i, trials=n)


class TestCountingParams:
    def test_idler_probability_composition(self):
        p = CountingParams(P_S=0.006, eta_r=0.1, P_bg_idler=0.0014)
        assert p.P_I == pytest.approx(0.1 * 0.006 + 0.0014, abs=1e-15)

    def test_range_validation(self):
        with pytest.raises(ValidationError):
            CountingParams(P_S=-0.1)
        with pytest.raises(ValidationError):
            CountingParams(eta_r=0.9, P_bg_idler=0.2)

    def test_accidental_noise_mapping(self):
        base = CountingParams(P_S=0.006, eta_r=0.1, P_bg_idler=0.0)
        mapped = with_accidental_noise(base, 0.5)
        assert mapped.P_I / mapped.eta_r == pytest.approx(0.5 / 0.5 + 0.006, abs=1e-12)

    def test_accidental_mapping_rejects_full_noise(self):
        with pytest.raises(ValidationError):
            with_accidental_noise(CountingParams(), 1.0)


class TestSettingMeans:
    def test_total_coincidence_rate_arithmetic(self):
        # eta_r P_S + P_S P_I with P_I = 0.002 at N = 1e6 gives 612 expected counts
        params = CountingParams(P_S=0.006, eta_r=0.1, P_bg_idler=0.002 - 0.1 * 0.006)
        assert params.P_I == pytest.approx(0.002, abs=1e-15)
        means = setting_means(rho2(), *full_bases(), trials=10**6, params=params)
        assert means.coincidences.sum() == pytest.approx(612.0, abs=1e-9)

    def test_no_retrieval_leaves_accidentals_only(self):
        params = CountingParams(P_S=0.01, eta_r=0.0, P_bg_idler=0.004)
        means = setting_means(rho2(), *full_bases(), trials=10**6, params=params)
        # flat product background: N * P_S * P(a) * P_I * Q(b)
        expected = 10**6 * 0.01 * 0.004 * np.outer([0.5, 0.5], [0.5, 0.5])
        assert_allclose(means.coincidences, expected, atol=1e-9)

    def test_singles_are_marginal_rates(self):
        params = CountingParams(P_S=0.006, eta_r=0.1, P_bg_idler=0.001)
        means = setting_means(rho2(), *full_bases(), trials=10**6, params=params)
        assert_allclose(means.singles_s, 10**6 * 0.006 * np.array([0.5, 0.5]), atol=1e-9)
        assert_allclose(means.singles_i, 10**6 * params.P_I * np.array([0.5, 0.5]), atol=1e-9)

    def test_accidentals_match_isotropic_state_noise(self):
        # raw count means from pure state + mapped accidentals are proportional
        # to the exact probabilities of the isotropic mixed state
        p = 0.37
        cfg = SourceConfig.uniform(10)
        basis_s = pair_basis("X", 1, 6, "x", 10, side="signal")
        basis_i = pair_basis("X", 1, 6, "x", 10, side="idler")
        # pick the background so the total is exactly P_I = eta_r * p / (1 - p)
        mapped = CountingParams(P_S=0.006, eta_r=0.1,
                                P_bg_idler=0.1 * (p / (1 - p) - 0.006))
        assert mapped.P_I / mapped.eta_r == pytest.approx(p / (1 - p), abs=1e-15)
        means = setting_means(density_from_ket(ideal_state(cfg)), basis_s, basis_i,
                              trials=10**6, params=mapped)
        exact = outcome_probabilities(noisy_state(cfg.with_noise(p)), basis_s.vector_matrix,
                                      basis_i.vector_matrix)
        ratio = means.coincidences / exact
        assert np.max(ratio) / np.min(ratio) == pytest.approx(1.0, abs=1e-9)

    def test_probability_overflow_rejected(self):
        # a fake basis with duplicated outcome vectors breaks completeness
        bad = MeasurementBasis(name="dup", side="signal", labels=(0, 1),
                               vector_matrix=x_basis(2).vector_matrix)
        good = x_basis(2, side="idler")
        rng_state = np.eye(4) / 4.0
        from qcert import DensityOperator

        rho = DensityOperator(2, 2, rng_state)
        means = setting_means(rho, bad, good, 100, CountingParams())
        assert means.coincidences.sum() <= 100  # sanity: completeness holds here


class TestSettingMeansOracle:
    @pytest.mark.parametrize("d_s, d_i", [(2, 2), (3, 3), (7, 7), (10, 10), (3, 2)])
    def test_means_match_planned_einsum(self, d_s, d_i):
        params = CountingParams(P_S=0.006, eta_r=0.1, P_bg_idler=0.0014)
        n = 10**6
        for rho in oracle_states(d_s, d_i, seed=300 + d_s * d_i):
            for basis_s, basis_i in oracle_bases(d_s, d_i, seed=400 + d_s * d_i):
                v_s, v_i = basis_s.vector_matrix, basis_i.vector_matrix
                means = setting_means(rho, basis_s, basis_i, n, params)
                marg_s, marg_i = einsum_marginals(rho, v_s, v_i)
                expected = (n * params.P_S * params.eta_r * einsum_table(rho, v_s, v_i)
                            + n * params.P_S * params.P_I * np.outer(marg_s, marg_i))
                # means reach 6e3 counts here: 1e-12 relative to the trial count
                assert_allclose(means.coincidences, expected, rtol=0, atol=1e-12 * n)
                assert_allclose(means.singles_s, n * params.P_S * marg_s, rtol=0,
                                atol=1e-12 * n)
                assert_allclose(means.singles_i, n * params.P_I * marg_i, rtol=0,
                                atol=1e-12 * n)
                # the weight lost to the no-click outcome, from each side's marginals
                for basis, marg in ((basis_s, marg_s), (basis_i, marg_i)):
                    lost = 1.0 - marginal_probabilities(rho, basis.vector_matrix, basis.side).sum()
                    assert lost == pytest.approx(1.0 - marg.sum(), abs=1e-12)


class TestPlanMeans:
    @pytest.mark.parametrize("d", range(2, MAX_MODES + 1))
    def test_blocked_plan_means_are_the_per_setting_means_bit_for_bit(self, d, monkeypatch):
        # the oracle bases and a full plan at D = d: every cell shape, blocks
        # of 2 x 2 settings, and blocks of one, of the default size and whole
        params = CountingParams(P_S=0.006, eta_r=0.1, P_bg_idler=0.0014)
        n = 10**6
        cfg = SimulationConfig(source=SourceConfig.uniform(d),
                               bell_dimensions=tuple(range(2, d + 1)), tomo_pair=(0, d - 1))
        plan = [PlannedSetting(f"oracle{k}", b_s, b_i)
                for k, (b_s, b_i) in enumerate(oracle_bases(d, d, seed=500 + d))]
        plan += pipeline.build_settings(cfg)
        for rho in oracle_states(d, d, seed=600 + d):
            expected = [oracle_means(rho, st.basis_s, st.basis_i, n, params) for st in plan]
            for st, ref in zip(plan, expected):
                one = setting_means(rho, st.basis_s, st.basis_i, n, params)
                assert all(np.array_equal(got, want) for got, want in
                           zip((one.coincidences, one.singles_s, one.singles_i), ref))
            for rows in (1, counting._TABLE_ROWS, 10**6):
                monkeypatch.setattr(counting, "_TABLE_ROWS", rows)
                seen = []
                for idx, lam, singles_s, singles_i in counting._mean_blocks(
                        rho, [(st.basis_s, st.basis_i) for st in plan], n, params):
                    assert lam.shape[0] * lam.shape[1] * lam.shape[2] <= max(rows, lam[0].size)
                    for r, k in enumerate(idx):
                        seen.append(k)
                        assert all(np.array_equal(got, want) for got, want in
                                   zip((lam[r], singles_s[r], singles_i[r]), expected[k]))
                assert sorted(seen) == list(range(len(plan)))

    @pytest.mark.parametrize("name", pipeline.PRESET_NAMES)
    def test_row_keys_are_the_plan_cells_in_plan_order(self, name):
        cfg = pipeline.preset(name)
        plan = pipeline.build_settings(cfg)
        means = plan_means(pipeline.sampling_state(cfg), plan, cfg.trials_per_setting,
                           pipeline.effective_params(cfg))
        assert means.row_keys.keys == tuple((st.name, a, b) for st in plan
                                            for row in st.cells for a, b in row)

    def test_probability_sums_are_checked_per_setting(self):
        # an unnormalized state (trace 1.5 on |00> and |11>) that only one
        # setting of a block of two sees in full
        rho = object.__new__(DensityOperator)
        rho.dim_signal = rho.dim_idler = 3
        rho.matrix = np.diag([0.75, 0, 0, 0, 0.75, 0, 0, 0, 0]).astype(complex)

        def modes(side, *labels):
            return MeasurementBasis(f"m{labels}", side, labels, np.eye(3)[list(labels)])

        fine = PlannedSetting("fine", modes("signal", 0, 2), modes("idler", 0, 2))
        full = PlannedSetting("full", modes("signal", 0, 1), modes("idler", 0, 1))
        assert setting_means(rho, fine.basis_s, fine.basis_i, 100, CountingParams())
        with pytest.raises(ValidationError, match="joint probability table sums to 1.5"):
            plan_means(rho, [fine, full], 100, CountingParams())


    def test_bases_of_another_dimension_rejected(self):
        plan = [PlannedSetting("two", *full_bases(2)), PlannedSetting("three", *full_bases(3))]
        with pytest.raises(ValidationError, match="do not match the state dimensions"):
            plan_means(rho2(), plan, 100, CountingParams())


class TestStackedExactCells:
    @pytest.mark.parametrize("d", range(2, MAX_MODES + 1))
    def test_every_plan_family_equals_the_per_setting_tables(self, d, monkeypatch):
        families = [[st for j in range(d) for k in range(j + 1, d)
                     for st in bases.witness_settings(space, j, k, d)] for space in "XK"]
        families += [[scan_setting(space, d)] for space in "XK"]
        families += [bases.bell_settings(b, d) for b in range(2, d + 1)]
        families += [bases.tomo_settings(0, d - 1, space, d) for space in "XK"]
        rows = []
        original = counting.linalg.outcome_probabilities

        def counted(rho, kets_s, kets_i):
            rows.append(len(kets_s) * kets_s.shape[1] * kets_i.shape[1])
            return original(rho, kets_s, kets_i)

        monkeypatch.setattr(counting.linalg, "outcome_probabilities", counted)
        for rho in oracle_states(d, d, seed=700 + d):
            for settings in families:
                rows.clear()
                values, variances = counting.setting_cells(rho, settings)
                assert_allclose(values, oracle_cells(rho, settings), rtol=0, atol=1e-12)
                assert not variances.any()
                # one product per block of at most _TABLE_ROWS product-ket rows
                cells = values[0].size
                assert len(rows) == -(-len(settings) // (counting._TABLE_ROWS // cells))
                assert sum(rows) == values.size and max(rows) <= counting._TABLE_ROWS

    def test_no_settings_give_empty_cells(self):
        rho = noisy_state(SourceConfig.uniform(4).with_noise(0.1))
        values, variances = counting.setting_cells(rho, [])
        assert values.shape == variances.shape == (0,)

    def test_mixed_cell_shapes_are_one_validation_error(self):
        cfg = SimulationConfig(source=SourceConfig.uniform(4), trials_per_setting=1000,
                               spaces=("X",), bell_dimensions=(3,), tomo_pair=(0, 1))
        mixed = [bases.witness_settings("X", 0, 1, 4)[0], bases.bell_settings(3, 4)[0]]
        for data in (noisy_state(cfg.source), pipeline.run_simulation(cfg)):
            with pytest.raises(ValidationError,
                               match=r"one cell shape, got \[\(2, 2\), \(3, 3\)\]"):
                counting.setting_cells(data, mixed)


class TestNoPlannedEinsum:
    def test_exact_witness_and_k_scan_simulation_never_plan(self, monkeypatch):
        optimize_args = []
        original = np.einsum

        def guarded(*operands, **kwargs):
            optimize_args.append(kwargs.get("optimize", False))
            return original(*operands, **kwargs)

        monkeypatch.setattr(np, "einsum", guarded)
        rho = noisy_state(SourceConfig.uniform(10).with_noise(0.2))
        witness(rho, space="K")
        scan = scan_setting("K", 10)
        simulate_setting(rho, scan.basis_s, scan.basis_i, 10**5, CountingParams(), seed=3,
                         setting_name=scan.name)
        assert optimize_args, "no einsum call was observed"
        assert not any(optimize_args)


class TestSimulateSetting:
    def test_same_seed_reproduces(self):
        params = CountingParams(P_S=0.01, eta_r=0.2, P_bg_idler=0.001)
        a = simulate_setting(rho2(), *full_bases(), 10**6, params, seed=5, setting_name="s")
        b = simulate_setting(rho2(), *full_bases(), 10**6, params, seed=5, setting_name="s")
        assert a == b
        c = simulate_setting(rho2(), *full_bases(), 10**6, params, seed=6, setting_name="s")
        assert a != c

    def test_outcome_keyed_streams_relabel_invariant(self):
        # reversing the outcome order must not change any labeled count
        params = CountingParams(P_S=0.01, eta_r=0.2, P_bg_idler=0.001)
        b_s, b_i = full_bases()
        rev_i = MeasurementBasis(b_i.name, "idler", b_i.labels[::-1], b_i.vector_matrix[::-1])
        fwd = simulate_setting(rho2(), b_s, b_i, 10**6, params, seed=9, setting_name="s")
        rev = simulate_setting(rho2(), b_s, rev_i, 10**6, params, seed=9, setting_name="s")
        assert {r.key: r for r in fwd} == {r.key: r for r in rev}

    def test_coincidences_bounded_by_singles(self):
        params = CountingParams(P_S=0.05, eta_r=0.5, P_bg_idler=0.01)
        for seed in range(20):
            recs = simulate_setting(rho2(), *full_bases(), 10**5, params, seed=seed)
            for r in recs:
                assert r.coincidences <= min(r.singles_s, r.singles_i)

    def test_expectation_consistency_over_seeds(self):
        # invariant: 1000-seed average of total coincidences within
        # 3 sigma / sqrt(1000) of the analytic mean, across a parameter grid
        grid = [
            CountingParams(P_S=0.006, eta_r=0.1, P_bg_idler=0.002),
            CountingParams(P_S=0.02, eta_r=0.3, P_bg_idler=0.0),
            CountingParams(P_S=0.006, eta_r=0.0, P_bg_idler=0.005),
        ]
        noises = [0.0, 0.4, 0.0]
        for params, p in zip(grid, noises):
            rho = noisy_state(SourceConfig.uniform(2, noise_fraction=p))
            means = setting_means(rho, *full_bases(), trials=10**5, params=params)
            lam = means.coincidences.sum()
            totals = []
            for seed in range(1000):
                recs = simulate_setting(rho, *full_bases(), 10**5, params, seed=seed)
                totals.append(sum(r.coincidences for r in recs))
            tol = 3 * np.sqrt(lam) / np.sqrt(1000)
            assert abs(np.mean(totals) - lam) < tol

    def test_trials_validated(self):
        with pytest.raises(ValidationError):
            simulate_setting(rho2(), *full_bases(), 0, CountingParams(), seed=1)


def subtract_accidentals(rec):
    """One record's accidental-subtracted coincidences and standard error,
    read through ``cell_estimates``."""
    value, var = cell_estimates([rec.coincidences, rec.singles_s, rec.singles_i, rec.trials],
                                corrected=True)
    return float(value), math.sqrt(var)


class TestSubtractAccidentals:
    def test_reference_arithmetic(self):
        value, _ = subtract_accidentals(make_record(20, 600, 300, n=10**5))
        assert value == pytest.approx(18.2, abs=1e-12)

    def test_zero_singles_leave_count_unchanged(self):
        # a zero singles count forces zero coincidences and a zero correction
        assert subtract_accidentals(make_record(0, 0, 300, n=1000)) == (0.0, 0.0)

    def test_error_propagation_formula(self):
        rec = make_record(20, 600, 300, n=10**5)
        acc = 600 * 300 / 10**5
        expected = np.sqrt(20 + acc**2 * (1 / 600 + 1 / 300))
        assert subtract_accidentals(rec)[1] == pytest.approx(expected, abs=1e-12)

    def test_negative_corrections_kept(self):
        assert subtract_accidentals(make_record(1, 900, 900, n=10**4))[0] < 0

    def test_pure_accidental_mean_consistent_with_zero(self):
        # no retrieval: corrected counts scatter around zero
        params = CountingParams(P_S=0.01, eta_r=0.0, P_bg_idler=0.004)
        vals, variances = [], []
        for seed in range(300):
            recs = simulate_setting(rho2(), *full_bases(), 10**6, params, seed=seed)
            value, var = cell_estimates(CoincidenceTable(records=recs).counts, corrected=True)
            vals.append(value.sum())
            variances.append(var.sum())
        sigma_mean = np.sqrt(np.mean(variances) / len(vals))
        assert abs(np.mean(vals)) < 3 * sigma_mean

    def test_estimate_selects_raw_or_subtracted(self):
        recs = [make_record(20, 600, 300, n=10**5), make_record(0, 0, 300, n=1000),
                make_record(1, 900, 900, n=10**4)]
        counts = np.array([[r.coincidences, r.singles_s, r.singles_i, r.trials]
                           for r in recs]).T
        value, var = cell_estimates(counts, corrected=True)
        for rec, v, e in zip(recs, value, var):
            assert (v, math.sqrt(e)) == subtract_accidentals(rec)
        raw, raw_var = cell_estimates(counts, corrected=False)
        assert raw.tolist() == raw_var.tolist() == [20.0, 0.0, 1.0]
        # the raw estimate reads the coincidences alone
        assert [a.tolist() for a in cell_estimates(counts[:1], corrected=False)] == [
            raw.tolist()] * 2
        # trailing axes are kept: a leading replica axis reads cell by cell
        stacked, _ = cell_estimates(np.stack([counts, counts], axis=1), corrected=True)
        assert stacked.shape == (2, 3)
        assert stacked.tolist() == [value.tolist()] * 2

    def test_subtraction_commutes_with_merging_on_means(self):
        # identical-rate runs: corrected means add exactly under a merge
        params = CountingParams(P_S=0.01, eta_r=0.2, P_bg_idler=0.002)
        means = setting_means(rho2(), *full_bases(), trials=10**5, params=params)
        lam_c = means.coincidences[0, 0]
        lam_s = means.singles_s[0]
        lam_i = means.singles_i[0]
        single_run = lam_c - lam_s * lam_i / 10**5
        merged = 2 * lam_c - (2 * lam_s) * (2 * lam_i) / (2 * 10**5)
        assert merged == pytest.approx(2 * single_run, abs=1e-9)


class TestCountRecordValidation:
    def test_coincidences_capped_by_singles(self):
        with pytest.raises(ValidationError):
            make_record(50, 10, 100)

    def test_counts_capped_by_trials(self):
        with pytest.raises(ValidationError):
            make_record(5, 20, 10, n=15)

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            make_record(-1, 10, 10)


class TestTables(object):
    def make_table(self):
        params = CountingParams(P_S=0.006, eta_r=0.1, P_bg_idler=0.0014)
        recs = simulate_setting(rho2(), *full_bases(), 10**6, params, seed=3,
                                setting_name="diagX")
        meta = {"seed": 3, "P_S": 0.006, "eta_r": 0.1, "noise_fraction": 0.0,
                "repetition_rate_hz": 16000.0, "D": 2}
        return CoincidenceTable(records=tuple(recs), metadata=meta)

    def test_round_trip(self, tmp_path):
        table = self.make_table()
        path = tmp_path / "counts.csv"
        save_table(table, path)
        back = load_table(path)
        assert back.records == table.records
        assert back.metadata["repetition_rate_hz"] == 16000.0
        assert back.metadata["P_S"] == 0.006

    def test_duplicate_key_rejected_with_line(self, tmp_path):
        path = tmp_path / "dup.csv"
        rows = ["setting,outcome_s,outcome_i,coincidences,singles_s,singles_i,trials",
                "a,0,0,1,10,10,100",
                "a,0,0,2,10,10,100"]
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(ValidationError, match="duplicate"):
            load_table(path)

    def test_count_above_trials_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        rows = ["setting,outcome_s,outcome_i,coincidences,singles_s,singles_i,trials",
                "a,0,0,1,10,10,100",
                "a,0,1,5,200,200,100"]
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(ValidationError, match=":3"):
            load_table(path)

    def test_counts_beyond_int64_rejected(self, tmp_path):
        # the table's count columns are int64
        path = tmp_path / "big.csv"
        path.write_text(",".join(CSV_HEADER) + "\na,0,0,1,10,10," + str(2**63) + "\n")
        with pytest.raises(ValidationError, match="big.csv:2: counts or labels exceed the 64-bit"):
            load_table(path)

    def test_unknown_columns_rejected(self, tmp_path):
        path = tmp_path / "cols.csv"
        path.write_text("setting,outcome_s,outcome_i,coincidences,singles_s,"
                        "singles_i,trials,extra\na,0,0,1,10,10,100,9\n")
        with pytest.raises(ValidationError, match="columns"):
            load_table(path)

    def test_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "mal.csv"
        path.write_text("setting,outcome_s,outcome_i,coincidences,singles_s,"
                        "singles_i,trials\na,0,zero,1,10,10,100\n")
        with pytest.raises(ValidationError, match=":2"):
            load_table(path)

    def test_merged_accumulates(self):
        t = self.make_table()
        m = t.merged(t)
        rec = m.records[0]
        orig = t.records[0]
        assert rec.coincidences == 2 * orig.coincidences
        assert rec.trials == 2 * orig.trials

    def test_bootstrap_caps_coincidences_at_the_trial_count(self):
        table = CoincidenceTable(records=(make_record(4, 4, 4, n=4, setting="a", out=(0, 0)),))
        # replica 0 of seed 5 draws 9 coincidences, more than the 4 trials allow
        assert oracle_replica_stream(table, 5, "C").poisson(4) == 9
        rec = bootstrap_table(table, seed=5).records[0]
        assert (rec.coincidences, rec.singles_s, rec.singles_i, rec.trials) == (4, 4, 4, 4)

    def test_bootstrap_deterministic(self):
        t = self.make_table()
        a = bootstrap_table(t, seed=11)
        b = bootstrap_table(t, seed=11)
        assert a.records == b.records
        assert a.records != bootstrap_table(t, seed=12).records

    def test_restricted_keeps_only_named_settings(self):
        t = self.make_table()
        other = CoincidenceTable(records=t.records + (make_record(1, 5, 5, setting="other"),),
                                 metadata=t.metadata)
        part = other.restricted(["diagX"])
        assert part.records == t.records
        assert part.metadata == t.metadata
        # the same sub-table for a set of names, whatever their order, on
        # sub-keys shared by every call
        names = ["other", "diagX"]
        forward, backward = other.restricted(names), other.restricted(reversed(names))
        assert forward.records == backward.records == other.records
        assert forward.metadata == backward.metadata == other.metadata
        assert forward.row_keys is backward.row_keys
        assert other.restricted(["diagX"]).row_keys is part.row_keys

    @pytest.mark.parametrize("metadata", [{"D": 2, "note": 1}, {"seed": "3"}, {"D": 11},
                                          {"schema_version": 2}, [2]])
    def test_save_refuses_what_load_refuses_before_any_file(self, tmp_path, metadata):
        table = CoincidenceTable(records=(make_record(1, 2, 2, 5),), metadata=metadata)
        with pytest.raises(ValidationError, match="counts.meta.json"):
            save_table(table, tmp_path / "counts.csv")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("name", pipeline.PRESET_NAMES)
    def test_every_simulated_table_round_trips(self, tmp_path, name):
        table = pipeline.run_simulation(pipeline.preset(name))
        table.metadata["manifest_hash"] = "0" * 64   # as qcert simulate adds it
        save_table(table, tmp_path / "counts.csv")
        back = load_table(tmp_path / "counts.csv")
        assert back.records == table.records
        assert back.metadata == table.metadata

    def test_corrupt_sidecar_names_the_file(self, tmp_path):
        path = tmp_path / "counts.csv"
        save_table(self.make_table(), path)
        (tmp_path / "counts.meta.json").write_text("{not json")
        with pytest.raises(ValidationError, match="counts.meta.json"):
            load_table(path)

    @pytest.mark.parametrize("dim", ["x", "10", 1, 0, -3, 2.5, 10.0, True, None, [4], 11])
    @pytest.mark.parametrize("simulated", [False, True])
    def test_sidecar_dimension_must_be_an_integer_of_at_least_2(self, tmp_path, dim,
                                                                  simulated):
        path = tmp_path / "counts.csv"
        if simulated:
            save_table(self.make_table(), path)
        else:
            path.write_text(",".join(CSV_HEADER) + "\n")
        (tmp_path / "counts.meta.json").write_text(json.dumps({"D": dim}))
        with pytest.raises(ValidationError, match="counts.meta.json.*D must be"):
            load_table(path)


class TestBootstrapStd:
    def make_table(self):
        return TestTables().make_table()

    @staticmethod
    def total(stack):
        """Total coincidences of each replica of a stack."""
        return stack.counts[0].sum(axis=-1).astype(float)

    def test_is_the_ddof1_spread_over_bootstrap_replicas(self):
        t = self.make_table()
        values = [float(sum(r.coincidences for r in replica))
                  for replica in oracle_bootstrap(t, seed=40, n_replicas=12)]
        expected = float(np.std(values, ddof=1))
        assert bootstrap_std(t, self.total, 12, seed=40) == pytest.approx(expected, rel=1e-12)

    def test_failed_replicas_are_dropped(self):
        t = self.make_table()

        def statistic(stack):
            values = self.total(stack)
            values[0] = np.nan   # replica 0 refused
            return values

        kept = [float(sum(r.coincidences for r in replica))
                for replica in oracle_bootstrap(t, seed=7, n_replicas=10)[1:]]
        assert bootstrap_std(t, statistic, 10, seed=7) == pytest.approx(
            float(np.std(kept, ddof=1)), rel=1e-12)

    def test_replica_spread_of_a_count_is_its_poisson_spread(self):
        # over 400 replicas, sd(C) of a record holding C = 900 is within 10% of sqrt(C)
        t = CoincidenceTable(records=(make_record(300, 900, 500, out=(0, 0)),
                                      make_record(900, 3000, 1000, out=(0, 1))))
        spread = bootstrap_std(t, lambda stack: stack.counts[0, :, 1].astype(float),
                               400, seed=3)
        assert spread == pytest.approx(30.0, rel=0.1)

    def test_replicas_in_blocks_give_the_same_error(self, monkeypatch):
        t = self.make_table()
        whole = bootstrap_std(t, self.total, 12, seed=40)
        sizes = []

        def statistic(stack):
            sizes.append(stack.counts.shape[1])
            return self.total(stack)

        monkeypatch.setattr(counting, "_BLOCK_CELLS", 20)   # 4 records: 5 replicas a block
        assert bootstrap_std(t, statistic, 12, seed=40) == whole
        assert sizes == [5, 5, 2]

    @pytest.mark.parametrize("n_bootstrap", [0, 1])
    def test_fewer_than_two_replicas_rejected(self, n_bootstrap):
        with pytest.raises(ValidationError, match="at least 2"):
            bootstrap_std(self.make_table(), self.total, n_bootstrap, seed=0)

    @pytest.mark.parametrize("survivors", [0, 1])
    def test_fewer_than_two_survivors_give_nan(self, survivors):
        calls = []

        def statistic(stack):
            calls.append(stack)
            values = self.total(stack)
            values[survivors:] = np.nan
            return values

        assert math.isnan(bootstrap_std(self.make_table(), statistic, 5, seed=0))
        # the statistic sees all five replicas at once
        assert [stack.counts.shape[1] for stack in calls] == [5]


# random tables: up to 30 cells over three settings, counts consistent with 200 trials
table_rows = st.lists(
    st.tuples(st.sampled_from(["a", "b", "c"]), st.integers(-1, 2), st.integers(-1, 2),
              st.integers(0, 50), st.integers(0, 50), st.integers(0, 50)),
    unique_by=lambda row: row[:3], max_size=30,
)


# counts anywhere in the int64 range with 0 <= C <= min(S_s, S_i) and max <= N
@st.composite
def record_counts(draw):
    trials = draw(st.one_of(st.integers(1, 10), st.integers(1, 2**63 - 1)))
    singles_s, singles_i = draw(st.integers(0, trials)), draw(st.integers(0, trials))
    return draw(st.integers(0, min(singles_s, singles_i))), singles_s, singles_i, trials


# setting names with CSV delimiters, quotes, line breaks and non-ASCII text
setting_names = st.one_of(st.sampled_from(['a,b', '"q"', 'x"y,z', 'ü-ψ:0-1', 'a\nb', 'a\rb', '']),
                          st.text(max_size=8))
csv_tables = st.builds(
    lambda rows, metadata: CoincidenceTable(
        records=tuple(CountRecord(name, a, b, *counts) for name, a, b, counts in rows),
        metadata=metadata),
    st.lists(st.tuples(setting_names, st.integers(-2, 2**31), st.integers(-2, 2**31),
                       record_counts()),
             unique_by=lambda row: row[:3], max_size=12),
    st.fixed_dictionaries({"D": st.integers(2, MAX_MODES)},
                          optional={"seed": st.integers(0, 2**64), "noise_channel": st.text(),
                                    "noise_fraction": st.floats(0.0, 1.0)}),
)


def table_from_rows(rows, trials=200) -> CoincidenceTable:
    return CoincidenceTable(records=tuple(
        CountRecord(setting=name, outcome_s=a, outcome_i=b, coincidences=c,
                    singles_s=c + extra_s, singles_i=c + extra_i, trials=trials)
        for name, a, b, c, extra_s, extra_i in rows
    ))


def by_setting(table, name):
    """One setting's records by cell, read through the table's row index."""
    return {cell: table.records[row] for cell, row in table.row_keys.index.get(name, {}).items()}


def replica_stack(table, n_replicas, seed):
    """The one replica stack bootstrap_std hands its statistic (few records
    and replicas fit one block)."""
    stacks = []
    bootstrap_std(table, lambda stack: stacks.append(stack) or np.zeros(n_replicas),
                  n_replicas, seed)
    (stack,) = stacks
    return stack


class TestTableProperties:
    @settings(deadline=None, max_examples=60)
    @given(table_rows)
    def test_index_matches_record_scan(self, rows):
        table = table_from_rows(rows)
        assert table.settings() == list(dict.fromkeys(r.setting for r in table.records))
        for name in ("a", "b", "c", "absent"):
            scan = {(r.outcome_s, r.outcome_i): r for r in table.records if r.setting == name}
            assert by_setting(table, name) == scan
            assert list(by_setting(table, name)) == list(scan)

    @settings(deadline=None, max_examples=60)
    @given(table_rows.filter(bool), st.data())
    def test_duplicate_keys_rejected(self, rows, data):
        records = list(table_from_rows(rows).records)
        duplicate = data.draw(st.sampled_from(records))
        records.insert(data.draw(st.integers(0, len(records))), duplicate)
        with pytest.raises(ValidationError, match="duplicate"):
            CoincidenceTable(records=tuple(records))

    @settings(deadline=None, max_examples=40)
    @given(table_rows, st.integers(0, 2**64), st.integers(2, 4))
    def test_stack_replica_b_is_the_oracle_replica_b(self, rows, seed, n_replicas):
        table = table_from_rows(rows)
        stack = replica_stack(table, n_replicas, seed)
        assert stack.counts.shape == (4, n_replicas, len(rows))
        for b, records in enumerate(oracle_bootstrap(table, seed, n_replicas)):
            assert stack.counts[:, b].T.tolist() == [
                [r.coincidences, r.singles_s, r.singles_i, r.trials] for r in records]
        # bootstrap_table is replica 0
        assert list(bootstrap_table(table, seed).records) == oracle_bootstrap(table, seed)[0]

    @settings(deadline=None, max_examples=60)
    @given(table_rows, st.integers(0, 2**64), st.data())
    def test_record_order_leaves_each_replica_unchanged(self, rows, seed, data):
        shuffled = data.draw(st.permutations(rows))
        replicas = [{r.key: r for r in bootstrap_table(table_from_rows(order), seed).records}
                    for order in (rows, shuffled)]
        assert replicas[0] == replicas[1]

    @settings(deadline=None, max_examples=60)
    @given(table_rows, st.integers(0, 2**64))
    def test_stack_replicas_keep_the_record_checks(self, rows, seed):
        # trials as tight as the table allows, so draws often reach the cap
        trials = max([1] + [c + max(es, ei) for *_, c, es, ei in rows])
        c, s, i, n = replica_stack(table_from_rows(rows, trials), 8, seed).counts
        assert (c >= 0).all()
        assert (c <= np.minimum(s, i)).all()
        assert (np.maximum(c, np.maximum(s, i)) <= n).all()
        assert (n == trials).all()

    @settings(deadline=None, max_examples=60)
    @given(csv_tables)
    @example(CoincidenceTable(records=(CountRecord("a\rb", 0, 1, 1, 2, 3, 4),), metadata={"D": 2}))
    def test_csv_round_trip(self, table):
        with tempfile.TemporaryDirectory() as tmp:
            save_table(table, f"{tmp}/counts.csv")
            loaded = load_table(f"{tmp}/counts.csv")
        assert loaded.records == table.records
        assert loaded.metadata == table.metadata
        assert loaded.counts.dtype == np.int64
        assert np.array_equal(loaded.counts, table.counts)

    @settings(deadline=None, max_examples=60)
    @given(table_rows, table_rows)
    def test_merged_is_additive(self, rows_a, rows_b):
        a, b = table_from_rows(rows_a), table_from_rows(rows_b)
        merged = a.merged(b)
        fields = ("coincidences", "singles_s", "singles_i", "trials")
        expected = {}
        for rec in a.records + b.records:
            prev = expected.get(rec.key, (0, 0, 0, 0))
            expected[rec.key] = tuple(p + getattr(rec, f) for p, f in zip(prev, fields))
        assert {r.key: tuple(getattr(r, f) for f in fields) for r in merged.records} == expected
        assert set(merged.settings()) == set(a.settings()) | set(b.settings())

    @settings(deadline=None, max_examples=60)
    @given(table_rows, table_rows, st.sets(st.sampled_from(["a", "b", "c", "absent"])))
    def test_column_table_is_the_record_table(self, rows, other_rows, names):
        pairs = [(table_from_rows(rows), column_table(rows)),
                 (table_from_rows(other_rows), column_table(other_rows))]
        (first, by_columns), (other, other_columns) = pairs
        pairs += [(first.restricted(names), by_columns.restricted(names)),
                  (first.merged(other), by_columns.merged(other_columns))]
        assert list(by_columns.records) == [
            CountRecord(name, a, b, c, c + extra_s, c + extra_i, 200)
            for name, a, b, c, extra_s, extra_i in rows]
        for by_records, built in pairs:
            assert built.records == by_records.records
            assert built.counts.dtype == built.labels.dtype == np.int64
            assert np.array_equal(built.counts, by_records.counts)
            assert built.settings() == by_records.settings()
            for name in ("a", "b", "c", "absent"):
                assert by_setting(built, name) == by_setting(by_records, name)

    @settings(deadline=None, max_examples=60)
    @given(table_rows, st.data())
    def test_invalid_row_is_named(self, rows, data):
        cells = [(name, a, b, c, c + extra_s, c + extra_i, 200)
                 for name, a, b, c, extra_s, extra_i in rows]
        at = data.draw(st.integers(0, len(cells)))
        if cells and data.draw(st.booleans()):
            copied = data.draw(st.integers(0, len(cells) - 1))
            bad, reason = cells[copied], "duplicate record key"
            row = max(at, copied + (at <= copied))   # the later of the two
        else:
            bad, reason = data.draw(st.sampled_from(INVALID_ROWS))
            row = at
        cells.insert(at, bad)
        with pytest.raises(ValidationError, match=rf"^row {row} .*: {reason}"):
            CoincidenceTable(*columns_of(cells))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "counts.csv"
            path.write_text("\n".join(",".join(map(str, cell))
                                      for cell in [CSV_HEADER, *cells]) + "\n")
            # the header is line 1
            with pytest.raises(ValidationError, match=rf"counts.csv:{row + 2}: {reason}"):
                load_table(path)

    @settings(deadline=None, max_examples=60)
    @given(table_rows, st.integers(0, 2**64), st.integers(1, 40))
    def test_raw_replicas_draw_the_coincidences_of_the_full_draw(self, rows, seed, n_replicas):
        # trials as tight as the table allows, so draws often reach the cap
        table = table_from_rows(rows, max([1] + [c + max(es, ei) for *_, c, es, ei in rows]))
        full, raw = (np.concatenate(list(counting._replica_blocks(table, seed, n_replicas,
                                                                  singles)), axis=1)
                     for singles in (True, False))
        assert raw.dtype == np.int64
        assert raw.shape == (1,) + full.shape[1:]
        assert np.array_equal(raw[0], full[0])


# an invalid cell named "bad", so its key is new, and the rule it breaks
INVALID_ROWS = [
    (("bad", 0, 0, -1, 0, 0, 5), "counts must be non-negative"),
    (("bad", 0, 0, 0, 3, -1, 5), "counts must be non-negative"),
    (("bad", 0, 0, 0, 0, 0, 0), "trials must be at least 1"),
    (("bad", 0, 0, 4, 3, 5, 9), "coincidences exceed the singles counts"),
    (("bad", 0, 0, 2, 6, 2, 5), "counts exceed the trial count"),
    (("bad", 0, 0, 1, 2, 2, 2**63), "counts or labels exceed the 64-bit integer range"),
    (("bad", -2**63 - 1, 0, 1, 2, 2, 5), "counts or labels exceed the 64-bit integer range"),
]


def columns_of(cells):
    """The (setting, labels, counts) columns of cells laid out as CSV_HEADER."""
    return ([cell[0] for cell in cells], [[cell[k] for cell in cells] for k in (1, 2)],
            [[cell[k] for cell in cells] for k in (3, 4, 5, 6)])


def column_table(rows, trials=200) -> CoincidenceTable:
    """table_from_rows' cells, built from columns."""
    return CoincidenceTable(*columns_of([(name, a, b, c, c + extra_s, c + extra_i, trials)
                                         for name, a, b, c, extra_s, extra_i in rows]))


class TestKeyedStreams:
    @pytest.mark.parametrize("seed", [0, 7, 2**64 + 1])
    def test_setting_stream_draws_like_numpy(self, seed):
        word = counting._setting_key("X|K", (3, -1, 0), (1, -1))[0]
        got = _stream(seed, word)
        ref = oracle_stream(seed, "X|K", (3, -1, 0), (1, -1))
        assert got.bit_generator.state == ref.bit_generator.state
        assert np.array_equal(got.poisson(37.5, 20), ref.poisson(37.5, 20))
        # the word reads the labels sorted, so projector order cannot move it
        assert counting._setting_key("X|K", (0, 3, -1), (-1, 1))[0] == word

    def test_key_words_are_the_sha256_words(self):
        def sha_word(text):
            return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "little")

        assert _key_word("s", "cell", 1, -1) == sha_word("s\x1fcell\x1f1\x1f-1")
        assert _key_word("s", "bootstrap", 1, -1) == sha_word("s\x1fbootstrap\x1f1\x1f-1")
        # 1 and 1.0 compare equal but spell different keys
        assert _key_word("s", "bootstrap", 1.0, -1) == sha_word("s\x1fbootstrap\x1f1.0\x1f-1")

    @pytest.mark.parametrize("seed", [0, 11, 2**32, 2**64 + 1])
    def test_simulate_setting_matches_oracle(self, seed):
        params = CountingParams(P_S=0.02, eta_r=0.3, P_bg_idler=0.002)
        rho = noisy_state(SourceConfig.uniform(3, noise_fraction=0.2))
        b_s, b_i = x_basis(3, side="signal"), k_basis(3, side="idler")
        got = simulate_setting(rho, b_s, b_i, 10**5, params, seed=seed)
        assert got == oracle_simulate(rho, b_s, b_i, 10**5, params, seed, "X3|K3")

    @pytest.mark.parametrize("seed", [0, 11, 2**64 + 1])
    def test_bootstrap_table_matches_oracle(self, seed):
        table = TestTables().make_table()
        # records out of sorted-key order, so the draws must be put back in place
        table = CoincidenceTable(records=table.records[::-1], metadata=table.metadata)
        assert list(bootstrap_table(table, seed).records) == oracle_bootstrap(table, seed)[0]

    def test_adjacent_seeds_share_no_replica(self):
        table = pipeline.run_simulation(small_plan_config(seed=2))
        assert len(table.records) >= 100
        stacks = {(seed, singles): np.concatenate(
            list(counting._replica_blocks(table, seed, 20, singles)), axis=1)
            for seed in (5, 6) for singles in (True, False)}
        # a replica shared by adjacent seeds would make their errors nearly equal
        assert not any(np.array_equal(a, b) for a in stacks[5, True][0]
                       for b in stacks[6, True][0])
        # raw and corrected replicas of one seed draw the same coincidences
        for seed in (5, 6):
            assert np.array_equal(stacks[seed, False], stacks[seed, True][:1])

    @pytest.mark.parametrize("draw", [
        lambda: _stream(-1, counting._setting_key("s", (0,), (0,))[0]),
        lambda: simulate_setting(rho2(), *full_bases(), 100, CountingParams(), seed=-1),
        lambda: bootstrap_table(TestTables().make_table(), seed=-5),
    ])
    def test_negative_seed_rejected(self, draw):
        with pytest.raises(ValidationError, match="non-negative"):
            draw()


def small_plan_config(seed=0, trials=10**5, counting_params=None):
    """A three-mode run: both scans and witness pairs, Bell d = 2, 3, one tomography pair."""
    return SimulationConfig(
        source=SourceConfig.uniform(3, noise_fraction=0.2),
        counting=counting_params or CountingParams(P_S=0.02, eta_r=0.3, P_bg_idler=0.002),
        trials_per_setting=trials, seed=seed, bell_dimensions=(2, 3), tomo_pair=(0, 2))


def oracle_run(cfg):
    """run_simulation's records as the per-setting oracle tables, in plan order."""
    rho, params = pipeline.sampling_state(cfg), pipeline.effective_params(cfg)
    return [rec for st in pipeline.build_settings(cfg)
            for rec in oracle_simulate(rho, st.basis_s, st.basis_i, cfg.trials_per_setting,
                                       params, cfg.seed, st.name)]


class TestSimulatePlan:
    @pytest.mark.parametrize("seed", [0, 7, 2**32, 2**64 + 1])
    def test_run_simulation_matches_oracle(self, seed):
        cfg = small_plan_config(seed)
        assert list(pipeline.run_simulation(cfg).records) == oracle_run(cfg)

    @pytest.mark.parametrize("name", ["ideal", "calibrated-witness", "calibrated-eof",
                                      "calibrated-bell", "calibrated-tomo"])
    def test_preset_matches_oracle(self, name):
        cfg = replace(pipeline.preset(name), seed=7)
        assert list(pipeline.run_simulation(cfg).records) == oracle_run(cfg)

    def test_draw_means_are_the_per_setting_means_bit_for_bit(self, monkeypatch):
        # a top-up mean summed in another order can differ in its last bit,
        # and then a draw can differ from the per-setting reference
        drawn = []

        class Recorder:
            def __init__(self, word):
                self.word = word

            def poisson(self, means):
                drawn.append((self.word, means.tolist()))
                return np.zeros(len(means), dtype=np.int64)

        monkeypatch.setattr(counting, "_stream", lambda seed, word: Recorder(word))
        # uneven amplitudes and phases, so the sums over 8 or more cells see
        # distinct values
        rng = np.random.default_rng(5)
        amps = rng.random(10) * np.exp(2j * np.pi * rng.random(10))
        source = SourceConfig(10, amps / np.linalg.norm(amps), rng.random(10), 0.1)
        cfg = replace(pipeline.preset("calibrated-witness"), source=source,
                      noise_channel="state")
        pipeline.run_simulation(cfg)
        rho, params = pipeline.sampling_state(cfg), pipeline.effective_params(cfg)
        expected = {}
        for plan_st in pipeline.build_settings(cfg):
            lam, mean_s, mean_i = oracle_means(rho, plan_st.basis_s, plan_st.basis_i,
                                               cfg.trials_per_setting, params)
            rows, cols = np.argsort(plan_st.basis_s.labels), np.argsort(plan_st.basis_i.labels)
            top_s = [max(mean_s[a] - lam[a, :].sum(), 0.0) for a in range(len(lam))]
            top_i = [max(mean_i[b] - lam[:, b].sum(), 0.0) for b in range(lam.shape[1])]
            word, _ = counting._setting_key(plan_st.name, plan_st.basis_s.labels,
                                            plan_st.basis_i.labels)
            expected[word] = (lam[np.ix_(rows, cols)].ravel().tolist()
                                      + [top_s[a] for a in rows] + [top_i[b] for b in cols])
        # one poisson call per setting, from the setting's own stream
        assert len(drawn) == len(expected)
        assert dict(drawn) == expected

    def test_one_stream_constructor_and_cached_key_words(self, monkeypatch):
        streams, words = [], []
        stream, key_word = counting._stream, counting._key_word

        def counted_stream(seed, word):
            streams.append((seed, word))
            return stream(seed, word)

        def counted_word(*args):
            words.append(args)
            return key_word(*args)

        monkeypatch.setattr(counting, "_stream", counted_stream)
        monkeypatch.setattr(counting, "_key_word", counted_word)
        pipeline._plan_means.cache_clear()   # fresh row keys, whatever ran before
        cfg = small_plan_config(seed=3)
        first = pipeline.run_simulation(cfg)
        setting_words = [counting._setting_key(st.name, st.basis_s.labels, st.basis_i.labels)[0]
                         for st in pipeline.build_settings(cfg)]
        # one stream per setting, keyed by its setting word
        assert sorted(streams) == sorted((3, word) for word in setting_words)
        streams.clear()
        words.clear()
        second = pipeline.run_simulation(small_plan_config(seed=4))
        assert sorted(streams) == sorted((4, word) for word in setting_words)
        assert words == []
        assert first.records != second.records
        # a bootstrap builds one stream per row kind it draws, whatever its
        # replica count: C, S_s - C and S_i - C corrected, the C stream alone
        # raw.  The three kind words are hashed once per row-key layout, and
        # the second run's table shares it.
        assert second.row_keys is first.row_keys
        words.clear()
        drawn = set()
        for table in (first, second):
            for n_bootstrap in (2, 100, 250):
                for singles in (True, False):
                    streams.clear()
                    bootstrap_std(table, lambda stack: stack.counts[0].sum(axis=-1),
                                  n_bootstrap, seed=11, singles=singles)
                    assert [seed for seed, _ in streams] == [11] * (3 if singles else 1)
                    drawn.add(tuple(word for _, word in streams))
        corrected, raw = sorted(drawn, key=len, reverse=True)
        assert len(set(corrected)) == 3 and raw == corrected[:1]
        assert len(words) == 3
        # a calibrated-witness plan draw still builds one stream per setting
        streams.clear()
        cfg = pipeline.preset("calibrated-witness")
        pipeline.run_simulation(cfg)
        assert len(streams) == len(pipeline.build_settings(cfg)) == 317

    @settings(deadline=None, max_examples=30)
    @given(st.integers(0, 2**64), st.data())
    def test_sub_plans_in_any_order_draw_the_run_records(self, seed, data):
        cfg = small_plan_config(seed)
        plan = pipeline.build_settings(cfg)
        order = data.draw(st.permutations(range(len(plan))))
        picked = order[:data.draw(st.integers(1, len(plan)))]

        def reversed_basis(basis):
            return replace(basis, labels=basis.labels[::-1],
                           vector_matrix=basis.vector_matrix[::-1])

        sub_plan = [PlannedSetting(plan[k].name, reversed_basis(plan[k].basis_s),
                                   reversed_basis(plan[k].basis_i)) for k in picked]
        got = plan_means(pipeline.sampling_state(cfg), sub_plan, cfg.trials_per_setting,
                         pipeline.effective_params(cfg)).draw(cfg.seed).records
        run = {rec.key: rec for rec in pipeline.run_simulation(cfg).records}
        assert [rec.setting for rec in got] == [
            setting.name for setting in sub_plan for row in setting.cells for _ in row]
        assert {rec.key: rec for rec in got} == {
            (setting.name, a, b): run[setting.name, a, b] for setting in sub_plan
            for row in setting.cells for a, b in row}

    def test_cells_of_a_setting_draw_independent_poisson_counts(self):
        # 300 seeds of one 3 x 3 setting: its 9 cells and 6 singles top-ups
        # are 15 draws of one poisson call, with means from 15 to 461
        params = CountingParams(P_S=0.02, eta_r=0.3, P_bg_idler=0.002)
        rho = noisy_state(SourceConfig.uniform(3, noise_fraction=0.2))
        b_s, b_i = full_bases(3)
        m = setting_means(rho, b_s, b_i, 10**5, params)
        lam = np.concatenate([m.coincidences.ravel(), m.singles_s - m.coincidences.sum(axis=1),
                              m.singles_i - m.coincidences.sum(axis=0)])
        n = 300
        draws = np.empty((n, 15))
        for seed in range(n):
            recs = simulate_setting(rho, b_s, b_i, 10**5, params, seed=seed)
            c = np.array([r.coincidences for r in recs]).reshape(3, 3)
            s = np.array([recs[3 * a].singles_s for a in range(3)])
            i = np.array([recs[b].singles_i for b in range(3)])
            draws[seed] = np.concatenate([c.ravel(), s - c.sum(axis=1), i - c.sum(axis=0)])
        assert lam.min() > 10
        # Poisson: the mean of n draws has error sqrt(lam / n), and the sample
        # variance over lam has error sqrt((2 + 1 / lam) / (n - 1)); bands at 4 sigma
        assert np.all(np.abs(draws.mean(axis=0) - lam) < 4 * np.sqrt(lam / n))
        ratio = draws.var(axis=0, ddof=1) / lam
        assert np.all(np.abs(ratio - 1) < 4 * np.sqrt((2 + 1 / lam) / (n - 1)))
        # independent draws: each of the 105 correlations has error 1 / sqrt(n)
        # and their mean 1 / sqrt(105 n); bands at 4 sigma
        corr = np.corrcoef(draws, rowvar=False)[np.triu_indices(15, k=1)]
        assert np.all(np.abs(corr) < 4 / np.sqrt(n))
        assert abs(corr.mean()) < 4 / np.sqrt(105 * n)

    def test_empty_plan_is_refused(self):
        with pytest.raises(ValidationError, match="at least one setting"):
            plan_means(rho2(), [], 10, CountingParams())

    # eta_r <= 0.4 and P_bg_idler <= 0.1 keep eta_r + P_I <= 1 with the
    # config's accidental noise added (P_bg_idler + eta_r / 4)
    @settings(deadline=None, max_examples=30)
    @given(st.integers(0, 2**64), st.integers(1, 4), st.floats(0.0, 1.0),
           st.floats(0.0, 0.4), st.floats(0.0, 0.1))
    def test_small_trial_counts_keep_the_record_checks(self, seed, trials, p_s, eta_r, p_bg):
        params = CountingParams(P_S=p_s, eta_r=eta_r, P_bg_idler=p_bg)
        table = pipeline.run_simulation(small_plan_config(seed, trials, params))
        c, s, i, n = table.counts
        assert (c >= 0).all()
        assert (c <= np.minimum(s, i)).all()
        assert (np.maximum(c, np.maximum(s, i)) <= n).all()
        assert (n == trials).all()


def test_simulate_and_certify_build_no_records(monkeypatch):
    """The count path stays columnar: simulating a run and certifying it, raw
    and corrected, builds no CountRecord and never reads ``table.records``."""
    def refuse(self):
        raise AssertionError("a CountRecord was built on the count path")

    monkeypatch.setattr(CountRecord, "__post_init__", refuse)
    monkeypatch.setattr(CoincidenceTable, "records", property(refuse))
    table = pipeline.run_simulation(small_plan_config(seed=3))
    for corrected in (False, True):
        witness(table, "X", corrected=corrected)
        eof_bound(table, corrected=corrected, n_bootstrap=5, seed=3)
        for d in (2, 3):
            cglmp(table, d, corrected=corrected)
        reconstruct(table, (0, 2), corrected=corrected, n_bootstrap=5, seed=3)


@pytest.mark.parametrize("seed", [0, 40])
def test_raw_statistic_reads_the_same_replicas_without_singles(seed):
    # a statistic that reads only C gets the same error from C-only replicas
    table = TestTables().make_table()
    total = TestBootstrapStd.total
    assert bootstrap_std(table, total, 12, seed, singles=False) == bootstrap_std(
        table, total, 12, seed)
