import hashlib
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose

from qcert import (
    CoincidenceTable,
    CountingParams,
    CountRecord,
    SourceConfig,
    ValidationError,
    bootstrap_table,
    density_from_ket,
    ideal_state,
    joint_probability_table,
    k_basis,
    load_table,
    noisy_state,
    pair_basis,
    save_table,
    setting_means,
    simulate_setting,
    subtract_accidentals,
    witness,
    with_accidental_noise,
    x_basis,
)
from qcert import counting, pipeline
from qcert.bases import MeasurementBasis, scan_setting
from qcert.counting import CSV_HEADER
from qcert.counting import (
    _key_word,
    _keyed_streams,
    _seed_states,
    bootstrap_std,
    cell_estimates,
    outcome_stream,
    simulate_plan,
)
from qcert.pipeline import SimulationConfig

from conftest import (einsum_marginals, einsum_table, oracle_bases, oracle_simulate,
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
        exact = joint_probability_table(noisy_state(cfg.with_noise(p)), basis_s, basis_i)
        ratio = means.coincidences / exact
        assert np.max(ratio) / np.min(ratio) == pytest.approx(1.0, abs=1e-9)

    def test_probability_overflow_rejected(self):
        # a fake basis with duplicated outcome vectors breaks completeness
        proj = x_basis(2).projectors
        bad = MeasurementBasis(name="dup", side="signal", dim=2,
                               projectors=(proj[0], proj[1]))
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
                assert basis_s.lost_weight(rho) == pytest.approx(1.0 - marg_s.sum(), abs=1e-12)
                assert basis_i.lost_weight(rho) == pytest.approx(1.0 - marg_i.sum(), abs=1e-12)


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
        # reversing the projector order must not change any labeled count
        params = CountingParams(P_S=0.01, eta_r=0.2, P_bg_idler=0.001)
        b_s, b_i = full_bases()
        rev_i = MeasurementBasis(name=b_i.name, side="idler", dim=2,
                                 projectors=tuple(reversed(b_i.projectors)))
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


class TestSubtractAccidentals:
    def test_reference_arithmetic(self):
        rec = make_record(20, 600, 300, n=10**5)
        corr = subtract_accidentals(rec)
        assert corr.value == pytest.approx(18.2, abs=1e-12)

    def test_zero_singles_leave_count_unchanged(self):
        # a zero singles count forces zero coincidences and a zero correction
        rec = make_record(0, 0, 300, n=1000)
        corr = subtract_accidentals(rec)
        assert corr.value == 0.0
        assert corr.std_error == 0.0

    def test_error_propagation_formula(self):
        rec = make_record(20, 600, 300, n=10**5)
        acc = 600 * 300 / 10**5
        expected = np.sqrt(20 + acc**2 * (1 / 600 + 1 / 300))
        assert subtract_accidentals(rec).std_error == pytest.approx(expected, abs=1e-12)

    def test_negative_corrections_kept(self):
        rec = make_record(1, 900, 900, n=10**4)
        assert subtract_accidentals(rec).value < 0

    def test_pure_accidental_mean_consistent_with_zero(self):
        # no retrieval: corrected counts scatter around zero
        params = CountingParams(P_S=0.01, eta_r=0.0, P_bg_idler=0.004)
        vals, variances = [], []
        for seed in range(300):
            recs = simulate_setting(rho2(), *full_bases(), 10**6, params, seed=seed)
            corr = [subtract_accidentals(r) for r in recs]
            vals.append(sum(c.value for c in corr))
            variances.append(sum(c.std_error**2 for c in corr))
        sigma_mean = np.sqrt(np.mean(variances) / len(vals))
        assert abs(np.mean(vals)) < 3 * sigma_mean

    def test_estimate_selects_raw_or_subtracted(self):
        recs = [make_record(20, 600, 300, n=10**5), make_record(0, 0, 300, n=1000),
                make_record(1, 900, 900, n=10**4)]
        counts = np.array([[r.coincidences, r.singles_s, r.singles_i, r.trials]
                           for r in recs]).T
        value, var = cell_estimates(counts, corrected=True)
        for rec, v, e in zip(recs, value, var):
            corr = subtract_accidentals(rec)
            assert (v, math.sqrt(e)) == (corr.value, corr.std_error)
        raw, raw_var = cell_estimates(counts, corrected=False)
        assert raw.tolist() == raw_var.tolist() == [20.0, 0.0, 1.0]
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
        with pytest.raises(ValidationError, match="big.csv: counts exceed the 64-bit"):
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
        # replica 6 draws 6 coincidences, more than the 4 trials allow
        assert oracle_replica_stream(table, 6).poisson(4) == 6
        rec = bootstrap_table(table, seed=6).records[0]
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
        values = [float(sum(r.coincidences for r in bootstrap_table(t, seed=40 + b).records))
                  for b in range(12)]
        expected = float(np.std(values, ddof=1))
        assert bootstrap_std(t, self.total, 12, seed=40) == pytest.approx(expected, rel=1e-12)

    def test_failed_replicas_are_dropped(self):
        t = self.make_table()

        def statistic(stack):
            values = self.total(stack)
            values[0] = np.nan   # replica 0 refused
            return values

        kept = [float(sum(r.coincidences for r in bootstrap_table(t, seed=7 + b).records))
                for b in range(1, 10)]
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


def table_from_rows(rows, trials=200) -> CoincidenceTable:
    return CoincidenceTable(records=tuple(
        CountRecord(setting=name, outcome_s=a, outcome_i=b, coincidences=c,
                    singles_s=c + extra_s, singles_i=c + extra_i, trials=trials)
        for name, a, b, c, extra_s, extra_i in rows
    ))


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
            assert table.by_setting(name) == scan
            assert list(table.by_setting(name)) == list(scan)

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
    def test_stack_replica_b_is_bootstrap_table_at_seed_plus_b(self, rows, seed, n_replicas):
        table = table_from_rows(rows)
        stack = replica_stack(table, n_replicas, seed)
        assert stack.counts.shape == (4, n_replicas, len(rows))
        for b in range(n_replicas):
            records = bootstrap_table(table, seed + b).records
            assert stack.counts[:, b].T.tolist() == [
                [r.coincidences, r.singles_s, r.singles_i, r.trials] for r in records]

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


# Keyed streams: the batched seeding must reproduce numpy's
# SeedSequence([seed, word]) -> PCG64 construction exactly.
EDGE_SEEDS = (0, 2**32 - 1, 2**32, 2**64 - 1, 2**64 + 1)
EDGE_WORDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]
key_words = st.lists(st.one_of(st.integers(0, 2**32 - 1), st.integers(0, 2**64 - 1)),
                     min_size=1, max_size=12)


def oracle_replica_stream(table, seed):
    """Bootstrap replica ``seed``'s one generator, built with numpy's own
    constructors: SeedSequence([seed, word]) -> PCG64, ``word`` hashing the
    table's sorted record keys."""
    keys = sorted(rec.key for rec in table.records)
    text = "\x1f".join(["bootstrap", *(str(part) for key in keys for part in key)])
    word = int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "little")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([int(seed), word])))


def oracle_bootstrap(table, seed):
    """bootstrap_table with scalar draws: the coincidences of every record in
    sorted-key order, then the signal top-ups S_s - C, then the idler top-ups
    S_i - C; coincidences and singles capped at the trial count."""
    rng = oracle_replica_stream(table, seed)
    recs = sorted(table.records, key=lambda rec: rec.key)
    draws = [[int(rng.poisson(mean)) for mean in means] for means in (
        [rec.coincidences for rec in recs],
        [rec.singles_s - rec.coincidences for rec in recs],
        [rec.singles_i - rec.coincidences for rec in recs])]
    replica = {}
    for rec, c, top_s, top_i in zip(recs, *draws):
        c = min(c, rec.trials)
        replica[rec.key] = CountRecord(
            setting=rec.setting, outcome_s=rec.outcome_s, outcome_i=rec.outcome_i,
            coincidences=c, singles_s=min(c + top_s, rec.trials),
            singles_i=min(c + top_i, rec.trials), trials=rec.trials)
    return [replica[rec.key] for rec in table.records]


class TestKeyedStreams:
    @settings(deadline=None, max_examples=150)
    @given(st.integers(0, 2**70 - 1), key_words)
    @example(EDGE_SEEDS[0], EDGE_WORDS)
    @example(EDGE_SEEDS[1], EDGE_WORDS)
    @example(EDGE_SEEDS[2], EDGE_WORDS)
    @example(EDGE_SEEDS[3], EDGE_WORDS)
    @example(EDGE_SEEDS[4], EDGE_WORDS)
    def test_seed_states_match_seed_sequence(self, seed, words):
        expected = [np.random.SeedSequence([seed, w]).generate_state(4, np.uint64)
                    for w in words]
        got = _seed_states(seed, words)
        assert got.dtype == np.uint64
        assert np.array_equal(got, np.array(expected))

    @settings(deadline=None, max_examples=40)
    @given(st.one_of(st.sampled_from(EDGE_SEEDS), st.integers(0, 2**70 - 1)), key_words)
    def test_loaded_state_matches_pcg64(self, seed, words):
        states = [rng.bit_generator.state for rng in _keyed_streams(seed, words)]
        assert states == [np.random.PCG64(np.random.SeedSequence([seed, w])).state
                          for w in words]

    @pytest.mark.parametrize("seed", [0, 7, 2**64 + 1])
    def test_outcome_stream_draws_like_numpy(self, seed):
        got = outcome_stream(seed, "X|K", "cell", 3, -1)
        ref = oracle_stream(seed, "X|K", "cell", 3, -1)
        assert got.bit_generator.state == ref.bit_generator.state
        assert np.array_equal(got.poisson(37.5, 20), ref.poisson(37.5, 20))

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
        assert list(bootstrap_table(table, seed).records) == oracle_bootstrap(table, seed)

    @pytest.mark.parametrize("draw", [
        lambda: outcome_stream(-1, "s", "cell", 0, 0),
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

    def test_calibrated_witness_matches_oracle(self):
        cfg = replace(pipeline.preset("calibrated-witness"), seed=7)
        assert list(pipeline.run_simulation(cfg).records) == oracle_run(cfg)

    def test_draw_means_are_the_per_setting_means_bit_for_bit(self, monkeypatch):
        # a top-up mean summed in another order can differ in its last bit,
        # and then a draw can differ from the per-setting reference
        drawn = []

        class Recorder:
            def poisson(self, mean):
                drawn.append(float(mean))
                return 0

        monkeypatch.setattr(counting, "_keyed_streams", lambda seed, words: (
            Recorder() for _ in words))
        # uneven amplitudes and phases, so the sums over 8 or more cells see
        # distinct values
        rng = np.random.default_rng(5)
        amps = rng.random(10) * np.exp(2j * np.pi * rng.random(10))
        source = SourceConfig(10, amps / np.linalg.norm(amps), rng.random(10), 0.1)
        cfg = replace(pipeline.preset("calibrated-witness"), source=source,
                      noise_channel="state")
        pipeline.run_simulation(cfg)
        rho, params = pipeline.sampling_state(cfg), pipeline.effective_params(cfg)
        expected = []
        for plan_st in pipeline.build_settings(cfg):
            m = setting_means(rho, plan_st.basis_s, plan_st.basis_i, cfg.trials_per_setting,
                              params)
            lam = m.coincidences
            expected += lam.ravel().tolist()
            expected += [max(m.singles_s[a] - lam[a, :].sum(), 0.0) for a in range(len(lam))]
            expected += [max(m.singles_i[b] - lam[:, b].sum(), 0.0) for b in range(lam.shape[1])]
        assert drawn == expected

    def test_one_seeding_call_and_cached_key_words(self, monkeypatch):
        calls = {"seed": 0, "word": 0}
        seed_states, key_word = counting._seed_states, counting._key_word

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(counting, "_seed_states", counted("seed", seed_states))
        monkeypatch.setattr(counting, "_key_word", counted("word", key_word))
        first = pipeline.run_simulation(small_plan_config(seed=3))
        assert calls["seed"] == 1
        calls["word"] = 0
        second = pipeline.run_simulation(small_plan_config(seed=4))
        assert calls == {"seed": 2, "word": 0}
        assert first.records != second.records

    def test_empty_plan_draws_nothing(self):
        assert simulate_plan(rho2(), [], 10, CountingParams(), seed=1) == []

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
