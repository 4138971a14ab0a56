"""The estimators over a bootstrap replica stack against the per-table
estimators of tests/conftest.py, replica by replica."""

import math
from dataclasses import replace

import numpy as np
import pytest

from qcert import CoincidenceTable, SourceConfig, bases, certify, counting, tomo
from qcert.certify import eof_bound
from qcert.counting import ReplicaStack, setting_cells
from qcert.errors import ComputationError
from qcert.pipeline import SimulationConfig, run_simulation
from qcert.tomo import reconstruct

from conftest import oracle_eof_b, oracle_setting_cells, oracle_tomo_fidelity, oracle_visibility

REPLICAS = 24
SEED = 5
D = 10


@pytest.fixture(scope="module")
def table():
    cfg = SimulationConfig(source=SourceConfig.uniform(D, noise_fraction=0.2),
                           trials_per_setting=10**5, seed=3, spaces=("X",),
                           bell_dimensions=(), tomo_pair=(0, 5))
    return run_simulation(cfg)


def replica_counts(table, seed, n_replicas):
    """The counts of replicas 0, 1, ... of ``seed`` as one stack."""
    return np.concatenate(list(counting._replica_blocks(table, seed, n_replicas)), axis=1)


def replica_table(stack: ReplicaStack, b: int) -> CoincidenceTable:
    """Replica b of a stack as a table of records."""
    counts = stack.counts[:, b].T.tolist()
    return CoincidenceTable(
        records=tuple(replace(rec, coincidences=c, singles_s=s, singles_i=i)
                      for rec, (c, s, i, _) in zip(stack.table.records, counts)),
        metadata=stack.table.metadata)


def statistic_values(monkeypatch, module, estimate, empty=(), cleared=3):
    """Run ``estimate()`` with ``module.bootstrap_std`` replaced by one call of
    its statistic on all the replicas it would draw; the settings named in
    ``empty`` ((replica, setting name) pairs) first lose their coincidences
    (``cleared`` = 1) or every count (3).  Returns the stack and the
    statistic's values."""
    seen = {}

    def direct(table, statistic, n_bootstrap, seed, singles=True):
        counts = replica_counts(table, seed, n_bootstrap)
        for b, name in empty:
            rows = [row for row, rec in enumerate(table.records) if rec.setting == name]
            counts[:cleared, b, rows] = 0
        seen["stack"] = ReplicaStack(table, counts)
        seen["values"] = np.asarray(statistic(seen["stack"]))
        return 0.0

    monkeypatch.setattr(module, "bootstrap_std", direct)
    estimate()
    return seen["stack"], seen["values"]


@pytest.mark.parametrize("corrected", [False, True])
def test_pair_visibilities_match_the_per_table_oracle(table, corrected):
    settings = [st for j in range(D) for k in range(j + 1, D)
                for st in bases.witness_settings("X", j, k, D)]
    stack = ReplicaStack(table, replica_counts(table, SEED, REPLICAS))
    vis, var, status = certify._visibilities(*setting_cells(stack, settings, corrected))
    assert vis.shape == (REPLICAS, len(settings))
    for b in range(REPLICAS):
        boot = replica_table(stack, b)
        for n, st in enumerate(settings):
            value, err, flag = oracle_visibility(*oracle_setting_cells(boot, st, corrected))
            assert vis[b, n] == pytest.approx(value, rel=1e-12, abs=1e-15)
            assert math.sqrt(var[b, n]) == pytest.approx(err, rel=1e-12, abs=1e-15)
            assert status[b, n] == flag
    # the table's own witness result holds the same per-pair arrays
    res = certify.witness(table, space="X", corrected=corrected)
    assert res.pairs == tuple((j, k) for j in range(D) for k in range(j + 1, D))
    for n, st in enumerate(settings):
        value, err, flag = oracle_visibility(*oracle_setting_cells(table, st, corrected))
        assert res.values.flat[n] == pytest.approx(value, rel=1e-12, abs=1e-15)
        assert res.errors.flat[n] == pytest.approx(err, rel=1e-12, abs=1e-15)
        assert res.statuses.flat[n] == flag


@pytest.mark.parametrize("corrected", [False, True])
def test_eof_b_functional_matches_the_per_table_oracle(table, monkeypatch, corrected):
    pairs = [(j, k) for j in range(D) for k in range(j + 1, D)]
    stack, values = statistic_values(monkeypatch, certify, lambda: eof_bound(
        table, corrected=corrected, n_bootstrap=REPLICAS, seed=SEED))
    assert values.shape == (REPLICAS,)
    for b in range(REPLICAS):
        expected = oracle_eof_b(replica_table(stack, b), "X", pairs, corrected, D)
        assert values[b] == pytest.approx(expected, rel=1e-12, abs=1e-15)
    assert eof_bound(table, corrected=corrected, n_bootstrap=2).coherence_sum == pytest.approx(
        oracle_eof_b(table, "X", pairs, corrected, D), rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("corrected", [False, True])
def test_tomography_fidelity_matches_the_per_table_oracle(table, monkeypatch, corrected):
    plan = bases.tomo_settings(0, 5, num_modes=D)
    stack, values = statistic_values(monkeypatch, tomo, lambda: reconstruct(
        table, (0, 5), corrected=corrected, n_bootstrap=REPLICAS, seed=SEED))
    assert values.shape == (REPLICAS,)
    for b in range(REPLICAS):
        expected = oracle_tomo_fidelity(replica_table(stack, b), plan, corrected)
        assert values[b] == pytest.approx(expected, rel=1e-12, abs=1e-15)
    assert reconstruct(table, (0, 5), corrected=corrected, n_bootstrap=2).fidelity == (
        pytest.approx(oracle_tomo_fidelity(table, plan, corrected), rel=1e-12, abs=1e-15))


# no counts at all; or, after subtraction, a negative scan total
@pytest.mark.parametrize("corrected, cleared", [(False, 3), (True, 3), (True, 1)])
def test_empty_scan_replica_reads_nan_where_the_oracle_raised(table, monkeypatch, corrected,
                                                              cleared):
    pairs = [(j, k) for j in range(D) for k in range(j + 1, D)]
    scan = bases.scan_setting("X", D).name
    stack, values = statistic_values(monkeypatch, certify, lambda: eof_bound(
        table, corrected=corrected, n_bootstrap=REPLICAS, seed=SEED), empty=[(3, scan)],
        cleared=cleared)
    with pytest.raises(ComputationError, match="no net counts"):
        oracle_eof_b(replica_table(stack, 3), "X", pairs, corrected, D)
    assert math.isnan(values[3])
    assert np.isfinite(np.delete(values, 3)).all()


@pytest.mark.parametrize("corrected", [False, True])
def test_empty_tomography_setting_reads_nan_where_the_oracle_raised(table, monkeypatch,
                                                                    corrected):
    plan = bases.tomo_settings(0, 5, num_modes=D)
    empty = [(1, plan[4].name)] + [(6, st.name) for st in plan]   # one setting; all nine
    stack, values = statistic_values(monkeypatch, tomo, lambda: reconstruct(
        table, (0, 5), corrected=corrected, n_bootstrap=REPLICAS, seed=SEED), empty=empty)
    with pytest.raises(ComputationError, match=r"setting \(y,y\) has no net counts"):
        oracle_tomo_fidelity(replica_table(stack, 1), plan, corrected)
    with pytest.raises(ComputationError, match="all tomography cells are zero"):
        oracle_tomo_fidelity(replica_table(stack, 6), plan, corrected)
    assert math.isnan(values[1]) and math.isnan(values[6])
    assert np.isfinite(np.delete(values, [1, 6])).all()
