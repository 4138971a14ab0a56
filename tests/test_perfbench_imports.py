"""The benchmark under perfbench/ imports qcert names; each must still exist."""

import ast
import importlib
import inspect
import math
from dataclasses import replace
from pathlib import Path

from qcert import (CoincidenceTable, CountRecord, SourceConfig, bootstrap_table, naming, pipeline,
                   simulate_setting)
from qcert.pipeline import (SimulationConfig, build_settings, effective_params, run_simulation,
                            sampling_state)

from conftest import SATURATING_SEED, saturating_table

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def qcert_imports():
    """(module, name, file) for every `from qcert... import name` in perfbench/*.py."""
    found = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "qcert":
                found.extend((node.module, alias.name, path.name) for alias in node.names)
    return found


def test_every_imported_name_resolves():
    found = qcert_imports()
    assert {module for module, _, _ in found} >= {"qcert", "qcert.pipeline"}
    missing = [(file, module, name) for module, name, file in found
               if not hasattr(importlib.import_module(module), name)]
    assert not missing


FITS = ("fit_noise_to_visibility", "fit_noise_to_eof", "fit_noise_to_pair_fidelity")


def test_perfbench_fit_calls_bind():
    """Every call perfbench makes to a noise fit still binds to its signature:
    (target, cfg), and (target, cfg, pair) for the pair fidelity."""
    calls = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                if name in FITS:
                    calls.append((name, len(node.args), [kw.arg for kw in node.keywords]))
    assert {name for name, _, _ in calls} == set(FITS)
    assert ("fit_noise_to_pair_fidelity", 3, []) in calls
    for name, n_args, keywords in calls:
        inspect.signature(getattr(pipeline, name)).bind(*range(n_args),
                                                         **dict.fromkeys(keywords))


def test_run_simulation_accepts_workers():
    assert "workers" in inspect.signature(run_simulation).parameters


def test_perfbench_reads_tables_as_records(monkeypatch):
    """perfbench builds tables with ``CoincidenceTable(records=...)`` and reads
    ``table.records`` and ``r.setting``, which the import check cannot see."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    cfg = SimulationConfig(source=SourceConfig.uniform(4, noise_fraction=0.1),
                           trials_per_setting=10**4, spaces=("X",), bell_dimensions=(),
                           tomo_pair=(0, 1))
    sub = layers.eof_subtable(run_simulation(cfg), 4)
    boot = bootstrap_table(sub, seed=3)
    for table in (sub, boot):
        assert table.records
        assert all(isinstance(r, CountRecord) for r in table.records)
    assert {r.setting for r in sub.records} == {
        naming.diag_setting("X")} | {naming.witness_setting("X", j, k, ax)
                                     for j in range(4) for k in range(j + 1, 4) for ax in "xy"}
    assert [r.key for r in boot.records] == [r.key for r in sub.records]


def test_check_counts_passes_a_saturated_corrected_bound(monkeypatch):
    """perfbench's counts-certify checks accept a table whose corrected
    formation bound saturates."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    op = {"index": 0, "preset": "calibrated-witness", "seed": SATURATING_SEED}
    result = workloads.analyse_counts(saturating_table(), SATURATING_SEED)
    assert not result["corrected"]["eof_refused"]
    assert result["corrected"]["eof_ebits"] == math.log2(10)
    assert workloads.check_counts(op, result) == []


def test_replayed_table_equals_run_simulation():
    """perfbench's traced replay rebuilds the counts-certify table from one
    ``simulate_setting`` per planned setting and fails the op unless it equals
    ``run_simulation``'s; the same table built the same way must match."""
    cfg = replace(pipeline.preset("calibrated-witness"), seed=SATURATING_SEED)
    rho, params = sampling_state(cfg), effective_params(cfg)
    records = []
    for st in build_settings(cfg):
        records.extend(simulate_setting(rho, st.basis_s, st.basis_i, cfg.trials_per_setting,
                                        params, cfg.seed, setting_name=st.name))
    table = CoincidenceTable(records=tuple(records), metadata={"D": cfg.source.num_modes})
    assert run_simulation(cfg, workers=1).records == table.records
