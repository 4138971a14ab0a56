"""The benchmark under perfbench/ imports qcert names; each must still exist."""

import ast
import importlib
import inspect
from pathlib import Path

from qcert import CountRecord, SourceConfig, bootstrap_table, naming
from qcert.pipeline import SimulationConfig, run_simulation

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
