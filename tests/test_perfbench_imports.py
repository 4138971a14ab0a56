"""The benchmark under perfbench/ imports qcert names; each must still exist."""

import ast
import importlib
import inspect
from pathlib import Path

from qcert.pipeline import run_simulation

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
