"""Every demo script runs to completion from a scratch directory."""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import cli_env

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_all_demos_collected():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(tmp_path, demo):
    script = tmp_path / demo.name
    shutil.copy(demo, script)
    res = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=cli_env(),
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
