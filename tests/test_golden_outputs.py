"""Golden CLI outputs: every file and stdout of a fixed command list on the
five presets, pinned by sha256 in ``golden_outputs.json``.

Each preset runs, in process through ``cli.main`` with seed 3 and
``--no-timestamp``: ``simulate``, ``certify`` raw and with
``--subtract-accidentals``, ``bell --counts --subtract-accidentals``,
``tomo``, ``bell --config --exact`` and ``sweep --config --grid 0,0.2``,
all on relative paths in one scratch directory.  The table holds the
sha256 of each of the 65 output files and of each command's exit code plus
stdout, and the numpy version it was made with: numpy does not fix its
``Generator.poisson`` streams across versions (NEP 19), so under another
version the test fails and names both.

Rewrite the table, after a change that alters outputs by design, with

    PYTHONPATH=src python tests/test_golden_outputs.py
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from qcert import cli
from qcert.pipeline import PRESET_NAMES

TABLE = Path(__file__).with_name("golden_outputs.json")


def preset_commands(name: str):
    """(label, argv) of the commands run on one preset, outputs under ``name/``."""
    counts, config = f"{name}/counts.csv", f"{name}/config.json"
    commands = [
        ("simulate", ["simulate", "--preset", name, "--out-dir", name]),
        ("certify", ["certify", "--counts", counts, "--out", f"{name}/report_raw.json"]),
        ("certify-corrected", ["certify", "--counts", counts, "--subtract-accidentals",
                               "--out", f"{name}/report_corrected.json"]),
        ("bell-counts", ["bell", "--counts", counts, "--subtract-accidentals",
                         "--out", f"{name}/bell_counts.csv"]),
        ("tomo", ["tomo", "--counts", counts, "--out", f"{name}/tomo.json"]),
        ("bell-exact", ["bell", "--config", config, "--exact",
                        "--out", f"{name}/bell_exact.csv"]),
        ("sweep", ["sweep", "--config", config, "--grid", "0,0.2",
                   "--out", f"{name}/sweep.csv"]),
    ]
    return [(f"{name} {label}", argv + ["--seed", "3", "--no-timestamp"])
            for label, argv in commands]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def golden_outputs(workdir: Path) -> dict:
    """Run every preset's commands in ``workdir`` and hash what they leave."""
    commands = {}
    with contextlib.chdir(workdir):
        for name in PRESET_NAMES:
            for label, argv in preset_commands(name):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = cli.main(argv)
                commands[label] = _sha256(f"{code}\n{out.getvalue()}".encode("utf-8"))
    files = {path.relative_to(workdir).as_posix(): _sha256(path.read_bytes())
             for path in sorted(workdir.rglob("*")) if path.is_file()}
    return {"numpy": np.__version__, "files": files, "commands": commands}


def test_cli_outputs_match_the_golden_table(tmp_path):
    golden = json.loads(TABLE.read_text(encoding="utf-8"))
    assert np.__version__ == golden["numpy"], (
        f"the golden table was made with numpy {golden['numpy']}, this is numpy "
        f"{np.__version__}; Poisson streams may differ, so rewrite the table")
    got = golden_outputs(tmp_path)
    assert len(golden["files"]) == 65 and len(golden["commands"]) == 35
    assert sorted(got["files"]) == sorted(golden["files"])
    assert sorted(got["commands"]) == sorted(golden["commands"])
    changed = [name for part in ("files", "commands") for name in golden[part]
               if got[part][name] != golden[part][name]]
    assert not changed


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        table = golden_outputs(Path(tmp))
    TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{len(table['files'])} files and {len(table['commands'])} commands -> {TABLE}")
    sys.exit(0)
