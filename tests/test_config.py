"""qcert's file formats: one key table per JSON block of the config file and
of the counts sidecar, both loaded strictly."""

import ast
import contextlib
import copy
import io
import json
import re
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, reject, settings, strategies as st

from qcert import CountingParams, SourceConfig, ValidationError, cli, files, save_table
from qcert.counting import MAX_TRIALS
from qcert.files import CONFIG_FORMAT, SIDECAR_FORMAT
from qcert.pipeline import PRESET_NAMES, SimulationConfig, preset, run_simulation

README = Path(__file__).resolve().parents[1] / "README.md"


def small_config(**fields) -> dict:
    return SimulationConfig(source=SourceConfig.uniform(4), trials_per_setting=1000,
                            spaces=("X",), bell_dimensions=(2,), tomo_pair=(0, 1),
                            **fields).to_json_dict()


def run_config(data, directory: Path) -> list[tuple[int, str]]:
    """Exit code and stderr of simulate --config and sweep --config, in process."""
    (directory / "cfg.json").write_text(json.dumps(data))
    results = []
    for args in (["simulate", "--out-dir", str(directory / "run")],
                 ["sweep", "--grid", "0,0.1", "--out", str(directory / "sweep.csv")]):
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([args[0], "--config", str(directory / "cfg.json"), *args[1:]])
        results.append((code, err.getvalue()))
    return results


def with_value(data: dict, block: str, key: str, value) -> dict:
    data = copy.deepcopy(data)
    (data if block == "config" else data[block])[key] = value
    return data


# Wrong input this format used to let through, and the field the message names.
REFUSED = [
    ("config", "spaces", "XK", "config.spaces"),
    ("counting", "P_S", True, "counting.P_S"),
    ("config", "repetition_rate_hz", True, "config.repetition_rate_hz"),
    ("counting", "P_S", "0.006", "counting.P_S"),
    ("config", "repetition_rate_hz", "16000", "config.repetition_rate_hz"),
    ("config", "trails_per_setting", 5, "'trails_per_setting'"),
    ("counting", "P_s", 0.006, "'P_s'"),
    ("config", "schema_version", 9, "config.schema_version"),
    ("source", "amplitude", 1.0, "'amplitude'"),
    ("config", "tomo_pair", [0, 1, 2], "tomo_pair"),
    ("source", "coefficients_im", [0.0, 0.0, 0.0], "source.coefficients_im"),
    ("config", "seed", -1, "seed"),
    ("source", "phases_deg", [0.0, 0.0, float("nan"), 0.0], "phase_mismatch"),
    # above MAX_TRIALS, beyond the Poisson means numpy draws
    ("config", "trials_per_setting", 2**63, "trials_per_setting"),
    ("config", "trials_per_setting", 2**62 + 1, "trials_per_setting"),
]


@pytest.mark.parametrize("block, key, value, named", REFUSED)
def test_refused_before_any_output(tmp_path, block, key, value, named):
    for code, err in run_config(with_value(small_config(), block, key, value), tmp_path):
        assert code == 2, err
        assert named in err and len(err.strip().splitlines()) == 1
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


@pytest.mark.parametrize("key", list(CONFIG_FORMAT["source"]))
def test_every_source_key_is_required(key):
    data = small_config()
    del data["source"][key]
    with pytest.raises(ValidationError, match=f"source.{key} is missing"):
        SimulationConfig.from_json_dict(data)


DEFAULTS = SimulationConfig(source=SourceConfig.uniform(10))


def test_missing_keys_take_the_dataclass_defaults():
    source = DEFAULTS.to_json_dict()["source"]
    assert SimulationConfig.from_json_dict({"source": source}) == DEFAULTS


def test_max_trials_draws_with_every_photon_detected():
    # a product source and P_S = 1: Poisson means up to MAX_TRIALS
    cfg = SimulationConfig(source=SourceConfig(2, [1, 0]), counting=CountingParams(1.0, 0.5),
                           trials_per_setting=MAX_TRIALS, spaces=(), bell_dimensions=(2,),
                           tomo_pair=(0, 1), noise_channel="state")
    assert (run_simulation(cfg).counts[3] == MAX_TRIALS).all()
    with pytest.raises(ValidationError, match="trials_per_setting"):
        replace(cfg, trials_per_setting=2**63 - 1)


def test_tomo_pair_of_three_modes_refused():
    with pytest.raises(ValidationError, match="tomo_pair must name two modes"):
        SimulationConfig(source=SourceConfig.uniform(4), bell_dimensions=(2,),
                         tomo_pair=(0, 1, 2))


# One value of each JSON type; a replacement is drawn from the types the
# key does not take.
JSON_VALUES = {
    "null": st.none(),
    "bool": st.booleans(),
    "int": st.integers(),
    "float": st.floats(allow_nan=False, allow_infinity=False),
    "str": st.text(max_size=4),
    "list": st.lists(st.integers() | st.text(max_size=2), max_size=3),
    "object": st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
}
TAKES = {"int": {"int"}, "number": {"int", "float"}, "str": {"str"}, "object": {"object"}}
PRESET_DATA = {name: preset(name).to_json_dict() for name in PRESET_NAMES}


@st.composite
def broken_configs(draw):
    data = PRESET_DATA[draw(st.sampled_from(PRESET_NAMES))]
    block = draw(st.sampled_from(list(CONFIG_FORMAT)))
    if draw(st.booleans()):
        key = draw(st.text(min_size=1, max_size=6).filter(lambda k: k not in CONFIG_FORMAT[block]))
        return with_value(data, block, key, 0)
    key = draw(st.sampled_from(list(CONFIG_FORMAT[block])))
    kind = CONFIG_FORMAT[block][key]
    taken = {"list"} if kind.startswith("list of ") else TAKES[kind]
    other = draw(st.sampled_from(sorted(JSON_VALUES.keys() - taken)))
    return with_value(data, block, key, draw(JSON_VALUES[other]))


@settings(deadline=None, max_examples=40)
@given(broken_configs())
def test_a_wrong_type_or_unknown_key_exits_2_before_any_output(data):
    with tempfile.TemporaryDirectory() as tmp:
        for code, err in run_config(data, Path(tmp)):
            assert code == 2, err
            assert "Traceback" not in err and err.startswith("error: bad simulation config")
        assert [p.name for p in Path(tmp).iterdir()] == ["cfg.json"]


@st.composite
def valid_configs(draw):
    d = draw(st.integers(2, 10))
    parts = st.floats(-1.0, 1.0)
    amps = np.array([complex(draw(parts), draw(parts)) for _ in range(d)])
    if np.linalg.norm(amps) < 1e-3:
        amps[0] = 1.0
    phases = draw(st.lists(st.floats(-1e6, 1e6), min_size=d, max_size=d))
    j, k = draw(st.lists(st.integers(0, d - 1), min_size=2, max_size=2, unique=True))
    unit = st.floats(0.0, 1.0)
    try:   # the counting channel's noise must leave eta_r + P_I <= 1
        return SimulationConfig(
            source=SourceConfig(d, amps / np.linalg.norm(amps), phases, draw(unit)),
            counting=CountingParams(P_S=draw(unit), eta_r=draw(st.floats(0.0, 0.5)),
                                    P_bg_idler=draw(st.floats(0.0, 0.2))),
            trials_per_setting=draw(st.integers(1, 10**9)),
            seed=draw(st.integers(0, 2**64)),
            spaces=draw(st.lists(st.sampled_from(["X", "K"]), unique=True)),
            bell_dimensions=draw(st.lists(st.integers(2, d), unique=True)),
            tomo_pair=(j, k),
            noise_channel=draw(st.sampled_from(["counting", "state"])),
            repetition_rate_hz=draw(st.floats(1e-3, 1e9)))
    except ValidationError:
        reject()


@settings(deadline=None, max_examples=60)
@given(valid_configs())
def test_every_saved_config_loads_back_equal(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        cfg.save(Path(tmp) / "config.json")
        back = SimulationConfig.load(Path(tmp) / "config.json")
    # a phase goes to disk in degrees, which gives its radians back to one ulp
    phases = cfg.source.phase_mismatch
    assert (np.abs(back.source.phase_mismatch - phases) <= np.spacing(np.abs(phases))).all()
    assert replace(back, source=replace(back.source, phase_mismatch=phases)) == cfg


def readme_config_rows() -> list[tuple[str, str, str, str]]:
    text = README.read_text(encoding="utf-8")
    return re.findall(r"^\| (config|source|counting) \| `(\w+)` \| ([a-z ]+?) \| (.+?) \|$",
                      text, flags=re.MULTILINE)


def test_readme_documents_the_config_key_tables():
    rows = readme_config_rows()
    documented = {}
    for block, key, kind, _ in rows:
        documented.setdefault(block, {})[key] = kind
    assert documented == CONFIG_FORMAT
    assert len(rows) == sum(map(len, CONFIG_FORMAT.values()))


def test_readme_defaults_are_the_dataclass_defaults():
    saved = DEFAULTS.to_json_dict()
    for block, key, _, default in readme_config_rows():
        if default.startswith("`"):
            assert json.loads(default.strip("`")) == (
                saved if block == "config" else saved[block])[key], (block, key)


def test_readme_documents_the_sidecar_keys():
    # the keys a run's counts.meta.json carries: the run metadata plus the
    # manifest hash that simulate adds, each of its JSON type
    rows = re.findall(r"^\| sidecar \| `(\w+)` \| ([a-z ]+?) \| optional \|$",
                      README.read_text(encoding="utf-8"), flags=re.MULTILINE)
    assert {"sidecar": dict(rows)} == SIDECAR_FORMAT and len(rows) == len(dict(rows))
    table = run_simulation(SimulationConfig.from_json_dict(small_config()))
    assert dict(rows).keys() == set(table.metadata) | {"manifest_hash"}


def test_files_imports_only_the_stdlib_and_errors():
    tree = ast.parse(Path(files.__file__).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert all(a.name.split(".")[0] in sys.stdlib_module_names for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert ((node.level, node.module) == (1, "errors") if node.level
                    else node.module.split(".")[0] in sys.stdlib_module_names), node.module


SMALL_RUN = run_simulation(SimulationConfig.from_json_dict(small_config()))
SIDECAR = {**SMALL_RUN.metadata, "manifest_hash": "0" * 64}


@st.composite
def broken_sidecars(draw):
    choice = draw(st.sampled_from(["unknown key", "wrong type", "schema_version"]))
    if choice == "unknown key":
        key = draw(st.text(min_size=1, max_size=6).filter(lambda k: k not in SIDECAR))
        return {**SIDECAR, key: 0}
    if choice == "schema_version":
        return {**SIDECAR, "schema_version": draw(st.integers().filter(lambda v: v != 1))}
    key = draw(st.sampled_from(sorted(SIDECAR)))
    taken = TAKES[SIDECAR_FORMAT["sidecar"][key]]
    other = draw(st.sampled_from(sorted(JSON_VALUES.keys() - taken)))
    return {**SIDECAR, key: draw(JSON_VALUES[other])}


@settings(deadline=None, max_examples=40)
@given(broken_sidecars())
def test_a_broken_sidecar_exits_2_before_any_output(sidecar):
    with tempfile.TemporaryDirectory() as tmp:
        counts = Path(tmp) / "counts.csv"
        save_table(SMALL_RUN, counts)
        (Path(tmp) / "counts.meta.json").write_text(json.dumps(sidecar))
        for args in (["certify"], ["bell", "--out", f"{tmp}/bell.csv"],
                     ["tomo", "--pair", "0,1"]):
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = cli.main([*args, "--counts", str(counts)])
            assert code == 2, err.getvalue()
            assert "counts.meta.json" in err.getvalue()
            assert len(err.getvalue().strip().splitlines()) == 1
        assert sorted(p.name for p in Path(tmp).iterdir()) == ["counts.csv", "counts.meta.json"]
