"""qcert's file formats: every format rule that more than one module knows.

The schema version, the key tables of the config file and of the counts
sidecar with their one reader, the counts CSV header, where a sidecar lives,
and one rule each to write and to read JSON.  Only the stdlib is imported."""

from __future__ import annotations

import json
from pathlib import Path

from .errors import ValidationError

SCHEMA_VERSION = 1

# The config file: one table per JSON block, mapping each key to its JSON
# type.  A number is read as a float and a list as a tuple; a bool is
# neither an int nor a number.  A missing key takes the dataclass default;
# the source block has none, so it and all of its keys are required.
CONFIG_FORMAT = {
    "config": {"schema_version": "int", "source": "object", "counting": "object",
               "trials_per_setting": "int", "seed": "int", "spaces": "list of str",
               "bell_dimensions": "list of int", "tomo_pair": "list of int",
               "noise_channel": "str", "repetition_rate_hz": "number"},
    "source": {"D": "int", "coefficients_re": "list of number",
               "coefficients_im": "list of number", "phases_deg": "list of number",
               "noise_fraction": "number"},
    "counting": {"P_S": "number", "eta_r": "number", "P_bg_idler": "number"},
}

# The counts sidecar: a run's metadata plus the manifest hash ``qcert simulate``
# adds.  Every key is optional; an unknown key is refused, as in the config file.
SIDECAR_FORMAT = {"sidecar": {
    "seed": "int", "D": "int", "trials_per_setting": "int", "schema_version": "int",
    "P_S": "number", "eta_r": "number", "P_bg_idler": "number", "noise_fraction": "number",
    "repetition_rate_hz": "number", "noise_channel": "str", "manifest_hash": "str"}}
_FORMATS = {**CONFIG_FORMAT, **SIDECAR_FORMAT}
_REQUIRED_KEYS = {"config": ("source",), "source": tuple(CONFIG_FORMAT["source"])}
_JSON_TYPES = {"int": (int,), "number": (int, float), "str": (str,)}

CSV_HEADER = ("setting", "outcome_s", "outcome_i",
              "coincidences", "singles_s", "singles_i", "trials")


def meta_path(path: Path) -> Path:
    """The JSON sidecar of an output file: ``<stem>.meta.json`` beside it."""
    return path.with_name(path.stem + ".meta.json")


def json_text(obj) -> str:
    """The one JSON write rule: sorted keys, two-space indent, final newline."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def read_json(path):
    """A JSON file's value; text that is not UTF-8 JSON raises ValidationError naming the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValidationError(f"{path}: not valid JSON ({exc})") from None


def read_block(name: str, data, prefix: str) -> dict:
    """One JSON block, each value read as its key's type.  An unknown, missing or
    mistyped key, or another ``schema_version``, raises ValidationError after ``prefix``."""
    keys = _FORMATS[name]
    if type(data) is not dict:
        raise ValidationError(f"{prefix}{name} must be a JSON object")
    for key in data:
        if key not in keys:
            raise ValidationError(f"{prefix}{name}: unknown key {key!r}")
    for key in _REQUIRED_KEYS.get(name, ()):
        if key not in data:
            raise ValidationError(f"{prefix}{name}.{key} is missing")
    return {key: _read_value(name, key, value, prefix) for key, value in data.items()}


def _read_value(block: str, key: str, value, prefix: str):
    kind = _FORMATS[block][key]
    if kind == "object":
        return read_block(key, value, prefix)
    item = kind.removeprefix("list of ")
    listed = item != kind
    items = value if listed and type(value) is list else [value]
    if (listed and type(value) is not list) or any(type(v) not in _JSON_TYPES[item] for v in items):
        raise ValidationError(f"{prefix}{block}.{key}: expected {kind}, got {value!r}")
    if key == "schema_version" and value != SCHEMA_VERSION:
        raise ValidationError(f"{prefix}{block}.{key}: expected {SCHEMA_VERSION}, got {value}")
    if item == "number":
        items = [float(v) for v in items]
    return tuple(items) if listed else items[0]
