"""Canonical setting names used in count tables.

Names never contain commas so they stay single CSV fields:

* ``witX:0-5:x``   visibility setting, space X/K, mode pair, axis x/y/z
* ``diagX``        full-space coincidence scan in the X (or K) basis
* ``bell:d4:s0i1`` Bell-test setting for dimension d, signal/idler settings
* ``tomoX:0-5:xy`` pair tomography setting, axes per side
"""

from __future__ import annotations

import re

from .errors import ValidationError

_BELL = re.compile(r"^bell:d(\d+):s([01])i([01])$")


def witness_setting(space: str, j: int, k: int, axis: str) -> str:
    return f"wit{space}:{j}-{k}:{axis}"


def diag_setting(space: str) -> str:
    return f"diag{space}"


def bell_setting(d: int, s: int, i: int) -> str:
    return f"bell:d{d}:s{s}i{i}"


def tomo_setting(space: str, j: int, k: int, axis_s: str, axis_i: str) -> str:
    return f"tomo{space}:{j}-{k}:{axis_s}{axis_i}"


def parse_bell_setting(name: str):
    m = _BELL.match(name)
    if not m:
        return None
    return int(m.group(1)), int(m.group(2)), int(m.group(3))


def require_space(space: str) -> str:
    if space not in ("X", "K"):
        raise ValidationError(f"space must be 'X' or 'K', got {space!r}")
    return space
