"""Finite-statistics photon counting: simulation, accidental subtraction, tables.

Count model for one measurement setting with outcome cells (a, b), joint
outcome probabilities P(a,b) and side marginals P(a), Q(b) taken against the
full mode space:

    true coincidences   N * P_S * eta_r * P(a,b)
    accidentals         N * P_S * P(a) * P_I * Q(b)
    signal singles      N * P_S * P(a)
    idler singles       N * P_I * Q(b)

with P_I = eta_r * P_S + P_bg_idler (retrieved excitations at the per-trial
occupancy scale P_S, plus uncorrelated background).  The accidental mean is
the product of the singles means over N, so the standard subtraction
C' = C_SI - C_S C_I / N removes it without bias, cell by cell.

Simulated counts are drawn Poisson from one deterministic random stream per
setting, keyed by (master seed, setting name, sorted outcome labels), so
tables are reproducible regardless of execution order or outcome ordering.
Each stream is the one numpy's SeedSequence([seed, setting word]) -> PCG64
gives, and it makes one Poisson call on the setting's means in sorted-label
order: the cells by (a, b), then the signal singles top-ups, then the idler
ones.  ``plan_means`` tabulates a whole setting plan one cell shape at a
time and holds the seed-free part: the means, stream keys and row keys.
``PlanMeans.draw(seed)`` draws each setting from its own stream and writes
the table's columns directly, capped at the trial count, so a run's
seed-free inputs can be computed once per configuration and drawn with each
seed (``pipeline.run_simulation`` does).

A table is shared row keys plus its own counts: ``RowKeys`` holds a setting
name per row and the int64 outcome labels, checked for repeats once, and
every cache derived from them (setting index, bootstrap order and words,
cell rows, sub-keys of ``restricted``); the table holds int64 counts C, S_s,
S_i, N, checked by one array pass, and its metadata.  Its CountRecords are
a view built on first read.  A bootstrap of a table has one stream per row
kind, SeedSequence([seed, kind word]) -> PCG64, for the Poisson means C,
S_s - C and S_i - C, each kind word hashing the table's sorted row keys;
replica b is the b-th draw of every row from each stream, rows in
sorted-key order, so a replica does not depend on row order either.  A raw
estimate reads C only, so its replicas draw from the C stream alone.
Replicas come a block at a time as a ``ReplicaStack`` with a leading
replica axis; ``setting_cells`` reads tables and stacks alike.

A state's exact tables are read through the ``SettingsPlan`` of their
settings sequence, which holds settings of one cell shape: their stacked
kets and the kets' |v_a|^2 |w_b|^2.  For the source coefficients it read
last, a plan also keeps the kets' |<a, b|Psi>|^2, so a source state's tables
are one ``SourceState.table`` multiply-add per noise fraction; any other
state's are one ``outcome_probabilities`` call.  ``settings_plan`` keeps the
plans the exact readers re-read, keyed (as cell rows are) by the sequence's
value: settings with one name and the same basis objects; count means read
one plan per cell shape, built for the call alone.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .files import CSV_HEADER, json_text, meta_path, read_block, read_json
from . import linalg
from .linalg import DensityOperator, SourceState
from .bases import MAX_MODES, MeasurementBasis, PlannedSetting

__all__ = [
    "CountingParams",
    "CountRecord",
    "CoincidenceTable",
    "ReplicaStack",
    "plan_modes",
    "setting_cells",
    "SettingsPlan",
    "settings_plan",
    "SettingMeans",
    "setting_means",
    "PlanMeans",
    "plan_means",
    "simulate_setting",
    "cell_estimates",
    "with_accidental_noise",
    "save_table",
    "load_table",
    "bootstrap_table",
    "bootstrap_std",
    "MAX_TRIALS",
]

# No Poisson mean exceeds its trial count, and numpy refuses means above about 9.2e18.
MAX_TRIALS = 2**62   # the largest trial count simulated or bootstrapped


@dataclass(frozen=True)
class CountingParams:
    """Detection model parameters.

    P_S: per-trial probability of recording a signal photon.
    eta_r: retrieval efficiency of the stored excitation.
    P_bg_idler: per-trial uncorrelated idler background probability.
    """

    P_S: float = 0.006
    eta_r: float = 0.1
    P_bg_idler: float = 0.0

    def __post_init__(self) -> None:
        for name in ("P_S", "eta_r", "P_bg_idler"):
            val = getattr(self, name)
            if not (0.0 <= val <= 1.0):
                raise ValidationError(f"{name} must lie in [0, 1], got {val}")
        if self.eta_r + self.P_I > 1.0:
            raise ValidationError("eta_r + P_I exceeds 1; coincidence rate is ill-defined")

    @property
    def P_I(self) -> float:
        """Total per-trial idler detection probability."""
        return self.eta_r * self.P_S + self.P_bg_idler


def with_accidental_noise(params: CountingParams, noise_fraction: float) -> CountingParams:
    """Raise the idler background so accidentals mimic an isotropic noise admixture.

    A source with isotropic noise fraction p has maximally mixed reduced
    states, and so do the accidentals of this count model; the two coincide
    exactly when P_I / eta_r = p / (1 - p).  The returned parameters add the
    required background on top of the existing one.
    """
    if not (0.0 <= noise_fraction < 1.0):
        raise ValidationError("noise fraction must lie in [0, 1) for the counting channel")
    background = params.P_bg_idler + params.eta_r * noise_fraction / (1.0 - noise_fraction)
    try:
        return replace(params, P_bg_idler=background)
    except ValidationError as exc:
        raise ValidationError(
            f"noise fraction {noise_fraction!r} on the counting channel raises P_bg_idler "
            f"from {params.P_bg_idler!r} to {background!r}: {exc}") from None


@dataclass(frozen=True)
class CountRecord:
    """Counts for one (setting, signal outcome, idler outcome) cell: one row
    of a CoincidenceTable, checked by the same rule."""

    setting: str
    outcome_s: int
    outcome_i: int
    coincidences: int
    singles_s: int
    singles_i: int
    trials: int

    def __post_init__(self) -> None:
        CoincidenceTable(records=(self,))   # the table's checks, on one row

    @property
    def key(self) -> tuple:
        return (self.setting, self.outcome_s, self.outcome_i)


class _RowError(ValidationError):
    """A table check that failed at one row."""

    def __init__(self, row: int, key: tuple, reason: str):
        super().__init__(f"row {row} {key!r}: {reason}")
        self.row, self.reason = row, reason


def cell_estimates(counts, corrected: bool):
    """Coincidence estimates and their variances from a (4, ...) array of
    C, S_s, S_i and N, keeping the axes after the first: the raw count with
    its Poisson variance, or when ``corrected`` the accidental-subtracted
    C' = C - S_s S_i / N with variance C + (S_s S_i / N)^2 (1/S_s + 1/S_i).
    C' may be negative and is kept as-is, so downstream sums stay unbiased;
    with either singles count at zero the correction term vanishes.  The raw
    estimate reads C alone, so ``counts`` may then hold C only.
    """
    if not corrected:
        c = np.asarray(counts[0], dtype=float)
        return c, c
    c, s, i, n = np.asarray(counts, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        acc = s * i / n
        value, var = c - acc, c + acc * acc * (1.0 / s + 1.0 / i)
    no_singles = (s == 0) | (i == 0)
    return np.where(no_singles, c, value), np.where(no_singles, c, var)


@dataclass(frozen=True)
class SettingMeans:
    """Analytic count means for one setting (before Poisson sampling)."""

    coincidences: np.ndarray  # (n_s, n_i)
    singles_s: np.ndarray     # (n_s,)
    singles_i: np.ndarray     # (n_i,)


# Settings plans of at most this many settings sequences are kept, the least
# recently read dropped first.  One D = 10 point of an exact scan reads 14
# sequences (witness and scan settings in two spaces, Bell d = 2..10, one
# tomography pair), and D = 4, 6, 8 and 10 together 44.
_PLANS = 64


def _cell_shape(settings):
    """The (n_s, n_i) cell shape of settings read together, None for none;
    settings of more than one cell shape raise ValidationError."""
    shapes = sorted({(len(st.basis_s.labels), len(st.basis_i.labels)) for st in settings})
    if len(shapes) > 1:
        raise ValidationError(f"settings read together need one cell shape, got {shapes}")
    return shapes[0] if shapes else None


class SettingsPlan:
    """What reading the tables of one settings sequence needs (kept per
    sequence by ``settings_plan``): the settings' mode dimensions, their
    read-only stacked (m, n_s, D) and (m, n_i, D) kets and the kets'
    ``linalg.product_norms``.  For the source coefficients it read last it
    also keeps what depends on them and not on p (``source_piece``), among
    it the ``SourceState.pure_table`` of the kets.  No settings, settings of
    more than one cell shape or bases of more than one dimension raise
    ValidationError."""

    def __init__(self, settings):
        self.settings = tuple(settings)
        if not self.settings:
            raise ValidationError("a settings plan needs at least one setting")
        _cell_shape(self.settings)
        dims = {(st.basis_s.dim, st.basis_i.dim) for st in self.settings}
        if len(dims) > 1:
            raise ValidationError("measurement vectors do not match the state dimensions")
        self.dims = dims.pop()
        self.kets_s = linalg._frozen(np.array([st.basis_s.vector_matrix for st in self.settings]))
        self.kets_i = linalg._frozen(np.array([st.basis_i.vector_matrix for st in self.settings]))
        self.noise = linalg._frozen(linalg.product_norms(self.kets_s, self.kets_i))
        self._source = None, {}

    def source_piece(self, rho: SourceState, build):
        """``build(plan, rho)``: a piece of this plan's reads that depends on
        the source coefficients c and not on p, built once for the last c
        read (compared by dtype and bytes)."""
        key = rho.coefficients.dtype.str, rho.coefficients.tobytes()
        if self._source[0] != key:
            self._source = key, {}
        pieces = self._source[1]
        if build not in pieces:
            pieces[build] = build(self, rho)
        return pieces[build]

    def table(self, rho: DensityOperator) -> np.ndarray:
        """The (m, n_s, n_i) outcome tables on rho: a source state's
        ``SourceState.table`` of the plan's two pieces, any other state's one
        ``outcome_probabilities`` call."""
        if self.dims != (rho.dim_signal, rho.dim_idler):
            raise ValidationError("measurement vectors do not match the state dimensions")
        if isinstance(rho, SourceState):
            return rho.table(self.source_piece(rho, _pure_table), self.noise)
        return linalg.outcome_probabilities(rho, self.kets_s, self.kets_i)


def _pure_table(plan: SettingsPlan, rho: SourceState) -> np.ndarray:
    """The plan's |<a, b|Psi>|^2, read-only."""
    return linalg._frozen(rho.pure_table(plan.kets_s, plan.kets_i))


_stored_plan = functools.lru_cache(maxsize=_PLANS)(SettingsPlan)


def settings_plan(settings) -> SettingsPlan:
    """The ``SettingsPlan`` of a settings sequence, found by its value: built
    on first read and kept, at most ``_PLANS`` of them."""
    return _stored_plan(tuple(settings))


def _mean_blocks(rho: DensityOperator, settings, trials: int, params: CountingParams):
    """Yield the count means of settings one cell shape at a time, each
    shape's ``SettingsPlan`` built for this call and not kept: its indices
    into ``settings``, coincidence means (m, n_s, n_i) and signal (m, n_s)
    and idler (m, n_i) singles means, the side marginals taken with its
    table."""
    if trials < 1:
        raise ValidationError("trials must be at least 1")
    n = float(trials)
    groups: dict[tuple, list[int]] = {}
    for k, st in enumerate(settings):
        groups.setdefault(_cell_shape((st,)), []).append(k)
    for idx in groups.values():
        plan = SettingsPlan([settings[k] for k in idx])
        tables = plan.table(rho)
        m, n_s, n_i = tables.shape
        ms = linalg.marginal_probabilities(
            rho, plan.kets_s.reshape(-1, rho.dim_signal), "signal").reshape(m, n_s)
        mi = linalg.marginal_probabilities(
            rho, plan.kets_i.reshape(-1, rho.dim_idler), "idler").reshape(m, n_i)
        for totals, what in ((tables.reshape(m, -1).sum(axis=1), "joint"),
                             (ms.sum(axis=1), "signal"), (mi.sum(axis=1), "idler")):
            if totals.max() > 1.0 + 1e-9:
                raise ValidationError(f"{what} probability table sums to {totals.max()}, above 1")
        lam_true = n * params.P_S * params.eta_r * tables
        lam_acc = n * params.P_S * params.P_I * (ms[:, :, None] * mi[:, None, :])
        yield idx, lam_true + lam_acc, n * params.P_S * ms, n * params.P_I * mi


def setting_means(
    rho: DensityOperator,
    basis_s: MeasurementBasis,
    basis_i: MeasurementBasis,
    trials: int,
    params: CountingParams,
) -> SettingMeans:
    """Expected counts for every cell of one setting: the one-setting view of
    the means ``plan_means`` tabulates."""
    setting = PlannedSetting(f"{basis_s.name}|{basis_i.name}", basis_s, basis_i)
    ((_, lam, singles_s, singles_i),) = _mean_blocks(rho, [setting], trials, params)
    return SettingMeans(coincidences=lam[0], singles_s=singles_s[0], singles_i=singles_i[0])


def _key_word(setting: str, *key_parts) -> int:
    """The 64-bit entropy word of one key (independent of the seed)."""
    text = "\x1f".join([setting, *map(str, key_parts)])
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def _stream(seed, word: int) -> np.random.Generator:
    """The keyed stream of (seed, key word): numpy's
    ``PCG64(SeedSequence([seed, word]))``.  A negative seed raises
    ValidationError."""
    seed = int(seed)
    if seed < 0:
        raise ValidationError(f"seed must be a non-negative integer, got {seed}")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, word])))


def _setting_key(name: str, labels_s: tuple, labels_i: tuple):
    """A setting's stream word, hashing its name and sorted labels, and the
    sorted-label order of its means laid out as its cells in label order,
    then its signal top-ups, then its idler top-ups."""
    n_s, n_i = len(labels_s), len(labels_i)
    o_s = np.array(sorted(range(n_s), key=labels_s.__getitem__), dtype=np.intp)
    o_i = np.array(sorted(range(n_i), key=labels_i.__getitem__), dtype=np.intp)
    order = np.concatenate([(o_s[:, None] * n_i + o_i).ravel(), n_s * n_i + o_s,
                            n_s * (n_i + 1) + o_i])
    order.setflags(write=False)
    return _key_word(name, tuple(sorted(labels_s)), tuple(sorted(labels_i))), order


@dataclass(frozen=True)
class PlanMeans:
    """The seed-free part of a plan's simulation: the table's row keys, the
    trial count and, per cell shape (n_s, n_i), its table rows
    and each setting's stream word, sorted-label order and means in that
    order.  ``draw`` makes the seeded part."""

    row_keys: RowKeys
    trials: int
    blocks: tuple

    def draw(self, seed: int) -> CoincidenceTable:
        """The table of ``seed``: each setting makes one ``poisson`` call on
        its sorted means from its own keyed stream.  Singles are the sum of
        the setting's coincidences in that outcome plus an independent
        top-up, which keeps C_SI <= min(C_S, C_I) row by row; coincidences
        and singles are capped at the trial count, as in the bootstrap."""
        trials = self.trials
        counts = np.empty((4, len(self.row_keys.setting)), dtype=np.int64)
        counts[3] = trials
        for rows, n_s, n_i, streams in self.blocks:
            draws = np.empty((len(streams), n_s * n_i + n_s + n_i), dtype=np.int64)
            for r, (word, order, means) in enumerate(streams):
                draws[r, order] = _stream(seed, word).poisson(means)
            cells = np.minimum(draws[:, :n_s * n_i].reshape(-1, n_s, n_i), trials)
            counts[0, rows] = cells.reshape(len(streams), -1)
            counts[1, rows] = np.repeat(np.minimum(cells.sum(axis=2) + draws[:, n_s * n_i:-n_i],
                                                   trials), n_i, axis=1)
            counts[2, rows] = np.tile(np.minimum(cells.sum(axis=1) + draws[:, -n_i:], trials),
                                      (1, n_s))
        return _table(self.row_keys, counts)


def plan_means(rho: DensityOperator, plan: list[PlannedSetting], trials: int,
               params: CountingParams) -> PlanMeans:
    """The seed-free part of a plan's table: the row keys, one row per key of
    each setting's ``cells`` (settings in plan order), the means one cell
    shape at a time and each setting's stream key.  An empty plan raises
    ValidationError."""
    if not plan:
        raise ValidationError("a settings plan needs at least one setting")
    keys = [_setting_key(st.name, st.basis_s.labels, st.basis_i.labels) for st in plan]
    setting, *labels = zip(*[(st.name, *key) for st in plan for row in st.cells for key in row])
    start = np.cumsum([0] + [len(st.cells) * len(st.cells[0]) for st in plan])
    blocks = []
    for idx, lam, mean_s, mean_i in _mean_blocks(rho, plan, trials, params):
        m, n_s, n_i = lam.shape
        # sums over a contiguous last axis add in the order lam[a, :].sum() does
        means = np.maximum(np.concatenate([
            lam.reshape(m, -1), mean_s - lam.sum(axis=2),
            mean_i - np.ascontiguousarray(lam.transpose(0, 2, 1)).sum(axis=2)], axis=1), 0.0)
        rows = start[idx][:, None] + np.arange(n_s * n_i)
        streams = tuple((*keys[k], means[r, keys[k][1]]) for r, k in enumerate(idx))
        for array in (rows, *(sorted_means for *_, sorted_means in streams)):
            array.setflags(write=False)   # shared by every draw of a cached plan
        blocks.append((rows, n_s, n_i, streams))
    return PlanMeans(RowKeys(setting, np.array(labels, dtype=np.int64)), trials, tuple(blocks))


def simulate_setting(
    rho: DensityOperator,
    basis_s: MeasurementBasis,
    basis_i: MeasurementBasis,
    trials: int,
    params: CountingParams,
    seed: int,
    setting_name: str | None = None,
) -> list[CountRecord]:
    """Draw one setting's count records from the detection model: the
    records of a one-setting plan's table (no draw of its own)."""
    name = setting_name or f"{basis_s.name}|{basis_i.name}"
    return list(plan_means(rho, [PlannedSetting(name, basis_s, basis_i)], trials,
                           params).draw(seed).records)


def _columns(rows):
    """The setting, label and count columns of rows laid out as CSV_HEADER."""
    setting, *columns = list(zip(*rows)) or [()] * 7
    return setting, columns[:2], columns[2:]


def _checked_counts(counts: np.ndarray, key_of) -> np.ndarray:
    """(4, rows) int64 counts, made read-only, after one array check refuses,
    naming it by ``key_of(row)``, a row that breaks 0 <= C <= min(S_s, S_i),
    max(C, S_s, S_i) <= N or N >= 1."""
    c, s, i, n = counts
    bad = np.stack([np.minimum(c, np.minimum(s, i)) < 0, n < 1, c > np.minimum(s, i),
                    np.maximum(c, np.maximum(s, i)) > n])
    if bad.any():
        row = int(bad.any(axis=0).argmax())
        raise _RowError(row, key_of(row), (
            "counts must be non-negative", "trials must be at least 1",
            "coincidences exceed the singles counts",
            "counts exceed the trial count")[int(bad[:, row].argmax())])
    counts.setflags(write=False)
    return counts


class RowKeys:
    """The row keys of count tables: a setting name per row (``setting``) and
    (2, rows) int64 outcome ``labels``, refused, naming the row, if a key
    repeats.  Tables drawn from one configuration share one RowKeys, and with
    it every cache derived from the keys: the setting index, the bootstrap
    order and key word, the cell rows per settings plan and the sub-keys per
    set of setting names."""

    def __init__(self, setting: tuple, labels: np.ndarray):
        keys = tuple(zip(setting, *labels.tolist()))
        if len(set(keys)) < len(keys):
            seen = set()
            row = next(r for r, key in enumerate(keys) if key in seen or seen.add(key))
            raise _RowError(row, keys[row], "duplicate record key")
        labels.setflags(write=False)
        self.setting, self.labels, self.keys = setting, labels, keys
        self._cell_rows = {}
        self._sub_keys = {}

    @functools.cached_property
    def index(self) -> dict:
        """Each setting's (outcome_s, outcome_i) cells to their rows."""
        index: dict[str, dict[tuple[int, int], int]] = {}
        for row, (name, a, b) in enumerate(self.keys):
            index.setdefault(name, {})[a, b] = row
        return index

    @functools.cached_property
    def replica_key(self):
        """The rows in sorted-key order, the inverse of that order and the
        bootstrap key words of the row kinds C, S_s - C and S_i - C, each
        hashing the kind and the sorted keys: what every replica draws by."""
        keys = self.keys
        order = np.array(sorted(range(len(keys)), key=keys.__getitem__), dtype=np.intp)
        parts = [part for row in order for part in keys[row]]
        return order, np.argsort(order), [_key_word("bootstrap", kind, *parts)
                                          for kind in ("C", "S_s-C", "S_i-C")]

    def cell_rows(self, settings: tuple) -> np.ndarray:
        """The (settings, n_s, n_i) rows of settings that share one cell shape,
        cells in basis label order; cached per settings sequence, found by its
        value.  A setting whose cells are missing, incomplete or labelled
        otherwise raises one ValidationError."""
        if settings not in self._cell_rows:
            rows = []
            for setting in settings:
                recs = self.index.get(setting.name, {})
                keys = [key for row in setting.cells for key in row]
                present = sum(key in recs for key in keys)
                if present != len(keys) or len(recs) != len(keys):
                    raise ValidationError(
                        f"setting {setting.name!r} missing, incomplete or mislabelled: "
                        f"{present} of its {len(keys)} outcome cells among {len(recs)} records")
                rows.append([[recs[key] for key in row] for row in setting.cells])
            self._cell_rows[settings] = np.array(rows, dtype=np.intp)
        return self._cell_rows[settings]

    def sub_keys(self, wanted: frozenset):
        """The rows of the named settings, in order, and their RowKeys."""
        if wanted not in self._sub_keys:
            rows = np.array([r for r, name in enumerate(self.setting) if name in wanted],
                            dtype=np.intp)
            self._sub_keys[wanted] = rows, RowKeys(tuple(self.setting[r] for r in rows),
                                                   self.labels[:, rows])
        return self._sub_keys[wanted]


def _table(row_keys: RowKeys, counts: np.ndarray, metadata=None) -> "CoincidenceTable":
    """A table on shared row keys: its counts are checked as any table's."""
    table = object.__new__(CoincidenceTable)
    table._init(row_keys, _checked_counts(counts, row_keys.keys.__getitem__), metadata)
    return table


class CoincidenceTable:
    """An immutable count table plus run metadata: shared ``row_keys`` (a
    setting name per row, ``setting``, and (2, rows) int64 outcome
    ``labels``) and its own (4, rows) int64 ``counts`` C, S_s, S_i and N.
    One array check refuses, naming it, a row that breaks
    0 <= C <= min(S_s, S_i), max(C, S_s, S_i) <= N, N >= 1 or the int64
    range, or repeats a key.  ``records=`` gives the columns as CountRecords;
    ``records`` reads them back, built once and not rechecked.
    """

    def __init__(self, setting=(), labels=(), counts=(), metadata=None, *, records=None):
        if records is not None:
            setting, labels, counts = _columns([(r.setting, r.outcome_s, r.outcome_i,
                                                 r.coincidences, r.singles_s, r.singles_i,
                                                 r.trials) for r in records])
        setting = tuple(setting)
        try:
            labels = np.array(labels, dtype=np.int64).reshape(2, -1)
            counts = np.array(counts, dtype=np.int64).reshape(4, -1)
        except OverflowError:
            row = next(r for r, values in enumerate(zip(*labels, *counts))
                       if not all(-2**63 <= v < 2**63 for v in values))
            raise _RowError(row, setting[row], "counts or labels exceed the 64-bit integer "
                            "range") from None
        if not len(setting) == labels.shape[1] == counts.shape[1]:
            raise ValidationError(f"{len(setting)} setting names, {labels.shape[1]} label "
                                  f"rows and {counts.shape[1]} count rows differ")
        counts = _checked_counts(counts, lambda row: (setting[row], *labels[:, row].tolist()))
        self._init(RowKeys(setting, labels), counts, metadata)

    def _init(self, row_keys: RowKeys, counts: np.ndarray, metadata) -> None:
        self.row_keys, self.setting, self.labels = row_keys, row_keys.setting, row_keys.labels
        self.counts = counts
        self.metadata = {} if metadata is None else metadata

    @functools.cached_property
    def records(self) -> tuple[CountRecord, ...]:
        records = []
        for row in zip(self.setting, *self.labels.tolist(), *self.counts.tolist()):
            rec = object.__new__(CountRecord)
            rec.__dict__.update(zip(CSV_HEADER, row))   # the CSV columns are its fields
            records.append(rec)
        return tuple(records)

    def settings(self) -> list[str]:
        return list(dict.fromkeys(self.setting))

    def restricted(self, settings) -> "CoincidenceTable":
        """The rows of the given settings only, in table order.  The result
        depends only on the set of names; its row keys are shared by every
        table on these keys restricted to that set."""
        rows, sub_keys = self.row_keys.sub_keys(frozenset(settings))
        return _table(sub_keys, self.counts[:, rows], dict(self.metadata))

    def merged(self, other: "CoincidenceTable") -> "CoincidenceTable":
        """Cell-wise merge of two tables from identically configured runs:
        this table's rows, with the counts of the other's equal keys added,
        then the other's new rows in its order.  Tables whose metadata name
        different mode counts D raise ValidationError."""
        dims = self.metadata.get("D"), other.metadata.get("D")
        if None not in dims and dims[0] != dims[1]:
            raise ValidationError(f"cannot merge tables of D = {dims[0]} and D = {dims[1]} modes")
        setting = self.setting + other.setting
        labels = np.concatenate([self.labels, other.labels], axis=1)
        slots = {}
        slot = [slots.setdefault(key, len(slots)) for key in zip(setting, *labels.tolist())]
        counts = np.zeros((4, len(slots)), dtype=np.int64)
        np.add.at(counts, (slice(None), slot), np.concatenate([self.counts, other.counts], axis=1))
        if (counts < 0).any():
            raise ValidationError("merged counts exceed the 64-bit integer range")
        first = np.unique(slot, return_index=True)[1].tolist()   # slots in appearance order
        return CoincidenceTable([setting[r] for r in first], labels[:, first], counts,
                                dict(self.metadata))


def plan_modes(data, num_modes: int | None = None) -> tuple[int, int]:
    """(d, dim): the dim-mode space the setting plans of ``data`` are built
    in, a state's (signal and idler must agree), else a table's D, else
    ``num_modes``, and the d modes analysed in it, ``num_modes``, else all
    of them.  A table with neither D nor ``num_modes``, or d outside 1..dim,
    raises ValidationError."""
    if isinstance(data, DensityOperator):
        if data.dim_signal != data.dim_idler:
            raise ValidationError("setting plans need equal signal and idler mode counts")
        dim = data.dim_signal
    elif isinstance(data, CoincidenceTable):
        dim = int(data.metadata.get("D") or num_modes or 0)
        if not dim:
            raise ValidationError("num_modes required (no D in table metadata)")
    else:
        raise ValidationError("expected a DensityOperator or a CoincidenceTable")
    d = int(num_modes or dim)
    if not 1 <= d <= dim:
        raise ValidationError(f"{d} modes do not fit the {dim}-mode data")
    return d, dim


@dataclass(frozen=True)
class ReplicaStack:
    """Poisson replicas of one table: ``counts`` is the (4, replicas, rows)
    int64 array of C, S_s, S_i and N, rows in the table's row order (C alone,
    (1, replicas, rows), for a raw estimate)."""

    table: CoincidenceTable
    counts: np.ndarray


def setting_cells(data, settings, corrected: bool = False):
    """The cell values and variances of settings that share one cell shape,
    as (..., settings, n_s, n_i) arrays in basis label order: exact
    probabilities with zero variance from a DensityOperator, read through
    the ``settings_plan`` of the settings, and ``cell_estimates`` of the
    settings' rows from a CoincidenceTable or a ReplicaStack (with its
    leading replica axis).  Settings of more than one cell shape, or a
    setting whose cells are missing, incomplete or labelled otherwise, raise
    one ValidationError.
    """
    settings = tuple(settings)
    if isinstance(data, DensityOperator):
        tables = settings_plan(settings).table(data) if settings else np.empty(0)
        return tables, np.zeros(tables.shape)
    _cell_shape(settings)
    table = data.table if isinstance(data, ReplicaStack) else data
    if not isinstance(table, CoincidenceTable):
        raise ValidationError("expected a DensityOperator or a CoincidenceTable")
    rows = table.row_keys.cell_rows(settings)
    return cell_estimates((data.counts if corrected else data.counts[:1])[..., rows], corrected)


def _sidecar(metadata, meta: Path) -> dict:
    """Sidecar metadata read by ``files.SIDECAR_FORMAT``; D (up to the bases'
    mode limit) gets one message for a bad type or range."""
    dim = metadata.get("D", 2) if type(metadata) is dict else 2
    if type(dim) is not int or not 2 <= dim <= MAX_MODES:
        raise ValidationError(f"{meta}: D must be an integer from 2 to {MAX_MODES}, got {dim!r}")
    return read_block("sidecar", metadata, f"{meta}: ")


def save_table(table: CoincidenceTable, path) -> None:
    """Write the counts CSV plus its JSON metadata sidecar; metadata that
    ``load_table`` would refuse raises ValidationError before either is written."""
    path = Path(path)
    meta = meta_path(path)
    text = json_text(table.metadata)
    _sidecar(json.loads(text), meta)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        # csv quotes a field holding "\n" but not one holding "\r", which a
        # reader takes for a line end
        quoted = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_ALL)
        writer.writerow(CSV_HEADER)
        for row in zip(table.setting, *table.labels.tolist(), *table.counts.tolist()):
            (quoted if "\r" in row[0] else writer).writerow(row)
    meta.write_text(text, encoding="utf-8")


def load_table(path) -> CoincidenceTable:
    """Read a counts CSV (strict schema; parse errors name the line number)
    and its sidecar, if there is one, read by ``files.SIDECAR_FORMAT``."""
    path = Path(path)
    rows, lines = [], []
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise ValidationError(f"{path}: empty counts file")
            if tuple(header) != CSV_HEADER:
                raise ValidationError(
                    f"{path}: unexpected columns {header}; expected {list(CSV_HEADER)}"
                )
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != len(CSV_HEADER):
                    raise ValidationError(f"{path}:{lineno}: expected {len(CSV_HEADER)} fields")
                try:
                    rows.append([row[0], *map(int, row[1:])])
                except ValueError as exc:
                    raise ValidationError(f"{path}:{lineno}: {exc}") from None
                lines.append(lineno)
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text ({exc})") from None
    meta = meta_path(path)
    metadata = _sidecar(read_json(meta) if meta.exists() else {}, meta)
    try:
        return CoincidenceTable(*_columns(rows), metadata)
    except _RowError as exc:
        raise ValidationError(f"{path}:{lines[exc.row]}: {exc.reason}") from None


# Replicas are drawn and evaluated in blocks of about this many (replica, record)
# cells: all 100 replicas of an EoF table at once held 5 MB of counts and temporaries.
_BLOCK_CELLS = 8192


def _replica_blocks(table: CoincidenceTable, seed: int, n_replicas: int,
                    singles: bool = True):
    """Yield the (4, replicas, rows) counts of Poisson replicas 0, 1, ...
    (``n_replicas`` in all) of ``seed``, a block of replicas at a time.  Each
    row kind, the means C, S_s - C and S_i - C in sorted-key order, has one
    stream ``_stream(seed, word)`` with ``word`` its key word in
    ``RowKeys.replica_key``, and each block makes one ``poisson`` call on
    those means per kind, replica after replica, so replica b is the b-th
    draw of each stream whatever the block size.  Coincidences and singles
    (coincidences plus top-up) are capped at the trial count, so every
    replica keeps 0 <= C <= min(S_s, S_i) and max(C, S_s, S_i) <= N.
    Without ``singles`` a replica draws from the C stream alone, the same
    coincidences bit for bit, and a block holds (1, replicas, rows)."""
    order, inverse, words = table.row_keys.replica_key
    c, s, i, n = table.counts
    if n.max(initial=0) > MAX_TRIALS:
        raise ValidationError(f"trial count {n.max()} above the bootstrap's limit {MAX_TRIALS}")
    kinds = [c, s - c, i - c][:3 if singles else 1]
    streams = [(_stream(seed, word), kind[order].astype(float)) for word, kind in zip(words, kinds)]
    block = max(1, _BLOCK_CELLS // max(len(order), 1))
    for first in range(0, n_replicas, block):
        size = (min(block, n_replicas - first), len(order))
        counts = np.stack([rng.poisson(means, size) for rng, means in streams])[..., inverse]
        counts[0] = np.minimum(counts[0], n)
        counts[1:] = np.minimum(counts[0] + counts[1:], n)
        yield np.concatenate([counts, np.broadcast_to(n, counts[:1].shape)]) if singles else counts


def bootstrap_table(table: CoincidenceTable, seed: int) -> CoincidenceTable:
    """Replica 0 of the bootstrap of ``seed`` as a table, rows in table order:
    the one-replica view of the draw ``bootstrap_std`` stacks (no draw of its
    own).  A negative seed raises ValidationError."""
    counts = next(_replica_blocks(table, seed, 1))[:, 0]
    return _table(table.row_keys, counts, dict(table.metadata))


def bootstrap_std(table: CoincidenceTable, statistic, n_bootstrap: int, seed: int,
                  singles: bool = True) -> float:
    """Bootstrap standard error (ddof = 1) of a statistic over Poisson replicas.

    Replica b is the b-th draw of one stream per row kind, keyed by (seed,
    the kind and the table's sorted row keys), so the replicas depend neither
    on row order nor on the block size; replica 0 is ``bootstrap_table``.
    Replicas are drawn a block at a time into a ReplicaStack, and
    ``statistic(stack)`` returns one value per replica of the stack, NaN for
    a replica it refuses.  Refused replicas are dropped; with fewer than two
    survivors the error is NaN, never a silent zero.  A statistic that reads
    no singles (a raw estimate) passes ``singles=False``: its replicas draw
    from the C stream alone, the same coincidences.
    """
    if n_bootstrap < 2:
        raise ValidationError(f"a bootstrap error needs at least 2 replicas, got {n_bootstrap}")
    values = np.concatenate([np.asarray(statistic(ReplicaStack(table, counts)), dtype=float)
                             for counts in _replica_blocks(table, seed, n_bootstrap, singles)])
    kept = values[~np.isnan(values)]
    return float(np.std(kept, ddof=1)) if kept.size > 1 else math.nan
