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

Simulated counts are drawn Poisson from deterministic per-outcome random
streams keyed by (master seed, setting name, outcome key), so tables are
reproducible regardless of execution order, thread count, or outcome
ordering.  Each stream is the one numpy's SeedSequence([seed, key word]) ->
PCG64 gives.  ``simulate_plan`` seeds the streams of a whole setting plan
once, in one vectorized pass bit-identical to that construction, from key
words hashed once per setting.  Every stream makes one Poisson draw, and
coincidences and singles are capped at the trial count.

A table holds int64 columns C, S_s, S_i, N next to its records.  Bootstrap
replica b of a table has one generator, SeedSequence([seed + b, table word])
-> PCG64, where the table word hashes the table's sorted record keys; it
draws every record in sorted-key order, so a replica does not depend on
record order either.  The bootstrap draws its replicas, a block at a time,
into a ``ReplicaStack`` of such columns with a leading replica axis;
``setting_cells`` reads tables and stacks alike.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .linalg import DensityOperator, marginal_probabilities
from .bases import MAX_MODES, MeasurementBasis, PlannedSetting, joint_probability_table

__all__ = [
    "CountingParams",
    "CountRecord",
    "CorrectedCount",
    "CoincidenceTable",
    "ReplicaStack",
    "plan_modes",
    "setting_cells",
    "SettingMeans",
    "setting_means",
    "simulate_plan",
    "simulate_setting",
    "subtract_accidentals",
    "cell_estimates",
    "with_accidental_noise",
    "outcome_stream",
    "save_table",
    "load_table",
    "bootstrap_table",
    "bootstrap_std",
    "CSV_HEADER",
]

CSV_HEADER = ("setting", "outcome_s", "outcome_i",
              "coincidences", "singles_s", "singles_i", "trials")


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
    """Counts for one (setting, signal outcome, idler outcome) cell."""

    setting: str
    outcome_s: int
    outcome_i: int
    coincidences: int
    singles_s: int
    singles_i: int
    trials: int

    def __post_init__(self) -> None:
        for name in ("coincidences", "singles_s", "singles_i"):
            if getattr(self, name) < 0:
                raise ValidationError(f"{name} must be non-negative")
        if self.trials < 1:
            raise ValidationError("trials must be at least 1")
        if self.coincidences > min(self.singles_s, self.singles_i):
            raise ValidationError("coincidences exceed the singles counts")
        if max(self.coincidences, self.singles_s, self.singles_i) > self.trials:
            raise ValidationError("counts exceed the trial count")

    @property
    def key(self) -> tuple:
        return (self.setting, self.outcome_s, self.outcome_i)


@dataclass(frozen=True)
class CorrectedCount:
    """A coincidence estimate with its propagated standard error."""

    value: float
    std_error: float


def cell_estimates(counts, corrected: bool):
    """Coincidence estimates and their variances from a (4, ...) array of
    C, S_s, S_i and N, keeping the axes after the first: the raw count with
    its Poisson variance, or when ``corrected`` the accidental-subtracted
    C' = C - S_s S_i / N with variance C + (S_s S_i / N)^2 (1/S_s + 1/S_i).
    C' may be negative and is kept as-is, so downstream sums stay unbiased;
    with either singles count at zero the correction term vanishes.
    """
    c, s, i, n = np.asarray(counts, dtype=float)
    if not corrected:
        return c, c
    with np.errstate(divide="ignore", invalid="ignore"):
        acc = s * i / n
        value, var = c - acc, c + acc * acc * (1.0 / s + 1.0 / i)
    no_singles = (s == 0) | (i == 0)
    return np.where(no_singles, c, value), np.where(no_singles, c, var)


def subtract_accidentals(record: CountRecord) -> CorrectedCount:
    """One record's accidental-subtracted coincidences (``cell_estimates``)
    with its independent-Poisson standard error."""
    value, var = cell_estimates([record.coincidences, record.singles_s,
                                 record.singles_i, record.trials], corrected=True)
    return CorrectedCount(value=float(value), std_error=math.sqrt(var))


@dataclass(frozen=True)
class SettingMeans:
    """Analytic count means for one setting (before Poisson sampling)."""

    coincidences: np.ndarray  # (n_s, n_i)
    singles_s: np.ndarray     # (n_s,)
    singles_i: np.ndarray     # (n_i,)


def setting_means(
    rho: DensityOperator,
    basis_s: MeasurementBasis,
    basis_i: MeasurementBasis,
    trials: int,
    params: CountingParams,
) -> SettingMeans:
    """Expected counts for every cell of one setting."""
    if trials < 1:
        raise ValidationError("trials must be at least 1")
    table = joint_probability_table(rho, basis_s, basis_i)
    marg_s = marginal_probabilities(rho, basis_s.vector_matrix, "signal")
    marg_i = marginal_probabilities(rho, basis_i.vector_matrix, "idler")
    for total, what in ((table.sum(), "joint"), (marg_s.sum(), "signal"), (marg_i.sum(), "idler")):
        if total > 1.0 + 1e-9:
            raise ValidationError(f"{what} probability table sums to {total}, above 1")
    n = float(trials)
    lam_true = n * params.P_S * params.eta_r * table
    lam_acc = n * params.P_S * params.P_I * np.outer(marg_s, marg_i)
    return SettingMeans(
        coincidences=lam_true + lam_acc,
        singles_s=n * params.P_S * marg_s,
        singles_i=n * params.P_I * marg_i,
    )


# numpy's SeedSequence entropy mixing (numpy/random/bit_generator.pyx): a
# pool of four uint32 words, hashmix constants INIT_A/MULT_A, mix
# multipliers MIX_MULT_L/MIX_MULT_R, output constants INIT_B/MULT_B.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = np.uint32(16)
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG_DEFAULT_MULTIPLIER_128


def _key_word(setting: str, *key_parts) -> int:
    """The 64-bit entropy word of one outcome key (independent of the seed)."""
    text = "\x1f".join([setting, *map(str, key_parts)])
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def _uint32_words(n: int) -> list[int]:
    """SeedSequence's little-endian uint32 split of a non-negative int."""
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _mix_pool(entropy: np.ndarray) -> list[np.ndarray]:
    """SeedSequence's entropy pool, one row per (N, L) uint32 entropy row."""
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * _MULT_A & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> _XSHIFT)

    def mix(x, y):
        result = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
        return result ^ (result >> _XSHIFT)

    length = entropy.shape[1]
    # entropy shorter than the pool is hashed as if padded with zero words
    pool = [hashmix(entropy[:, i] if i < length else np.zeros(len(entropy), np.uint32))
            for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, length):
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(entropy[:, src]))
    return pool


def _generate_state(pool: list[np.ndarray]) -> np.ndarray:
    """SeedSequence.generate_state(4, np.uint64) from each row of a pool."""
    const = _INIT_B
    halves = []
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ np.uint32(const)
        const = const * _MULT_B & _MASK32
        value = value * np.uint32(const)
        halves.append((value ^ (value >> _XSHIFT)).astype(np.uint64))
    return np.stack([lo | (hi << np.uint64(32)) for lo, hi in zip(halves[::2], halves[1::2])],
                    axis=1)


def _checked_seed(seed) -> int:
    seed = int(seed)
    if seed < 0:
        raise ValidationError(f"seed must be a non-negative integer, got {seed}")
    return seed


def _seed_states(seed: int, words) -> np.ndarray:
    """Row i is ``np.random.SeedSequence([seed, words[i]]).generate_state(4, np.uint64)``.

    The entropy of a row is the uint32 words of the seed followed by those of
    the key word: one word below 2**32, else two.  Rows are mixed in groups of
    equal entropy length, so seeds of any size stay exact.
    """
    seed = _checked_seed(seed)
    words = np.asarray(words, dtype=np.uint64).reshape(-1)
    lo = (words & np.uint64(_MASK32)).astype(np.uint32)
    hi = (words >> np.uint64(32)).astype(np.uint32)
    seed_words = _uint32_words(seed)
    states = np.empty((len(words), 4), dtype=np.uint64)
    one_word = hi == 0
    for rows, tail in ((one_word, (lo,)), (~one_word, (lo, hi))):
        if rows.any():
            entropy = np.empty((int(rows.sum()), len(seed_words) + len(tail)), np.uint32)
            entropy[:, :len(seed_words)] = seed_words
            for col, part in enumerate(tail, start=len(seed_words)):
                entropy[:, col] = part[rows]
            states[rows] = _generate_state(_mix_pool(entropy))
    return states


def _keyed_streams(seed: int, words):
    """Yield, per key word, a generator at the start of the stream that
    ``np.random.PCG64(np.random.SeedSequence([seed, word]))`` would give.

    One Generator serves the whole batch: each step loads the next stream's
    PCG64 state (``pcg_setseq_128_srandom_r`` applied to the seed state), so
    draw from it before advancing.
    """
    states = _seed_states(seed, words)
    # each stream loads its own state before its first draw; seed 0 is never used
    bitgen = np.random.PCG64(0)
    rng = np.random.Generator(bitgen)
    for row in states:
        s_hi, s_lo, i_hi, i_lo = row.tolist()
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        state = ((inc + (s_hi << 64 | s_lo)) * _PCG64_MULT + inc) & _MASK128
        bitgen.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                        "has_uint32": 0, "uinteger": 0}
        yield rng


def outcome_stream(seed: int, setting: str, *key_parts) -> np.random.Generator:
    """Deterministic random stream for one (seed, setting, outcome key)."""
    return next(_keyed_streams(seed, [_key_word(setting, *key_parts)]))


# bounded, since setting names come from callers; a full plan at MAX_MODES
# (both spaces, Bell d = 2..10, tomography) has 317 settings
@functools.lru_cache(maxsize=1024)
def _setting_words(name: str, labels_s: tuple, labels_i: tuple) -> np.ndarray:
    """The key words of one setting's streams: its cells in label order, then
    its signal singles, then its idler singles.  Hashed once per key."""
    words = np.array([_key_word(name, "cell", a, b) for a in labels_s for b in labels_i]
                     + [_key_word(name, "singles_s", a) for a in labels_s]
                     + [_key_word(name, "singles_i", b) for b in labels_i], dtype=np.uint64)
    words.setflags(write=False)
    return words


def simulate_plan(
    rho: DensityOperator,
    plan: list[PlannedSetting],
    trials: int,
    params: CountingParams,
    seed: int,
) -> list[CountRecord]:
    """Draw the count tables of planned settings, records in plan order.

    Every outcome cell and every singles counter draws from its own keyed
    stream, one scalar ``poisson`` call each; the streams of the whole plan
    are seeded together.  Singles are the sum of the setting's coincidences
    in that outcome plus an independent top-up, which keeps C_SI <= min(C_S,
    C_I) record by record; coincidences and singles are capped at the trial
    count, as in the bootstrap.
    """
    if not plan:
        return []
    words, means, shapes = [], [], []
    for st in plan:
        m = setting_means(rho, st.basis_s, st.basis_i, trials, params)
        lam = m.coincidences
        # column sums of a contiguous copy add in the order lam[:, b].sum() does
        means += [lam.ravel(), np.maximum(m.singles_s - lam.sum(axis=1), 0.0),
                  np.maximum(m.singles_i - np.ascontiguousarray(lam.T).sum(axis=1), 0.0)]
        words.append(_setting_words(st.name, st.basis_s.labels, st.basis_i.labels))
        shapes.append(lam.shape)
    means = np.concatenate(means)
    draws = np.fromiter((rng.poisson(mean) for rng, mean in
                         zip(_keyed_streams(seed, np.concatenate(words)), means)),
                        dtype=np.int64, count=len(means))
    records = []
    chunks = np.split(draws, np.cumsum([len(w) for w in words])[:-1])
    for st, (n_s, n_i), chunk in zip(plan, shapes, chunks):
        cells, top_s, top_i = np.split(chunk, [n_s * n_i, n_s * n_i + n_s])
        cells = np.minimum(cells, trials).reshape(n_s, n_i)
        singles_s = np.minimum(cells.sum(axis=1) + top_s, trials).tolist()
        singles_i = np.minimum(cells.sum(axis=0) + top_i, trials).tolist()
        cells = cells.tolist()
        records += [CountRecord(setting=st.name, outcome_s=int(lab_a), outcome_i=int(lab_b),
                                coincidences=cells[a][b], singles_s=singles_s[a],
                                singles_i=singles_i[b], trials=int(trials))
                    for a, lab_a in enumerate(st.basis_s.labels)
                    for b, lab_b in enumerate(st.basis_i.labels)]
    return records


def simulate_setting(
    rho: DensityOperator,
    basis_s: MeasurementBasis,
    basis_i: MeasurementBasis,
    trials: int,
    params: CountingParams,
    seed: int,
    setting_name: str | None = None,
) -> list[CountRecord]:
    """Draw one setting's count table from the detection model: the
    one-setting view of ``simulate_plan`` (no draw of its own)."""
    name = setting_name or f"{basis_s.name}|{basis_i.name}"
    return simulate_plan(rho, [PlannedSetting(name, basis_s, basis_i)], trials, params, seed)


@dataclass(frozen=True)
class CoincidenceTable:
    """An immutable collection of count records plus run metadata.

    Built once: the index of each setting's (outcome_s, outcome_i) cells to
    their record rows, settings in first-appearance order, and ``counts``,
    the (4, rows) int64 columns C, S_s, S_i and N in record order.
    """

    records: tuple[CountRecord, ...]
    metadata: dict = field(default_factory=dict)
    counts: np.ndarray = field(init=False, repr=False, compare=False)
    _index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "records", tuple(self.records))
        index: dict[str, dict[tuple[int, int], int]] = {}
        for row, rec in enumerate(self.records):
            cells = index.setdefault(rec.setting, {})
            cell = (rec.outcome_s, rec.outcome_i)
            if cell in cells:
                raise ValidationError(f"duplicate record key {rec.key}")
            cells[cell] = row
        try:
            counts = np.array([(r.coincidences, r.singles_s, r.singles_i, r.trials)
                               for r in self.records], dtype=np.int64).reshape(-1, 4).T
        except OverflowError:
            raise ValidationError("counts exceed the 64-bit integer range") from None
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "_index", index)

    def settings(self) -> list[str]:
        return list(self._index)

    def by_setting(self, setting: str) -> dict[tuple[int, int], CountRecord]:
        return {cell: self.records[row] for cell, row in self._index.get(setting, {}).items()}

    def restricted(self, settings) -> "CoincidenceTable":
        """The records of the given settings only, in table order."""
        wanted = set(settings)
        return CoincidenceTable(
            records=tuple(r for r in self.records if r.setting in wanted),
            metadata=dict(self.metadata),
        )

    def merged(self, other: "CoincidenceTable") -> "CoincidenceTable":
        """Cell-wise merge of two tables from identically configured runs."""
        index = {r.key: r for r in self.records}
        merged = dict(index)
        for rec in other.records:
            if rec.key in index:
                prev = index[rec.key]
                merged[rec.key] = CountRecord(
                    setting=rec.setting,
                    outcome_s=rec.outcome_s,
                    outcome_i=rec.outcome_i,
                    coincidences=prev.coincidences + rec.coincidences,
                    singles_s=prev.singles_s + rec.singles_s,
                    singles_i=prev.singles_i + rec.singles_i,
                    trials=prev.trials + rec.trials,
                )
            else:
                merged[rec.key] = rec
        return CoincidenceTable(records=tuple(merged.values()), metadata=dict(self.metadata))


def plan_modes(data, fallback: int | None = None) -> int:
    """The mode count the setting plans of ``data`` are built in: a state's
    (signal and idler must agree), else a table's D, else ``fallback``."""
    if isinstance(data, DensityOperator):
        if data.dim_signal != data.dim_idler:
            raise ValidationError("setting plans need equal signal and idler mode counts")
        return data.dim_signal
    if isinstance(data, CoincidenceTable):
        return int(data.metadata.get("D") or fallback)
    raise ValidationError("expected a DensityOperator or a CoincidenceTable")


@dataclass(frozen=True)
class ReplicaStack:
    """Poisson replicas of one table: ``counts`` is the (4, replicas, rows)
    int64 array of C, S_s, S_i and N, rows in the table's record order."""

    table: CoincidenceTable
    counts: np.ndarray


def setting_cells(data, settings, corrected: bool = False):
    """The cell values and variances of settings that share one cell shape,
    as (..., settings, n_s, n_i) arrays in basis label order: exact
    probabilities with zero variance from a DensityOperator, and
    ``cell_estimates`` of the settings' rows from a CoincidenceTable or a
    ReplicaStack (with its leading replica axis).  A setting whose cells are
    missing, incomplete or labelled otherwise raises one ValidationError.
    """
    if isinstance(data, DensityOperator):
        tables = np.array([joint_probability_table(data, st.basis_s, st.basis_i)
                           for st in settings])
        return tables, np.zeros(tables.shape)
    table = data.table if isinstance(data, ReplicaStack) else data
    if not isinstance(table, CoincidenceTable):
        raise ValidationError("expected a DensityOperator or a CoincidenceTable")
    rows = []
    for setting in settings:
        recs = table._index.get(setting.name, {})
        keys = [key for row in setting.cells for key in row]
        present = sum(key in recs for key in keys)
        if present != len(keys) or len(recs) != len(keys):
            raise ValidationError(
                f"setting {setting.name!r} missing, incomplete or mislabelled: {present} of "
                f"its {len(keys)} outcome cells among {len(recs)} records"
            )
        rows.append([[recs[key] for key in row] for row in setting.cells])
    return cell_estimates(data.counts[..., np.array(rows, dtype=np.intp)], corrected)


def _meta_path(path: Path) -> Path:
    return path.with_name(path.stem + ".meta.json")


def save_table(table: CoincidenceTable, path) -> None:
    """Write the counts CSV plus its JSON metadata sidecar."""
    path = Path(path)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        # csv quotes a field holding "\n" but not one holding "\r", which a
        # reader takes for a line end
        quoted = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_ALL)
        writer.writerow(CSV_HEADER)
        for rec in table.records:
            (quoted if "\r" in rec.setting else writer).writerow(
                [rec.setting, rec.outcome_s, rec.outcome_i,
                 rec.coincidences, rec.singles_s, rec.singles_i, rec.trials])
    with open(_meta_path(path), "w", encoding="utf-8") as fh:
        json.dump(table.metadata, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_table(path) -> CoincidenceTable:
    """Read a counts CSV (strict schema); parse errors name the line number."""
    path = Path(path)
    records = []
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise ValidationError(f"{path}: empty counts file") from None
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
                    rec = CountRecord(
                        setting=row[0],
                        outcome_s=int(row[1]),
                        outcome_i=int(row[2]),
                        coincidences=int(row[3]),
                        singles_s=int(row[4]),
                        singles_i=int(row[5]),
                        trials=int(row[6]),
                    )
                except (ValueError, ValidationError) as exc:
                    raise ValidationError(f"{path}:{lineno}: {exc}") from None
                records.append(rec)
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text ({exc})") from None
    meta = _meta_path(path)
    metadata = {}
    if meta.exists():
        with open(meta, "r", encoding="utf-8") as fh:
            try:
                metadata = json.load(fh)
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise ValidationError(f"{meta}: not valid JSON ({exc})") from None
        if not isinstance(metadata, dict):
            raise ValidationError(f"{meta}: expected a JSON object")
        dim = metadata.get("D")
        if "D" in metadata and (type(dim) is not int or not 2 <= dim <= MAX_MODES):
            raise ValidationError(
                f"{meta}: D must be an integer from 2 to {MAX_MODES}, got {dim!r}")
    try:
        return CoincidenceTable(records=tuple(records), metadata=metadata)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


# Replicas are drawn and evaluated in blocks of about this many (replica, record)
# cells: all 100 replicas of an EoF table at once held 5 MB of counts and temporaries.
_BLOCK_CELLS = 8192


def _replica_blocks(table: CoincidenceTable, seed: int, n_replicas: int):
    """Yield the (4, replicas, rows) counts of Poisson replicas seed, seed + 1,
    ... (``n_replicas`` in all), a block of replicas at a time.  Replica b
    makes one ``poisson`` call on the (3, rows) means C, S_s - C and S_i - C
    in sorted-key order, from the generator of SeedSequence([b, word]) with
    ``word`` the key word of the table's sorted record keys.  Coincidences
    and singles (coincidences plus top-up) are capped at the trial count, so
    every replica keeps 0 <= C <= min(S_s, S_i) and max(C, S_s, S_i) <= N."""
    seed = _checked_seed(seed)
    keys = [rec.key for rec in table.records]
    order = sorted(range(len(keys)), key=keys.__getitem__)
    word = _key_word("bootstrap", *(part for row in order for part in keys[row]))
    c, s, i, n = table.counts
    means = np.stack([c, s - c, i - c])[:, order].astype(float)
    block = max(1, _BLOCK_CELLS // max(len(keys), 1))
    for first in range(seed, seed + n_replicas, block):
        counts = np.empty((4, min(block, seed + n_replicas - first), len(keys)), np.int64)
        counts[3] = n
        draws = np.empty((3, len(keys)), np.int64)
        for b in range(counts.shape[1]):
            rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([first + b, word])))
            draws[:, order] = rng.poisson(means)
            coincidences = np.minimum(draws[0], n)
            counts[:3, b] = (coincidences, np.minimum(coincidences + draws[1], n),
                             np.minimum(coincidences + draws[2], n))
        yield counts


def bootstrap_table(table: CoincidenceTable, seed: int) -> CoincidenceTable:
    """Replica ``seed`` of the bootstrap as a table, records in table order:
    the one-replica view of the draw ``bootstrap_std`` stacks (no draw of its
    own).  A negative seed raises ValidationError."""
    counts = next(_replica_blocks(table, seed, 1))[:, 0].T.tolist()
    return CoincidenceTable(
        records=tuple(CountRecord(rec.setting, rec.outcome_s, rec.outcome_i, *row)
                      for rec, row in zip(table.records, counts)),
        metadata=dict(table.metadata),
    )


def bootstrap_std(table: CoincidenceTable, statistic, n_bootstrap: int, seed: int) -> float:
    """Bootstrap standard error (ddof = 1) of a statistic over Poisson replicas.

    Replica b is ``bootstrap_table(table, seed + b)``: one generator keyed by
    (seed + b, the table's sorted record keys) draws all of its records, so
    the replicas depend neither on record order nor on the block size.
    Replicas are drawn a block at a time into a ReplicaStack, and
    ``statistic(stack)`` returns one value per replica of the stack, NaN for
    a replica it refuses.  Refused replicas are dropped; with fewer than two
    survivors the error is NaN, never a silent zero.
    """
    if n_bootstrap < 2:
        raise ValidationError(f"a bootstrap error needs at least 2 replicas, got {n_bootstrap}")
    values = np.concatenate([np.asarray(statistic(ReplicaStack(table, counts)), dtype=float)
                             for counts in _replica_blocks(table, seed, n_bootstrap)])
    kept = values[~np.isnan(values)]
    return float(np.std(kept, ddof=1)) if kept.size > 1 else math.nan
