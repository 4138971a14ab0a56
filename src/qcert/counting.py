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

Counts are drawn Poisson from deterministic per-outcome random streams keyed
by (master seed, setting name, outcome key), so tables are reproducible
regardless of execution order, thread count, or outcome ordering.  Each
stream is the one numpy's SeedSequence([seed, key word]) -> PCG64 gives; the
streams of a setting (simulation) or of a table (bootstrap replica) are
seeded together in one vectorized pass, bit-identical to that construction.
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

from .errors import ComputationError, ValidationError
from .linalg import DensityOperator
from .bases import MAX_MODES, MeasurementBasis, PlannedSetting, joint_probability_table

__all__ = [
    "CountingParams",
    "CountRecord",
    "CorrectedCount",
    "CoincidenceTable",
    "plan_modes",
    "setting_cells",
    "SettingMeans",
    "setting_means",
    "simulate_setting",
    "subtract_accidentals",
    "estimate",
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
    extra = params.eta_r * noise_fraction / (1.0 - noise_fraction)
    return replace(params, P_bg_idler=params.P_bg_idler + extra)


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


def subtract_accidentals(record: CountRecord) -> CorrectedCount:
    """C' = C_SI - C_S C_I / N with independent-Poisson error propagation.

    The corrected value may be negative; it is kept as-is so downstream sums
    stay unbiased.  With either singles count at zero the correction term
    vanishes.  The standard error is
    sqrt(C_SI + (C_S C_I / N)^2 (1/C_S + 1/C_I)).
    """
    c, s, i, n = record.coincidences, record.singles_s, record.singles_i, record.trials
    if s == 0 or i == 0:
        return CorrectedCount(value=float(c), std_error=math.sqrt(c))
    acc = s * i / n
    var = c + acc * acc * (1.0 / s + 1.0 / i)
    return CorrectedCount(value=c - acc, std_error=math.sqrt(var))


def estimate(record: CountRecord, corrected: bool) -> CorrectedCount:
    """A cell's coincidence estimate: accidental-subtracted when ``corrected``,
    otherwise the raw count with its Poisson standard error."""
    if corrected:
        return subtract_accidentals(record)
    return CorrectedCount(value=float(record.coincidences),
                          std_error=math.sqrt(record.coincidences))


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
    r4 = rho.reshaped()
    v_s = basis_s.vector_matrix
    v_i = basis_i.vector_matrix
    marg_s = np.einsum("ax,xiyi,ay->a", v_s.conj(), r4, v_s, optimize=True).real
    marg_i = np.einsum("bx,ixiy,by->b", v_i.conj(), r4, v_i, optimize=True).real
    marg_s = np.clip(marg_s, 0.0, 1.0)
    marg_i = np.clip(marg_i, 0.0, 1.0)
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


@functools.lru_cache(maxsize=1 << 12, typed=True)
def _bootstrap_word(setting: str, outcome_s, outcome_i) -> int:
    """A record's bootstrap key word, memoized: every replica of a table
    reuses it.  A simulation uses each of its keys once, so those are not
    cached."""
    return _key_word(setting, "bootstrap", outcome_s, outcome_i)


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


def _seed_states(seed: int, words) -> np.ndarray:
    """Row i is ``np.random.SeedSequence([seed, words[i]]).generate_state(4, np.uint64)``.

    The entropy of a row is the uint32 words of the seed followed by those of
    the key word: one word below 2**32, else two.  Rows are mixed in groups of
    equal entropy length, so seeds of any size stay exact.
    """
    seed = int(seed)
    if seed < 0:
        raise ValidationError(f"seed must be a non-negative integer, got {seed}")
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


def simulate_setting(
    rho: DensityOperator,
    basis_s: MeasurementBasis,
    basis_i: MeasurementBasis,
    trials: int,
    params: CountingParams,
    seed: int,
    setting_name: str | None = None,
) -> list[CountRecord]:
    """Draw one setting's count table from the detection model.

    Every outcome cell and every singles counter draws from its own keyed
    stream; the setting's streams are seeded in one batch.  Singles are
    built as the sum of the cell's coincidences plus an independent top-up,
    which keeps C_SI <= min(C_S, C_I) record by record.
    """
    name = setting_name or f"{basis_s.name}|{basis_i.name}"
    means = setting_means(rho, basis_s, basis_i, trials, params)
    labels_s = basis_s.labels
    labels_i = basis_i.labels
    n_s, n_i = means.coincidences.shape

    words = ([_key_word(name, "cell", lab_a, lab_b) for lab_a in labels_s for lab_b in labels_i]
             + [_key_word(name, "singles_s", lab_a) for lab_a in labels_s]
             + [_key_word(name, "singles_i", lab_b) for lab_b in labels_i])
    streams = _keyed_streams(seed, words)

    cells = np.zeros((n_s, n_i), dtype=np.int64)
    for a in range(n_s):
        for b in range(n_i):
            cells[a, b] = next(streams).poisson(means.coincidences[a, b])

    singles_s = np.zeros(n_s, dtype=np.int64)
    for a in range(n_s):
        topup = max(means.singles_s[a] - means.coincidences[a, :].sum(), 0.0)
        singles_s[a] = cells[a, :].sum() + next(streams).poisson(topup)

    singles_i = np.zeros(n_i, dtype=np.int64)
    for b in range(n_i):
        topup = max(means.singles_i[b] - means.coincidences[:, b].sum(), 0.0)
        singles_i[b] = cells[:, b].sum() + next(streams).poisson(topup)

    records = []
    for a, lab_a in enumerate(labels_s):
        for b, lab_b in enumerate(labels_i):
            records.append(CountRecord(
                setting=name,
                outcome_s=int(lab_a),
                outcome_i=int(lab_b),
                coincidences=int(cells[a, b]),
                singles_s=int(singles_s[a]),
                singles_i=int(singles_i[b]),
                trials=int(trials),
            ))
    return records


@dataclass(frozen=True)
class CoincidenceTable:
    """An immutable collection of count records plus run metadata.

    Records are indexed once by setting, in first-appearance order, so
    per-setting lookups do not rescan the table.
    """

    records: tuple[CountRecord, ...]
    metadata: dict = field(default_factory=dict)
    _index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "records", tuple(self.records))
        index: dict[str, dict[tuple[int, int], CountRecord]] = {}
        for rec in self.records:
            cells = index.setdefault(rec.setting, {})
            cell = (rec.outcome_s, rec.outcome_i)
            if cell in cells:
                raise ValidationError(f"duplicate record key {rec.key}")
            cells[cell] = rec
        object.__setattr__(self, "_index", index)

    def settings(self) -> list[str]:
        return list(self._index)

    def by_setting(self, setting: str) -> dict[tuple[int, int], CountRecord]:
        return dict(self._index.get(setting, {}))

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


def setting_cells(data, setting: PlannedSetting, corrected: bool = False):
    """One setting's cell values and variances, one row per signal label and
    one column per idler label, in basis label order.

    From a DensityOperator: the exact probability table, with zero variance.
    From a CoincidenceTable: each cell's ``estimate`` (raw, or
    accidental-subtracted when ``corrected``) and its squared standard
    error, as lists of floats.  A setting whose cells are missing,
    incomplete or labelled otherwise raises one ValidationError naming it.
    """
    if isinstance(data, DensityOperator):
        table = joint_probability_table(data, setting.basis_s, setting.basis_i)
        return table, np.zeros(table.shape)
    if not isinstance(data, CoincidenceTable):
        raise ValidationError("expected a DensityOperator or a CoincidenceTable")
    recs = data._index.get(setting.name, {})
    try:
        ests = [[estimate(recs[key], corrected) for key in row] for row in setting.cells]
    except KeyError:
        ests = None
    if ests is None or len(recs) != sum(map(len, ests)):
        present = sum(key in recs for row in setting.cells for key in row)
        raise ValidationError(
            f"setting {setting.name!r} missing, incomplete or mislabelled: {present} of "
            f"its {sum(map(len, setting.cells))} outcome cells among {len(recs)} records"
        )
    return ([[est.value for est in row] for row in ests],
            [[est.std_error**2 for est in row] for row in ests])


def _meta_path(path: Path) -> Path:
    return path.with_name(path.stem + ".meta.json")


def save_table(table: CoincidenceTable, path) -> None:
    """Write the counts CSV plus its JSON metadata sidecar."""
    path = Path(path)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for rec in table.records:
            writer.writerow([rec.setting, rec.outcome_s, rec.outcome_i,
                             rec.coincidences, rec.singles_s, rec.singles_i, rec.trials])
    with open(_meta_path(path), "w", encoding="utf-8") as fh:
        json.dump(table.metadata, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_table(path) -> CoincidenceTable:
    """Read a counts CSV (strict schema); parse errors name the line number."""
    path = Path(path)
    records = []
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
    meta = _meta_path(path)
    metadata = {}
    if meta.exists():
        with open(meta, "r", encoding="utf-8") as fh:
            try:
                metadata = json.load(fh)
            except json.JSONDecodeError as exc:
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


def bootstrap_table(table: CoincidenceTable, seed: int) -> CoincidenceTable:
    """Poisson-resample every record; the cross-check error estimator."""
    words = [_bootstrap_word(rec.setting, rec.outcome_s, rec.outcome_i)
             for rec in table.records]
    records = []
    for rec, rng in zip(table.records, _keyed_streams(seed, words)):
        c = int(rng.poisson(rec.coincidences))
        s = c + int(rng.poisson(max(rec.singles_s - rec.coincidences, 0)))
        i = c + int(rng.poisson(max(rec.singles_i - rec.coincidences, 0)))
        records.append(CountRecord(
            setting=rec.setting, outcome_s=rec.outcome_s, outcome_i=rec.outcome_i,
            coincidences=c, singles_s=min(s, rec.trials), singles_i=min(i, rec.trials),
            trials=rec.trials,
        ))
    return CoincidenceTable(records=tuple(records), metadata=dict(table.metadata))


def bootstrap_std(table: CoincidenceTable, statistic, n_bootstrap: int, seed: int) -> float:
    """Bootstrap standard error (ddof = 1) of ``statistic(table)``.

    Replica b is ``bootstrap_table(table, seed + b)``.  A replica whose
    statistic raises ComputationError or ValidationError is dropped; with
    fewer than two survivors the error is NaN, never a silent zero.
    """
    if n_bootstrap < 2:
        raise ValidationError(f"a bootstrap error needs at least 2 replicas, got {n_bootstrap}")
    values = []
    for b in range(n_bootstrap):
        try:
            values.append(statistic(bootstrap_table(table, seed=seed + b)))
        except (ComputationError, ValidationError):
            continue
    return float(np.std(values, ddof=1)) if len(values) > 1 else math.nan
