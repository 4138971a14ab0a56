"""Simulation pipeline: planned setting lists, noise mapping, presets, fits, curves.

A run simulates every setting the certification commands consume: the
visibility settings of both spaces, one full-basis coincidence scan per
space, the four Bell-test settings for each requested dimension, and the
nine tomography settings for the configured pair.

Noise handling: the exact-probability analyses read ``noise_fraction``
straight off the source as an isotropic admixture.  Sampled counts instead
draw from the noise-free source and realize the same admixture through the
accidental channel (``noise_channel="counting"``, the default), so that
accidental subtraction recovers the noise-free statistics the way it does
on real count data.  Set ``noise_channel="state"`` to sample the mixed
state directly.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .files import CONFIG_FORMAT, SCHEMA_VERSION, json_text, read_block, read_json
from .linalg import SourceState, StateVector, fidelity_to_pure, restrict_to_pair
from . import bases
from .bases import PlannedSetting
from .counting import (MAX_TRIALS, CoincidenceTable, CountingParams, PlanMeans, plan_means,
                       setting_cells, with_accidental_noise)
from .certify import (_b_from_terms, _ebits_from_b, _eof_exact_elements, _eof_exact_terms,
                      _visibilities, _witness_pairs, cglmp)
from . import naming
from .source import SourceConfig, _visibility_norm, noisy_state
from .tomo import BELL_TARGET

__all__ = [
    "SimulationConfig",
    "CurvePoint",
    "preset",
    "PRESET_NAMES",
    "build_settings",
    "run_simulation",
    "violation_curve",
    "fit_noise_to_visibility",
    "fit_noise_to_pair_fidelity",
    "fit_noise_to_eof",
]

DEFAULT_SEED = 12345

# Calibration targets for the preset operating points.
WITNESS_TOTAL_TARGET = 111.6       # raw visibility sum over 45 pairs, X space
BELL_ACCIDENTAL_RATIO = 0.715      # P_I/eta_r putting the raw violation edge between d=6 and 7
EOF_EBITS_TARGET = 1.79
TOMO_FIDELITY_TARGET = 0.878
TOMO_PHASE_DEG = 17.0
TOMO_PAIR = (0, 5)
_BAD_CONFIG = "bad simulation config: "   # the start of every config file error


@dataclass(frozen=True)
class SimulationConfig:
    """Everything one reproducible simulation run needs."""

    source: SourceConfig
    counting: CountingParams = field(default_factory=CountingParams)
    trials_per_setting: int = 100_000
    seed: int = DEFAULT_SEED
    spaces: tuple[str, ...] = ("X", "K")
    bell_dimensions: tuple[int, ...] = tuple(range(2, 11))
    tomo_pair: tuple[int, int] = TOMO_PAIR
    noise_channel: str = "counting"
    repetition_rate_hz: float = 16000.0

    def __post_init__(self) -> None:
        for name in ("spaces", "bell_dimensions", "tomo_pair"):   # hashable, as a cache key
            object.__setattr__(self, name, tuple(getattr(self, name)))
        bases._check_mode_count(self.source.num_modes)
        if not 1 <= self.trials_per_setting <= MAX_TRIALS:
            raise ValidationError(f"trials_per_setting must be from 1 to {MAX_TRIALS}")
        if self.seed < 0:
            raise ValidationError(f"seed must be a non-negative integer, got {self.seed}")
        for space in self.spaces:
            naming.require_space(space)
        for name in ("spaces", "bell_dimensions"):
            values = getattr(self, name)
            if len(set(values)) < len(values):
                raise ValidationError(f"{name} repeats an entry: {list(values)}")
        for d in self.bell_dimensions:
            if not (2 <= d <= self.source.num_modes):
                raise ValidationError(f"bell dimension {d} outside 2..{self.source.num_modes}")
        if len(self.tomo_pair) != 2:
            raise ValidationError(f"tomo_pair must name two modes, got {list(self.tomo_pair)}")
        j, k = self.tomo_pair
        if j == k or not (0 <= j < self.source.num_modes) or not (0 <= k < self.source.num_modes):
            raise ValidationError(f"invalid tomography pair {self.tomo_pair}")
        if self.noise_channel not in ("counting", "state"):
            raise ValidationError("noise_channel must be 'counting' or 'state'")
        if not (0.0 < self.repetition_rate_hz < math.inf):
            raise ValidationError(f"repetition_rate_hz must be finite and positive, "
                                  f"got {self.repetition_rate_hz!r}")
        # the counting channel's accidental noise must leave valid parameters
        effective_params(self)

    def to_json_dict(self) -> dict:
        src = self.source
        data = {
            "schema_version": SCHEMA_VERSION,
            "source": {"D": src.num_modes, "coefficients_re": src.coefficients.real.tolist(),
                       "coefficients_im": src.coefficients.imag.tolist(),
                       "phases_deg": np.degrees(src.phase_mismatch).tolist(),
                       "noise_fraction": src.noise_fraction},
            "counting": {key: getattr(self.counting, key) for key in CONFIG_FORMAT["counting"]},
        }
        for key in CONFIG_FORMAT["config"].keys() - data.keys():   # the dataclass fields
            value = getattr(self, key)
            data[key] = list(value) if isinstance(value, tuple) else value
        return data

    @classmethod
    def from_json_dict(cls, data) -> "SimulationConfig":
        fields = read_block("config", data, _BAD_CONFIG)
        fields.pop("schema_version", None)
        src = fields.pop("source")
        real = src["coefficients_re"]
        for key in ("coefficients_im", "phases_deg"):
            if len(src[key]) != len(real):
                raise ValidationError(f"{_BAD_CONFIG}source.{key}: {len(src[key])} entries, "
                                      f"coefficients_re has {len(real)}")
        source = SourceConfig(src["D"], [complex(*c) for c in zip(real, src["coefficients_im"])],
                              np.radians(src["phases_deg"]), src["noise_fraction"])
        if "counting" in fields:
            fields["counting"] = CountingParams(**fields["counting"])
        return cls(source=source, **fields)

    def to_json_text(self) -> str:
        """The config file's text, as ``save`` writes it."""
        return json_text(self.to_json_dict())

    def save(self, path) -> None:
        Path(path).write_text(self.to_json_text(), encoding="utf-8")

    @classmethod
    def load(cls, path) -> "SimulationConfig":
        return cls.from_json_dict(read_json(path))


# ---------------------------------------------------------------------------
# calibration fits
# ---------------------------------------------------------------------------

def _bisect_noise(objective, target: float, tol: float = 1e-9) -> float:
    """Find p in [0,1) with objective(p) = target; objective must decrease in p.
    A non-finite target, or one outside objective's range on [0, 1 - 1e-12]
    by more than 1e-12, raises ValidationError."""
    if not math.isfinite(target):
        raise ValidationError(f"target {target} is not finite")
    lo, hi = 0.0, 1.0 - 1e-12
    top, bottom = objective(lo), objective(hi)
    if target > top + 1e-12:
        raise ValidationError(f"target {target} above the noise-free value {top:.6f}")
    if target < bottom - 1e-12:
        raise ValidationError(
            f"target {target} below the value {bottom!r} at noise fraction 1 - 1e-12")
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if objective(mid) >= target:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def _endpoint_objective(cfg: SourceConfig, read, value):
    """p -> value(*read(rho(p))) for rho(p) = (1-p) rho(0) + p I/D^2: ``read``
    returns pieces linear in rho, read off the two endpoint states once."""
    ends = [read(noisy_state(cfg.with_noise(p))) for p in (0.0, 1.0)]
    return lambda p: value(*((1.0 - p) * a + p * b for a, b in zip(*ends)))


def _visibility_objective(cfg: SourceConfig):
    """Mean spatial-pair visibility of rho(p), from the X-witness cells."""
    d, norm = cfg.num_modes, _visibility_norm(cfg.num_modes)
    plan = [st for j, k in _witness_pairs(d) for st in bases.witness_settings("X", j, k, d)]
    return _endpoint_objective(
        cfg, lambda rho: setting_cells(rho, plan),
        lambda values, zeros: float(_visibilities(values, zeros, exact=True)[0].sum()) / norm)


def _eof_objective(cfg: SourceConfig, space: str):
    """Exact formation bound of rho(p) over every mode pair, in ebits."""
    naming.require_space(space)
    j, k = np.array(_witness_pairs(cfg.num_modes), dtype=np.intp).reshape(-1, 2).T
    return _endpoint_objective(
        cfg, lambda rho: _eof_exact_elements(rho, space, j, k),
        lambda *elements: _ebits_from_b(float(_b_from_terms(*_eof_exact_terms(*elements)))))


def _fidelity_objective(cfg: SourceConfig, pair):
    """Post-selected pair fidelity of rho(p) to Phi+: <Phi+|B|Phi+> / Tr B for
    rho's pair block B (both linear in rho), 0 where the pair has no weight."""
    phi_plus = StateVector(2, 2, BELL_TARGET)

    def read(rho):
        r = restrict_to_pair(rho, *pair)
        return (0.0, 0.0) if r.zero_weight else (
            r.weight * fidelity_to_pure(r.operator, phi_plus), r.weight)
    return _endpoint_objective(cfg, read, lambda overlap, weight: 0.0 if weight < 1e-14 else
                               min(max(overlap / weight, 0.0), 1.0))


def fit_noise_to_visibility(target_mean_visibility: float, cfg: SourceConfig) -> float:
    """Noise fraction whose mean spatial-pair visibility matches the target.

    Solved by bisection to 1e-6; the mean visibility is strictly decreasing
    in the noise fraction, from its p=0 ceiling down to 0 at p=1.  Targets
    above the ceiling (or non-positive) are unreachable and raise.
    """
    if not (0.0 < target_mean_visibility <= 1.0):
        raise ValidationError("target mean visibility must lie in (0, 1]")
    return _bisect_noise(_visibility_objective(cfg), target_mean_visibility, tol=1e-6)


def fit_noise_to_pair_fidelity(target: float, cfg: SourceConfig, pair: tuple[int, int]) -> float:
    """Noise fraction at which the post-selected pair fidelity hits the target."""
    return _bisect_noise(_fidelity_objective(cfg, pair), target)


def fit_noise_to_eof(target_ebits: float, cfg: SourceConfig, space: str = "X") -> float:
    """Noise fraction at which the exact formation bound hits the target."""
    return _bisect_noise(_eof_objective(cfg, space), target_ebits, tol=1e-7)


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

PRESET_NAMES = ("ideal", "calibrated-witness", "calibrated-bell", "calibrated-eof", "calibrated-tomo")


@functools.lru_cache(maxsize=None)
def preset(name: str) -> SimulationConfig:
    """Named operating points.

    ideal          noiseless uniform source, quick statistics
    calibrated-witness  noise fitted so the exact X-space witness total is 111.6;
                   trials sized for a witness-sum error near 0.8
    calibrated-bell     accidental level placing the uncorrected Bell-violation
                   edge between d=6 and d=7 (subtracted curve violates
                   through d=10)
    calibrated-eof      noise fitted so the X-space formation bound is 1.79 ebits
    calibrated-tomo     17 degree phase on mode 5 and noise fitted so the (0,5)
                   pair fidelity is 0.878
    """
    base = SourceConfig.uniform(10)
    if name == "ideal":
        return SimulationConfig(source=base, trials_per_setting=100_000)
    if name == "calibrated-witness":
        p = fit_noise_to_visibility(WITNESS_TOTAL_TARGET / 135.0, base)
        return SimulationConfig(source=base.with_noise(p), trials_per_setting=460_000)
    if name == "calibrated-bell":
        p = BELL_ACCIDENTAL_RATIO / (1.0 + BELL_ACCIDENTAL_RATIO)
        return SimulationConfig(source=base.with_noise(p), trials_per_setting=50_000_000)
    if name == "calibrated-eof":
        p = fit_noise_to_eof(EOF_EBITS_TARGET, base)
        return SimulationConfig(source=base.with_noise(p), trials_per_setting=460_000)
    if name == "calibrated-tomo":
        phases = np.zeros(10)
        phases[TOMO_PAIR[1]] = np.radians(TOMO_PHASE_DEG)
        cfg = SourceConfig.uniform(10, phases=phases)
        p = fit_noise_to_pair_fidelity(TOMO_FIDELITY_TARGET, cfg, TOMO_PAIR)
        return SimulationConfig(source=cfg.with_noise(p), trials_per_setting=1_000_000)
    raise ValidationError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------

def build_settings(cfg: SimulationConfig) -> list[PlannedSetting]:
    """Every setting a full run simulates, in canonical order."""
    d = cfg.source.num_modes
    plan: list[PlannedSetting] = []
    for space in cfg.spaces:
        for j in range(d):
            for k in range(j + 1, d):
                plan.extend(bases.witness_settings(space, j, k, d))
        plan.append(bases.scan_setting(space, d))
    for dim in cfg.bell_dimensions:
        plan.extend(bases.bell_settings(dim, d))
    plan.extend(bases.tomo_settings(*cfg.tomo_pair, space="X", num_modes=d))
    return plan


def sampling_state(cfg: SimulationConfig) -> SourceState:
    """The state counts are drawn from: the noise-free source on the counting
    channel, which adds the noise as accidentals, else the noisy one."""
    if cfg.noise_channel == "counting":
        return noisy_state(cfg.source.with_noise(0.0))
    return noisy_state(cfg.source)


def effective_params(cfg: SimulationConfig) -> CountingParams:
    if cfg.noise_channel == "counting":
        return with_accidental_noise(cfg.counting, cfg.source.noise_fraction)
    return cfg.counting


# Seed-free plan inputs of the last few configurations: counts-certify and
# seeded coverage studies redraw one configuration with many seeds.
@functools.lru_cache(maxsize=4)
def _plan_means(cfg: SimulationConfig) -> PlanMeans:
    return plan_means(sampling_state(cfg), build_settings(cfg), cfg.trials_per_setting,
                      effective_params(cfg))


def run_simulation(cfg: SimulationConfig, workers: int = 1) -> CoincidenceTable:
    """Simulate every planned setting: the configuration's seed-free inputs
    (``counting.PlanMeans``), computed once per configuration (every field
    but the seed, arrays compared by dtype and bytes), drawn with its seed.

    ``workers`` has no effect; it is accepted so existing callers keep
    working.  (A two-thread pool measured about twice as slow as one
    thread.)
    """
    table = _plan_means(replace(cfg, seed=0)).draw(cfg.seed)
    table.metadata.update({
        "seed": cfg.seed,
        "P_S": cfg.counting.P_S,
        "eta_r": cfg.counting.eta_r,
        "P_bg_idler": cfg.counting.P_bg_idler,
        "noise_fraction": cfg.source.noise_fraction,
        "noise_channel": cfg.noise_channel,
        "repetition_rate_hz": cfg.repetition_rate_hz,
        "D": cfg.source.num_modes,
        "trials_per_setting": cfg.trials_per_setting,
        "schema_version": SCHEMA_VERSION,
    })
    return table


# ---------------------------------------------------------------------------
# Bell violation curve
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CurvePoint:
    d: int
    variant: str  # exact | raw | corrected
    bell_parameter: float
    bell_parameter_err: float
    violated: bool


def violation_curve(
    cfg: SourceConfig,
    d_range=range(2, 11),
    path: str = "exact",
    params: CountingParams | None = None,
    trials: int | None = None,
    seed: int = 0,
    margin: float = 1.0,
    noise_channel: str = "counting",
) -> list[CurvePoint]:
    """Bell parameter versus dimension, exact or sampled.

    Measurements for every d are embedded in the full mode space: the source
    always runs all modes, and a d-outcome measurement post-selects the first
    d of them.  The sampled path simulates the Bell settings exactly as
    ``run_simulation`` does for the same source, counting parameters, trials,
    seed and noise channel, and carries both raw and corrected points.
    """
    d_list = sorted(set(int(d) for d in d_range))
    if not d_list:
        raise ValidationError("empty dimension range")
    if d_list[0] < 2 or d_list[-1] > cfg.num_modes:
        raise ValidationError(f"dimensions must lie in 2..{cfg.num_modes}")
    points: list[CurvePoint] = []
    if path == "exact":
        rho = noisy_state(cfg)
        for d in d_list:
            res = cglmp(rho, d, margin=margin)
            points.append(CurvePoint(d, "exact", res.bell_parameter, 0.0, res.violated))
        return points
    if path != "sampled":
        raise ValidationError(f"path must be 'exact' or 'sampled', got {path!r}")
    if params is None or trials is None:
        raise ValidationError("sampled curves need counting params and a trial count")
    # no space and a valid tomo pair: its 9 settings draw from their own keyed
    # streams, so the Bell counts are those of any run of this source and seed
    sim = SimulationConfig(source=cfg, counting=params, trials_per_setting=trials, seed=seed,
                           spaces=(), bell_dimensions=tuple(d_list), tomo_pair=(0, 1),
                           noise_channel=noise_channel)
    table = run_simulation(sim)
    for d in d_list:
        for variant, corrected in (("raw", False), ("corrected", True)):
            res = cglmp(table, d, corrected=corrected, margin=margin)
            points.append(CurvePoint(d, variant, res.bell_parameter,
                                     res.bell_parameter_err, res.violated))
    return points
