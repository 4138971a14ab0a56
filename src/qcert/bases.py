"""Measurement-basis synthesis for the multiplexed mode space.

Conventions used throughout the toolkit:

* The spatial (X) basis is the computational basis of mode labels 0..d-1.
* The momentum (K) basis is the discrete Fourier basis
  |k> = (1/sqrt(d)) sum_x exp(2 pi i x k / d) |x>.
* A K-label on the idler side refers to the conjugated Fourier ket, so that
  the diagonal source produces correlations at equal labels on both sides.
  (Measuring both sides with same-sign Fourier kets anti-correlates the
  labels instead: k_s = -k_i mod d.)
* Bell-test detector bases carry fractional label offsets: the signal side
  uses offsets (0, 0.5) for its two settings, the idler side (0.25, -0.25).

Each synthesized basis also has a hardware realization as a multi-tone RF
program for an acousto-optic deflector: tone x carries the amplitude and
phase of the ket component on mode x at frequency offset x * tone spacing.

The setting plans at the end (witness pairs, full-basis scans, Bell tests,
tomography) fix which settings each quantity measures, their names and
their bases; simulation and every estimator read them from here.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .linalg import ATOL_NORM, DensityOperator, marginal_probabilities
from . import naming

MAX_MODES = 10
TONE_SPACING_MHZ = 0.8
AXES = ("x", "y", "z")

SIGNAL_SETTING_OFFSETS = (0.0, 0.5)
IDLER_SETTING_OFFSETS = (0.25, -0.25)

__all__ = [
    "MeasurementBasis",
    "RfToneProgram",
    "x_basis",
    "k_basis",
    "pair_basis",
    "cglmp_basis",
    "mode_vector",
    "rf_tone_program",
    "ket_from_tone_program",
    "PlannedSetting",
    "witness_settings",
    "scan_setting",
    "bell_settings",
    "tomo_settings",
    "AXES",
    "MAX_MODES",
]


@dataclass(frozen=True, eq=False)
class MeasurementBasis:
    """An ordered set of orthonormal outcome kets with labels.

    ``vector_matrix`` holds the kets as rows, shape (outcomes, dim), one row
    per entry of ``labels``; it is checked once, each row scaled to unit norm
    and frozen.  ``dim`` is the embedding dimension; a basis is complete when
    it has one outcome per dimension.  Incomplete (embedded) bases model
    post-selection: the remaining weight falls on an implicit no-click
    outcome spanning the orthogonal complement.
    """

    name: str
    side: str
    labels: tuple
    vector_matrix: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if self.side not in ("signal", "idler"):
            raise ValidationError(f"side must be 'signal' or 'idler', got {self.side!r}")
        labels = tuple(self.labels)
        kets = np.array(self.vector_matrix, dtype=complex)
        if kets.ndim != 2 or not kets.size or len(kets) != len(labels):
            raise ValidationError(
                f"basis {self.name!r} needs a 2-D ket array with one row per label; got "
                f"shape {kets.shape} for {len(labels)} labels")
        norms = np.array([np.linalg.norm(row) for row in kets])
        bad = ~(np.abs(norms - 1.0) <= ATOL_NORM)   # also catches a NaN or inf norm
        if bad.any():
            row = int(bad.argmax())
            raise ValidationError(f"basis {self.name!r}: ket {row} has norm {norms[row]!r}, "
                                  "not 1 within 1e-12")
        kets /= norms[:, None]
        gram = kets.conj() @ kets.T
        if not np.max(np.abs(gram - np.eye(len(kets)))) <= 1e-10:
            raise ValidationError(f"basis {self.name!r} is not orthonormal within 1e-10")
        kets.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "vector_matrix", kets)

    @property
    def dim(self) -> int:
        return self.vector_matrix.shape[1]

    @property
    def complete(self) -> bool:
        return len(self.labels) == self.dim

    def lost_weight(self, rho: DensityOperator) -> float:
        """Probability routed to the no-click complement outcome."""
        marg = marginal_probabilities(rho, self.vector_matrix, self.side)
        return float(max(0.0, 1.0 - marg.sum()))


@dataclass(frozen=True)
class RfToneProgram:
    """Multi-tone RF drive realizing one measurement ket on a deflector.

    Each tone is (frequency offset in MHz, amplitude, phase in radians);
    offsets sit on the tone-spacing grid and amplitudes are normalized so
    the squared sum is one.
    """

    tones: tuple[tuple[float, float, float], ...]
    tone_spacing_mhz: float = TONE_SPACING_MHZ

    def __post_init__(self) -> None:
        if not self.tones:
            raise ValidationError("a tone program needs at least one tone")
        if not np.all(np.isfinite([*np.ravel(self.tones), self.tone_spacing_mhz])):
            raise ValidationError("tone values and the tone spacing must be finite")
        if not self.tone_spacing_mhz > 0:
            raise ValidationError(f"tone spacing {self.tone_spacing_mhz} MHz must be positive")
        power = sum(a * a for _, a, _ in self.tones)
        if not abs(power - 1.0) <= 1e-10:
            raise ValidationError(f"tone power {power!r} is not normalized within 1e-10")
        for f, _, _ in self.tones:
            steps = f / self.tone_spacing_mhz
            if abs(steps - round(steps)) > 1e-9:
                raise ValidationError(f"tone offset {f} MHz is off the spacing grid")


def _check_mode_count(d: int) -> None:
    if not (1 <= d <= MAX_MODES):
        raise ValidationError(f"mode count must be between 1 and {MAX_MODES}, got {d}")


def _fourier(k, d: int) -> np.ndarray:
    """Kets (1/sqrt(d)) sum_x e^{2 pi i x k / d} |x>: one for a scalar k, one
    row per entry for an array of k."""
    x = np.arange(d)
    return np.exp(2j * np.pi * x * np.asarray(k)[..., None] / d) / np.sqrt(d)


def mode_vector(space: str, label: int, d: int, side: str = "signal") -> np.ndarray:
    """The ket a given mode label refers to, per space and side conventions."""
    if not (0 <= label < d):
        raise ValidationError(f"mode label {label} outside 0..{d - 1}")
    if space == "X":
        return np.eye(d, dtype=complex)[label]
    if space == "K":
        vec = _fourier(label, d)
        return vec.conj() if side == "idler" else vec
    raise ValidationError(f"unknown space {space!r}, expected 'X' or 'K'")


def x_basis(d: int, side: str = "signal") -> MeasurementBasis:
    """The spatial basis: one ket per mode label."""
    _check_mode_count(d)
    return MeasurementBasis(f"X{d}", side, tuple(range(d)), np.eye(d, dtype=complex))


def k_basis(d: int, side: str = "signal") -> MeasurementBasis:
    """The Fourier basis |k> = (1/sqrt(d)) sum_x e^{2 pi i x k / d} |x>.

    On the idler side the kets are conjugated so equal labels mark the
    correlated outcomes of the diagonal source.
    """
    _check_mode_count(d)
    kets = _fourier(np.arange(d), d)
    return MeasurementBasis(f"K{d}", side, tuple(range(d)),
                            kets.conj() if side == "idler" else kets)


def _pair_vectors(u: np.ndarray, v: np.ndarray, axis: str):
    if axis == "z":
        return u, v
    if axis == "x":
        return (u + v) / np.sqrt(2), (u - v) / np.sqrt(2)
    if axis == "y":
        return (u + 1j * v) / np.sqrt(2), (u - 1j * v) / np.sqrt(2)
    raise ValidationError(f"unknown axis {axis!r}, expected one of {AXES}")


def pair_basis(
    space: str, j: int, k: int, axis: str, d_total: int, side: str = "signal"
) -> MeasurementBasis:
    """Two-outcome basis on the subspace spanned by modes j and k.

    Axis z projects onto the pair modes themselves; x and y onto their
    balanced superpositions with relative phase 0/pi and +-pi/2.  Outcomes
    are labeled +1 and -1.  The basis is embedded in the full mode space,
    so outside-subspace weight is post-selected away (no click).
    """
    _check_mode_count(d_total)
    if j == k:
        raise ValidationError("pair modes must differ")
    u = mode_vector(space, j, d_total, side=side)
    v = mode_vector(space, k, d_total, side=side)
    return MeasurementBasis(f"pair{space}:{j}-{k}:{axis}", side, (1, -1),
                            np.array(_pair_vectors(u, v, axis)))


def cglmp_basis(side: str, setting: int, d: int, embed_dim: int | None = None) -> MeasurementBasis:
    """Bell-test detector basis for one side and setting.

    Signal outcomes k use kets (1/sqrt(d)) sum_x e^{2 pi i x (k + theta_s)/d} |x>
    with theta = (0, 0.5); idler outcomes l use
    (1/sqrt(d)) sum_x e^{2 pi i x (-l + phi_i)/d} |x> with phi = (0.25, -0.25).
    With ``embed_dim`` the d-outcome basis is embedded in a larger mode space
    (outcomes span modes 0..d-1 only), modeling post-selected measurements.
    """
    if d < 2:
        raise ValidationError("detector bases need at least two outcomes")
    if setting not in (0, 1):
        raise ValidationError(f"setting must be 0 or 1, got {setting}")
    dim = embed_dim if embed_dim is not None else d
    if dim < d:
        raise ValidationError("embedding dimension smaller than the basis")
    out = np.arange(d)
    if side == "signal":
        k = out + SIGNAL_SETTING_OFFSETS[setting]
    elif side == "idler":
        k = -out + IDLER_SETTING_OFFSETS[setting]
    else:
        raise ValidationError(f"side must be 'signal' or 'idler', got {side!r}")
    kets = np.zeros((d, dim), dtype=complex)
    kets[:, :d] = _fourier(k, d)
    return MeasurementBasis(f"bell{side[0].upper()}{setting}:d{d}", side, tuple(range(d)), kets)


def rf_tone_program(ket, tone_spacing_mhz: float = TONE_SPACING_MHZ) -> RfToneProgram:
    """Tone program realizing one measurement ket: tone x at offset x*spacing
    carries amplitude |v_x| and phase arg(v_x); zero-amplitude modes are omitted."""
    tones = []
    for x, amp in enumerate(np.asarray(ket, dtype=complex)):
        mag = abs(amp)
        if mag < 1e-15:
            continue
        tones.append((x * tone_spacing_mhz, float(mag), float(np.angle(amp))))
    return RfToneProgram(tones=tuple(tones), tone_spacing_mhz=tone_spacing_mhz)


def ket_from_tone_program(program: RfToneProgram, dim: int) -> np.ndarray:
    """Inverse synthesis: rebuild the ket a tone program realizes."""
    vec = np.zeros(dim, dtype=complex)
    for f, amp, phase in program.tones:
        mode = round(f / program.tone_spacing_mhz)
        if not (0 <= mode < dim):
            raise ValidationError(f"tone at {f} MHz maps outside the {dim}-mode space")
        vec[mode] = amp * np.exp(1j * phase)
    return vec


# ---------------------------------------------------------------------------
# setting plans: which settings a quantity measures, their names and bases
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PlannedSetting:
    """One named setting: a signal basis and an idler basis.

    ``cells`` holds the (outcome_s, outcome_i) keys of its outcome cells, one
    row per signal label, in basis label order; built once, read by every
    count-table lookup of the setting.
    """

    name: str
    basis_s: MeasurementBasis
    basis_i: MeasurementBasis
    cells: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "cells", tuple(
            tuple((a, b) for b in self.basis_i.labels) for a in self.basis_s.labels))


# Bases are immutable, so each plan is built once per argument tuple; with
# at most MAX_MODES modes the caches stay small.

@functools.lru_cache(maxsize=None)
def witness_settings(space: str, j: int, k: int, num_modes: int) -> tuple[PlannedSetting, ...]:
    """The x, y and z visibility settings of mode pair (j, k)."""
    return tuple(
        PlannedSetting(naming.witness_setting(space, j, k, axis),
                       pair_basis(space, j, k, axis, num_modes, side="signal"),
                       pair_basis(space, j, k, axis, num_modes, side="idler"))
        for axis in AXES
    )


@functools.lru_cache(maxsize=None)
def scan_setting(space: str, num_modes: int) -> PlannedSetting:
    """The full-basis coincidence scan of one space (X or K on both sides)."""
    naming.require_space(space)
    full = x_basis if space == "X" else k_basis
    return PlannedSetting(naming.diag_setting(space),
                          full(num_modes, side="signal"), full(num_modes, side="idler"))


@functools.lru_cache(maxsize=None)
def bell_settings(d: int, num_modes: int) -> tuple[PlannedSetting, ...]:
    """The four Bell-test settings of dimension d, in (s, i) order
    (0,0), (0,1), (1,0), (1,1), embedded in the full mode space."""
    signal = [cglmp_basis("signal", s, d, embed_dim=num_modes) for s in (0, 1)]
    idler = [cglmp_basis("idler", i, d, embed_dim=num_modes) for i in (0, 1)]
    return tuple(PlannedSetting(naming.bell_setting(d, s, i), signal[s], idler[i])
                 for s in (0, 1) for i in (0, 1))


@functools.lru_cache(maxsize=None)
def tomo_settings(j: int, k: int, space: str = "X",
                  num_modes: int = MAX_MODES) -> tuple[PlannedSetting, ...]:
    """The nine axis-pair tomography settings of modes (j, k), signal axis
    major, both in AXES order."""
    signal = {ax: pair_basis(space, j, k, ax, num_modes, side="signal") for ax in AXES}
    idler = {ax: pair_basis(space, j, k, ax, num_modes, side="idler") for ax in AXES}
    return tuple(PlannedSetting(naming.tomo_setting(space, j, k, ax_s, ax_i),
                                signal[ax_s], idler[ax_i])
                 for ax_s in AXES for ax_i in AXES)
