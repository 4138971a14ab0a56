"""Model of the multiplexed photon-memory entangled source.

The ideal source emits one excitation shared coherently over D memory
modes, perfectly correlated between the signal photon and the stored spin
wave: sum_i C_i e^{i phi_i} |i>_signal |i>_idler.  Two dominant
imperfections are modeled on top:

* per-mode relative phases between the write and read deflector settings
  (``phase_mismatch``), and
* an isotropic mixed component standing in for uncorrelated background
  coincidences (``noise_fraction`` p): rho = (1-p) |Psi><Psi| + p I/D^2.

The same background can instead be represented at the counts level by the
counting module's accidental channel; the two descriptions agree exactly
for this source because its reduced states are maximally mixed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ValidationError
from .linalg import DensityOperator, StateVector
from .certify import witness

__all__ = [
    "SourceConfig",
    "ideal_state",
    "noisy_state",
    "mean_pair_visibility",
]


@dataclass(frozen=True, eq=False)
class SourceConfig:
    """Source description: mode count, amplitudes, phases, noise weight.

    ``coefficients`` must already be normalized (sum |C_i|^2 = 1 within
    1e-12); use the factories to build normalized configs.  Configs are
    equal, and hash alike, when their values are: arrays by dtype and bytes.
    """

    num_modes: int = 10
    coefficients: np.ndarray = field(default=None)  # type: ignore[assignment]
    phase_mismatch: np.ndarray = field(default=None)  # type: ignore[assignment]
    noise_fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.num_modes < 1:
            raise ValidationError("num_modes must be positive")
        coeffs = (
            np.full(self.num_modes, 1 / np.sqrt(self.num_modes), dtype=complex)
            if self.coefficients is None
            else np.array(self.coefficients, dtype=complex).reshape(-1)
        )
        phases = (
            np.zeros(self.num_modes)
            if self.phase_mismatch is None
            else np.array(self.phase_mismatch, dtype=float).reshape(-1)
        )
        if coeffs.size != self.num_modes:
            raise ValidationError("coefficients length must equal num_modes")
        if phases.size != self.num_modes:
            raise ValidationError("phase_mismatch length must equal num_modes")
        total = float(np.sum(np.abs(coeffs) ** 2))
        if not abs(total - 1.0) <= 1e-12:   # NaN too
            raise ValidationError(f"sum |C_i|^2 = {total!r}, expected 1 within 1e-12")
        if not np.isfinite(phases).all():
            raise ValidationError("phase_mismatch must be finite")
        if not (0.0 <= self.noise_fraction <= 1.0):
            raise ValidationError("noise_fraction must lie in [0, 1]")
        coeffs.setflags(write=False)
        phases.setflags(write=False)
        object.__setattr__(self, "coefficients", coeffs)
        object.__setattr__(self, "phase_mismatch", phases)

    def _value(self) -> tuple:
        return (self.num_modes, self.noise_fraction,
                *((a.dtype.str, a.tobytes()) for a in (self.coefficients, self.phase_mismatch)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, SourceConfig):
            return NotImplemented
        return self._value() == other._value()

    def __hash__(self) -> int:
        return hash(self._value())

    @classmethod
    def uniform(cls, num_modes: int = 10, noise_fraction: float = 0.0,
                phases: np.ndarray | None = None) -> "SourceConfig":
        """Equal-amplitude source over ``num_modes`` modes."""
        return cls(
            num_modes=num_modes,
            coefficients=np.full(num_modes, 1 / np.sqrt(num_modes), dtype=complex),
            phase_mismatch=None if phases is None else np.asarray(phases, dtype=float),
            noise_fraction=noise_fraction,
        )

    @classmethod
    def with_amplitude_spread(cls, num_modes: int, spread: float, seed: int,
                              noise_fraction: float = 0.0) -> "SourceConfig":
        """Uniform amplitudes perturbed by a relative Gaussian spread (seeded)."""
        rng = np.random.default_rng(seed)
        amps = 1.0 + spread * rng.standard_normal(num_modes)
        amps = np.abs(amps).astype(complex)
        amps /= np.linalg.norm(amps)
        return cls(num_modes=num_modes, coefficients=amps, noise_fraction=noise_fraction)

    def with_noise(self, noise_fraction: float) -> "SourceConfig":
        return replace(self, noise_fraction=noise_fraction)


def ideal_state(cfg: SourceConfig) -> StateVector:
    """The pure diagonal source ket sum_i C_i e^{i phi_i} |i, i>."""
    d = cfg.num_modes
    amps = np.zeros(d * d, dtype=complex)
    diag = cfg.coefficients * np.exp(1j * cfg.phase_mismatch)
    amps[np.arange(d) * d + np.arange(d)] = diag
    return StateVector(d, d, amps)


def noisy_state(cfg: SourceConfig) -> DensityOperator:
    """(1 - p) |Psi><Psi| + p I/D^2 with p = cfg.noise_fraction."""
    d = cfg.num_modes
    psi = ideal_state(cfg)
    pure = np.outer(psi.amplitudes, psi.amplitudes.conj())
    p = cfg.noise_fraction
    mat = (1.0 - p) * pure + p * np.eye(d * d) / (d * d)
    return DensityOperator(d, d, mat)


def mean_pair_visibility(rho: DensityOperator) -> float:
    """Mean over all spatial mode pairs of the per-pair visibility sum, / 3:
    the exact X-space witness total divided by 3 * (number of pairs)."""
    norm = _visibility_norm(min(rho.dim_signal, rho.dim_idler))
    return witness(rho, space="X").total / norm


def _visibility_norm(d: int) -> int:
    """3 * (number of mode pairs): the mean pair visibility's denominator."""
    if d < 2:
        raise ValidationError("mean pair visibility needs at least two modes")
    return 3 * (d * (d - 1) // 2)
