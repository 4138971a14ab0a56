"""Exact complex linear algebra for small bipartite qudit systems.

States live on a signal (x) idler mode space of dimension ds * di with the
joint index flattened row-major as (signal, idler).  Everything here is a
pure function over immutable values; arrays are frozen after construction
so objects can be shared and cached freely.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ComputationError, ValidationError

ATOL_NORM = 1e-12
ATOL_HERM = 1e-12
ATOL_TRACE = 1e-12
EIG_FLOOR = -1e-10
ATOL_IMAG = 1e-10

__all__ = [
    "StateVector",
    "DensityOperator",
    "Projector",
    "PairRestriction",
    "density_from_ket",
    "outcome_probabilities",
    "fidelity_to_pure",
    "restrict_to_pair",
]


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


class StateVector:
    """A normalized pure ket on a bipartite (signal x idler) mode space.

    Amplitudes are stored flattened with index (x_s, x_i) -> x_s * dim_idler + x_i.
    The constructor rescales the input to unit norm; a zero vector is rejected.
    """

    def __init__(self, dim_signal: int, dim_idler: int, amplitudes) -> None:
        if dim_signal < 1 or dim_idler < 1:
            raise ValidationError("subsystem dimensions must be positive")
        amps = np.asarray(amplitudes, dtype=complex).reshape(-1)
        if amps.size != dim_signal * dim_idler:
            raise ValidationError(
                f"expected {dim_signal * dim_idler} amplitudes, got {amps.size}"
            )
        if not np.all(np.isfinite(amps.view(float))):
            raise ValidationError("amplitudes must be finite")
        norm = np.linalg.norm(amps)
        if norm < 1e-300:
            raise ValidationError("cannot normalize a zero state vector")
        self.dim_signal = int(dim_signal)
        self.dim_idler = int(dim_idler)
        self.amplitudes = _frozen(amps / norm)

    def amplitude(self, x_s: int, x_i: int) -> complex:
        return complex(self.amplitudes[x_s * self.dim_idler + x_i])

    def as_matrix(self) -> np.ndarray:
        """Amplitudes as a (dim_signal, dim_idler) matrix."""
        return self.amplitudes.reshape(self.dim_signal, self.dim_idler)

    def schmidt_rank(self, tol: float = 1e-12) -> int:
        svals = np.linalg.svd(self.as_matrix(), compute_uv=False)
        return int(np.sum(svals > tol))

    def __repr__(self) -> str:
        return f"StateVector({self.dim_signal}x{self.dim_idler})"


class DensityOperator:
    """A validated mixed state on the bipartite mode space.

    Construction enforces Hermiticity and unit trace (within 1e-12) and
    positivity: eigenvalues below -1e-10 are a hard error, tiny negatives
    above the floor are clamped to zero and the trace renormalized.
    """

    def __init__(self, dim_signal: int, dim_idler: int, matrix) -> None:
        if dim_signal < 1 or dim_idler < 1:
            raise ValidationError("subsystem dimensions must be positive")
        dim = dim_signal * dim_idler
        mat = np.asarray(matrix, dtype=complex)
        if mat.shape != (dim, dim):
            raise ValidationError(f"expected a {dim}x{dim} matrix, got {mat.shape}")
        if not np.all(np.isfinite(mat.view(float))):
            raise ValidationError("matrix entries must be finite")
        if np.max(np.abs(mat - mat.conj().T)) > ATOL_HERM:
            raise ValidationError("matrix is not Hermitian within 1e-12")
        tr = np.trace(mat).real
        if abs(tr - 1.0) > ATOL_TRACE:
            raise ValidationError(f"trace is {tr!r}, expected 1 within 1e-12")
        herm = (mat + mat.conj().T) / 2.0
        vals, vecs = np.linalg.eigh(herm)
        if vals[0] < EIG_FLOOR:
            raise ValidationError(
                f"matrix has eigenvalue {vals[0]:.3e} below the -1e-10 positivity floor"
            )
        vals = np.maximum(vals, 0.0)
        vals = vals / vals.sum()
        self.dim_signal = int(dim_signal)
        self.dim_idler = int(dim_idler)
        self.matrix = _frozen((vecs * vals) @ vecs.conj().T)

    @property
    def dim(self) -> int:
        return self.dim_signal * self.dim_idler

    def reshaped(self) -> np.ndarray:
        """View as a rank-4 array rho[x, i, y, j] over (signal, idler) pairs."""
        d_s, d_i = self.dim_signal, self.dim_idler
        return self.matrix.reshape(d_s, d_i, d_s, d_i)

    def purity(self) -> float:
        return float(np.real(np.trace(self.matrix @ self.matrix)))

    def __repr__(self) -> str:
        return f"DensityOperator({self.dim_signal}x{self.dim_idler})"


class Projector:
    """A rank-one outcome projector given by a normalized ket on one subsystem."""

    def __init__(self, vector, label) -> None:
        vec = np.asarray(vector, dtype=complex).reshape(-1)
        norm = np.linalg.norm(vec)
        if abs(norm - 1.0) > ATOL_NORM:
            raise ValidationError(f"projector vector norm {norm!r} is not 1 within 1e-12")
        self.vector = _frozen(vec / norm)
        self.label = label

    @property
    def dim(self) -> int:
        return self.vector.size

    def __repr__(self) -> str:
        return f"Projector(label={self.label!r}, dim={self.dim})"


@dataclass(frozen=True)
class PairRestriction:
    """Result of post-selecting onto a two-mode pair subspace."""

    operator: DensityOperator | None
    weight: float

    @property
    def zero_weight(self) -> bool:
        return self.operator is None


def density_from_ket(psi: StateVector) -> DensityOperator:
    """Rank-one density operator |psi><psi|."""
    outer = np.outer(psi.amplitudes, psi.amplitudes.conj())
    return DensityOperator(psi.dim_signal, psi.dim_idler, outer)


def _check_real(value: complex, what: str) -> float:
    if abs(value.imag) > ATOL_IMAG:
        raise ComputationError(
            f"{what} has imaginary residue {value.imag:.3e}; inputs are inconsistent"
        )
    return float(value.real)


def outcome_probabilities(rho: DensityOperator, vectors_s, vectors_i) -> np.ndarray:
    """Joint outcome probabilities for two sets of measurement kets.

    ``vectors_s`` has one row per signal outcome and ``vectors_i`` one row per
    idler outcome; returns the (n_s, n_i) table of Tr(rho (v_a v_a^+ x v_b v_b^+)).
    """
    v_s = np.asarray(vectors_s, dtype=complex)
    v_i = np.asarray(vectors_i, dtype=complex)
    if v_s.shape[1] != rho.dim_signal or v_i.shape[1] != rho.dim_idler:
        raise ValidationError("measurement vectors do not match the state dimensions")
    r4 = rho.reshaped()
    table = np.einsum(
        "ax,by,xyzw,az,bw->ab", v_s.conj(), v_i.conj(), r4, v_s, v_i, optimize=True
    )
    residue = np.max(np.abs(table.imag))
    if residue > ATOL_IMAG:
        raise ComputationError(
            f"probability table has imaginary residue {residue:.3e}; inputs are inconsistent"
        )
    return np.clip(table.real, 0.0, 1.0)


def fidelity_to_pure(rho: DensityOperator, target: StateVector) -> float:
    """Fidelity <psi|rho|psi> against a pure target state."""
    if (rho.dim_signal, rho.dim_idler) != (target.dim_signal, target.dim_idler):
        raise ValidationError("state dimensions do not match")
    amp = target.amplitudes
    val = _check_real(complex(amp.conj() @ rho.matrix @ amp), "fidelity")
    return float(min(max(val, 0.0), 1.0))


def restrict_to_pair(rho: DensityOperator, j: int, k: int) -> PairRestriction:
    """Post-select onto span{|j>,|k>} x span{|j>,|k>} and renormalize.

    Returns the renormalized two-qubit operator (basis order jj, jk, kj, kk)
    together with the pre-normalization trace, i.e. the post-selection weight.
    Weights below 1e-14 yield a flagged zero-weight result.
    """
    if j == k:
        raise ValidationError("pair modes must differ")
    for m in (j, k):
        if not (0 <= m < rho.dim_signal) or not (0 <= m < rho.dim_idler):
            raise ValidationError(f"mode {m} outside the state's mode range")
    idx = [
        j * rho.dim_idler + j,
        j * rho.dim_idler + k,
        k * rho.dim_idler + j,
        k * rho.dim_idler + k,
    ]
    block = rho.matrix[np.ix_(idx, idx)]
    weight = float(np.trace(block).real)
    if weight < 1e-14:
        return PairRestriction(operator=None, weight=0.0)
    return PairRestriction(
        operator=DensityOperator(2, 2, block / weight), weight=weight
    )
