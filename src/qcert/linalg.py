"""Exact complex linear algebra for small bipartite qudit systems.

States live on a signal (x) idler mode space of dimension ds * di with the
joint index flattened row-major as (signal, idler).  Everything here is a
pure function over immutable values; arrays are frozen after construction
so objects can be shared and cached freely.

An outcome table is one fixed matrix product over the product kets
kron(v_s[a], v_i[b]), and a side marginal one over that side's reduced
state; the diagonal is a multiply-and-row-sum.  No einsum contraction is
planned: at these sizes (D <= 10, so rho is at most 100 x 100) planning
the contraction took longer than doing it.

A density operator's positivity is checked by a Cholesky factorization
first.  When it succeeds the matrix is positive definite, and the
Hermitian part divided by its trace is stored as given.  Only a singular
or indefinite input (a pure state, say) is diagonalized with ``eigh``;
then eigenvalues are floored, clamped and renormalized, and the
reconstruction is stored.
"""

from __future__ import annotations

import math
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
    "PairRestriction",
    "density_from_ket",
    "outcome_probabilities",
    "marginal_probabilities",
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
    positivity.  A matrix whose Hermitian part has a Cholesky factor is
    positive definite and is stored as that Hermitian part over its trace.
    Otherwise ``eigh`` decides: eigenvalues below -1e-10 are a hard error,
    tiny negatives above the floor are clamped to zero, the trace is
    renormalized and V diag(vals) V^+ is stored.
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
        try:
            np.linalg.cholesky(herm)
        except np.linalg.LinAlgError:
            vals, vecs = np.linalg.eigh(herm)
            if vals[0] < EIG_FLOOR:
                raise ValidationError(
                    f"matrix has eigenvalue {vals[0]:.3e} below the -1e-10 positivity floor"
                ) from None
            vals = np.maximum(vals, 0.0)
            vals = vals / vals.sum()
            herm = (vecs * vals) @ vecs.conj().T
        else:
            # positive definite: nothing to clamp, and V diag(vals / tr) V^+ is herm / tr
            herm = herm / tr
        self.dim_signal = int(dim_signal)
        self.dim_idler = int(dim_idler)
        self.matrix = _frozen(herm)

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


def _ket_rows(vectors, dim: int, ndims=(2,)) -> np.ndarray:
    """Measurement kets as a complex (n, dim) array, one ket per row, or with
    ``ndims`` (2, 3) also an (m, n, dim) stack of such arrays."""
    kets = np.asarray(vectors, dtype=complex)
    if kets.ndim not in ndims or not kets.size:
        raise ValidationError(
            "measurement vectors must be a 2-D array, one ket per row, or a stack of them "
            f"on both sides; got shape {kets.shape}"
        )
    if kets.shape[-1] != dim:
        raise ValidationError("measurement vectors do not match the state dimensions")
    return kets


def _diagonal(kets: np.ndarray, op: np.ndarray) -> np.ndarray:
    """diag(conj(K) op K^T) as one product and a multiply-and-row-sum."""
    terms = kets.conj() @ op
    terms *= kets
    return terms.sum(axis=1)


def outcome_probabilities(rho: DensityOperator, vectors_s, vectors_i) -> np.ndarray:
    """Joint outcome probabilities for two sets of measurement kets.

    ``vectors_s`` has one row per signal outcome and ``vectors_i`` one row per
    idler outcome; returns the (n_s, n_i) table of Tr(rho (v_a v_a^+ x v_b v_b^+)).
    Row (a, b) of the product-ket matrix K is kron(v_s[a], v_i[b]), and the
    table is diag(conj(K) rho K^T): one matrix product, no contraction planning.
    Two (m, n, dim) stacks give the (m, n_s, n_i) tables of m settings from one
    product over all of their product kets, row for row the same.
    """
    v_s = _ket_rows(vectors_s, rho.dim_signal, (2, 3))
    v_i = _ket_rows(vectors_i, rho.dim_idler, (v_s.ndim,))
    if v_s.shape[:-2] != v_i.shape[:-2]:
        raise ValidationError(f"ket stacks of {len(v_s)} and {len(v_i)} settings differ")
    shape = v_s.shape[:-1] + v_i.shape[-2:-1]
    kets = (v_s[..., :, None, :, None] * v_i[..., None, :, None, :]).reshape(-1, rho.dim)
    table = _diagonal(kets, rho.matrix).reshape(shape)
    real = table.real
    residue = np.abs(table.imag).max()
    # a sum over the table is finite whenever every entry is, so the full
    # scan runs only when the scalars already say something is off
    if not math.isfinite(residue + real.sum()) and not np.isfinite(table).all():
        raise ValidationError("measurement vectors must be finite")
    if residue > ATOL_IMAG:
        raise ComputationError(
            f"probability table has imaginary residue {residue:.3e}; inputs are inconsistent"
        )
    return np.minimum(np.maximum(real, 0.0), 1.0)


def marginal_probabilities(rho: DensityOperator, vectors, side: str) -> np.ndarray:
    """Outcome probabilities of one side's kets alone, clipped to [0, 1].

    ``side`` ("signal" or "idler") names the subsystem the kets act on; the
    result is Re diag(conj(V) rho_side V^T) with rho_side that subsystem's
    reduced state.
    """
    r4 = rho.reshaped()
    if side == "signal":
        reduced, dim = np.einsum("xiyi->xy", r4), rho.dim_signal
    elif side == "idler":
        reduced, dim = np.einsum("ixiy->xy", r4), rho.dim_idler
    else:
        raise ValidationError(f"side must be 'signal' or 'idler', got {side!r}")
    kets = _ket_rows(vectors, dim)
    marg = _diagonal(kets, reduced).real
    return np.minimum(np.maximum(marg, 0.0), 1.0)


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
