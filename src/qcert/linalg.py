"""Exact complex linear algebra for small bipartite qudit systems.

States live on a signal (x) idler mode space of dimension ds * di with the
joint index flattened row-major as (signal, idler).  Everything here is a
pure function over immutable values; arrays are frozen after construction
so objects can be shared and cached freely.

An outcome table is one fixed matrix product over the product kets
kron(v_s[a], v_i[b]), and a side marginal one over that side's reduced
state; the diagonal is a multiply-and-row-sum.  Stacked kets give a block
of settings' tables from one product (``counting``'s settings plans make one
per block of up to 128 product-ket rows).  No einsum contraction is planned: at these
sizes (D <= 10, so rho is at most 100 x 100) planning took longer than
doing it.

A density operator's positivity is checked by a Cholesky factorization
first.  When it succeeds the matrix is positive definite, and the
Hermitian part divided by its trace is stored as given.  Only a singular
or indefinite input (a pure state, say) is diagonalized with ``eigh``;
then eigenvalues are floored, clamped and renormalized, and the
reconstruction is stored.

The source's state (1 - p)|Psi><Psi| + p I/D^2 is a ``SourceState``: its
tables, marginals, pair restrictions and fidelities read Psi's D
coefficients and p, one multiply-and-sum over the D axis per product ket,
and its D^2 x D^2 matrix is built only when something reads it.  A table is
affine in p, (1 - p) A + p N / D^2 (``SourceState.table``), with
A = |<a, b|Psi>|^2 (``SourceState.pure_table``) and N = |v_a|^2 |w_b|^2
(``product_norms``) free of p; ``counting``'s settings plans keep both, so
a noise scan of one source computes them once per plan.  The dense kernel
serves every other state and is the tests' reference for this one.
"""

from __future__ import annotations

import functools
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
    "SourceState",
    "PairRestriction",
    "density_from_ket",
    "outcome_probabilities",
    "marginal_probabilities",
    "fidelity_to_pure",
    "restrict_to_pair",
    "product_norms",
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

    def __repr__(self) -> str:
        return f"DensityOperator({self.dim_signal}x{self.dim_idler})"


class SourceState(DensityOperator):
    """The source's state (1 - p)|Psi><Psi| + p I/D^2, Psi = sum_x c_x |x, x>,
    held as its D diagonal coefficients c and its noise fraction p.

    c is rescaled to unit norm, as a StateVector's amplitudes are, which
    makes the state Hermitian, unit-trace and positive by construction; a
    zero or non-finite c, or p outside [0, 1], is refused.  The dense
    ``matrix`` is built the first time it is read.
    """

    def __init__(self, coefficients, noise_fraction: float) -> None:
        coeffs = np.asarray(coefficients, dtype=complex).reshape(-1)
        if not np.all(np.isfinite(coeffs.view(float))):
            raise ValidationError("coefficients must be finite")
        norm = np.linalg.norm(coeffs)
        if norm < 1e-300:   # an empty c too
            raise ValidationError("cannot normalize zero source coefficients")
        if not 0.0 <= noise_fraction <= 1.0:   # NaN too
            raise ValidationError(f"noise fraction must lie in [0, 1], got {noise_fraction!r}")
        self.dim_signal = self.dim_idler = coeffs.size
        self.coefficients = _frozen(coeffs / norm)
        self.noise_fraction = float(noise_fraction)

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        d, p = self.dim_signal, self.noise_fraction
        psi = np.zeros(d * d, dtype=complex)
        psi[np.arange(d) * (d + 1)] = self.coefficients
        return _frozen((1.0 - p) * np.outer(psi, psi.conj()) + p * np.eye(d * d) / (d * d))

    def amplitudes(self, kets_s: np.ndarray, kets_i: np.ndarray) -> np.ndarray:
        """<a, b|Psi> of (..., n_s, D) signal and (..., n_i, D) idler kets as
        (..., n_s, n_i): one multiply-and-sum over the D axis per product ket,
        so a ket's value does not depend on the kets stacked with it."""
        return (kets_s.conj()[..., :, None, :]
                * (kets_i.conj() * self.coefficients)[..., None, :, :]).sum(axis=-1)

    def pure_table(self, kets_s: np.ndarray, kets_i: np.ndarray) -> np.ndarray:
        """|<a, b|Psi>|^2 of the kets ``amplitudes`` takes: the piece of the
        tables that depends on c and not on p."""
        amps = self.amplitudes(kets_s, kets_i)
        return amps.real**2 + amps.imag**2

    def table(self, pure: np.ndarray, noise: np.ndarray) -> np.ndarray:
        """The outcome table (1 - p) pure + p noise / D^2, clipped to [0, 1],
        from its two pieces free of p: ``pure_table`` and ``product_norms``
        of the same kets."""
        p = self.noise_fraction
        return np.minimum(np.maximum((1.0 - p) * pure + p * noise / self.dim, 0.0), 1.0)


def _norms(kets: np.ndarray) -> np.ndarray:
    """|v|^2 of each ket (last axis)."""
    return (kets.real**2 + kets.imag**2).sum(axis=-1)


def product_norms(kets_s: np.ndarray, kets_i: np.ndarray) -> np.ndarray:
    """|v_a|^2 |w_b|^2 of (..., n_s, D) signal and (..., n_i, D) idler kets as
    (..., n_s, n_i): the kets' own piece of a source state's tables."""
    return _norms(kets_s)[..., :, None] * _norms(kets_i)[..., None, :]


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


def _require_finite(real: np.ndarray, residue: float = 0.0) -> None:
    """Refuse measurement vectors that made a table, or its imaginary
    residue, non-finite.  A sum over the table is finite whenever every entry
    is, so the full scan runs only when the scalars already say something is
    off."""
    if not math.isfinite(residue + real.sum()) and not (math.isfinite(residue)
                                                        and np.isfinite(real).all()):
        raise ValidationError("measurement vectors must be finite")


def outcome_probabilities(rho: DensityOperator, vectors_s, vectors_i) -> np.ndarray:
    """Joint outcome probabilities for two sets of measurement kets.

    ``vectors_s`` has one row per signal outcome and ``vectors_i`` one row per
    idler outcome; returns the (n_s, n_i) table of Tr(rho (v_a v_a^+ x v_b v_b^+)).
    Row (a, b) of the product-ket matrix K is kron(v_s[a], v_i[b]), and the
    table is diag(conj(K) rho K^T): one matrix product, no contraction planning.
    Two (m, n, dim) stacks give the (m, n_s, n_i) tables of m settings from one
    product over all of their product kets, row for row the same.  A source
    state's table is (1 - p)|<a, b|Psi>|^2 + p |v_a|^2 |w_b|^2 / D^2
    (``SourceState.table``).
    """
    v_s = _ket_rows(vectors_s, rho.dim_signal, (2, 3))
    v_i = _ket_rows(vectors_i, rho.dim_idler, (v_s.ndim,))
    if v_s.shape[:-2] != v_i.shape[:-2]:
        raise ValidationError(f"ket stacks of {len(v_s)} and {len(v_i)} settings differ")
    if isinstance(rho, SourceState):
        # |<a, b|Psi>|^2 <= |v_a|^2 |w_b|^2, so finite norms make a finite table
        noise = product_norms(v_s, v_i)
        _require_finite(noise)
        return rho.table(rho.pure_table(v_s, v_i), noise)
    shape = v_s.shape[:-1] + v_i.shape[-2:-1]
    kets = (v_s[..., :, None, :, None] * v_i[..., None, :, None, :]).reshape(-1, rho.dim)
    table = _diagonal(kets, rho.matrix).reshape(shape)
    real, residue = table.real, np.abs(table.imag).max()
    _require_finite(real, residue)
    if residue > ATOL_IMAG:
        raise ComputationError(
            f"probability table has imaginary residue {residue:.3e}; inputs are inconsistent"
        )
    return np.minimum(np.maximum(real, 0.0), 1.0)


def marginal_probabilities(rho: DensityOperator, vectors, side: str) -> np.ndarray:
    """Outcome probabilities of one side's kets alone, clipped to [0, 1].

    ``side`` ("signal" or "idler") names the subsystem the kets act on; the
    result is Re diag(conj(V) rho_side V^T) with rho_side that subsystem's
    reduced state, for a source state (1 - p) sum_x |c_x|^2 |v[x]|^2 + p |v|^2 / D.
    """
    if side not in ("signal", "idler"):
        raise ValidationError(f"side must be 'signal' or 'idler', got {side!r}")
    kets = _ket_rows(vectors, rho.dim_signal if side == "signal" else rho.dim_idler)
    if isinstance(rho, SourceState):
        p, c = rho.noise_fraction, rho.coefficients
        weighted = ((kets.real**2 + kets.imag**2) * (c.real**2 + c.imag**2)).sum(axis=-1)
        marg = (1.0 - p) * weighted + p * _norms(kets) / rho.dim_signal
    else:
        reduced = np.einsum("xiyi->xy" if side == "signal" else "ixiy->xy", rho.reshaped())
        marg = _diagonal(kets, reduced).real
    return np.minimum(np.maximum(marg, 0.0), 1.0)


def fidelity_to_pure(rho: DensityOperator, target: StateVector) -> float:
    """Fidelity <psi|rho|psi> against a pure target state."""
    if (rho.dim_signal, rho.dim_idler) != (target.dim_signal, target.dim_idler):
        raise ValidationError("state dimensions do not match")
    amp = target.amplitudes
    if isinstance(rho, SourceState):
        # (1 - p)|<psi|Psi>|^2 + p <psi|psi> / D^2
        d, p = rho.dim_signal, rho.noise_fraction
        overlap = np.vdot(amp[np.arange(d) * (d + 1)], rho.coefficients)
        val = complex((1.0 - p) * abs(overlap)**2 + p * np.vdot(amp, amp).real / rho.dim)
    else:
        val = complex(amp.conj() @ rho.matrix @ amp)
    if abs(val.imag) > ATOL_IMAG:
        raise ComputationError(f"fidelity has imaginary residue {val.imag:.3e}; inputs are "
                               "inconsistent")
    return float(min(max(val.real, 0.0), 1.0))


def restrict_to_pair(rho: DensityOperator, j: int, k: int) -> PairRestriction:
    """Post-select onto span{|j>,|k>} x span{|j>,|k>} and renormalize.

    Returns the renormalized two-qubit operator (basis order jj, jk, kj, kk)
    together with the pre-normalization trace, i.e. the post-selection weight.
    Weights below 1e-14 yield a flagged zero-weight result.  A source state's
    pair block is (1 - p)|u><u| + p I/D^2 with u = c_j|jj> + c_k|kk>, so its
    restriction is the two-mode source state of (c_j, c_k).
    """
    if j == k:
        raise ValidationError("pair modes must differ")
    for m in (j, k):
        if not (0 <= m < rho.dim_signal) or not (0 <= m < rho.dim_idler):
            raise ValidationError(f"mode {m} outside the state's mode range")
    if isinstance(rho, SourceState):
        pair, p = rho.coefficients[[j, k]], rho.noise_fraction
        noise = 4.0 * p / rho.dim
        weight = float((1.0 - p) * _norms(pair) + noise)
        if weight < 1e-14:
            return PairRestriction(operator=None, weight=0.0)
        # without amplitude on the pair the block is white noise, whatever its ket
        return PairRestriction(operator=SourceState(pair if pair.any() else (1.0, 0.0),
                                                    noise / weight), weight=weight)
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
