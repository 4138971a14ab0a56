"""Two-qubit tomography on a post-selected mode pair.

Nine settings (all pairs of x/y/z axes on the embedded pair, 36 outcome
cells, read as one (3, 3, 2, 2) array) feed a linear inversion over Pauli
expectation values, one contraction with the 16 Pauli products, followed
by a projection onto the physical cone: the eigenvalue spectrum is mapped
to the closest point of the probability simplex (Euclidean, trace
preserving) and the operator rebuilt.  Bootstrap replicas run the same
steps over a leading replica axis.  Fidelity is reported against the even superposition
of the two pair modes, and the relative phase as the phase of the
k-mode amplitude with respect to the j-mode one, arg(<kk|rho|jj>).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ComputationError
from .linalg import DensityOperator
from .bases import AXES, tomo_settings
from .counting import CoincidenceTable, bootstrap_std, plan_modes, setting_cells

__all__ = [
    "TomoResult",
    "exact_cells",
    "reconstruct",
    "reconstruct_exact",
    "project_to_physical",
]

SIGNS = np.array([1.0, -1.0])  # the +1, -1 outcome labels of each pair basis
PAULI = np.array([np.eye(2), [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
# PAULI_PRODUCTS[m, n] = kron(PAULI[m], PAULI[n]); m, n = 0 (identity), x, y, z
PAULI_PRODUCTS = np.einsum("mac,nbd->mnabcd", PAULI, PAULI).reshape(4, 4, 4, 4)
BELL_TARGET = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)


@dataclass(frozen=True)
class TomoResult:
    operator: DensityOperator          # 2x2 qubit pair, basis order jj, jk, kj, kk
    fidelity: float
    fidelity_err: float
    relative_phase_deg: float
    postselection_weight: float | None


def _plan(data, j: int, k: int, space: str):
    """The nine settings of pair (j, k); a table without D gets the smallest
    mode space that holds the pair (the cell labels do not depend on it)."""
    return tomo_settings(j, k, space=space, num_modes=plan_modes(data, max(j, k) + 1))


def _cells(data, plan, corrected: bool = False) -> np.ndarray:
    """The 36 cells of a tomography plan as (..., axis_s, axis_i, outcome_s,
    outcome_i) = (..., 3, 3, 2, 2), axes in AXES order and outcomes +1, -1:
    probabilities for a state, estimates for a table or a replica stack."""
    values = setting_cells(data, plan, corrected)[0]
    return values.reshape(values.shape[:-3] + (3, 3, 2, 2))


def exact_cells(rho: DensityOperator, j: int, k: int, space: str = "X") -> np.ndarray:
    """Exact outcome probabilities of the 36 tomography cells, (3, 3, 2, 2)
    indexed (axis_s, axis_i, outcome_s, outcome_i) as ``AXES`` and +1, -1."""
    return _cells(rho, _plan(rho, j, k, space))


def project_to_physical(matrix: np.ndarray) -> np.ndarray:
    """Nearest unit-trace positive operator in Frobenius norm, for one
    matrix or a stack of them (leading axes).

    Eigenvalues are projected onto the probability simplex (sort, then shift
    the largest ones by a common offset and clip the rest to zero); the
    projection is idempotent and leaves physical spectra untouched.
    """
    herm = (matrix + matrix.conj().swapaxes(-1, -2)) / 2.0
    vals, vecs = np.linalg.eigh(herm)
    lam = _project_simplex(vals)
    return (vecs * lam[..., None, :]) @ vecs.conj().swapaxes(-1, -2)


def _project_simplex(values: np.ndarray) -> np.ndarray:
    """Euclidean projection of each row (last axis) onto the simplex."""
    desc = np.flip(np.sort(values, axis=-1), axis=-1)
    csum = np.cumsum(desc, axis=-1)
    ks = np.arange(1, values.shape[-1] + 1)
    feasible = desc + (1.0 - csum) / ks > 0
    # the largest feasible k: feasible[0] always holds, so one exists
    k = ks.size - np.argmax(feasible[..., ::-1], axis=-1, keepdims=True)
    shift = (1.0 - np.take_along_axis(csum, k - 1, axis=-1)) / k
    return np.maximum(values + shift, 0.0)


def _invert_cells(cells: np.ndarray) -> np.ndarray:
    """Linear inversion of (..., 3, 3, 2, 2) cells into (possibly unphysical)
    (..., 4, 4) matrices; NaN where a setting has no net counts."""
    totals = cells.sum(axis=(-2, -1))
    probs = cells / np.where(totals > 0, totals, np.nan)[..., None, None]
    signed_s = probs @ np.ones(2) @ SIGNS    # sum_ab a p(a, b), per axis pair
    signed_i = np.ones(2) @ probs @ SIGNS    # sum_ab b p(a, b)
    pauli = np.ones(cells.shape[:-4] + (4, 4))
    pauli[..., 1:, 0] = signed_s.mean(axis=-1)
    pauli[..., 0, 1:] = signed_i.mean(axis=-2)
    pauli[..., 1:, 1:] = SIGNS @ probs @ SIGNS
    return np.tensordot(pauli, PAULI_PRODUCTS, axes=2) / 4.0


def _fidelity(matrix: np.ndarray) -> np.ndarray:
    return np.real(BELL_TARGET.conj() @ matrix @ BELL_TARGET)


def _fidelities(cells: np.ndarray) -> np.ndarray:
    """Fidelity of the projected reconstruction of each replica's cells;
    NaN for a replica with a setting without net counts."""
    ok = (cells.sum(axis=(-2, -1)) > 0).all(axis=(-2, -1))
    inverted = np.where(ok[..., None, None], _invert_cells(cells), np.eye(4) / 4.0)
    return np.where(ok, _fidelity(project_to_physical(inverted)), np.nan)


def _result_from_cells(cells: np.ndarray, fidelity_err: float,
                       weight: float | None) -> TomoResult:
    if not cells.any():
        raise ComputationError("all tomography cells are zero")
    empty = np.argwhere(cells.sum(axis=(-2, -1)) <= 0)
    if len(empty):
        ax_s, ax_i = (AXES[a] for a in empty[0])
        raise ComputationError(f"tomography setting ({ax_s},{ax_i}) has no net counts")
    op = DensityOperator(2, 2, project_to_physical(_invert_cells(cells)))
    fid = float(_fidelity(op.matrix))
    coherence = complex(op.matrix[3, 0])  # <kk|rho|jj>
    phase = math.degrees(math.atan2(coherence.imag, coherence.real))
    if phase <= -180.0:
        phase += 360.0
    return TomoResult(
        operator=op,
        fidelity=fid,
        fidelity_err=fidelity_err,
        relative_phase_deg=phase,
        postselection_weight=weight,
    )


def reconstruct_exact(rho: DensityOperator, j: int, k: int, space: str = "X") -> TomoResult:
    """Reconstruction from exact probabilities; unbiased, zero error bars."""
    cells = exact_cells(rho, j, k, space=space)
    # the four z-axis cells sum to the in-subspace probability of the pair
    return _result_from_cells(cells, fidelity_err=0.0, weight=float(cells[2, 2].sum()))


def reconstruct(
    table: CoincidenceTable,
    pair: tuple[int, int],
    space: str = "X",
    corrected: bool = False,
    n_bootstrap: int = 100,
    seed: int = 0,
) -> TomoResult:
    """Reconstruction from a count table, with a bootstrap fidelity error.

    The error is the bootstrap standard deviation (``counting.bootstrap_std``)
    of the refitted fidelity over Poisson replicas of the nine tomography
    settings, re-applying the accidental correction when requested; the
    replicas are reconstructed together, as one stack.
    """
    plan = _plan(table, *pair, space)
    cells = _cells(table, plan, corrected)
    err = bootstrap_std(
        table.restricted(setting.name for setting in plan),
        lambda stack: _fidelities(_cells(stack, plan, corrected)),
        n_bootstrap, seed, singles=corrected,
    )
    return _result_from_cells(cells, fidelity_err=err, weight=None)
