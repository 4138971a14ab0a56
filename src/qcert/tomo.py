"""Two-qubit tomography on a post-selected mode pair.

Nine settings (all pairs of x/y/z axes on the embedded pair, 36 outcome
cells) feed a linear inversion over Pauli expectation values, followed by a
projection onto the physical cone: the eigenvalue spectrum is mapped to the
closest point of the probability simplex (Euclidean, trace preserving) and
the operator rebuilt.  Fidelity is reported against the even superposition
of the two pair modes, and the relative phase as the phase of the
k-mode amplitude with respect to the j-mode one, arg(<kk|rho|jj>).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ComputationError
from .linalg import DensityOperator, restrict_to_pair
from .bases import AXES, tomo_settings
from .counting import CoincidenceTable, bootstrap_std, plan_modes, setting_cells

__all__ = [
    "TomoResult",
    "exact_cells",
    "reconstruct",
    "reconstruct_exact",
    "project_to_physical",
]

PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}
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


def _cells(data, plan, corrected: bool = False) -> dict:
    """The 36 cells of a tomography plan, keyed (axis_s, axis_i, outcome_s,
    outcome_i): probabilities for a state, estimates for a count table."""
    cells = {}
    axis_pairs = [(ax_s, ax_i) for ax_s in AXES for ax_i in AXES]
    for (ax_s, ax_i), setting in zip(axis_pairs, plan):
        values, _ = setting_cells(data, setting, corrected)
        for a, row in zip(setting.basis_s.labels, values):
            for b, value in zip(setting.basis_i.labels, row):
                cells[(ax_s, ax_i, a, b)] = float(value)
    return cells


def exact_cells(rho: DensityOperator, j: int, k: int, space: str = "X") -> dict:
    """Exact outcome probabilities for the 36 tomography cells."""
    return _cells(rho, _plan(rho, j, k, space))


def project_to_physical(matrix: np.ndarray) -> np.ndarray:
    """Nearest unit-trace positive operator in Frobenius norm.

    Eigenvalues are projected onto the probability simplex (sort, then shift
    the largest ones by a common offset and clip the rest to zero); the
    projection is idempotent and leaves physical spectra untouched.
    """
    herm = (matrix + matrix.conj().T) / 2.0
    vals, vecs = np.linalg.eigh(herm)
    lam = _project_simplex(vals)
    return (vecs * lam) @ vecs.conj().T


def _project_simplex(values: np.ndarray) -> np.ndarray:
    desc = np.sort(values)[::-1]
    csum = np.cumsum(desc)
    ks = np.arange(1, values.size + 1)
    feasible = desc + (1.0 - csum) / ks > 0
    k = int(ks[feasible][-1])
    shift = (1.0 - csum[k - 1]) / k
    return np.maximum(values + shift, 0.0)


def _invert_cells(cells: dict) -> np.ndarray:
    """Linear inversion of the 36 cells into a (possibly unphysical) matrix."""
    totals = {}
    for ax_s in AXES:
        for ax_i in AXES:
            t = sum(cells[(ax_s, ax_i, a, b)] for a in (1, -1) for b in (1, -1))
            if t <= 0:
                raise ComputationError(f"tomography setting ({ax_s},{ax_i}) has no net counts")
            totals[(ax_s, ax_i)] = t
    corr = {
        (ax_s, ax_i): sum(
            a * b * cells[(ax_s, ax_i, a, b)] for a in (1, -1) for b in (1, -1)
        ) / totals[(ax_s, ax_i)]
        for ax_s in AXES
        for ax_i in AXES
    }
    single_s = {
        ax_s: np.mean([
            sum(a * cells[(ax_s, ax_i, a, b)] for a in (1, -1) for b in (1, -1))
            / totals[(ax_s, ax_i)]
            for ax_i in AXES
        ])
        for ax_s in AXES
    }
    single_i = {
        ax_i: np.mean([
            sum(b * cells[(ax_s, ax_i, a, b)] for a in (1, -1) for b in (1, -1))
            / totals[(ax_s, ax_i)]
            for ax_s in AXES
        ])
        for ax_i in AXES
    }
    eye = np.eye(2, dtype=complex)
    rho = np.kron(eye, eye).astype(complex)
    for ax in AXES:
        rho += single_s[ax] * np.kron(PAULI[ax], eye)
        rho += single_i[ax] * np.kron(eye, PAULI[ax])
    for ax_s in AXES:
        for ax_i in AXES:
            rho += corr[(ax_s, ax_i)] * np.kron(PAULI[ax_s], PAULI[ax_i])
    return rho / 4.0


def _result_from_cells(cells: dict, fidelity_err: float,
                       weight: float | None) -> TomoResult:
    if all(v == 0 for v in cells.values()):
        raise ComputationError("all tomography cells are zero")
    physical = project_to_physical(_invert_cells(cells))
    op = DensityOperator(2, 2, physical)
    fid = float(np.real(BELL_TARGET.conj() @ op.matrix @ BELL_TARGET))
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
    weight: float | None
    if space == "X":
        weight = restrict_to_pair(rho, j, k).weight
    else:
        # sum of the four z-axis cells: in-subspace probability of the pair
        weight = sum(cells[("z", "z", a, b)] for a in (1, -1) for b in (1, -1))
    return _result_from_cells(cells, fidelity_err=0.0, weight=weight)


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
    settings, re-applying the accidental correction when requested.
    """
    plan = _plan(table, *pair, space)
    cells = _cells(table, plan, corrected)
    err = bootstrap_std(
        table.restricted(setting.name for setting in plan),
        lambda boot: _result_from_cells(_cells(boot, plan, corrected), 0.0, None).fidelity,
        n_bootstrap, seed,
    )
    return _result_from_cells(cells, fidelity_err=err, weight=None)
