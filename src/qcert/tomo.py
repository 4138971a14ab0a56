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

from .errors import ComputationError, ValidationError
from .linalg import DensityOperator, restrict_to_pair
from . import bases
from .bases import AXES, MeasurementBasis
from .counting import CoincidenceTable, bootstrap_std, estimate
from . import naming

__all__ = [
    "TomoSetting",
    "TomoResult",
    "tomo_settings",
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
class TomoSetting:
    name: str
    axis_s: str
    axis_i: str
    basis_s: MeasurementBasis
    basis_i: MeasurementBasis


@dataclass(frozen=True)
class TomoResult:
    operator: DensityOperator          # 2x2 qubit pair, basis order jj, jk, kj, kk
    fidelity: float
    fidelity_err: float
    relative_phase_deg: float
    postselection_weight: float | None


def tomo_settings(j: int, k: int, space: str = "X", num_modes: int = 10) -> list[TomoSetting]:
    """The nine axis-pair settings for tomography on modes (j, k)."""
    if j == k:
        raise ValidationError("pair modes must differ")
    naming.require_space(space)
    settings = []
    for ax_s in AXES:
        basis_s = bases.pair_basis(space, j, k, ax_s, num_modes, side="signal")
        for ax_i in AXES:
            basis_i = bases.pair_basis(space, j, k, ax_i, num_modes, side="idler")
            settings.append(TomoSetting(
                name=naming.tomo_setting(space, j, k, ax_s, ax_i),
                axis_s=ax_s,
                axis_i=ax_i,
                basis_s=basis_s,
                basis_i=basis_i,
            ))
    return settings


def exact_cells(rho: DensityOperator, j: int, k: int, space: str = "X") -> dict:
    """Exact outcome probabilities for the 36 tomography cells."""
    from .linalg import outcome_probabilities

    cells = {}
    for st in tomo_settings(j, k, space=space, num_modes=min(rho.dim_signal, rho.dim_idler)):
        table = outcome_probabilities(rho, st.basis_s.vector_matrix, st.basis_i.vector_matrix)
        for a, lab_a in enumerate(st.basis_s.labels):
            for b, lab_b in enumerate(st.basis_i.labels):
                cells[(st.axis_s, st.axis_i, lab_a, lab_b)] = float(table[a, b])
    return cells


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


def _cells_from_table(table: CoincidenceTable, j: int, k: int, space: str,
                      corrected: bool) -> dict:
    cells = {}
    missing = []
    for ax_s in AXES:
        for ax_i in AXES:
            name = naming.tomo_setting(space, j, k, ax_s, ax_i)
            recs = table.by_setting(name)
            if set(recs) != {(1, 1), (1, -1), (-1, 1), (-1, -1)}:
                missing.append(name)
                continue
            for (a, b), rec in recs.items():
                cells[(ax_s, ax_i, a, b)] = estimate(rec, corrected).value
    if missing:
        raise ValidationError(f"tomography settings missing or incomplete: {missing}")
    return cells


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
    j, k = pair
    cells = _cells_from_table(table, j, k, space, corrected)
    tomo_table = table.restricted(
        naming.tomo_setting(space, j, k, ax_s, ax_i) for ax_s in AXES for ax_i in AXES
    )
    err = bootstrap_std(
        tomo_table,
        lambda boot: _result_from_cells(
            _cells_from_table(boot, j, k, space, corrected), 0.0, None).fidelity,
        n_bootstrap, seed,
    )
    return _result_from_cells(cells, fidelity_err=err, weight=None)
