import functools
import hashlib
import math
import os
from dataclasses import replace
from pathlib import Path

import numpy as np

import qcert
from qcert import (CountRecord, DensityOperator, Projector, StateVector, bases, density_from_ket,
                   eof_bound, fidelity_to_pure, mean_pair_visibility, noisy_state, pipeline,
                   restrict_to_pair, setting_means)
from qcert.bases import AXES, MeasurementBasis, cglmp_basis, k_basis, pair_basis, x_basis
from qcert.errors import ComputationError


def cli_env():
    """Environment for a `python -m qcert.cli` child process.

    PYTHONPATH starts with the absolute directory that holds the qcert package
    this test process imported, followed by any existing PYTHONPATH, so the
    child runs the same code from any working directory (a relative entry
    such as `src` would not resolve from a tmp dir).
    """
    env = dict(os.environ)
    src = str(Path(qcert.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def einsum_table(rho, v_s, v_i):
    """The planned five-operand contraction outcome_probabilities used before
    product kets; the oracle for the product-ket table."""
    table = np.einsum("ax,by,xyzw,az,bw->ab", v_s.conj(), v_i.conj(), rho.reshaped(),
                      v_s, v_i, optimize=True)
    return np.clip(table.real, 0.0, 1.0)


def einsum_marginals(rho, v_s, v_i):
    """The planned side-marginal contractions setting_means used before
    reduced states; the oracle for marginal_probabilities."""
    r4 = rho.reshaped()
    marg_s = np.einsum("ax,xiyi,ay->a", v_s.conj(), r4, v_s, optimize=True).real
    marg_i = np.einsum("bx,ixiy,by->b", v_i.conj(), r4, v_i, optimize=True).real
    return np.clip(marg_s, 0.0, 1.0), np.clip(marg_i, 0.0, 1.0)


def random_unitary(d, rng):
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def oracle_states(d_s, d_i, seed):
    """Seeded pure, full-rank mixed and random-phase (diagonal source with
    spread amplitudes and random phases, mixed with white noise) states."""
    rng = np.random.default_rng(seed)
    dim = d_s * d_i
    pure = density_from_ket(StateVector(d_s, d_i, rng.normal(size=dim)
                                        + 1j * rng.normal(size=dim)))
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    raw = g @ g.conj().T
    mixed = DensityOperator(d_s, d_i, raw / np.trace(raw).real)
    m = min(d_s, d_i)
    amps = np.zeros(dim, dtype=complex)
    amps[np.arange(m) * d_i + np.arange(m)] = ((1 + 0.3 * rng.normal(size=m))
                                               * np.exp(2j * np.pi * rng.random(m)))
    ket = density_from_ket(StateVector(d_s, d_i, amps)).matrix
    phased = DensityOperator(d_s, d_i, 0.8 * ket + 0.2 * np.eye(dim) / dim)
    return [pure, mixed, phased]


def _unitary_basis(u, side):
    projs = tuple(Projector(vec, a) for a, vec in enumerate(u))
    return MeasurementBasis(name=f"U{len(u)}", side=side, dim=u.shape[1], projectors=projs)


def oracle_bases(d_s, d_i, seed):
    """(signal, idler) basis pairs: X, K, pair x/y/z in both spaces, embedded
    Bell bases and random-unitary bases (also a two-outcome one against X)."""
    rng = np.random.default_rng(seed)
    pairs = [(x_basis(d_s), x_basis(d_i, "idler")), (k_basis(d_s), k_basis(d_i, "idler"))]
    for space in ("X", "K"):
        for axis in AXES:
            pairs.append((pair_basis(space, 0, 1, axis, d_s),
                          pair_basis(space, 1, 0, axis, d_i, "idler")))
    for d in sorted({2, min(d_s, d_i)}):
        for setting in (0, 1):
            pairs.append((cglmp_basis("signal", setting, d, embed_dim=d_s),
                          cglmp_basis("idler", 1 - setting, d, embed_dim=d_i)))
    u_s, u_i = random_unitary(d_s, rng), random_unitary(d_i, rng)
    pairs += [(_unitary_basis(u_s, "signal"), _unitary_basis(u_i, "idler")),
              (_unitary_basis(u_s[:2], "signal"), x_basis(d_i, "idler"))]
    return pairs


# Keyed-stream simulation as it was before the whole plan was seeded in one
# pass: one numpy-constructed stream per draw.  The oracle for simulate_plan.

def oracle_stream(seed, setting, *key_parts):
    """A keyed stream built with numpy's own constructors."""
    text = "\x1f".join([setting, *map(str, key_parts)])
    word = int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "little")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([int(seed), word])))


def oracle_simulate(rho, basis_s, basis_i, trials, params, seed, name):
    """One setting's records, drawn cell by cell in table order; coincidences
    and singles capped at the trial count."""
    means = setting_means(rho, basis_s, basis_i, trials, params)
    labels_s, labels_i = basis_s.labels, basis_i.labels
    cells = np.zeros(means.coincidences.shape, dtype=np.int64)
    for a, lab_a in enumerate(labels_s):
        for b, lab_b in enumerate(labels_i):
            rng = oracle_stream(seed, name, "cell", lab_a, lab_b)
            cells[a, b] = min(rng.poisson(means.coincidences[a, b]), trials)
    singles_s = np.zeros(len(labels_s), dtype=np.int64)
    for a, lab_a in enumerate(labels_s):
        rng = oracle_stream(seed, name, "singles_s", lab_a)
        topup = max(means.singles_s[a] - means.coincidences[a, :].sum(), 0.0)
        singles_s[a] = min(cells[a, :].sum() + rng.poisson(topup), trials)
    singles_i = np.zeros(len(labels_i), dtype=np.int64)
    for b, lab_b in enumerate(labels_i):
        rng = oracle_stream(seed, name, "singles_i", lab_b)
        topup = max(means.singles_i[b] - means.coincidences[:, b].sum(), 0.0)
        singles_i[b] = min(cells[:, b].sum() + rng.poisson(topup), trials)
    return [CountRecord(setting=name, outcome_s=lab_a, outcome_i=lab_b,
                        coincidences=int(cells[a, b]), singles_s=int(singles_s[a]),
                        singles_i=int(singles_i[b]), trials=trials)
            for a, lab_a in enumerate(labels_s) for b, lab_b in enumerate(labels_i)]


# Per-table estimators as they were before the count path read stacked
# arrays: one record, one setting and one table at a time.  The oracles for
# the batched estimators over a bootstrap replica stack.

def oracle_estimate(rec, corrected):
    """(value, standard error) of one record: raw, or accidental-subtracted."""
    c, s, i, n = rec.coincidences, rec.singles_s, rec.singles_i, rec.trials
    if not corrected or s == 0 or i == 0:
        return float(c), math.sqrt(c)
    acc = s * i / n
    return c - acc, math.sqrt(c + acc * acc * (1.0 / s + 1.0 / i))


def oracle_setting_cells(table, setting, corrected):
    """One setting's cell values and variances as nested lists."""
    recs = table.by_setting(setting.name)
    ests = [[oracle_estimate(recs[key], corrected) for key in row] for row in setting.cells]
    return ([[value for value, _ in row] for row in ests],
            [[err**2 for _, err in row] for row in ests])


def oracle_visibility(values, variances):
    """(V, its error, status) from one setting's 2 x 2 cells."""
    n1 = values[0][0] + values[1][1]
    n2 = values[0][1] + values[1][0]
    total = n1 + n2
    if total <= 0:
        return 0.0, 0.0, "no-counts"
    vis = abs(n1 - n2) / total
    d_n1 = 2 * n2 / total**2
    d_n2 = 2 * n1 / total**2
    var = d_n1**2 * (variances[0][0] + variances[1][1]) + d_n2**2 * (
        variances[0][1] + variances[1][0])
    return min(vis, 1.0), math.sqrt(var), "clamped" if vis > 1.0 else "ok"


def oracle_eof_b(table, space, pairs, corrected, num_modes):
    """The count-path B functional of one table."""
    values = np.asarray(oracle_setting_cells(
        table, bases.scan_setting(space, num_modes), corrected)[0])
    if values.sum() <= 0:
        raise ComputationError("diagonal coincidence table has no net counts")
    probs = values / values.sum()
    total = 0.0
    for j, k in pairs:
        weight = probs[j, j] + probs[j, k] + probs[k, j] + probs[k, k]
        v_x, v_y = (oracle_visibility(*oracle_setting_cells(table, st, corrected))[0]
                    for st in bases.witness_settings(space, min(j, k), max(j, k),
                                                     num_modes)[:2])
        total += weight * (v_x + v_y) / 4.0 - math.sqrt(
            max(probs[j, k], 0.0) * max(probs[k, j], 0.0))
    return max(2.0 / math.sqrt(len(pairs)) * total, 0.0)


PAULI = {"x": np.array([[0, 1], [1, 0]], dtype=complex),
         "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
         "z": np.array([[1, 0], [0, -1]], dtype=complex)}


def oracle_tomo_fidelity(table, plan, corrected):
    """Fidelity of one table's projected linear-inversion reconstruction,
    summed Pauli term by Pauli term."""
    cells = {}
    for (ax_s, ax_i), setting in zip([(s, i) for s in AXES for i in AXES], plan):
        values, _ = oracle_setting_cells(table, setting, corrected)
        for a, row in zip(setting.basis_s.labels, values):
            for b, value in zip(setting.basis_i.labels, row):
                cells[(ax_s, ax_i, a, b)] = float(value)
    if all(v == 0 for v in cells.values()):
        raise ComputationError("all tomography cells are zero")
    signs = [(a, b) for a in (1, -1) for b in (1, -1)]
    norm = {}
    for ax_s in AXES:
        for ax_i in AXES:
            total = sum(cells[(ax_s, ax_i, a, b)] for a, b in signs)
            if total <= 0:
                raise ComputationError(f"tomography setting ({ax_s},{ax_i}) has no net counts")
            norm[(ax_s, ax_i)] = total
    eye = np.eye(2, dtype=complex)
    rho = np.kron(eye, eye)
    for ax in AXES:
        single_s = np.mean([sum(a * cells[(ax, ax_i, a, b)] for a, b in signs)
                            / norm[(ax, ax_i)] for ax_i in AXES])
        single_i = np.mean([sum(b * cells[(ax_s, ax, a, b)] for a, b in signs)
                            / norm[(ax_s, ax)] for ax_s in AXES])
        rho = rho + single_s * np.kron(PAULI[ax], eye) + single_i * np.kron(eye, PAULI[ax])
    for ax_s in AXES:
        for ax_i in AXES:
            corr = sum(a * b * cells[(ax_s, ax_i, a, b)] for a, b in signs) / norm[(ax_s, ax_i)]
            rho = rho + corr * np.kron(PAULI[ax_s], PAULI[ax_i])
    vals, vecs = np.linalg.eigh(rho / 4.0)
    # Euclidean projection of the spectrum onto the probability simplex
    desc = np.sort(vals)[::-1]
    csum = np.cumsum(desc)
    ks = np.arange(1, 5)
    k = int(ks[desc + (1.0 - csum) / ks > 0][-1])
    lam = np.maximum(vals + (1.0 - csum[k - 1]) / k, 0.0)
    op = DensityOperator(2, 2, (vecs * lam) @ vecs.conj().T)
    target = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    return float(np.real(target.conj() @ op.matrix @ target))


# The noise-fit objectives as they were before the fits read two endpoint
# states: one dense noisy_state, and every table it needs, per bisection
# step.  The oracles for the endpoint objectives and their fits.

BELL_PAIR = StateVector(2, 2, np.array([1, 0, 0, 1]) / np.sqrt(2))
ORACLE_FIT_TOL = {"visibility": 1e-6, "eof": 1e-7, "fidelity": 1e-9}


def oracle_objective(objective, cfg, pair=None):
    """p -> the objective of noisy_state(cfg.with_noise(p)), built densely."""
    if objective == "visibility":
        return lambda p: mean_pair_visibility(noisy_state(cfg.with_noise(p)))
    if objective == "eof":
        return lambda p: eof_bound(noisy_state(cfg.with_noise(p))).ebits

    def fidelity(p):
        restriction = restrict_to_pair(noisy_state(cfg.with_noise(p)), *pair)
        return 0.0 if restriction.zero_weight else fidelity_to_pure(restriction.operator,
                                                                    BELL_PAIR)
    return fidelity


def oracle_fit(objective, target, cfg, pair=None):
    """The fit by the same bisection over the dense objective."""
    return pipeline._bisect_noise(oracle_objective(objective, cfg, pair), target,
                                  tol=ORACLE_FIT_TOL[objective])


# calibrated-witness at this seed: the corrected coherence sum, 1.511, lies
# above sqrt(2), so the corrected formation bound saturates at log2 10
SATURATING_SEED = 18


@functools.lru_cache(maxsize=1)
def saturating_table():
    """The full calibrated-witness table of ``qcert simulate --seed 18``."""
    return pipeline.run_simulation(
        replace(pipeline.preset("calibrated-witness"), seed=SATURATING_SEED))
