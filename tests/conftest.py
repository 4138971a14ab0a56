import functools
import hashlib
import math
import os
from dataclasses import replace
from pathlib import Path

import numpy as np

import qcert
from qcert import (CountRecord, DensityOperator, StateVector, bases, density_from_ket,
                   eof_bound, fidelity_to_pure, mean_pair_visibility, noisy_state, pipeline,
                   restrict_to_pair)
from qcert.bases import (AXES, MeasurementBasis, cglmp_basis, k_basis, pair_basis, x_basis)
from qcert.linalg import marginal_probabilities, outcome_probabilities
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


def eigh_density(matrix):
    """The matrix DensityOperator stored before it tried Cholesky first: the
    Hermitian part's spectrum clamped at zero, renormalized and recombined."""
    vals, vecs = np.linalg.eigh((matrix + matrix.conj().T) / 2.0)
    vals = np.maximum(vals, 0.0)
    return (vecs * (vals / vals.sum())) @ vecs.conj().T


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
    return MeasurementBasis(f"U{len(u)}", side, tuple(range(len(u))), u)


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


def oracle_means(rho, basis_s, basis_i, trials, params):
    """A setting's count means as setting_means computed them before plans
    were tabulated a block at a time: one table and two marginal calls."""
    table = outcome_probabilities(rho, basis_s.vector_matrix, basis_i.vector_matrix)
    marg_s = marginal_probabilities(rho, basis_s.vector_matrix, "signal")
    marg_i = marginal_probabilities(rho, basis_i.vector_matrix, "idler")
    n = float(trials)
    return (n * params.P_S * params.eta_r * table
            + n * params.P_S * params.P_I * np.outer(marg_s, marg_i),
            n * params.P_S * marg_s, n * params.P_I * marg_i)


def oracle_cells(rho, settings):
    """Exact cells as setting_cells read them before settings were stacked:
    one outcome_probabilities call per setting."""
    return np.array([outcome_probabilities(rho, st.basis_s.vector_matrix,
                                           st.basis_i.vector_matrix) for st in settings])


def kron_eof_elements(rho, space, j, k):
    """<jj|rho|kk>, <jk|rho|jk> and <kj|rho|kj> per pair as the exact formation
    bound read them before it read the scan's cells: off rho rotated once
    into the scan's product basis by one (D^2, D^2) Kronecker product."""
    scan = bases.scan_setting(space, rho.dim_signal)
    kets = np.kron(scan.basis_s.vector_matrix, scan.basis_i.vector_matrix)
    r = kets.conj() @ rho.matrix @ kets.T
    n = rho.dim_idler
    return r[j * n + j, k * n + k], r[j * n + k, j * n + k].real, r[k * n + j, k * n + j].real


# Keyed-stream simulation built with numpy's own constructors, one setting at
# a time.  The oracle for plan_means(...).draw.

def oracle_stream(seed, setting, labels_s, labels_i):
    """A setting's stream: SeedSequence([seed, word]) -> PCG64, the word
    hashing the setting name and its sorted signal and idler labels."""
    text = "\x1f".join([setting, str(tuple(sorted(labels_s))), str(tuple(sorted(labels_i)))])
    word = int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "little")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([int(seed), word])))


def oracle_simulate(rho, basis_s, basis_i, trials, params, seed, name):
    """One setting's records from one poisson call on its means in
    sorted-label order (cells by (a, b), signal top-ups, idler top-ups);
    coincidences and singles capped at the trial count."""
    lam, mean_s, mean_i = oracle_means(rho, basis_s, basis_i, trials, params)
    labels_s, labels_i = basis_s.labels, basis_i.labels
    rows = {a: row for row, a in enumerate(labels_s)}
    cols = {b: col for col, b in enumerate(labels_i)}
    sorted_s, sorted_i = sorted(labels_s), sorted(labels_i)
    means = ([lam[rows[a], cols[b]] for a in sorted_s for b in sorted_i]
             + [max(mean_s[rows[a]] - lam[rows[a], :].sum(), 0.0) for a in sorted_s]
             + [max(mean_i[cols[b]] - lam[:, cols[b]].sum(), 0.0) for b in sorted_i])
    draws = oracle_stream(seed, name, labels_s, labels_i).poisson(means).tolist()
    cells = {(a, b): min(draws.pop(0), trials) for a in sorted_s for b in sorted_i}
    singles_s = {a: min(sum(cells[a, b] for b in labels_i) + draws.pop(0), trials)
                 for a in sorted_s}
    singles_i = {b: min(sum(cells[a, b] for a in labels_s) + draws.pop(0), trials)
                 for b in sorted_i}
    return [CountRecord(setting=name, outcome_s=a, outcome_i=b, coincidences=cells[a, b],
                        singles_s=singles_s[a], singles_i=singles_i[b], trials=trials)
            for a in labels_s for b in labels_i]


# Bootstrap replicas built with numpy's own constructors and scalar draws.
# The oracle for counting._replica_blocks and bootstrap_table.

REPLICA_KINDS = ("C", "S_s-C", "S_i-C")


def oracle_replica_stream(table, seed, kind):
    """The bootstrap stream of one row kind of REPLICA_KINDS:
    SeedSequence([seed, word]) -> PCG64, ``word`` hashing "bootstrap", the
    kind and the table's sorted record keys."""
    keys = sorted(rec.key for rec in table.records)
    text = "\x1f".join(["bootstrap", kind, *(str(part) for key in keys for part in key)])
    word = int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "little")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([int(seed), word])))


def oracle_bootstrap(table, seed, n_replicas=1):
    """Replicas 0 .. n_replicas - 1 of ``seed``, each a list of records in
    table order, from scalar draws: replica after replica, each kind's stream
    draws its mean for every record in sorted-key order (C, then S_s - C,
    then S_i - C); coincidences and singles capped at the trial count."""
    streams = [oracle_replica_stream(table, seed, kind) for kind in REPLICA_KINDS]
    recs = sorted(table.records, key=lambda rec: rec.key)
    means = ([rec.coincidences for rec in recs],
             [rec.singles_s - rec.coincidences for rec in recs],
             [rec.singles_i - rec.coincidences for rec in recs])
    replicas = []
    for _ in range(n_replicas):
        draws = [[int(rng.poisson(mean)) for mean in kind] for rng, kind in zip(streams, means)]
        replica = {}
        for rec, c, top_s, top_i in zip(recs, *draws):
            c = min(c, rec.trials)
            replica[rec.key] = replace(rec, coincidences=c, singles_s=min(c + top_s, rec.trials),
                                       singles_i=min(c + top_i, rec.trials))
        replicas.append([replica[rec.key] for rec in table.records])
    return replicas


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
    recs = {(r.outcome_s, r.outcome_i): r for r in table.records if r.setting == setting.name}
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


# calibrated-witness at this seed: the corrected coherence sum, 1.419, lies
# above sqrt(2), so the corrected formation bound saturates at log2 10
SATURATING_SEED = 51


@functools.lru_cache(maxsize=1)
def saturating_table():
    """The full calibrated-witness table of ``qcert simulate --seed 51``."""
    return pipeline.run_simulation(
        replace(pipeline.preset("calibrated-witness"), seed=SATURATING_SEED))
