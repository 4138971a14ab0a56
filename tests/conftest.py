import os
from pathlib import Path

import numpy as np

import qcert
from qcert import DensityOperator, Projector, StateVector, density_from_ket
from qcert.bases import AXES, MeasurementBasis, cglmp_basis, k_basis, pair_basis, x_basis


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
