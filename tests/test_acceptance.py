"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s or read the -v test status)."""

import json
import math
import subprocess
import sys

import numpy as np

from qcert import (
    CoincidenceTable,
    CountingParams,
    DensityOperator,
    SourceConfig,
    cglmp,
    cglmp_weights,
    density_from_ket,
    eof_bound,
    fit_noise_to_visibility,
    ideal_state,
    noisy_state,
    simulate_setting,
    violation_curve,
    witness,
    witness_bound,
    x_basis,
)
from qcert.bases import cglmp_basis, pair_basis
from qcert.counting import cell_estimates
from qcert import naming
from qcert.pipeline import SimulationConfig, preset
from qcert.tomo import reconstruct_exact

from conftest import cli_env


def report(num: int, description: str, ok: bool) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {num} failed: {description}"


def test_criterion_1_witness_bound_table():
    table = [witness_bound(10, d) for d in range(1, 11)]
    ok = table == list(range(45, 136, 10)) and witness_bound(10, 7) == 105
    report(1, "witness bound table f(d) = 45..135 with f(7) = 105", ok)


def test_criterion_2_ideal_witness_both_spaces():
    rho = density_from_ket(ideal_state(SourceConfig.uniform(10)))
    ok = True
    for space in ("X", "K"):
        res = witness(rho, space=space)
        ok = ok and abs(res.total - 135.0) <= 1e-9 and res.certified_dimension == 10
    report(2, "ideal source reaches W = 135.000 and dimension 10 in X and K", ok)


def test_criterion_3_calibrated_witness_operating_point():
    cfg = SourceConfig.uniform(10)
    p = fit_noise_to_visibility(111.6 / 135.0, cfg)
    exact_total = witness(noisy_state(cfg.with_noise(p)), space="X").total
    calibration_ok = abs(exact_total - 111.6) <= 0.1

    trials = 460_000
    params = CountingParams(P_S=0.006, eta_r=0.1,
                            P_bg_idler=0.1 * p / (1.0 - p))  # noise via accidentals
    rho = density_from_ket(ideal_state(cfg))
    plan = []
    for j in range(10):
        for k in range(j + 1, 10):
            for ax in ("x", "y", "z"):
                plan.append((
                    naming.witness_setting("X", j, k, ax),
                    pair_basis("X", j, k, ax, 10, side="signal"),
                    pair_basis("X", j, k, ax, 10, side="idler"),
                ))
    raw_ok = increase_ok = 0
    errs = []
    for seed in range(100):
        records = []
        for name, b_s, b_i in plan:
            records.extend(simulate_setting(rho, b_s, b_i, trials, params, seed,
                                            setting_name=name))
        table = CoincidenceTable(records=tuple(records), metadata={"D": 10})
        raw = witness(table, space="X")
        corr = witness(table, space="X", corrected=True)
        errs.append(raw.total_err)
        if raw.certified_dimension >= 8:
            raw_ok += 1
        if corr.certified_dimension > raw.certified_dimension:
            increase_ok += 1
    sigma_ok = 0.6 <= np.mean(errs) <= 1.0
    ok = calibration_ok and sigma_ok and raw_ok >= 95 and increase_ok >= 95
    report(3, f"calibrated point: exact W = {exact_total:.2f}, sigma_W = "
              f"{np.mean(errs):.2f}, >=8 dims in {raw_ok}/100 seeds, "
              f"subtraction raised the dimension in {increase_ok}/100", ok)


def test_criterion_4_formation_bound():
    ok = True
    for d in range(2, 11):
        res = eof_bound(density_from_ket(ideal_state(SourceConfig.uniform(d))))
        ok = ok and abs(res.ebits - math.log2(d)) <= 1e-9
    cfg = preset("calibrated-eof")
    for space in ("X", "K"):
        res = eof_bound(noisy_state(cfg.source), space=space)
        ok = ok and 1.6 <= res.ebits <= 2.1 and res.certified_dimension >= 4
    report(4, "formation bound: log2(d) on ideal sources, calibrated noise in "
              "[1.6, 2.1] ebits certifying >= 4 dimensions", ok)


def test_criterion_5_bell_parameter_exact_values():
    bell = density_from_ket(ideal_state(SourceConfig.uniform(2)))
    ok = abs(cglmp(bell, 2).bell_parameter - 2 * math.sqrt(2)) <= 1e-9

    mixed = DensityOperator(10, 10, np.eye(100) / 100)
    for d in range(2, 11):
        ok = ok and abs(cglmp(mixed, d).bell_parameter) <= 1e-12

    rng = np.random.default_rng(20260808)
    worst = -np.inf
    for d in range(2, 11):
        weights = cglmp_weights(d)
        sig = {s: cglmp_basis("signal", s, d).vector_matrix for s in (0, 1)}
        idl = {i: cglmp_basis("idler", i, d).vector_matrix for i in (0, 1)}
        n = 10_000
        u = rng.normal(size=(n, d)) + 1j * rng.normal(size=(n, d))
        v = rng.normal(size=(n, d)) + 1j * rng.normal(size=(n, d))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        values = np.zeros(n)
        for s in (0, 1):
            ps = np.abs(u @ sig[s].conj().T) ** 2
            for i in (0, 1):
                pi = np.abs(v @ idl[i].conj().T) ** 2
                values += np.einsum("nk,km,nm->n", ps, weights[s, i], pi)
        worst = max(worst, values.max())
    ok = ok and worst <= 2.0 + 1e-9
    report(5, f"Bell parameter: S_2 = 2*sqrt(2), S_d(mixed) = 0, product-state "
              f"maximum {worst:.6f} <= 2", ok)


def test_criterion_6_violation_curve_shape():
    cfg = preset("calibrated-bell")
    pattern_ok = 0
    for seed in range(100):
        points = violation_curve(cfg.source, range(2, 11), path="sampled",
                                 params=cfg.counting, trials=cfg.trials_per_setting,
                                 seed=seed, noise_channel=cfg.noise_channel)
        flags = {(pt.d, pt.variant): pt.violated for pt in points}
        raw_good = all(flags[(d, "raw")] for d in range(2, 7)) and not any(
            flags[(d, "raw")] for d in range(7, 11))
        corr_good = all(flags[(d, "corrected")] for d in range(2, 11))
        if raw_good and corr_good:
            pattern_ok += 1
    ok = pattern_ok >= 90
    report(6, f"violation curve: raw cutoff exactly at d=6 and corrected "
              f"through d=10 in {pattern_ok}/100 seeds", ok)


def test_criterion_7_tomography():
    cfg = preset("calibrated-tomo")
    res = reconstruct_exact(noisy_state(cfg.source), 0, 5)
    ok = abs(res.fidelity - 0.878) <= 0.005 and abs(res.relative_phase_deg - 17.0) <= 0.5

    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        raw = g @ g.conj().T
        rho4 = DensityOperator(2, 2, raw / np.trace(raw).real)
        big = np.zeros((100, 100), dtype=complex)
        idx = [0, 5, 50, 55]
        big[np.ix_(idx, idx)] = rho4.matrix
        rec = reconstruct_exact(DensityOperator(10, 10, big), 0, 5)
        worst = max(worst, float(np.linalg.norm(rec.operator.matrix - rho4.matrix)))
    ok = ok and worst < 1e-9
    report(7, f"tomography: fidelity {res.fidelity:.4f}, phase "
              f"{res.relative_phase_deg:.2f} deg, worst round-trip {worst:.2e}", ok)


def test_criterion_8_counting_null_test():
    rho = density_from_ket(ideal_state(SourceConfig.uniform(2)))
    params = CountingParams(P_S=0.01, eta_r=0.0, P_bg_idler=0.004)
    basis_s, basis_i = x_basis(2, "signal"), x_basis(2, "idler")
    totals, variances = [], []
    for seed in range(1000):
        recs = simulate_setting(rho, basis_s, basis_i, 10**6, params, seed,
                                setting_name="null")
        value, var = cell_estimates(CoincidenceTable(records=recs).counts, corrected=True)
        totals.append(value.sum())
        variances.append(var.sum())
    mean = np.mean(totals)
    sigma_mean = math.sqrt(np.mean(variances) / len(totals))
    ok = abs(mean) <= 3 * sigma_mean
    report(8, f"null test: mean corrected coincidence {mean:+.3f} within "
              f"3 sigma = {3 * sigma_mean:.3f} of zero over 1000 seeds", ok)


def test_criterion_9_cli_determinism(tmp_path):
    def run(*args):
        res = subprocess.run([sys.executable, "-m", "qcert.cli", *args],
                             cwd=tmp_path, capture_output=True, text=True, env=cli_env())
        assert res.returncode == 0, res.stderr
        return res

    cfg = SimulationConfig(
        source=SourceConfig.uniform(4, noise_fraction=0.2),
        counting=CountingParams(P_S=0.006, eta_r=0.1, P_bg_idler=0.0005),
        trials_per_setting=150_000,
        seed=777,
        spaces=("X", "K"),
        bell_dimensions=(2, 3),
        tomo_pair=(0, 3),
    )
    cfg.save(tmp_path / "config.json")
    ok = True
    run("simulate", "--config", "config.json", "--out-dir", "a", "--no-timestamp")
    run("simulate", "--config", "config.json", "--out-dir", "b", "--no-timestamp",
        "--workers", "4")
    for name in ("counts.csv", "counts.meta.json", "manifest.json"):
        ok = ok and (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    for i in range(2):
        run("certify", "--counts", "a/counts.csv", "--space", "X",
            "--out", f"rep{i}.json", "--no-timestamp")
        run("bell", "--counts", "a/counts.csv", "--subtract-accidentals",
            "--out", f"bell{i}.csv", "--no-timestamp")
        run("tomo", "--counts", "a/counts.csv", "--pair", "0,3", "--bootstrap", "25",
            "--seed", "5", "--out", f"tomo{i}.json", "--no-timestamp")
        run("sweep", "--config", "config.json", "--grid", "0:0.3:3",
            "--out", f"sweep{i}.csv", "--no-timestamp")
    for stem in ("rep", "bell", "tomo", "sweep"):
        ext = "csv" if stem in ("bell", "sweep") else "json"
        ok = ok and ((tmp_path / f"{stem}0.{ext}").read_bytes()
                     == (tmp_path / f"{stem}1.{ext}").read_bytes())
    report(9, "every command reproduces byte-identical outputs across reruns "
              "and worker counts", ok)
