"""Regenerate perfbench/refs.json, the reference values the op checks use.

    PYTHONPATH=src python3 perfbench/make_refs.py

Run it only on a commit whose exact results are trusted; the stored values
then pin every later commit to 1e-9 on the exact path.  It also confirms
that every seeded fit target can be inverted back to its p*, so that no
exact-scan op can fail on a correct program.

Per preset it stores the exact values the raw sampled estimates must match
within 5 reported errors.  Raw counts follow the isotropic state at the
effective noise p' with p'/(1-p') = P_I/eta_r: the preset's accidental
channel plus the detector's own P_S * eta_r accidental floor.  It also
stores how the raw estimators scatter over SAMPLED_TABLES simulated tables
(seeds 1..SAMPLED_TABLES): the mean of the pair tomography fidelity, which
the positivity projection biases down, and the standard deviation of each
CGLMP value, which the propagated error underestimates at low counts.
"""

from __future__ import annotations

import json
import math
import statistics
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads as wl  # noqa: E402
from qcert import (  # noqa: E402
    StateVector, cglmp, eof_bound, fidelity_to_pure, mean_pair_visibility, noisy_state,
    reconstruct, reconstruct_exact, restrict_to_pair, witness, with_accidental_noise,
)
from qcert.pipeline import build_settings, preset, run_simulation  # noqa: E402

SAMPLED_TABLES = 200


def effective_noise(cfg) -> float:
    if cfg.noise_channel != "counting":
        raise ValueError("references assume the counting noise channel")
    params = with_accidental_noise(cfg.counting, cfg.source.noise_fraction)
    ratio = params.P_I / params.eta_r
    return ratio / (1.0 + ratio)


def preset_refs(name: str) -> dict:
    cfg = preset(name)
    p_eff = effective_noise(cfg)
    rho = noisy_state(cfg.source.with_noise(p_eff))
    return {
        "noise_fraction": cfg.source.noise_fraction,
        "effective_noise": p_eff,
        "cells": sum(len(s.basis_s.projectors) * len(s.basis_i.projectors)
                     for s in build_settings(cfg)),
        "witness_X": witness(rho, space="X").total,
        "eof_X": eof_bound(rho, space="X").ebits,
        "tomo_fidelity": reconstruct_exact(rho, *wl.TOMO_PAIR).fidelity,
        "cglmp": {str(d): cglmp(rho, d).bell_parameter for d in wl.BELL_DIMS},
        "sampled": sampled(cfg),
    }


def sampled(cfg) -> dict:
    """Raw estimates over simulated tables: the tomography fidelity's mean
    and standard deviation (point estimates, no bootstrap) and each CGLMP
    value's standard deviation."""
    fids, bells = [], []
    for seed in range(1, SAMPLED_TABLES + 1):
        table = run_simulation(replace(cfg, seed=seed))
        fids.append(reconstruct(table, wl.TOMO_PAIR, n_bootstrap=0).fidelity)
        bells.append([cglmp(table, d).bell_parameter for d in wl.BELL_DIMS])
    return {
        "tables": SAMPLED_TABLES,
        "tomo_fidelity_mean": statistics.fmean(fids),
        "tomo_fidelity_sd": statistics.stdev(fids),
        "cglmp_sd": {str(d): statistics.stdev(column)
                     for d, column in zip(wl.BELL_DIMS, zip(*bells))},
    }


def objective_value(objective: str, cfg, p: float) -> float:
    """The quantity each fit inverts, at noise fraction p."""
    rho = noisy_state(cfg.with_noise(p))
    if objective == "visibility":
        return mean_pair_visibility(rho)
    if objective == "eof":
        return eof_bound(rho, space="X").ebits
    bell = StateVector(2, 2, np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2))
    return fidelity_to_pure(restrict_to_pair(rho, *wl.tomo_pair_for(cfg.num_modes)).operator, bell)


def variant_refs(d: int, shape: str, variant: int) -> dict:
    cfg = wl.exact_source(d, shape, variant)
    targets = {}
    for objective in wl.OBJECTIVES:
        values = []
        for p_star in wl.TARGET_NOISE:
            value = objective_value(objective, cfg, p_star)
            p_fit = wl.fit_noise(objective, value, cfg)
            if abs(p_fit - p_star) > wl.FIT_ATOL / 10:
                raise SystemExit(f"{d} {shape} {variant} {objective}: fit {p_fit} != {p_star}")
            values.append(value)
        targets[objective] = values
    return {"targets": targets, "grid": wl.grid(d), "points": wl.exact_points(cfg, wl.grid(d))}


def main() -> None:
    root = wl.ROOT
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                            text=True).stdout.strip()
    variants = {}
    for d in wl.MODE_COUNTS:
        for shape in wl.SHAPES:
            for variant in range(1 if shape == "uniform" else wl.SHAPE_VARIANTS):
                variants[wl.variant_key(d, shape, variant)] = variant_refs(d, shape, variant)
                print("done", wl.variant_key(d, shape, variant), flush=True)
    refs = {
        "generated_at_commit": commit,
        "presets": {name: preset_refs(name) for name in wl.PRESETS},
        "exact_scan": {"target_noise": list(wl.TARGET_NOISE), "variants": variants},
    }
    with open(wl.REFS_PATH, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {wl.REFS_PATH}")


if __name__ == "__main__":
    main()
