"""The three qcert benchmark workloads: seeded op inputs, the ops, and the
checks every op's output must pass.

A workload is a closed loop with one client: the next op starts only after
the previous one finished and was checked.  Op inputs are a pure function of
(workload, workload seed, op index), so the same seed always gives the same
ops.  qcert itself only ever sees the configs and per-op seeds derived here.

This module imports neither numpy nor qcert at import time, so the
orchestrating process stays light; the op functions import what they need.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFS_PATH = HERE / "refs.json"

WORKLOADS = ("cli-pipeline", "counts-certify", "exact-scan")

# Every preset runs the same plan: 10 modes, X and K spaces, Bell d = 2..10,
# tomography on (0, 5).
PRESETS = ("ideal", "calibrated-witness", "calibrated-bell", "calibrated-eof", "calibrated-tomo")
BELL_DIMS = tuple(range(2, 11))
TOMO_PAIR = (0, 5)
COUNTS_PRESET = "calibrated-witness"
# README: calibrated-witness certifies 8 dimensions raw and 10 after subtraction.
CALIBRATED_WITNESS_DIMS = {"raw": 8, "corrected": 10}

# exact-scan op space.  A 12-op cycle visits every mode count with every
# source shape and every fit objective once (i mod 4, i mod 3, i div 4).
MODE_COUNTS = (4, 6, 8, 10)
SHAPES = ("uniform", "spread", "phases")
OBJECTIVES = ("visibility", "eof", "fidelity")
EXACT_CYCLE = 12
# Noise fractions evaluated per op: evenly spaced over [0, GRID_MAX].  Finer
# grids at small D give every mode count about the same grid cost at the
# seed commit, so the op mix has no single dominant mode count.
GRID_MAX = 0.5
GRID_POINTS = {4: 16, 6: 8, 8: 4, 10: 3}
TARGET_NOISE = (0.05, 0.10, 0.15, 0.20, 0.25)   # seeded fit targets are objective(p*)
SHAPE_VARIANTS = 4                     # seeded spread / phase variants per mode count
SHAPE_SEED_BASE = 1000
AMPLITUDE_SPREAD = 0.2
PHASE_RANGE = 0.6                      # radians, uniform in [-range, range]

CYCLE = {"cli-pipeline": len(PRESETS), "counts-certify": 1, "exact-scan": EXACT_CYCLE}
# A run ends after whole cycles, and never before MIN_CYCLES of them.  With
# one cycle of cli-pipeline (its ops differ in cost by preset), or the three
# counts-certify ops that --seconds alone gives, the median op and the tail
# (then the slowest op) would each rest on a single op.
MIN_CYCLES = {"cli-pipeline": 2, "counts-certify": 5, "exact-scan": 1}

Z_LIMIT = 5.0          # sampled raw values vs the exact value, in errors (see _z_check)
EXACT_ATOL = 1e-9      # exact results vs stored references
FIT_ATOL = 1e-5        # fitted noise fraction vs the p* that produced the target


@functools.lru_cache(maxsize=1)
def load_refs() -> dict:
    with open(REFS_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# op inputs
# ---------------------------------------------------------------------------

def _rng(workload: str, seed: int, index) -> random.Random:
    return random.Random(f"qcert-bench/{workload}/{seed}/{index}")


def exact_slot(index: int) -> tuple[int, str, str]:
    """(mode count, source shape, fit objective) at a cycle position."""
    return (MODE_COUNTS[index % len(MODE_COUNTS)], SHAPES[index % len(SHAPES)],
            OBJECTIVES[(index // len(MODE_COUNTS)) % len(OBJECTIVES)])


def variant_key(d: int, shape: str, variant: int) -> str:
    return f"D{d}-{shape}-{variant}"


def op_inputs(workload: str, seed: int, index) -> dict:
    """Inputs of op ``index`` (an int, or "warmup") of a workload."""
    rng = _rng(workload, seed, index)
    pos = 0 if index == "warmup" else int(index)
    op_seed = rng.randrange(1, 2**31)
    if workload == "cli-pipeline":
        return {"index": index, "preset": PRESETS[pos % len(PRESETS)], "seed": op_seed}
    if workload == "counts-certify":
        return {"index": index, "preset": COUNTS_PRESET, "seed": op_seed}
    if workload == "exact-scan":
        d, shape, objective = exact_slot(pos)
        variant = 0 if shape == "uniform" else rng.randrange(SHAPE_VARIANTS)
        target_index = rng.randrange(len(TARGET_NOISE))
        key = variant_key(d, shape, variant)
        return {
            "index": index, "D": d, "shape": shape, "variant": variant,
            "objective": objective, "p_star": TARGET_NOISE[target_index],
            "target": load_refs()["exact_scan"]["variants"][key]["targets"][objective][target_index],
            "grid": grid(d),
        }
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# sources and configs
# ---------------------------------------------------------------------------

def grid(d: int) -> list[float]:
    n = GRID_POINTS[d]
    return [GRID_MAX * i / (n - 1) for i in range(n)]


def exact_source(d: int, shape: str, variant: int):
    """The SourceConfig of one exact-scan variant (noise-free)."""
    import numpy as np
    from qcert import SourceConfig

    if shape == "uniform":
        return SourceConfig.uniform(d)
    if shape == "spread":
        return SourceConfig.with_amplitude_spread(d, AMPLITUDE_SPREAD,
                                                  seed=SHAPE_SEED_BASE + variant)
    if shape == "phases":
        rng = np.random.default_rng(SHAPE_SEED_BASE + variant)
        return SourceConfig.uniform(d, phases=rng.uniform(-PHASE_RANGE, PHASE_RANGE, d))
    raise ValueError(f"unknown source shape {shape!r}")


def tomo_pair_for(d: int) -> tuple[int, int]:
    return (0, d // 2)


def fit_noise(objective: str, target: float, cfg) -> float:
    from qcert import fit_noise_to_visibility
    from qcert.pipeline import fit_noise_to_eof, fit_noise_to_pair_fidelity

    if objective == "visibility":
        return fit_noise_to_visibility(target, cfg)
    if objective == "eof":
        return fit_noise_to_eof(target, cfg)
    return fit_noise_to_pair_fidelity(target, cfg, tomo_pair_for(cfg.num_modes))


FIT_LAYER = {"visibility": "source.fit_visibility", "eof": "pipeline.fit_eof",
             "fidelity": "pipeline.fit_fidelity"}


# ---------------------------------------------------------------------------
# result summaries (shared by the ops and their traced replays)
# ---------------------------------------------------------------------------

def summarize_exact_point(wit_x, wit_k, eof_x, eof_k, bells, tomo) -> dict:
    return {
        "witness_X": wit_x.total, "dim_X": wit_x.certified_dimension,
        "witness_K": wit_k.total, "dim_K": wit_k.certified_dimension,
        "eof_X": eof_x.ebits, "eof_K": eof_k.ebits,
        "cglmp": [b.bell_parameter for b in bells],
        "tomo_fidelity": tomo.fidelity, "tomo_phase_deg": tomo.relative_phase_deg,
    }


def summarize_counts(wit, eof, bells, tomo) -> dict:
    """``eof`` is None when the corrected bound was refused (see eof_or_refusal)."""
    return {
        "witness_total": wit.total, "witness_err": wit.total_err,
        "witness_dim": wit.certified_dimension,
        "eof_refused": eof is None,
        "eof_ebits": eof and eof.ebits, "eof_ebits_err": eof and eof.ebits_err,
        "eof_b_err": eof and eof.coherence_sum_err,
        "cglmp": [[b.d, b.bell_parameter, b.bell_parameter_err] for b in bells],
        "tomo_fidelity": tomo.fidelity, "tomo_fidelity_err": tomo.fidelity_err,
    }


# eof_bound's message when an estimated coherence sum reaches sqrt(2)
EOF_REFUSAL = "implies B^2 >= 2"


def eof_or_refusal(table, corrected: bool, seed: int):
    """eof_bound on counts, or None when a corrected estimate is refused.

    After accidental subtraction the coherence-sum estimate is noisy; on
    calibrated-witness it reaches sqrt(2) in a few percent of tables, and
    eof_bound then raises ComputationError by design (CLI exit code 3).
    That documented refusal is counted and reported; only refusals beyond
    REFUSALS_ALLOWED in one run count as failed ops.  A raw estimate is
    never refused.
    """
    from qcert import ComputationError, eof_bound

    try:
        return eof_bound(table, space="X", corrected=corrected, seed=seed)
    except ComputationError as exc:
        if corrected and EOF_REFUSAL in str(exc):
            return None
        raise


# A run may hold a few refused corrected EoF bounds.  At the seed commit
# 4 of 150 calibrated-witness tables were refused (2.7%; the other presets
# none), so a counts-certify run of five distinct tables refuses three or
# more with probability about 2e-4.  Refusals beyond the allowance count as
# failed ops, so a change that makes the bound refuse every table fails.
REFUSALS_ALLOWED = 2


def excess_refusals(refused: int) -> int:
    """Refused ops of a run beyond the allowance; each counts as a failed op."""
    return max(0, refused - REFUSALS_ALLOWED)


def refusals(workload: str, result) -> int:
    """Corrected EoF bounds the program refused in one op's result."""
    if workload == "counts-certify":
        return int(result["corrected"]["eof_refused"])
    if workload == "cli-pipeline":
        return int(result.get("certify_refused", False))
    return 0


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------

def exact_op(op: dict) -> dict:
    """One source variant: a noise fit to the seeded target, then the grid."""
    cfg = exact_source(op["D"], op["shape"], op["variant"])
    p_fit = fit_noise(op["objective"], op["target"], cfg)
    return {"p_fit": p_fit, "points": exact_points(cfg, op["grid"])}


def exact_points(cfg, grid) -> list[dict]:
    """Every exact estimator at each noise fraction of the grid."""
    from qcert import cglmp, eof_bound, noisy_state, reconstruct_exact, witness

    d_max = cfg.num_modes
    j, k = tomo_pair_for(d_max)
    points = []
    for p in grid:
        rho = noisy_state(cfg.with_noise(p))
        points.append(summarize_exact_point(
            witness(rho, space="X"), witness(rho, space="K"),
            eof_bound(rho, space="X"), eof_bound(rho, space="K"),
            [cglmp(rho, d) for d in range(2, d_max + 1)],
            reconstruct_exact(rho, j, k),
        ))
    return points


def counts_config(base, op: dict):
    from dataclasses import replace

    return replace(base, seed=op["seed"])


def analyse_counts(table, seed: int) -> dict:
    """The full count-path analysis of one table, raw and corrected."""
    from qcert import cglmp, reconstruct, witness

    out = {"cells": len(table.records)}
    for variant, corrected in (("raw", False), ("corrected", True)):
        out[variant] = summarize_counts(
            witness(table, space="X", corrected=corrected),
            eof_or_refusal(table, corrected, seed),
            [cglmp(table, d, corrected=corrected) for d in BELL_DIMS],
            reconstruct(table, TOMO_PAIR, corrected=corrected, seed=seed),
        )
    return out


def counts_op(base_cfg, op: dict) -> dict:
    from qcert.pipeline import run_simulation

    table = run_simulation(counts_config(base_cfg, op), workers=1)
    return analyse_counts(table, op["seed"])


def cli_env(tmp_dir: Path) -> dict:
    """Environment for CLI subprocesses: absolute src first, temp files in tmp_dir."""
    env = dict(os.environ)
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + rest if rest else "")
    env["TMPDIR"] = str(tmp_dir)
    env.pop("QCERT_SEED", None)
    return env


def cli_commands(op: dict) -> list[tuple[str, list[str]]]:
    """The four commands of one pipeline op, run inside the op's directory."""
    seed = str(op["seed"])
    common = ["--seed", seed, "--no-timestamp"]
    return [
        ("simulate", ["simulate", "--preset", op["preset"], "--out-dir", "run", *common]),
        ("certify", ["certify", "--counts", "run/counts.csv", "--subtract-accidentals",
                     "--out", "run/report.json", *common]),
        ("bell", ["bell", "--counts", "run/counts.csv", "--subtract-accidentals",
                  "--out", "run/bell.csv", *common]),
        ("tomo", ["tomo", "--counts", "run/counts.csv", "--pair",
                  f"{TOMO_PAIR[0]},{TOMO_PAIR[1]}", "--out", "run/tomo.json", *common]),
    ]


def run_cli(args: list[str], cwd: Path, env: dict) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "qcert.cli", *args], cwd=cwd, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=120)


def cli_op(op: dict, op_dir: Path, env: dict,
           timer=lambda name: contextlib.nullcontext()) -> list[tuple[int, str]]:
    """Run the pipeline; returns (exit code, stderr) per command.  The three
    analyses only read counts.csv, so they run unless simulate failed.

    ``timer(name)`` returns the context manager wrapped around each command.
    """
    op_dir.mkdir(parents=True, exist_ok=True)
    outcomes = []
    for name, args in cli_commands(op):
        with timer(name):
            proc = run_cli(args, op_dir, env)
        outcomes.append((proc.returncode, proc.stderr[-2000:]))
        if name == "simulate" and proc.returncode != 0:
            break
    return outcomes


def read_cli_outputs(op_dir: Path, outcomes: list[tuple[int, str]]) -> dict:
    """Collect the numbers the checks need from a pipeline's output files."""
    codes = [code for code, _ in outcomes]
    out = {"codes": codes}
    if len(codes) == 4 and codes[1] == 3 and EOF_REFUSAL in outcomes[1][1]:
        out["certify_refused"] = True
        codes = [0 if i == 1 else c for i, c in enumerate(codes)]
    if len(codes) < 4 or any(codes):
        out["stderr"] = [err for code, err in outcomes if code]
        return out
    run = op_dir / "run"
    with open(run / "counts.csv", "r", encoding="utf-8") as fh:
        out["cells"] = sum(1 for _ in fh) - 1
    out["manifest_hash"] = json.loads((run / "manifest.json").read_text())["manifest_hash"]
    if out.get("certify_refused"):
        out["certify"] = None
    else:
        report = json.loads((run / "report.json").read_text())
        out["certify"] = {
            "manifest_hash": report["provenance"]["manifest_hash"],
            "witness_dim": report["witness"]["certified_dimension"],
            "witness_err": report["witness"]["total_err"],
            "eof_ebits_err": report["entanglement_of_formation"]["ebits_err"],
            "eof_b_err": report["entanglement_of_formation"]["coherence_sum_err"],
        }
    bell = {}
    with open(run / "bell.csv", "r", encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            bell.setdefault(row["variant"], []).append(
                [int(row["d"]), float(row["bell_parameter"]), float(row["std_error"])])
    out["bell"] = bell
    tomo = json.loads((run / "tomo.json").read_text())
    out["tomo"] = {v: {"fidelity": tomo[v]["fidelity"], "fidelity_err": tomo[v]["fidelity_err"]}
                   for v in ("raw", "corrected")}
    return out


# ---------------------------------------------------------------------------
# checks: each returns a list of failure messages, empty when the op passed
# ---------------------------------------------------------------------------

def _finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


def _z_check(fails: list, what: str, value, err, exact: float,
             mean: float | None = None, scatter: float = 0.0) -> None:
    """``value`` must lie within Z_LIMIT errors of ``exact``.  For a biased
    estimator, ``mean`` is its seed-commit sampling mean, and the value must
    lie within Z_LIMIT errors of the range between the two.  The error is
    the reported one, or the estimator's seed-commit ``scatter`` (standard
    deviation over simulated tables) where that is larger."""
    lo, hi = (exact, exact) if mean is None else sorted((exact, mean))
    if not (_finite(value) and _finite(err) and err > 0):
        fails.append(f"{what}: value {value!r} with error {err!r} is not a finite estimate")
        return
    unit = max(err, scatter)
    if not lo - Z_LIMIT * unit <= value <= hi + Z_LIMIT * unit:
        target = f"the exact {exact:.6g}" if mean is None else \
            f"the range from the exact {exact:.6g} to the sampling mean {mean:.6g}"
        fails.append(f"{what}: {value:.6g} is {max(lo - value, value - hi) / unit:.1f} "
                     f"errors of {unit:.3g} from {target}")


def _tomo_z(fails: list, value, err, ref: dict) -> None:
    """Raw pair tomography fidelity: the positivity projection biases it
    down, most near fidelity 1, so it is measured from the range between
    the exact value and the estimator's seed-commit sampling mean."""
    _z_check(fails, "raw tomography fidelity", value, err, ref["tomo_fidelity"],
             ref["sampled"]["tomo_fidelity_mean"])


def _positive_error(fails: list, what: str, err) -> None:
    if not (_finite(err) and err > 0):
        fails.append(f"{what}: bootstrap error {err!r} is not finite and positive")


def _bell_z(fails: list, where: str, rows, ref: dict) -> None:
    """Raw CGLMP values.  At low counts (the ideal preset) the propagated
    error shrinks when a cell happens to hold few counts, so the yardstick
    is at least the value's seed-commit scatter."""
    if [r[0] for r in rows] != list(BELL_DIMS):
        fails.append(f"{where}: Bell rows cover d = {[r[0] for r in rows]}")
        return
    for d, value, err in rows:
        _z_check(fails, f"{where} S_{d}", value, err, ref["cglmp"][str(d)],
                 scatter=ref["sampled"]["cglmp_sd"][str(d)])


def check_exact(op: dict, result: dict) -> list[str]:
    fails = []
    ref = load_refs()["exact_scan"]
    variant = ref["variants"][variant_key(op["D"], op["shape"], op["variant"])]
    if variant["grid"] != list(op["grid"]):
        return ["reference grid does not match the op grid"]
    p_fit = result["p_fit"]
    if not (_finite(p_fit) and abs(p_fit - op["p_star"]) <= FIT_ATOL):
        fails.append(f"{op['objective']} fit gave p = {p_fit!r}, expected {op['p_star']}")
    if len(result["points"]) != len(variant["points"]):
        return fails + ["wrong number of grid points"]
    for p, got, want in zip(op["grid"], result["points"], variant["points"]):
        for key in ("dim_X", "dim_K"):
            if got[key] != want[key]:
                fails.append(f"p={p} {key}: {got[key]} != {want[key]}")
        for key in ("witness_X", "witness_K", "eof_X", "eof_K", "tomo_fidelity",
                    "tomo_phase_deg"):
            if not (_finite(got[key]) and abs(got[key] - want[key]) <= EXACT_ATOL):
                fails.append(f"p={p} {key}: {got[key]!r} != {want[key]!r}")
        if len(got["cglmp"]) != len(want["cglmp"]) or any(
                not (_finite(a) and abs(a - b) <= EXACT_ATOL)
                for a, b in zip(got["cglmp"], want["cglmp"])):
            fails.append(f"p={p} cglmp values differ from the reference")
    return fails


def check_counts(op: dict, result: dict) -> list[str]:
    fails = []
    ref = load_refs()["presets"][op["preset"]]
    if result["cells"] != ref["cells"]:
        fails.append(f"table has {result['cells']} cells, expected {ref['cells']}")
    raw = result["raw"]
    _z_check(fails, "raw witness", raw["witness_total"], raw["witness_err"], ref["witness_X"])
    _z_check(fails, "raw EoF", raw["eof_ebits"], raw["eof_ebits_err"], ref["eof_X"])
    _tomo_z(fails, raw["tomo_fidelity"], raw["tomo_fidelity_err"], ref)
    _bell_z(fails, "raw", raw["cglmp"], ref)
    if raw["eof_refused"]:
        fails.append("raw EoF bound refused")
    for variant in ("raw", "corrected"):
        res = result[variant]
        if not res["eof_refused"]:
            _positive_error(fails, f"{variant} EoF ebits", res["eof_ebits_err"])
            _positive_error(fails, f"{variant} EoF coherence sum", res["eof_b_err"])
        _positive_error(fails, f"{variant} tomography fidelity", res["tomo_fidelity_err"])
        if op["preset"] == "calibrated-witness":
            want = CALIBRATED_WITNESS_DIMS[variant]
            if res["witness_dim"] != want:
                fails.append(f"{variant} witness certified {res['witness_dim']}, expected {want}")
    return fails


def check_cli(op: dict, result: dict) -> list[str]:
    if "stderr" in result:
        return [f"CLI exit codes {result['codes']}: " + " | ".join(result["stderr"])]
    fails = []
    ref = load_refs()["presets"][op["preset"]]
    if result["cells"] != ref["cells"]:
        fails.append(f"counts.csv has {result['cells']} cells, expected {ref['cells']}")
    cert = result["certify"]
    if cert is not None:   # None: the corrected EoF bound was refused, no report
        if cert["manifest_hash"] != result["manifest_hash"]:
            fails.append("certify report does not reference the simulate manifest")
        _positive_error(fails, "corrected EoF ebits", cert["eof_ebits_err"])
        _positive_error(fails, "corrected EoF coherence sum", cert["eof_b_err"])
        if op["preset"] == "calibrated-witness":
            want = CALIBRATED_WITNESS_DIMS["corrected"]
            if cert["witness_dim"] != want:
                fails.append(f"corrected witness certified {cert['witness_dim']}, "
                             f"expected {want}")
    bell = result["bell"]
    if sorted(bell) != ["corrected", "raw"]:
        fails.append(f"Bell table variants {sorted(bell)}")
    else:
        _bell_z(fails, "raw", bell["raw"], ref)
    tomo = result["tomo"]
    _tomo_z(fails, tomo["raw"]["fidelity"], tomo["raw"]["fidelity_err"], ref)
    _positive_error(fails, "corrected tomography fidelity", tomo["corrected"]["fidelity_err"])
    return fails


CHECKS = {"cli-pipeline": check_cli, "counts-certify": check_counts, "exact-scan": check_exact}
