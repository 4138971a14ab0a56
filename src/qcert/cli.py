"""Command-line front end.

    qcert simulate  --preset calibrated-witness --out-dir run1
    qcert certify   --counts run1/counts.csv --space X --subtract-accidentals
    qcert bell      --counts run1/counts.csv --d-range 2:10
    qcert tomo      --counts run1/counts.csv --pair 0,5
    qcert sweep     --preset ideal --param noise_fraction --grid 0:0.5:11

Every command is deterministic for a fixed seed; pass --no-timestamp to get
byte-identical output files across reruns.  Exit codes: 0 success, 2 invalid
input, 3 inconsistent computation.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import hashlib
import json
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__ as VERSION
from .errors import ComputationError, QcertError, ValidationError
from .counting import load_table, save_table
from .files import SCHEMA_VERSION, json_text, meta_path
from .bases import AXES
from .certify import cglmp, eof_bound, witness, witness_bound
from . import naming
from .pipeline import (
    DEFAULT_SEED,
    PRESET_NAMES,
    SimulationConfig,
    preset,
    run_simulation,
    violation_curve,
)
from .tomo import reconstruct

SEED_ENV = "QCERT_SEED"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _config_sha256(cfg: SimulationConfig) -> str:
    """The one config hash: of the text ``SimulationConfig.save`` writes."""
    return _sha256(cfg.to_json_text().encode("utf-8"))


def _write_json(obj: dict, path: Path, timestamp: bool) -> None:
    if timestamp:
        obj = {**obj, "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat()}
    path.write_text(json_text(obj), encoding="utf-8")


def _manifest(command: str, seed, inputs: dict, extra: dict) -> dict:
    body = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "seed": seed,
        "inputs": inputs,
        "toolkit_version": VERSION,
        **extra,
    }
    body["manifest_hash"] = _sha256(json.dumps(body, sort_keys=True).encode("utf-8"))
    return body


def _requested_seed(args) -> int | None:
    """--seed, else a non-empty $QCERT_SEED (a non-negative integer), else None."""
    if args.seed is not None:
        return args.seed
    env = os.environ.get(SEED_ENV)
    if not env:
        return None
    try:
        return _at_least(0)(env)
    except argparse.ArgumentTypeError as exc:
        raise ValidationError(f"${SEED_ENV}: {exc}") from None


def _default_seed(args) -> int:
    seed = _requested_seed(args)
    return DEFAULT_SEED if seed is None else seed


def _load_config(args) -> SimulationConfig:
    seed = _requested_seed(args)
    cfg = (SimulationConfig.load(args.config) if args.config
           else preset(args.preset or args.default_preset))
    if seed is not None:
        cfg = replace(cfg, seed=seed)
    return cfg


def _counts(args):
    """The --counts table and the provenance that links a result to it."""
    path = Path(args.counts)
    table = load_table(path)
    return table, {"counts_sha256": _sha256(path.read_bytes()),
                   "manifest_hash": table.metadata.get("manifest_hash")}


def _bell_dimensions(table) -> list[int]:
    """The sorted distinct d of the table's Bell settings; ``cglmp`` refuses
    a dimension whose settings are incomplete."""
    return sorted({parsed[0] for parsed in map(naming.parse_bell_setting, table.settings())
                   if parsed is not None})


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_simulate(args) -> int:
    cfg = _load_config(args)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    table = run_simulation(cfg)

    cfg.save(out_dir / "config.json")
    manifest = _manifest(
        "simulate", cfg.seed,
        inputs={"config_sha256": _config_sha256(cfg)},
        extra={"trials_per_setting": cfg.trials_per_setting,
               "settings": len(table.settings())},
    )
    table.metadata["manifest_hash"] = manifest["manifest_hash"]
    save_table(table, out_dir / "counts.csv")
    _write_json(manifest, out_dir / "manifest.json", timestamp=args.timestamp)
    print(f"simulated {len(table.setting)} records over {len(table.settings())} settings "
          f"-> {out_dir / 'counts.csv'}")
    return 0


def _witness_block(result) -> dict:
    return {
        "space": result.space,
        "total": result.total,
        "total_err": result.total_err,
        "margin": result.margin,
        "certified_dimension": result.certified_dimension,
        "bound_table": {str(d): witness_bound(result.num_modes, d)
                        for d in range(1, result.num_modes + 1)},
        "pairs": [
            {"j": j, "k": k, **{f"V_{ax}": v for ax, v in zip(AXES, values)},
             **{f"V_{ax}_err": err for ax, err in zip(AXES, errors)}, "status": statuses}
            for (j, k), values, errors, statuses in zip(
                result.pairs, result.values.tolist(), result.errors.tolist(),
                result.statuses.tolist())
        ],
    }


def _eof_block(result) -> dict:
    return {
        "space": result.space,
        "coherence_sum": result.coherence_sum,
        "coherence_sum_err": result.coherence_sum_err,
        "ebits": result.ebits,
        "ebits_err": result.ebits_err,
        "saturated": result.saturated,
        "certified_dimension": result.certified_dimension,
        "curve": [[n, b, e] for n, b, e in result.curve],
    }


def cmd_certify(args) -> int:
    table, provenance = _counts(args)
    space = args.space
    corrected = args.subtract_accidentals
    wit = witness(table, space=space, corrected=corrected, margin=args.margin)
    eof = eof_bound(table, space=space, corrected=corrected, seed=_default_seed(args))
    bell = [(d, cglmp(table, d, corrected=corrected, margin=args.margin))
            for d in _bell_dimensions(table)]
    report = {
        "schema_version": SCHEMA_VERSION,
        "space": space,
        "subtract_accidentals": corrected,
        "margin": args.margin,
        "witness": _witness_block(wit),
        "entanglement_of_formation": _eof_block(eof),
        "cglmp": [{"d": d, "bell_parameter": res.bell_parameter,
                   "std_error": res.bell_parameter_err, "violated": res.violated}
                  for d, res in bell],
        "provenance": {
            **provenance,
            "seed": table.metadata.get("seed"),
            "bootstrap_seed": _default_seed(args),
        },
    }
    out = Path(args.out) if args.out else Path(args.counts).with_name("report.json")
    _write_json(report, out, timestamp=args.timestamp)
    print(f"W_{space} = {wit.total:.3f} +- {wit.total_err:.3f} "
          f"-> certified dimension {wit.certified_dimension}")
    print(f"E_F >= {eof.ebits:.3f} +- {eof.ebits_err:.3f} ebits"
          f"{' (saturated)' if eof.saturated else ''} "
          f"-> certified dimension {eof.certified_dimension}")
    print(f"report -> {out}")
    return 0


def cmd_bell(args) -> int:
    if args.exact and args.counts:
        raise ValidationError("argument --exact: not allowed with argument --counts")
    if args.exact and args.subtract_accidentals:
        raise ValidationError("argument --subtract-accidentals: not allowed with argument "
                              "--exact (exact probabilities have no accidentals)")
    seed = _default_seed(args)
    if args.counts:
        table, provenance = _counts(args)
        wanted = args.d_range or _bell_dimensions(table)
        if not wanted:
            raise ValidationError(f"{args.counts}: the counts hold no Bell settings")
        variants = [("raw", False)]
        if args.subtract_accidentals:
            variants.append(("corrected", True))
        rows = []
        for d in wanted:
            for variant, corrected in variants:
                res = cglmp(table, d, corrected=corrected, margin=args.margin)
                rows.append((d, variant, res.bell_parameter,
                             res.bell_parameter_err, res.violated))
    else:
        cfg = _load_config(args)
        points = violation_curve(
            cfg.source, args.d_range or cfg.bell_dimensions,
            path="exact" if args.exact else "sampled", params=cfg.counting,
            trials=cfg.trials_per_setting, seed=cfg.seed, margin=args.margin,
            noise_channel=cfg.noise_channel,
        )
        rows = [(p.d, p.variant, p.bell_parameter, p.bell_parameter_err, p.violated)
                for p in points]
        seed = cfg.seed
        provenance = {"config_sha256": _config_sha256(cfg)}
    out = Path(args.out) if args.out else Path("bell_curve.csv")
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["d", "variant", "bell_parameter", "std_error", "violated"])
        for d, variant, value, err, violated in rows:
            writer.writerow([d, variant, repr(float(value)), repr(float(err)),
                             int(violated)])
    _write_json(
        _manifest("bell", seed, inputs=provenance,
                  extra={"margin": args.margin, "output": out.name}),
        meta_path(out),
        timestamp=args.timestamp,
    )
    for d, variant, value, err, violated in rows:
        flag = "VIOLATED" if violated else "local"
        print(f"d={d:2d} {variant:9s} S = {value:+.4f} +- {err:.4f}  [{flag}]")
    print(f"table -> {out}")
    return 0


def cmd_tomo(args) -> int:
    table, provenance = _counts(args)
    j, k = args.pair
    seed = _default_seed(args)
    out_obj = {"schema_version": SCHEMA_VERSION, "pair": [j, k], "space": args.space}
    for variant, corrected in (("raw", False), ("corrected", True)):
        res = reconstruct(table, (j, k), space=args.space, corrected=corrected,
                          n_bootstrap=args.bootstrap, seed=seed)
        out_obj[variant] = {
            "fidelity": res.fidelity,
            "fidelity_err": res.fidelity_err,
            "relative_phase_deg": res.relative_phase_deg,
            "matrix_re": res.operator.matrix.real.tolist(),
            "matrix_im": res.operator.matrix.imag.tolist(),
        }
        print(f"{variant:9s} fidelity = {res.fidelity:.4f} +- {res.fidelity_err:.4f}, "
              f"phase = {res.relative_phase_deg:+.2f} deg")
    out_obj["provenance"] = {**provenance, "seed": seed}
    out = Path(args.out) if args.out else Path(args.counts).with_name(f"tomo_{j}_{k}.json")
    _write_json(out_obj, out, timestamp=args.timestamp)
    print(f"result -> {out}")
    return 0


def cmd_sweep(args) -> int:
    cfg = _load_config(args)
    grid = args.grid
    from .source import noisy_state

    sources = [cfg.source.with_noise(value) for value in grid]   # refused before any output
    out = Path(args.out) if args.out else Path("sweep.csv")
    dims = list(cfg.bell_dimensions)
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["noise_fraction", "W_X", "certified_dimension", "E_F_X"]
                        + [f"S_{d}" for d in dims])
        for value, src in zip(grid, sources):
            rho = noisy_state(src)
            wit = witness(rho, space="X", margin=args.margin)
            eof = eof_bound(rho, space="X")
            svals = [cglmp(rho, d).bell_parameter for d in dims]
            writer.writerow(
                [repr(float(value)), repr(float(wit.total)), wit.certified_dimension,
                 repr(float(eof.ebits))] + [repr(float(s)) for s in svals]
            )
            print(f"p={value:.4f}: W_X={wit.total:8.3f} (dim {wit.certified_dimension}), "
                  f"E_F={eof.ebits:.3f}")
    _write_json(
        _manifest("sweep", cfg.seed,
                  inputs={"config_sha256": _config_sha256(cfg)},
                  extra={"param": args.param, "grid": grid, "output": out.name}),
        meta_path(out),
        timestamp=args.timestamp,
    )
    print(f"sweep -> {out}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _pair(text: str) -> tuple[int, int]:
    """Mode pair 'j,k'."""
    try:
        j, k = (int(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a mode pair j,k, got {text!r}") from None
    return j, k


def _d_range(text: str) -> list[int]:
    """Dimension range 'lo:hi' (inclusive) or comma list, as the sorted
    distinct dimensions."""
    lo, colon, hi = text.partition(":")
    try:
        dims = (list(range(int(lo), int(hi) + 1)) if colon
                else [int(tok) for tok in text.split(",") if tok])
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected lo:hi or a comma list of integers, got {text!r}") from None
    if not dims:
        raise argparse.ArgumentTypeError(f"empty dimension range {text!r}")
    return sorted(set(dims))


def _grid(text: str) -> list[float]:
    """Grid 'start:stop:steps' (at least two points) or comma list."""
    try:
        if ":" in text:
            start, stop, steps = text.split(":")
            lo, hi, n = float(start), float(stop), int(steps)
            if n < 2:
                raise argparse.ArgumentTypeError("grid needs at least two points")
            return [lo + (hi - lo) * i / (n - 1) for i in range(n)]
        grid = [float(tok) for tok in text.split(",") if tok]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected start:stop:steps or a comma list of numbers, got {text!r}") from None
    if not grid:
        raise argparse.ArgumentTypeError(f"empty grid {text!r}")
    return grid


def _margin(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"expected a finite number of at least 0, got {text!r}")
    return value


def _at_least(lowest: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < lowest:
            raise argparse.ArgumentTypeError(f"must be at least {lowest}, got {value}")
        return value
    return parse


def _add_common(parser):
    parser.add_argument("--seed", type=_at_least(0), default=None,
                        help=f"random seed (default: ${SEED_ENV} or {DEFAULT_SEED})")
    parser.add_argument("--no-timestamp", dest="timestamp", action="store_false",
                        help="omit timestamps for byte-identical reruns")


def _add_inputs(parser, default_preset: str, counts: str | None = None):
    """One input per run: --config or --preset (and --counts, when given its help)."""
    group = parser.add_mutually_exclusive_group()
    if counts:
        group.add_argument("--counts", help=counts)
    group.add_argument("--config", help="simulation config JSON")
    # default None: argparse sees a conflict only for a value that is not the default
    group.add_argument("--preset", choices=PRESET_NAMES, default=None,
                       help=f"named operating point (default: {default_preset})")
    parser.set_defaults(default_preset=default_preset)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcert",
        description="Simulation and certification toolkit for a multiplexed "
                    "photon-memory entangled source.",
    )
    parser.add_argument("--version", action="version", version=f"qcert {VERSION}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="simulate count tables for all settings")
    _add_inputs(p, "calibrated-witness")
    p.add_argument("--out-dir", "-o", default="run", help="output directory")
    p.add_argument("--workers", type=_at_least(1), default=1,
                   help="accepted for compatibility; simulation runs on one thread")
    _add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("certify", help="witness + formation bound from counts")
    p.add_argument("--counts", required=True, help="counts CSV")
    p.add_argument("--space", choices=["X", "K"], default="X")
    p.add_argument("--subtract-accidentals", action="store_true")
    p.add_argument("--margin", type=_margin, default=1.0,
                   help="certification margin in standard errors")
    p.add_argument("--out", help="report JSON path")
    _add_common(p)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("bell", help="Bell parameter versus dimension")
    _add_inputs(p, "calibrated-bell", counts="counts CSV (otherwise simulate from config)")
    p.add_argument("--d-range", type=_d_range, default=None, help="e.g. 2:10 or 2,4,6")
    p.add_argument("--subtract-accidentals", action="store_true",
                   help="also emit accidental-subtracted rows (counts input)")
    p.add_argument("--exact", action="store_true",
                   help="exact probabilities instead of sampled counts (not with --counts)")
    p.add_argument("--margin", type=_margin, default=1.0)
    p.add_argument("--out", help="output CSV path")
    _add_common(p)
    p.set_defaults(func=cmd_bell)

    p = sub.add_parser("tomo", help="pair tomography from counts")
    p.add_argument("--counts", required=True)
    p.add_argument("--pair", type=_pair, default=(0, 5), help="mode pair, e.g. 0,5")
    p.add_argument("--space", choices=["X", "K"], default="X")
    p.add_argument("--bootstrap", type=_at_least(2), default=100,
                   help="bootstrap replicas for the fidelity error (at least 2)")
    p.add_argument("--out", help="result JSON path")
    _add_common(p)
    p.set_defaults(func=cmd_tomo)

    p = sub.add_parser("sweep", help="exact-path threshold study over a parameter grid")
    _add_inputs(p, "ideal")
    p.add_argument("--param", choices=["noise_fraction"], default="noise_fraction")
    p.add_argument("--grid", type=_grid, required=True, help="start:stop:steps or comma list")
    p.add_argument("--margin", type=_margin, default=1.0)
    p.add_argument("--out", help="output CSV path")
    _add_common(p)
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ComputationError as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return 3
    except QcertError as exc:  # pragma: no cover - safety net
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
