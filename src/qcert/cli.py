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
from .certify import cglmp, eof_bound, witness, witness_bound
from . import naming
from .pipeline import (
    DEFAULT_SEED,
    PRESET_NAMES,
    SCHEMA_VERSION,
    SimulationConfig,
    preset,
    run_simulation,
    violation_curve,
)
from .tomo import reconstruct

SEED_ENV = "QCERT_SEED"


def _sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _sha256_json(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode("utf-8")).hexdigest()


def _write_json(obj: dict, path: Path, timestamp: bool) -> None:
    if timestamp:
        obj = dict(obj)
        obj["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _manifest(command: str, seed, inputs: dict, extra: dict) -> dict:
    body = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "seed": seed,
        "inputs": inputs,
        "toolkit_version": VERSION,
        **extra,
    }
    body["manifest_hash"] = _sha256_json(body)
    return body


def _requested_seed(args) -> int | None:
    """--seed, else a non-empty $QCERT_SEED (a non-negative integer), else None."""
    if getattr(args, "seed", None) is not None:
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


def _load_config(args, default_preset: str) -> SimulationConfig:
    seed = _requested_seed(args)
    if getattr(args, "config", None):
        cfg = SimulationConfig.load(args.config)
    else:
        cfg = preset(args.preset or default_preset)
    if seed is not None:
        cfg = replace(cfg, seed=seed)
    return cfg


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_simulate(args) -> int:
    cfg = _load_config(args, "calibrated-witness")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    table = run_simulation(cfg)

    config_path = out_dir / "config.json"
    cfg.save(config_path)
    manifest = _manifest(
        "simulate", cfg.seed,
        inputs={"config_sha256": _sha256_file(config_path)},
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
            {
                "j": j, "k": k,
                **{
                    f"V_{ax}": pv.axis(ax).value for ax in ("x", "y", "z")
                },
                **{
                    f"V_{ax}_err": pv.axis(ax).std_error for ax in ("x", "y", "z")
                },
                "status": [pv.axis(ax).status for ax in ("x", "y", "z")],
            }
            for (j, k), pv in sorted(result.pair_visibilities.items())
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
    counts_path = Path(args.counts)
    table = load_table(counts_path)
    space = args.space
    corrected = args.subtract_accidentals
    wit = witness(table, space=space, corrected=corrected, margin=args.margin)
    eof = eof_bound(table, space=space, corrected=corrected, seed=_default_seed(args))
    bell_rows = []
    for name in table.settings():
        parsed = naming.parse_bell_setting(name)
        if parsed and parsed[1] == 0 and parsed[2] == 0:
            d = parsed[0]
            res = cglmp(table, d, corrected=corrected, margin=args.margin)
            bell_rows.append({
                "d": d,
                "bell_parameter": res.bell_parameter,
                "std_error": res.bell_parameter_err,
                "violated": res.violated,
            })
    report = {
        "schema_version": SCHEMA_VERSION,
        "space": space,
        "subtract_accidentals": corrected,
        "margin": args.margin,
        "witness": _witness_block(wit),
        "entanglement_of_formation": _eof_block(eof),
        "cglmp": sorted(bell_rows, key=lambda row: row["d"]),
        "provenance": {
            "counts_sha256": _sha256_file(counts_path),
            "seed": table.metadata.get("seed"),
            "bootstrap_seed": _default_seed(args),
            "manifest_hash": table.metadata.get("manifest_hash"),
        },
    }
    out = Path(args.out) if args.out else counts_path.with_name("report.json")
    _write_json(report, out, timestamp=args.timestamp)
    print(f"W_{space} = {wit.total:.3f} +- {wit.total_err:.3f} "
          f"-> certified dimension {wit.certified_dimension}")
    print(f"E_F >= {eof.ebits:.3f} +- {eof.ebits_err:.3f} ebits"
          f"{' (saturated)' if eof.saturated else ''} "
          f"-> certified dimension {eof.certified_dimension}")
    print(f"report -> {out}")
    return 0


def cmd_bell(args) -> int:
    rows = []
    seed = _default_seed(args)
    provenance = {}
    if args.counts:
        table = load_table(Path(args.counts))
        provenance = {
            "counts_sha256": _sha256_file(Path(args.counts)),
            "manifest_hash": table.metadata.get("manifest_hash"),
        }
        available = sorted({
            parsed[0] for parsed in map(naming.parse_bell_setting, table.settings())
            if parsed is not None
        })
        wanted = args.d_range or available
        if not wanted:
            raise ValidationError(f"{args.counts}: the counts hold no Bell settings")
        variants = [("raw", False)]
        if args.subtract_accidentals:
            variants.append(("corrected", True))
        for d in wanted:
            for variant, corrected in variants:
                res = cglmp(table, d, corrected=corrected, margin=args.margin)
                rows.append((d, variant, res.bell_parameter,
                             res.bell_parameter_err, res.violated))
    else:
        cfg = _load_config(args, "calibrated-bell")
        wanted = args.d_range or list(cfg.bell_dimensions)
        if args.exact:
            points = violation_curve(cfg.source, wanted, path="exact", margin=args.margin)
        else:
            points = violation_curve(
                cfg.source, wanted, path="sampled", params=cfg.counting,
                trials=cfg.trials_per_setting, seed=cfg.seed, margin=args.margin,
                noise_channel=cfg.noise_channel,
            )
        rows = [(p.d, p.variant, p.bell_parameter, p.bell_parameter_err, p.violated)
                for p in points]
        seed = cfg.seed
        provenance = {"config_sha256": _sha256_json(cfg.to_json_dict())}
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
        out.with_name(out.stem + ".meta.json"),
        timestamp=args.timestamp,
    )
    for d, variant, value, err, violated in rows:
        flag = "VIOLATED" if violated else "local"
        print(f"d={d:2d} {variant:9s} S = {value:+.4f} +- {err:.4f}  [{flag}]")
    print(f"table -> {out}")
    return 0


def cmd_tomo(args) -> int:
    table = load_table(Path(args.counts))
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
    out_obj["provenance"] = {
        "counts_sha256": _sha256_file(Path(args.counts)),
        "manifest_hash": table.metadata.get("manifest_hash"),
        "seed": seed,
    }
    out = Path(args.out) if args.out else Path(args.counts).with_name(f"tomo_{j}_{k}.json")
    _write_json(out_obj, out, timestamp=args.timestamp)
    print(f"result -> {out}")
    return 0


def cmd_sweep(args) -> int:
    cfg = _load_config(args, "ideal")
    if args.param != "noise_fraction":
        raise ValidationError(f"unsupported sweep parameter {args.param!r}")
    grid = args.grid
    from .source import noisy_state

    out = Path(args.out) if args.out else Path("sweep.csv")
    dims = list(cfg.bell_dimensions)
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["noise_fraction", "W_X", "certified_dimension", "E_F_X"]
                        + [f"S_{d}" for d in dims])
        for value in grid:
            src = cfg.source.with_noise(value)
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
                  inputs={"config_sha256": _sha256_json(cfg.to_json_dict())},
                  extra={"param": args.param, "grid": grid, "output": out.name}),
        out.with_name(out.stem + ".meta.json"),
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
    """Dimension range 'lo:hi' (inclusive) or comma list."""
    lo, colon, hi = text.partition(":")
    try:
        dims = (list(range(int(lo), int(hi) + 1)) if colon
                else [int(tok) for tok in text.split(",") if tok])
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected lo:hi or a comma list of integers, got {text!r}") from None
    if not dims:
        raise argparse.ArgumentTypeError(f"empty dimension range {text!r}")
    return dims


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


def _finite(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
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


def _add_common(parser, seed=True, timestamp=True):
    if seed:
        parser.add_argument("--seed", type=_at_least(0), default=None,
                            help=f"random seed (default: ${SEED_ENV} or {DEFAULT_SEED})")
    if timestamp:
        parser.add_argument("--no-timestamp", dest="timestamp", action="store_false",
                            help="omit timestamps for byte-identical reruns")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcert",
        description="Simulation and certification toolkit for a multiplexed "
                    "photon-memory entangled source.",
    )
    parser.add_argument("--version", action="version", version=f"qcert {VERSION}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="simulate count tables for all settings")
    p.add_argument("--config", help="simulation config JSON")
    p.add_argument("--preset", choices=PRESET_NAMES, default=None,
                   help="named operating point (default: calibrated-witness)")
    p.add_argument("--out-dir", "-o", default="run", help="output directory")
    p.add_argument("--workers", type=_at_least(1), default=1,
                   help="accepted for compatibility; simulation runs on one thread")
    _add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("certify", help="witness + formation bound from counts")
    p.add_argument("--counts", required=True, help="counts CSV")
    p.add_argument("--space", choices=["X", "K"], default="X")
    p.add_argument("--subtract-accidentals", action="store_true")
    p.add_argument("--margin", type=_finite, default=1.0,
                   help="certification margin in standard errors")
    p.add_argument("--out", help="report JSON path")
    _add_common(p)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("bell", help="Bell parameter versus dimension")
    p.add_argument("--counts", help="counts CSV (otherwise simulate from config)")
    p.add_argument("--config", help="simulation config JSON")
    p.add_argument("--preset", choices=PRESET_NAMES, default=None,
                   help="named operating point (default: calibrated-bell)")
    p.add_argument("--d-range", type=_d_range, default=None, help="e.g. 2:10 or 2,4,6")
    p.add_argument("--subtract-accidentals", action="store_true",
                   help="also emit accidental-subtracted rows (counts input)")
    p.add_argument("--exact", action="store_true",
                   help="exact probabilities instead of sampled counts")
    p.add_argument("--margin", type=_finite, default=1.0)
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
    p.add_argument("--config", help="simulation config JSON")
    p.add_argument("--preset", choices=PRESET_NAMES, default=None,
                   help="named operating point (default: ideal)")
    p.add_argument("--param", default="noise_fraction")
    p.add_argument("--grid", type=_grid, required=True, help="start:stop:steps or comma list")
    p.add_argument("--margin", type=_finite, default=1.0)
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
