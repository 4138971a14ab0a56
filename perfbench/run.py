"""qcert benchmark: end-to-end and per-layer metrics for three workloads.

    python3 perfbench/run.py --workload exact-scan --seed 1 --seconds 11 --trace 0

Run from the root of a qcert checkout.  ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` runs the traced replay and prints the per-layer
metrics.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it are a readable
summary and a provenance block.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads as wl  # noqa: E402

OUT_DIR = wl.ROOT / ".perfbench-out"
BUDGET_S = 170.0          # the whole run, set-ups included, ends before this
# Fresh workers per untraced run; each one's set-up is timed.  exact-scan
# sets up in under a second, so it takes more samples for a steadier median;
# cli-pipeline's set-up is a whole pipeline, and its run two op cycles.
SETUPS = {"cli-pipeline": 2, "counts-certify": 3, "exact-scan": 9}
TAIL_BEYOND = 10          # the tail percentile keeps this many ops above it

END_TO_END = {
    "ops_per_s": "ops/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class WorkerError(RuntimeError):
    pass


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True, help="workload seed")
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the timed loop; runs cover whole op cycles")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced replay with per-layer metrics")
    return parser.parse_args(argv)


def worker_env(work: Path) -> dict:
    """Workers and their CLI children: absolute src, one BLAS thread, temp files in work."""
    env = wl.cli_env(work)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(mode: str, args, work: Path, deadline: float, **extra) -> dict:
    """Run one worker process; returns its result with the spawn wall time."""
    work.mkdir(parents=True, exist_ok=True)
    spec = {"mode": mode, "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "work_dir": str(work), **extra}
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerError("time budget used up before the run finished")
    spawned = time.time()
    proc = subprocess.Popen([sys.executable, str(wl.HERE / "worker.py"), json.dumps(spec)],
                            cwd=work, env=worker_env(work), stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise WorkerError(f"{mode} worker exceeded the time budget") from None
    if proc.returncode != 0:
        raise WorkerError(f"{mode} worker exited with code {proc.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise WorkerError(f"{mode} worker printed no result")
    result = json.loads(lines[-1])
    result["spawned_wall"] = spawned
    return result


def tail(times: list[float]) -> tuple[float, float, int]:
    """(value, percentile, ops beyond) at the highest percentile that keeps
    TAIL_BEYOND ops above it; the maximum when there are too few ops."""
    ordered = sorted(times)
    n = len(ordered)
    if n > TAIL_BEYOND:
        idx = n - TAIL_BEYOND - 1
        return ordered[idx], 100.0 * (idx + 1) / n, TAIL_BEYOND
    return ordered[-1], 100.0, 0


def end_to_end_metrics(full: dict, setups: list[float]) -> tuple[dict, dict]:
    """Metrics of one untraced run, plus the extra facts printed beside them."""
    times = full["op_times"]
    failed_timed = len(full["failures"])
    completed = len(times) - failed_timed
    value, pct, beyond = tail(times)
    metrics = {
        "ops_per_s": completed / sum(times),
        "op_p50_s": statistics.median(times),
        "op_tail_s": value,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": full["peak_rss_kb"] / 1024.0,
    }
    extra = {"op_tail_percentile": pct, "op_tail_ops_beyond": beyond, "ops": len(times),
             "setup_samples_s": setups}
    return metrics, extra


def provenance(args) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        mem_mb = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20
    except (ValueError, OSError, AttributeError):
        mem_mb = None
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "memory_mb": round(mem_mb) if mem_mb else None,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "commit": git_commit(wl.ROOT),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "src_qcert_lines": source_lines(wl.SRC / "qcert"),
    }


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def source_lines(package: Path) -> int:
    return sum(1 for path in sorted(package.glob("*.py"))
               for line in path.read_text(encoding="utf-8").splitlines() if line.strip())


def run_untraced(args, work: Path, deadline: float) -> dict:
    """SETUPS[workload] fresh workers in turn.  Each sets up, then continues
    the op sequence until the summed op time reaches its share of --seconds;
    the last one also finishes the op cycle.  Spreading the timed ops over
    the whole run averages over more of the machine's speed drift."""
    setups = SETUPS[args.workload]
    workers, index, total = [], 0, 0.0
    for n in range(setups):
        res = spawn("run", args, work / f"w{n}", deadline, start=index, done_s=total,
                    until_s=args.seconds * (n + 1) / setups, final=n == setups - 1)
        workers.append(res)
        index, total = res["next"], total + sum(res["op_times"])
    full = {"op_times": [t for w in workers for t in w["op_times"]],
            "failures": [f for w in workers for f in w["failures"]],
            "peak_rss_kb": max(w["peak_rss_kb"] for w in workers)}
    metrics, extra = end_to_end_metrics(full, [w["ready_wall"] - w["spawned_wall"]
                                               for w in workers])
    return {"metrics": metrics, "units": END_TO_END, "extra": extra,
            "attempted": len(full["op_times"]) + setups,
            "failures": [f for w in workers for f in w["warmup_failures"]] + full["failures"],
            # every worker warms up on the same op, so count its refusal once
            "refused": max(w["warmup_refused"] for w in workers)
            + sum(w["refused"] for w in workers)}


def run_traced(args, work: Path, deadline: float) -> dict:
    import layers

    trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    res = spawn("trace", args, work / "trace", deadline, trace_path=str(trace_path))
    failures = res["warmup_failures"] + res["failures"]
    return {"metrics": res["metrics"], "units": layers.LAYER_UNITS,
            "extra": {"layer_source": res["layer_source"], "ops": res["ops"],
                      "trace_file": str(trace_path.relative_to(wl.ROOT))},
            "attempted": res["attempted"] + 1, "failures": failures,
            "refused": res["warmup_refused"] + res["refused"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    for needed in (wl.SRC / "qcert" / "__init__.py", wl.REFS_PATH):
        if not needed.is_file():
            print(f"error: {needed} not found; run from the root of a qcert checkout",
                  file=sys.stderr)
            return 2
    deadline = time.monotonic() + BUDGET_S
    OUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=OUT_DIR))
    try:
        report = (run_traced if args.trace else run_untraced)(args, work, deadline)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = report["attempted"]
    excess = wl.excess_refusals(report["refused"])
    failed = min(attempted, len(report["failures"]) + excess)
    for failure in report["failures"]:
        print(f"FAILED op {failure['index']}: " + "; ".join(failure["fails"]), file=sys.stderr)
    if excess:
        print(f"FAILED: {report['refused']} refused corrected EoF bounds; the {excess} "
              f"beyond the {wl.REFUSALS_ALLOWED} allowed count as failed ops", file=sys.stderr)
    print(f"qcert benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    for name, value in report["metrics"].items():
        print(f"  {name:30s} {value:14.6g} {report['units'][name]}")
    print(f"  {'fail_ratio':30s} {failed / attempted:14.6g} 1  ({failed} of {attempted} ops)")
    print(f"  {'refused corrected EoF bounds':30s} {report['refused']:14d}")
    print("details " + json.dumps(report["extra"], sort_keys=True))
    print("provenance " + json.dumps(provenance(args), sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": report["units"][name]}
                    for name, value in report["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
