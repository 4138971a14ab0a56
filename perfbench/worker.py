"""One benchmark process: set a workload up, then run it timed or traced.

Started by run.py as a fresh interpreter, so its set-up time is what a user
pays.  The single argument is a JSON object with the keys mode ("run" or
"trace"), workload, seed, seconds, work_dir and trace_path; a "run" worker
also gets start (first op index), done_s and until_s (summed op time before
it and at which it stops) and final.  The last line of standard output is a
JSON object with the results.
"""

from __future__ import annotations

import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import workloads as wl

LOOP_CAP_S = 100.0   # hard stop for the timed loop, whatever the cycle


class Runner:
    """Set-up state of one workload plus its op and check functions."""

    def __init__(self, workload: str, work_dir: Path) -> None:
        self.workload = workload
        self.work_dir = work_dir
        if workload == "cli-pipeline":
            self.env = wl.cli_env(work_dir)
            return
        import qcert  # noqa: F401  (set-up covers the import)

        if workload == "counts-certify":
            from qcert.pipeline import preset

            self.base_cfg = preset(wl.COUNTS_PRESET)

    def op_dir(self, op: dict) -> Path:
        return self.work_dir / f"op-{op['index']}"

    def execute(self, op: dict):
        """The timed part of one op."""
        if self.workload == "cli-pipeline":
            return wl.cli_op(op, self.op_dir(op), self.env)
        if self.workload == "counts-certify":
            return wl.counts_op(self.base_cfg, op)
        return wl.exact_op(op)

    def verify(self, op: dict, raw) -> tuple[list[str], int]:
        """The untimed part: read outputs, check them, clean up.
        Returns the failed checks and the number of refused EoF bounds."""
        if self.workload == "cli-pipeline":
            try:
                raw = wl.read_cli_outputs(self.op_dir(op), raw)
            finally:
                shutil.rmtree(self.op_dir(op), ignore_errors=True)
        return wl.CHECKS[self.workload](op, raw), wl.refusals(self.workload, raw)

    def run_checked(self, op: dict) -> tuple[float, list[str], int]:
        """Execute and verify one op; an exception is a failed op, not a crash."""
        start = time.perf_counter()
        try:
            raw = self.execute(op)
        except Exception:  # noqa: BLE001 - a failing op is counted and reported
            return time.perf_counter() - start, [traceback.format_exc(limit=4)], 0
        elapsed = time.perf_counter() - start
        try:
            return (elapsed, *self.verify(op, raw))
        except Exception:  # noqa: BLE001
            return elapsed, [traceback.format_exc(limit=4)], 0


def timed_loop(runner: Runner, seed: int, spec: dict) -> dict:
    """Closed loop from op ``start`` until the run's summed op time reaches
    ``until_s``; the final worker also finishes the op cycle, and runs
    MIN_CYCLES cycles at least."""
    cycle = wl.CYCLE[runner.workload]
    min_ops = cycle * wl.MIN_CYCLES[runner.workload]
    times, failures = [], []
    refused = 0
    total = spec["done_s"]
    index = spec["start"]
    start = time.perf_counter()
    while total < spec["until_s"] or (spec["final"] and (index % cycle or index < min_ops)):
        op = wl.op_inputs(runner.workload, seed, index)
        elapsed, fails, op_refused = runner.run_checked(op)
        times.append(elapsed)
        total += elapsed
        refused += op_refused
        if fails:
            failures.append({"index": index, "fails": fails})
        index += 1
        if time.perf_counter() - start >= LOOP_CAP_S:
            break
    return {"op_times": times, "failures": failures, "refused": refused, "next": index}


def peak_rss_kb(workload: str) -> int:
    who = resource.RUSAGE_CHILDREN if workload == "cli-pipeline" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss


def main() -> None:
    spec = json.loads(sys.argv[1])
    workload, seed = spec["workload"], spec["seed"]
    work_dir = Path(spec["work_dir"])
    runner = Runner(workload, work_dir)
    warm = wl.op_inputs(workload, seed, "warmup")
    _, warm_fails, warm_refused = runner.run_checked(warm)
    out = {"warmup_failures": [{"index": "warmup", "fails": warm_fails}] if warm_fails else [],
           "warmup_refused": warm_refused}
    if spec["mode"] == "trace":
        import layers

        out.update(layers.trace_run(runner, seed, spec["seconds"], Path(spec["trace_path"])))
    else:
        out["ready_wall"] = time.time()
        out.update(timed_loop(runner, seed, spec))
        out["peak_rss_kb"] = peak_rss_kb(workload)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
