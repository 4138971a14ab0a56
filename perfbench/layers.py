"""Traced replay: per-layer metrics timed from outside the qcert modules.

Each op of the workload runs twice: once exactly as in the untimed run, and
once replayed with its layer calls unrolled here, every call wrapped in a
span (name, start, end, parent, op id).  ``run_simulation`` for instance is
replayed as ``sampling_state``, ``effective_params``, ``build_settings`` and
one ``simulate_setting`` per setting.

Where a public function nests another layer's (``simulate_setting`` ->
``setting_means`` -> ``outcome_probabilities``), the inner call is timed
again afterwards on the same inputs as a *probe* span that points at the
outer span; a self time is the outer duration minus its probes.  Probes run
right after their outer call, so both see the same machine state, and are
left out of the traced op total; that total minus the untraced op time is
the tracing overhead.

Call counts are the one thing not timed from outside: for the traced run
``outcome_probabilities`` is wrapped, in the namespaces of the qcert modules
that call it, by a counter that leaves arguments and results untouched.
Each replayed op span records how many tables its calls computed, noise
fits included; calls made by probes are not counted.

Layers the workload's own ops never call are filled from a fixed probe
suite: one replayed op of each other workload and one fresh-process
``preset`` call per preset.  The result records where each metric came from.
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import workloads as wl

BOOTSTRAP_PROBES = 5          # replicas timed per eof_bound call
EOF_BOOTSTRAP = 100           # eof_bound's default replica count
EXACT_PROBE_OPS = (3, 7, 11)  # D = 10 with each fit objective
CLI_PROBE_OP = 0              # the "ideal" preset

# qcert modules that call outcome_probabilities through a module-level name;
# tomo imports it from linalg at call time
TABLE_CALLERS = ("qcert.linalg", "qcert.bases", "qcert.certify", "qcert.source")

# name -> (unit, how it is computed from the spans)
#   ("incl", span)        median duration per call
#   ("self", span)        median of duration minus weighted probes of the call
#   ("sum", span)         sum of durations (one call per preset)
#   ("attr", key, spans)  median of an attribute
#   ("mean", key, spans)  mean of an attribute (ops of a whole cycle)
LAYERS = {
    "pipeline.preset_s": ("s", ("sum", "pipeline.preset")),
    "source.fit_visibility_s": ("s", ("incl", "source.fit_visibility")),
    "pipeline.fit_eof_s": ("s", ("incl", "pipeline.fit_eof")),
    "pipeline.fit_fidelity_s": ("s", ("incl", "pipeline.fit_fidelity")),
    "source.noisy_state_s": ("s", ("incl", "source.noisy_state")),
    "linalg.density_s": ("s", ("incl", "linalg.density")),
    "linalg.prob_table_s": ("s", ("incl", "linalg.prob_table")),
    "linalg.prob_table_calls": ("count", ("mean", "prob_tables", ("op",))),
    "linalg.prob_table_bytes": ("B", ("attr", "bytes", ("linalg.prob_table",))),
    "bases.build_settings_s": ("s", ("incl", "bases.build_settings")),
    "bases.settings": ("count", ("attr", "settings", ("bases.build_settings",))),
    "counting.means_s": ("s", ("incl", "counting.means")),
    "counting.sample_s": ("s", ("self", "counting.simulate_setting")),
    "counting.cells": ("count", ("attr", "cells", ("counting.table", "counting.load"))),
    "counting.bootstrap_s": ("s", ("incl", "counting.bootstrap")),
    "counting.save_s": ("s", ("incl", "counting.save")),
    "counting.load_s": ("s", ("incl", "counting.load")),
    "counting.csv_bytes": ("B", ("attr", "bytes", ("counting.save",))),
    "pipeline.run_simulation_s": ("s", ("incl", "pipeline.run_simulation")),
    "pipeline.run_simulation_w2_s": ("s", ("incl", "pipeline.run_simulation_w2")),
    "certify.witness_counts_s": ("s", ("self", "certify.witness_counts")),
    "certify.eof_counts_s": ("s", ("self", "certify.eof_counts")),
    "certify.cglmp_counts_s": ("s", ("self", "certify.cglmp_counts")),
    "certify.witness_exact_s": ("s", ("self", "certify.witness_exact")),
    "certify.eof_exact_s": ("s", ("self", "certify.eof_exact")),
    "certify.cglmp_exact_s": ("s", ("self", "certify.cglmp_exact")),
    "tomo.reconstruct_s": ("s", ("self", "tomo.reconstruct")),
    "tomo.reconstruct_exact_s": ("s", ("self", "tomo.reconstruct_exact")),
    "cli.import_s": ("s", ("incl", "cli.import")),
    "cli.simulate_s": ("s", ("incl", "cli.simulate")),
    "cli.certify_s": ("s", ("incl", "cli.certify")),
    "cli.bell_s": ("s", ("incl", "cli.bell")),
    "cli.tomo_s": ("s", ("incl", "cli.tomo")),
}
OVERHEAD = {"trace.overhead_s": "s", "trace.overhead_ratio": "1"}
LAYER_UNITS = {**{name: unit for name, (unit, _) in LAYERS.items()}, **OVERHEAD}


class Span:
    __slots__ = ("id", "name", "op", "parent", "of", "weight", "start", "end", "attrs")

    def __init__(self, sid, name, op, parent, of, weight, attrs):
        self.id, self.name, self.op, self.parent = sid, name, op, parent
        self.of, self.weight, self.attrs = of, weight, attrs
        self.start = self.end = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        return {"id": self.id, "name": self.name, "op": self.op, "parent": self.parent,
                "of": self.of, "weight": self.weight, "start": self.start,
                "end": self.end, **({"attrs": self.attrs} if self.attrs else {})}


class Tracer:
    """Spans kept in memory; written out once at the end of the run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = None
        self.table_calls = 0      # outcome_probabilities calls outside probes
        self._stack: list[int] = []
        self._probes = 0          # open probe spans

    @contextmanager
    def span(self, name: str, of: Span | None = None, weight: float = 1.0, **attrs):
        """Time a call.  ``of`` marks a probe: an inner call re-timed for ``of``."""
        sp = Span(len(self.spans), name, self.op, self._stack[-1] if self._stack else None,
                  of.id if of is not None else None, weight, attrs)
        self.spans.append(sp)
        self._stack.append(sp.id)
        self._probes += of is not None
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()
            self._probes -= of is not None

    @contextmanager
    def op_span(self):
        """The span of one replayed in-process op, with its table count."""
        before = self.table_calls
        with self.span("op") as sp:
            yield sp
        sp.attrs["prob_tables"] = self.table_calls - before

    @contextmanager
    def counting_tables(self):
        """Count outcome_probabilities calls made outside probe spans."""
        import importlib

        from qcert import linalg

        original = linalg.outcome_probabilities

        def counted(*args, **kwargs):
            if not self._probes:
                self.table_calls += 1
            return original(*args, **kwargs)

        modules = [importlib.import_module(name) for name in TABLE_CALLERS]
        for module in modules:
            module.outcome_probabilities = counted
        try:
            yield
        finally:
            for module in modules:
                module.outcome_probabilities = original

    def record(self, name: str, seconds: float, **attrs) -> None:
        """A span measured inside a child process."""
        with self.span(name, **attrs) as sp:
            pass
        sp.end = sp.start + seconds

    @contextmanager
    def op_scope(self, op_id: str):
        self.op = op_id
        try:
            yield
        finally:
            self.op = None

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([sp.to_json() for sp in self.spans], fh)


class Context:
    """What the replays share: the tracer, the runner and lazily built configs."""

    def __init__(self, runner, tracer: Tracer) -> None:
        self.runner = runner
        self.tracer = tracer
        self.work_dir = runner.work_dir
        self.env = wl.cli_env(runner.work_dir)
        self._counts_base = getattr(runner, "base_cfg", None)

    def counts_base(self):
        if self._counts_base is None:
            from qcert.pipeline import preset

            self._counts_base = preset(wl.COUNTS_PRESET)
        return self._counts_base


# ---------------------------------------------------------------------------
# probes of inner layers
# ---------------------------------------------------------------------------

def _prob_table(tr: Tracer, rho, v_s, v_i, outer: Span) -> None:
    from qcert import outcome_probabilities

    with tr.span("linalg.prob_table", of=outer, bytes=16 * rho.dim**2):
        outcome_probabilities(rho, v_s, v_i)


def _probe_tables(tr: Tracer, rho, outer: Span, synthesize) -> None:
    """Time the basis synthesis of an exact estimator, then each of its tables."""
    with tr.span("bases.synthesis", of=outer):
        mats = [(b_s.vector_matrix, b_i.vector_matrix) for b_s, b_i in synthesize()]
    for v_s, v_i in mats:
        _prob_table(tr, rho, v_s, v_i, outer)


def _witness_bases(space: str, d: int):
    from qcert import pair_basis

    return [(pair_basis(space, j, k, ax, d, side="signal"),
             pair_basis(space, j, k, ax, d, side="idler"))
            for j in range(d) for k in range(j + 1, d) for ax in ("x", "y", "z")]


def _cglmp_bases(dim: int, d: int):
    from qcert import cglmp_basis

    pairs = []
    for s in (0, 1):
        basis_s = cglmp_basis("signal", s, dim, embed_dim=d)
        for i in (0, 1):
            pairs.append((basis_s, cglmp_basis("idler", i, dim, embed_dim=d)))
    return pairs


def _tomo_bases(j: int, k: int, d: int):
    from qcert import tomo_settings

    return [(st.basis_s, st.basis_i) for st in tomo_settings(j, k, space="X", num_modes=d)]


def eof_subtable(table, d: int):
    """The records eof_bound resamples: the X diagonal scan and the x/y pair settings."""
    from qcert import CoincidenceTable, naming

    needed = {naming.diag_setting("X")} | {
        naming.witness_setting("X", j, k, ax)
        for j in range(d) for k in range(j + 1, d) for ax in ("x", "y")}
    return CoincidenceTable(records=tuple(r for r in table.records if r.setting in needed),
                            metadata=dict(table.metadata))


def _bootstrap_probes(tr: Tracer, table, d: int, seed: int, outer: Span | None) -> None:
    """Time a few replicas of the eof_bound resampling (outer: the eof_bound call)."""
    from qcert import bootstrap_table

    sub = eof_subtable(table, d)
    for b in range(BOOTSTRAP_PROBES):
        with tr.span("counting.bootstrap", of=outer, weight=EOF_BOOTSTRAP / BOOTSTRAP_PROBES):
            bootstrap_table(sub, seed=seed + b)


def _table_io(tr: Tracer, table, path: Path) -> None:
    from qcert import load_table, save_table

    with tr.span("counting.save") as sp:
        save_table(table, path)
    sp.attrs["bytes"] = path.stat().st_size
    with tr.span("counting.load", cells=len(table.records)):
        load_table(path)


# ---------------------------------------------------------------------------
# replays: each returns (traced op total in seconds, check failures, refusals)
# ---------------------------------------------------------------------------

def _op_total(tr: Tracer, op_span: Span) -> float:
    """The op span minus the probes timed inside it."""
    return op_span.duration - sum(sp.duration for sp in tr.spans[op_span.id:]
                                  if sp.of is not None and sp.op == op_span.op)


def replay_counts(ctx: Context, op: dict, op_id: str):
    from qcert import (CoincidenceTable, cglmp, density_from_ket, ideal_state, reconstruct,
                       setting_means, simulate_setting, witness)
    from qcert.pipeline import build_settings, effective_params, run_simulation, sampling_state

    tr = ctx.tracer
    cfg = wl.counts_config(ctx.counts_base(), op)
    d = cfg.source.num_modes
    result = {}
    with tr.op_scope(op_id):
        with tr.op_span() as op_span:
            with tr.span("pipeline.sampling_state") as state_span:
                rho = sampling_state(cfg)
            with tr.span("linalg.density", of=state_span):
                density_from_ket(ideal_state(cfg.source))
            with tr.span("pipeline.effective_params"):
                params = effective_params(cfg)
            with tr.span("bases.build_settings") as plan_span:
                plan = build_settings(cfg)
            plan_span.attrs["settings"] = len(plan)
            records = []
            for st in plan:
                with tr.span("counting.simulate_setting") as sim_span:
                    records.extend(simulate_setting(rho, st.basis_s, st.basis_i,
                                                    cfg.trials_per_setting, params, cfg.seed,
                                                    setting_name=st.name))
                v_s, v_i = st.basis_s.vector_matrix, st.basis_i.vector_matrix
                with tr.span("counting.means", of=sim_span) as means_span:
                    setting_means(rho, st.basis_s, st.basis_i, cfg.trials_per_setting, params)
                _prob_table(tr, rho, v_s, v_i, means_span)
            with tr.span("counting.table") as table_span:
                table = CoincidenceTable(records=tuple(records), metadata={"D": d})
            table_span.attrs["cells"] = len(table.records)
            result["cells"] = len(table.records)
            for variant, corrected in (("raw", False), ("corrected", True)):
                with tr.span("certify.witness_counts"):
                    wit = witness(table, space="X", corrected=corrected)
                with tr.span("certify.eof_counts") as eof_span:
                    eof = wl.eof_or_refusal(table, corrected, cfg.seed)
                _bootstrap_probes(tr, table, d, cfg.seed, eof_span)
                bells = []
                for dim in wl.BELL_DIMS:
                    with tr.span("certify.cglmp_counts"):
                        bells.append(cglmp(table, dim, corrected=corrected))
                with tr.span("tomo.reconstruct"):
                    tomo = reconstruct(table, wl.TOMO_PAIR, corrected=corrected, seed=cfg.seed)
                result[variant] = wl.summarize_counts(wit, eof, bells, tomo)

        with tr.span("pipeline.run_simulation"):
            reference = run_simulation(cfg, workers=1)
        with tr.span("pipeline.run_simulation_w2"):
            run_simulation(cfg, workers=2)
        _table_io(tr, table, ctx.work_dir / "replay-counts.csv")

    fails = wl.check_counts(op, result)
    if reference.records != table.records:
        fails.append("the replayed table differs from run_simulation's")
    return _op_total(tr, op_span), fails, wl.refusals("counts-certify", result)


def replay_exact(ctx: Context, op: dict, op_id: str):
    from qcert import (DensityOperator, cglmp, eof_bound, noisy_state, reconstruct_exact,
                       witness)

    tr = ctx.tracer
    d = op["D"]
    j, k = wl.tomo_pair_for(d)
    cfg = wl.exact_source(d, op["shape"], op["variant"])
    points = []
    with tr.op_scope(op_id):
        with tr.op_span() as op_span:
            with tr.span(wl.FIT_LAYER[op["objective"]]):
                p_fit = wl.fit_noise(op["objective"], op["target"], cfg)
            for p in op["grid"]:
                with tr.span("source.noisy_state") as state_span:
                    rho = noisy_state(cfg.with_noise(p))
                with tr.span("linalg.density", of=state_span):
                    DensityOperator(d, d, rho.matrix)
                wits = []
                for space in ("X", "K"):
                    with tr.span("certify.witness_exact") as wit_span:
                        wits.append(witness(rho, space=space))
                    _probe_tables(tr, rho, wit_span, lambda: _witness_bases(space, d))
                eofs = []
                for space in ("X", "K"):
                    with tr.span("certify.eof_exact"):
                        eofs.append(eof_bound(rho, space=space))
                bells = []
                for dim in range(2, d + 1):
                    with tr.span("certify.cglmp_exact") as bell_span:
                        bells.append(cglmp(rho, dim))
                    _probe_tables(tr, rho, bell_span, lambda: _cglmp_bases(dim, d))
                with tr.span("tomo.reconstruct_exact") as tomo_span:
                    tomo = reconstruct_exact(rho, j, k)
                _probe_tables(tr, rho, tomo_span, lambda: _tomo_bases(j, k, d))
                points.append(wl.summarize_exact_point(*wits, *eofs, bells, tomo))

    return _op_total(tr, op_span), wl.check_exact(op, {"p_fit": p_fit, "points": points}), 0


def preset_fit(name: str):
    """(layer, call) of the noise fit inside preset(name), or None."""
    import numpy as np
    from qcert import SourceConfig, fit_noise_to_visibility
    from qcert import pipeline

    base = SourceConfig.uniform(10)
    if name == "calibrated-witness":
        return "source.fit_visibility", lambda: fit_noise_to_visibility(
            pipeline.WITNESS_TOTAL_TARGET / 135.0, base)
    if name == "calibrated-eof":
        return "pipeline.fit_eof", lambda: pipeline.fit_noise_to_eof(
            pipeline.EOF_EBITS_TARGET, base)
    if name == "calibrated-tomo":
        phases = np.zeros(10)
        phases[pipeline.TOMO_PAIR[1]] = np.radians(pipeline.TOMO_PHASE_DEG)
        return "pipeline.fit_fidelity", lambda: pipeline.fit_noise_to_pair_fidelity(
            pipeline.TOMO_FIDELITY_TARGET, SourceConfig.uniform(10, phases=phases),
            pipeline.TOMO_PAIR)
    return None


def replay_cli(ctx: Context, op: dict, op_id: str):
    from qcert import load_table

    tr = ctx.tracer
    op_dir = ctx.work_dir / f"replay-{op_id.replace(':', '-')}"
    try:
        with tr.op_scope(op_id):
            with tr.span("op") as op_span:
                codes = wl.cli_op(op, op_dir, ctx.env,
                                  timer=lambda name: tr.span(f"cli.{name}"))
            result = wl.read_cli_outputs(op_dir, codes)
            fails = wl.check_cli(op, result)
            with tr.span("cli.import"):
                subprocess.run([sys.executable, "-c", "import qcert"], env=ctx.env,
                               cwd=ctx.work_dir, check=True, timeout=60)
            if not fails:
                table = load_table(op_dir / "run" / "counts.csv")
                _table_io(tr, table, op_dir / "replay.csv")
                _bootstrap_probes(tr, table, int(table.metadata["D"]), op["seed"], None)
            fit = preset_fit(op["preset"])
            if fit is not None:
                with tr.span(fit[0]):
                    fit[1]()
    finally:
        shutil.rmtree(op_dir, ignore_errors=True)
    return _op_total(tr, op_span), fails, wl.refusals("cli-pipeline", result)


REPLAY = {"cli-pipeline": replay_cli, "counts-certify": replay_counts, "exact-scan": replay_exact}


def preset_probe(ctx: Context) -> None:
    """First preset(name) call of a fresh process, once per preset."""
    code = ("import sys, time\nfrom qcert.pipeline import preset\n"
            "t = time.perf_counter(); preset(sys.argv[1]); print(time.perf_counter() - t)")
    with ctx.tracer.op_scope("probe:presets:all"):
        for name in wl.PRESETS:
            out = subprocess.run([sys.executable, "-c", code, name], env=ctx.env,
                                 cwd=ctx.work_dir, capture_output=True, text=True,
                                 check=True, timeout=60)
            ctx.tracer.record("pipeline.preset", float(out.stdout.strip().splitlines()[-1]),
                              preset=name)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _self_times(spans: list[Span]) -> dict[int, float]:
    inner: dict[int, float] = {}
    for sp in spans:
        if sp.of is not None:
            inner[sp.of] = inner.get(sp.of, 0.0) + sp.duration * sp.weight
    return {sp.id: sp.duration - inner.get(sp.id, 0.0) for sp in spans}


def _value(rule: tuple, spans: list[Span], self_times: dict[int, float]):
    kind = rule[0]
    if kind in ("attr", "mean"):
        values = [sp.attrs[rule[1]] for sp in spans if sp.name in rule[2] and rule[1] in sp.attrs]
        if not values:
            return None
        return statistics.median(values) if kind == "attr" else statistics.fmean(values)
    chosen = [sp for sp in spans if sp.name == rule[1]]
    if not chosen:
        return None
    if kind == "incl":
        return statistics.median(sp.duration for sp in chosen)
    if kind == "self":
        return statistics.median(self_times[sp.id] for sp in chosen)
    return sum(sp.duration for sp in chosen)


def layer_metrics(spans: list[Span], workload: str) -> tuple[dict, dict]:
    """Every layer metric, from the workload's own ops where they reach the
    layer and otherwise from the probe suite; plus where each came from."""
    self_times = _self_times(spans)
    scopes = [workload] + [f"probe:{w}" for w in wl.WORKLOADS if w != workload] + ["probe:presets"]
    by_scope = {scope: [] for scope in scopes}
    for sp in spans:
        by_scope.setdefault(sp.op.rsplit(":", 1)[0], []).append(sp)
    metrics, source = {}, {}
    for name, (_, rule) in LAYERS.items():
        for scope in scopes:
            value = _value(rule, by_scope[scope], self_times)
            if value is not None:
                metrics[name], source[name] = float(value), scope
                break
        else:
            raise RuntimeError(f"no span measured layer metric {name}")
    return metrics, source


def trace_run(runner, seed: int, seconds: float, trace_path: Path) -> dict:
    """Paired untraced/traced ops for ``seconds``, then the probe suite.

    Like the timed loop, the traced loop covers whole op cycles, except on
    cli-pipeline whose cycle would not fit the run's time limit traced.
    """
    workload = runner.workload
    cycle = 1 if workload == "cli-pipeline" else wl.CYCLE[workload]
    tracer = Tracer()
    ctx = Context(runner, tracer)
    untraced, overheads, failures = [], [], []
    refused = 0
    start = time.perf_counter()
    index = 0
    while index % cycle or index == 0 or time.perf_counter() - start < seconds:
        op = wl.op_inputs(workload, seed, index)
        plain_s, fails, plain_refused = runner.run_checked(op)
        with tracer.counting_tables():
            traced_s, replay_fails, replay_refused = REPLAY[workload](ctx, op,
                                                                     f"{workload}:{index}")
        refused += max(plain_refused, replay_refused)   # both ran the same table
        untraced.append(plain_s)
        overheads.append(traced_s - plain_s)
        if fails or replay_fails:
            failures.append({"index": index, "fails": fails + replay_fails})
        index += 1

    preset_probe(ctx)
    for other in wl.WORKLOADS:
        if other == workload:
            continue
        indices = {"cli-pipeline": (CLI_PROBE_OP,), "counts-certify": (0,),
                   "exact-scan": EXACT_PROBE_OPS}[other]
        for i in indices:
            op = wl.op_inputs(other, seed, i)
            with tracer.counting_tables():
                _, fails, _ = REPLAY[other](ctx, op, f"probe:{other}:{i}")
            if fails:
                failures.append({"index": f"probe:{other}:{i}", "fails": fails})

    tracer.write(trace_path)
    metrics, source = layer_metrics(tracer.spans, workload)
    overhead = statistics.median(overheads)
    metrics["trace.overhead_s"] = overhead
    metrics["trace.overhead_ratio"] = overhead / statistics.median(untraced)
    return {"metrics": metrics, "layer_source": source, "ops": index,
            "attempted": index, "failures": failures, "refused": refused}
