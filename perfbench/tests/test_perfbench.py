"""Self-tests of the qcert benchmark: metric names, output checks, op inputs.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(1, str(HERE.parent / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402

BENCH = json.loads((wl.ROOT / "BENCHMARK.json").read_text())


def declared(section: str) -> dict:
    return {m["name"]: m["unit"] for m in BENCH[section]}


# ---------------------------------------------------------------------------
# metric names
# ---------------------------------------------------------------------------

def test_declared_names_and_units_match_the_code():
    assert declared("end_to_end") == run.END_TO_END
    assert declared("per_layer") == layers.LAYER_UNITS
    assert [w["name"] for w in BENCH["workloads"]] == list(wl.WORKLOADS)


def test_end_to_end_metrics_cover_exactly_the_declared_names():
    full = {"op_times": [1.0, 2.0, 3.0], "failures": [], "peak_rss_kb": 40960}
    metrics, extra = run.end_to_end_metrics(full, [0.5, 0.7, 0.6])
    assert set(metrics) == set(declared("end_to_end"))
    assert metrics["setup_s"] == 0.6 and metrics["peak_rss_mb"] == 40.0
    assert metrics["ops_per_s"] == 0.5 and metrics["op_tail_s"] == 3.0


def test_tail_keeps_ten_ops_beyond_it():
    times = [float(i) for i in range(1, 37)]
    value, pct, beyond = run.tail(times)
    assert value == 26.0 and beyond == 10 and pct == pytest.approx(100 * 26 / 36)
    assert sum(t > value for t in times) == 10
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def _synthetic_spans(workload: str) -> list:
    """One op's worth of spans covering every layer rule."""
    tr = layers.Tracer()
    attrs = {"bytes": 160000, "settings": 317, "cells": 2852, "prob_tables": 945}
    with tr.op_scope(f"{workload}:0"):
        for _, rule in layers.LAYERS.values():
            by_attr = rule[0] in ("attr", "mean")
            for name in rule[2] if by_attr else (rule[1],):
                with tr.span(name, **{k: v for k, v in attrs.items() if by_attr}):
                    pass
    return tr.spans


def test_layer_metrics_cover_exactly_the_declared_names():
    metrics, source = layers.layer_metrics(_synthetic_spans("exact-scan"), "exact-scan")
    assert set(metrics) | set(layers.OVERHEAD) == set(declared("per_layer"))
    assert set(source.values()) == {"exact-scan"}


def test_layer_metrics_fall_back_to_the_probe_suite():
    spans = _synthetic_spans("counts-certify")
    for sp in spans:
        sp.op = "probe:counts-certify:0"
    metrics, source = layers.layer_metrics(spans, "exact-scan")
    assert set(source.values()) == {"probe:counts-certify"}


def test_self_time_subtracts_weighted_probes():
    tr = layers.Tracer()
    with tr.op_scope("counts-certify:0"):
        with tr.span("certify.eof_counts") as outer:
            pass
        with tr.span("counting.bootstrap", of=outer, weight=50.0):
            pass
    outer.start, outer.end = 0.0, 2.0
    probe = tr.spans[1]
    probe.start, probe.end = 5.0, 5.01
    assert layers._self_times(tr.spans)[outer.id] == pytest.approx(2.0 - 0.5)


def test_table_counter_counts_op_calls_but_not_probes():
    from qcert import SourceConfig, linalg, noisy_state, source

    rho = noisy_state(SourceConfig.uniform(4).with_noise(0.1))
    original = linalg.outcome_probabilities
    tr = layers.Tracer()
    with tr.counting_tables(), tr.op_scope("exact-scan:0"):
        with tr.op_span() as op:
            source.mean_pair_visibility(rho)        # 3 axes x 6 pairs
            with tr.span("linalg.prob_table", of=op):
                source.mean_pair_visibility(rho)
    assert op.attrs["prob_tables"] == 18
    assert source.outcome_probabilities is linalg.outcome_probabilities is original


def fake_spawn(refused_per_op: bool):
    """A stand-in for run.spawn: two checked ops per worker, 1 s each."""
    def spawn(mode, args, work, deadline, start, done_s, until_s, final):
        return {"op_times": [1.0, 1.0], "failures": [], "next": start + 2,
                "refused": 2 if refused_per_op else 0, "warmup_refused": 1,
                "warmup_failures": [], "peak_rss_kb": 40960,
                "spawned_wall": 10.0, "ready_wall": 15.0}
    return spawn


@pytest.mark.parametrize("every_op", [True, False])
def test_refusals_beyond_the_cap_fail_the_run(monkeypatch, capsys, every_op):
    monkeypatch.setattr(run, "spawn", fake_spawn(every_op))
    assert run.main(["--workload", "counts-certify", "--seed", "1", "--seconds", "6",
                     "--trace", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["attempted"] == 9          # 3 warm-ups + 6 ops
    if every_op:                             # 1 warm-up + 6 refusals, 2 allowed
        assert result["failed"] == 5 and not result["correct"]
    else:                                    # the shared warm-up op counts once
        assert result["failed"] == 0 and result["correct"]


def test_printed_metric_names_match_benchmark_json():
    """A real (short) run prints exactly the declared end-to-end metrics."""
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "exact-scan",
                          "--seed", "3", "--seconds", "1", "--trace", "0"],
                         cwd=wl.ROOT, stdout=subprocess.PIPE, text=True, timeout=170,
                         check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared("end_to_end")


def test_missing_sources_exit_nonzero_without_a_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for name in ("run.py", "workloads.py", "refs.json"):
        (tmp_path / "perfbench" / name).write_bytes((HERE / name).read_bytes())
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "exact-scan",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         text=True, timeout=60)
    assert out.returncode != 0 and out.stdout == ""


# ---------------------------------------------------------------------------
# output checks reject perturbed results
# ---------------------------------------------------------------------------

def exact_case():
    op = wl.op_inputs("exact-scan", 5, 4)
    assert len(op["grid"]) > 5
    variant = wl.load_refs()["exact_scan"]["variants"][
        wl.variant_key(op["D"], op["shape"], op["variant"])]
    return op, {"p_fit": op["p_star"], "points": copy.deepcopy(variant["points"])}


def test_exact_check_accepts_the_reference():
    op, result = exact_case()
    assert wl.check_exact(op, result) == []


@pytest.mark.parametrize("perturb", [
    lambda r: r["points"][2].__setitem__("witness_X", r["points"][2]["witness_X"] + 1e-8),
    lambda r: r["points"][0].__setitem__("eof_K", r["points"][0]["eof_K"] - 1e-8),
    lambda r: r["points"][1]["cglmp"].__setitem__(0, r["points"][1]["cglmp"][0] + 1e-8),
    lambda r: r["points"][3].__setitem__("tomo_phase_deg", float("nan")),
    lambda r: r["points"][4].__setitem__("dim_X", r["points"][4]["dim_X"] - 1),
    lambda r: r.__setitem__("p_fit", r["p_fit"] + 1e-4),
    lambda r: r["points"].pop(),
])
def test_exact_check_rejects_perturbed_results(perturb):
    op, result = exact_case()
    perturb(result)
    assert wl.check_exact(op, result)


def bell_shift(d: int, err: float = 0.01) -> float:
    """Six yardsticks of a calibrated-witness CGLMP value: enough to fail."""
    scatter = wl.load_refs()["presets"]["calibrated-witness"]["sampled"]["cglmp_sd"][str(d)]
    return 6 * max(err, scatter)


def counts_case():
    ref = wl.load_refs()["presets"]["calibrated-witness"]
    op = wl.op_inputs("counts-certify", 5, 0)

    def variant(dim):
        return {
            "witness_total": ref["witness_X"] + 0.5, "witness_err": 0.8, "witness_dim": dim,
            "eof_refused": False, "eof_ebits": ref["eof_X"], "eof_ebits_err": 0.02, "eof_b_err": 0.01,
            "cglmp": [[d, ref["cglmp"][str(d)], 0.01] for d in wl.BELL_DIMS],
            "tomo_fidelity": ref["tomo_fidelity"] - 0.03, "tomo_fidelity_err": 0.03,
        }

    return op, {"cells": ref["cells"], "raw": variant(8), "corrected": variant(10)}


def test_counts_check_accepts_a_plausible_result():
    op, result = counts_case()
    assert wl.check_counts(op, result) == []


def test_a_refused_corrected_eof_bound_is_counted_not_failed():
    op, result = counts_case()
    result["corrected"].update(eof_refused=True, eof_ebits=None, eof_ebits_err=None,
                               eof_b_err=None)
    assert wl.check_counts(op, result) == []
    assert wl.refusals("counts-certify", result) == 1
    result["raw"].update(eof_refused=True, eof_ebits=None, eof_ebits_err=None, eof_b_err=None)
    assert wl.check_counts(op, result)


@pytest.mark.parametrize("perturb", [
    lambda r: r["raw"].__setitem__("witness_total", r["raw"]["witness_total"] + 6 * 0.8),
    lambda r: r["raw"].__setitem__("eof_ebits", r["raw"]["eof_ebits"] - 6 * 0.02),
    lambda r: r["raw"].__setitem__("tomo_fidelity", 1.2),
    lambda r: r["raw"].__setitem__("tomo_fidelity", 0.5),
    lambda r: r["raw"]["cglmp"][3].__setitem__(1, r["raw"]["cglmp"][3][1] + bell_shift(5)),
    lambda r: r["raw"].__setitem__("witness_err", 0.0),
    lambda r: r["corrected"].__setitem__("eof_ebits_err", 0.0),
    lambda r: r["corrected"].__setitem__("tomo_fidelity_err", float("nan")),
    lambda r: r["raw"].__setitem__("eof_b_err", float("inf")),
    lambda r: r["raw"].__setitem__("witness_dim", 7),
    lambda r: r["corrected"].__setitem__("witness_dim", 9),
    lambda r: r.__setitem__("cells", 2851),
])
def test_counts_check_rejects_perturbed_results(perturb):
    op, result = counts_case()
    perturb(result)
    assert wl.check_counts(op, result)


def cli_case():
    op = wl.op_inputs("cli-pipeline", 5, 1)
    assert op["preset"] == "calibrated-witness"
    ref = wl.load_refs()["presets"][op["preset"]]
    rows = [[d, ref["cglmp"][str(d)], 0.01] for d in wl.BELL_DIMS]
    return op, {
        "codes": [0, 0, 0, 0], "cells": ref["cells"], "manifest_hash": "abc",
        "certify": {"manifest_hash": "abc", "witness_dim": 10, "witness_err": 1.0,
                    "eof_ebits_err": 0.5, "eof_b_err": 0.1},
        "bell": {"raw": rows, "corrected": copy.deepcopy(rows)},
        "tomo": {"raw": {"fidelity": ref["tomo_fidelity"], "fidelity_err": 0.03},
                 "corrected": {"fidelity": 0.97, "fidelity_err": 0.03}},
    }


def test_raw_tomography_fidelity_is_measured_from_the_sampling_range():
    """On `ideal` the projected fidelity sits about three errors below the
    exact 0.999; the check measures from the range down to its sampling mean."""
    ref = wl.load_refs()["presets"]["ideal"]
    mean, err = ref["sampled"]["tomo_fidelity_mean"], 0.035
    assert ref["tomo_fidelity"] - mean > 3 * err
    for value, ok in ((ref["tomo_fidelity"] - 4 * err, True), (mean, True),
                      (mean - 4.9 * err, True), (mean - 5.1 * err, False),
                      (ref["tomo_fidelity"] + 5.1 * err, False)):
        fails = []
        wl._tomo_z(fails, value, err, ref)
        assert (fails == []) == ok, (value, fails)


def test_raw_cglmp_is_measured_in_its_seed_commit_scatter():
    """On `ideal` a d = 2 value of 3.889 with a propagated error of 0.108 is
    9.9 reported errors above the exact 2.825, yet an ordinary draw: the
    values scatter by about 0.4 at the seed commit."""
    ref = wl.load_refs()["presets"]["ideal"]
    scatter = ref["sampled"]["cglmp_sd"]["2"]
    assert 0.3 < scatter < 0.6
    rows = [[d, ref["cglmp"][str(d)], 0.1] for d in wl.BELL_DIMS]
    rows[0][1] = 3.889
    fails = []
    wl._bell_z(fails, "raw", rows, ref)
    assert fails == []
    rows[0][1] = ref["cglmp"]["2"] + 5.1 * scatter
    wl._bell_z(fails, "raw", rows, ref)
    assert len(fails) == 1 and "S_2" in fails[0]


def test_cli_check_accepts_a_plausible_result():
    op, result = cli_case()
    assert wl.check_cli(op, result) == []
    result.update(certify=None, certify_refused=True)
    assert wl.check_cli(op, result) == []
    assert wl.refusals("cli-pipeline", result) == 1


@pytest.mark.parametrize("perturb", [
    lambda r: r.update(codes=[0, 0, 3], stderr=["error: bad input"]),
    lambda r: r.__setitem__("cells", 100),
    lambda r: r["certify"].__setitem__("manifest_hash", "other"),
    lambda r: r["certify"].__setitem__("witness_dim", 9),
    lambda r: r["certify"].__setitem__("eof_ebits_err", 0.0),
    lambda r: r["bell"]["raw"][0].__setitem__(1, r["bell"]["raw"][0][1] - bell_shift(2)),
    lambda r: r["bell"]["raw"].pop(),
    lambda r: r["bell"].pop("corrected"),
    lambda r: r["tomo"]["raw"].__setitem__("fidelity", r["tomo"]["raw"]["fidelity"] + 0.2),
    lambda r: r["tomo"]["raw"].__setitem__("fidelity", r["tomo"]["raw"]["fidelity"] - 0.3),
    lambda r: r["tomo"]["corrected"].__setitem__("fidelity_err", 0.0),
])
def test_cli_check_rejects_perturbed_results(perturb):
    op, result = cli_case()
    perturb(result)
    assert wl.check_cli(op, result)


# ---------------------------------------------------------------------------
# op inputs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_op_inputs_repeat_for_a_seed_and_change_with_it(workload):
    def ops(seed):
        return [wl.op_inputs(workload, seed, i) for i in range(24)] + [
            wl.op_inputs(workload, seed, "warmup")]

    assert ops(11) == ops(11)
    assert ops(11) != ops(12)


def test_exact_cycle_covers_every_mode_count_shape_and_objective_pairing():
    slots = [wl.exact_slot(i) for i in range(wl.EXACT_CYCLE)]
    assert {(d, s) for d, s, _ in slots} == {(d, s) for d in wl.MODE_COUNTS for s in wl.SHAPES}
    assert {(d, o) for d, _, o in slots} == {(d, o) for d in wl.MODE_COUNTS
                                              for o in wl.OBJECTIVES}
    assert [op["preset"] for op in (wl.op_inputs("cli-pipeline", 1, i) for i in range(5))] \
        == list(wl.PRESETS)
