import csv
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qcert
from qcert import CountingParams, SourceConfig, cli, naming, save_table
from qcert.pipeline import SimulationConfig, run_simulation

from conftest import SATURATING_SEED, cli_env, saturating_table


def run_cli(*args, cwd, env=None):
    return subprocess.run(
        [sys.executable, "-m", "qcert.cli", *args],
        cwd=cwd, capture_output=True, text=True, env=env or cli_env(),
    )


@pytest.fixture(scope="module")
def small_config(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli")
    cfg = SimulationConfig(
        source=SourceConfig.uniform(4, noise_fraction=0.15),
        counting=CountingParams(P_S=0.006, eta_r=0.1, P_bg_idler=0.0005),
        trials_per_setting=200_000,
        seed=321,
        spaces=("X", "K"),
        bell_dimensions=(2, 3),
        tomo_pair=(0, 3),
    )
    path = base / "config.json"
    cfg.save(path)
    return path


@pytest.fixture(scope="module")
def sim_run(small_config):
    out = small_config.parent / "run"
    res = run_cli("simulate", "--config", str(small_config), "--out-dir", str(out),
                  "--no-timestamp", cwd=small_config.parent)
    assert res.returncode == 0, res.stderr
    return out


class TestSimulate:
    def test_outputs_exist(self, sim_run):
        for name in ("counts.csv", "counts.meta.json", "manifest.json", "config.json"):
            assert (sim_run / name).exists()

    def test_manifest_hash_links_outputs(self, sim_run):
        manifest = json.loads((sim_run / "manifest.json").read_text())
        meta = json.loads((sim_run / "counts.meta.json").read_text())
        assert meta["manifest_hash"] == manifest["manifest_hash"]

    def test_rerun_and_workers_byte_identical(self, small_config, sim_run):
        out2 = small_config.parent / "run2"
        res = run_cli("simulate", "--config", str(small_config), "--out-dir", str(out2),
                      "--workers", "3", "--no-timestamp", cwd=small_config.parent)
        assert res.returncode == 0, res.stderr
        assert (sim_run / "counts.csv").read_bytes() == (out2 / "counts.csv").read_bytes()
        assert (sim_run / "manifest.json").read_bytes() == (out2 / "manifest.json").read_bytes()

    def test_seed_changes_counts_not_schema(self, small_config, sim_run):
        out3 = small_config.parent / "run3"
        res = run_cli("simulate", "--config", str(small_config), "--out-dir", str(out3),
                      "--seed", "999", "--no-timestamp", cwd=small_config.parent)
        assert res.returncode == 0, res.stderr
        a = (sim_run / "counts.csv").read_text().splitlines()
        b = (out3 / "counts.csv").read_text().splitlines()
        assert a[0] == b[0]
        assert len(a) == len(b)
        assert a != b
        keys_a = [line.rsplit(",", 4)[0] for line in a[1:]]
        keys_b = [line.rsplit(",", 4)[0] for line in b[1:]]
        assert keys_a == keys_b

    def test_setting_plan_covers_pairs(self, sim_run):
        with open(sim_run / "counts.csv") as fh:
            settings = {row["setting"] for row in csv.DictReader(fh)}
        wit_x = [s for s in settings if s.startswith("witX")]
        assert len(wit_x) == 6 * 3  # 6 pairs of 4 modes, 3 axes
        assert "diagX" in settings and "diagK" in settings
        assert sum(1 for s in settings if s.startswith("bell:")) == 8
        assert sum(1 for s in settings if s.startswith("tomoX:0-3")) == 9

    def test_one_trial_config_exits_0(self, tmp_path):
        # draws above the trial count are capped, so no seed breaks a record check
        cfg = SimulationConfig(source=SourceConfig.uniform(10),
                               counting=CountingParams(P_S=0.5, eta_r=0.5),
                               trials_per_setting=1)
        cfg.save(tmp_path / "one_trial.json")
        for seed in range(20):
            assert cli.main(["simulate", "--config", str(tmp_path / "one_trial.json"),
                             "--seed", str(seed), "--out-dir", str(tmp_path / f"run{seed}"),
                             "--no-timestamp"]) == 0, seed

    def test_invalid_counting_noise_exits_2_before_the_out_dir(self, tmp_path):
        # the counting channel adds eta_r p / (1 - p) to P_bg_idler: 0.1875 -> 0.28125,
        # so eta_r + P_I = 1.03; the same block is valid on the state channel
        cfg = SimulationConfig(source=SourceConfig.uniform(3, noise_fraction=0.2),
                               counting=CountingParams(P_S=1.0, eta_r=0.375, P_bg_idler=0.1875),
                               bell_dimensions=(2, 3), tomo_pair=(0, 1), noise_channel="state")
        (tmp_path / "cfg.json").write_text(
            json.dumps({**cfg.to_json_dict(), "noise_channel": "counting"}))
        res = run_cli("simulate", "--config", "cfg.json", "--out-dir", "run", cwd=tmp_path)
        assert res.returncode == 2, res.stderr
        assert "Traceback" not in res.stderr
        assert "noise fraction 0.2" in res.stderr and "0.28125" in res.stderr
        assert not (tmp_path / "run").exists()

    def test_too_many_modes_exit_2_before_any_output(self, tmp_path):
        cfg = SimulationConfig(source=SourceConfig.uniform(4), bell_dimensions=(2,),
                               tomo_pair=(0, 1)).to_json_dict()
        source = {"D": 11, "coefficients_re": [11 ** -0.5] * 11, "coefficients_im": [0.0] * 11,
                  "phases_deg": [0.0] * 11, "noise_fraction": 0.0}
        (tmp_path / "cfg.json").write_text(json.dumps({**cfg, "source": source}))
        for args in (["simulate", "--out-dir", "run"], ["sweep", "--grid", "0,0.1"]):
            res = run_cli(args[0], "--config", "cfg.json", *args[1:], cwd=tmp_path)
            assert res.returncode == 2, res.stderr
            assert "Traceback" not in res.stderr
            assert "mode count must be between 1 and 10, got 11" in res.stderr
            assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    @pytest.mark.parametrize("field, value, message", [
        ("spaces", ["X", "X"], "spaces repeats an entry"),
        ("bell_dimensions", [3, 3], "bell_dimensions repeats an entry"),
        ("repetition_rate_hz", math.nan, "finite and positive, got nan"),
        ("repetition_rate_hz", math.inf, "finite and positive, got inf"),
        ("repetition_rate_hz", -5, "finite and positive, got -5.0"),
    ])
    def test_malformed_config_exit_2_before_any_output(self, tmp_path, field, value, message):
        cfg = SimulationConfig(source=SourceConfig.uniform(4), bell_dimensions=(2, 3),
                               tomo_pair=(0, 1)).to_json_dict()
        # json writes NaN and Infinity, and reads them back as floats
        (tmp_path / "cfg.json").write_text(json.dumps({**cfg, field: value}))
        for args in (["simulate", "--out-dir", "run"], ["sweep", "--grid", "0,0.1"]):
            res = run_cli(args[0], "--config", "cfg.json", *args[1:], cwd=tmp_path)
            assert res.returncode == 2, res.stderr
            assert "Traceback" not in res.stderr
            assert message in res.stderr
            assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    def test_invalid_config_exits_2(self, small_config):
        bad = small_config.parent / "bad.json"
        bad.write_text('{"source": {"D": 3}}')
        res = run_cli("simulate", "--config", str(bad), cwd=small_config.parent)
        assert res.returncode == 2
        assert "error" in res.stderr


class TestCertify:
    def test_report_content(self, sim_run):
        res = run_cli("certify", "--counts", str(sim_run / "counts.csv"),
                      "--space", "X", "--no-timestamp", cwd=sim_run)
        assert res.returncode == 0, res.stderr
        report = json.loads((sim_run / "report.json").read_text())
        assert report["schema_version"] == 1
        assert report["witness"]["bound_table"]["1"] == 6   # f(1) for D=4
        assert report["witness"]["bound_table"]["4"] == 18  # f(D) = 3D(D-1)/2
        assert len(report["witness"]["pairs"]) == 6
        assert report["cglmp"][0]["d"] == 2
        assert report["provenance"]["manifest_hash"]
        assert 0 < report["witness"]["total"] <= 18.5

    def test_subtracted_certifies_more(self, sim_run):
        out = sim_run / "corr.json"
        res = run_cli("certify", "--counts", str(sim_run / "counts.csv"), "--space", "X",
                      "--subtract-accidentals", "--out", str(out), "--no-timestamp",
                      cwd=sim_run)
        assert res.returncode == 0, res.stderr
        raw = json.loads((sim_run / "report.json").read_text())
        corr = json.loads(out.read_text())
        assert corr["witness"]["total"] >= raw["witness"]["total"]

    def test_byte_identical_reports(self, sim_run):
        out1 = sim_run / "r1.json"
        out2 = sim_run / "r2.json"
        for out in (out1, out2):
            res = run_cli("certify", "--counts", str(sim_run / "counts.csv"),
                          "--space", "K", "--out", str(out), "--no-timestamp", cwd=sim_run)
            assert res.returncode == 0, res.stderr
        assert out1.read_bytes() == out2.read_bytes()

    def test_missing_counts_exits_2(self, sim_run):
        res = run_cli("certify", "--counts", "nope.csv", cwd=sim_run)
        assert res.returncode == 2

    def test_zero_count_table_exits_3(self, sim_run, tmp_path):
        rows = ["setting,outcome_s,outcome_i,coincidences,singles_s,singles_i,trials"]
        for j in range(2):
            for k in range(j + 1, 2):
                for ax in "xyz":
                    for a in (1, -1):
                        for b in (1, -1):
                            rows.append(f"witX:{j}-{k}:{ax},{a},{b},0,0,0,100")
        for a in range(2):
            for b in range(2):
                rows.append(f"diagX,{a},{b},0,0,0,100")
        path = tmp_path / "zero.csv"
        path.write_text("\n".join(rows) + "\n")
        meta = tmp_path / "zero.meta.json"
        meta.write_text('{"D": 2}')
        res = run_cli("certify", "--counts", str(path), cwd=tmp_path)
        assert res.returncode == 3
        assert "computation error" in res.stderr

    def test_saturated_formation_bound_exits_0(self, tmp_path):
        # the corrected coherence sum of this table is above sqrt(2)
        save_table(saturating_table(), tmp_path / "counts.csv")
        blocks = {}
        for flags in ((), ("--subtract-accidentals",)):
            res = run_cli("certify", "--counts", "counts.csv", *flags, "--seed",
                          str(SATURATING_SEED), "--no-timestamp", cwd=tmp_path)
            assert res.returncode == 0, res.stderr
            report = json.loads((tmp_path / "report.json").read_text())
            blocks[bool(flags)] = report["entanglement_of_formation"], res.stdout
        (raw, _), (corrected, stdout) = blocks[False], blocks[True]
        assert raw["saturated"] is False
        assert corrected["saturated"] is True
        assert corrected["ebits"] == math.log2(10)
        assert corrected["certified_dimension"] == 10
        assert math.isfinite(corrected["ebits_err"]) and corrected["ebits_err"] > 0
        assert "(saturated)" in stdout


class TestBell:
    def test_from_counts(self, sim_run):
        out = sim_run / "bell.csv"
        res = run_cli("bell", "--counts", str(sim_run / "counts.csv"),
                      "--subtract-accidentals", "--out", str(out), "--no-timestamp",
                      cwd=sim_run)
        assert res.returncode == 0, res.stderr
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert {(r["d"], r["variant"]) for r in rows} == {
            ("2", "raw"), ("2", "corrected"), ("3", "raw"), ("3", "corrected")
        }

    @pytest.mark.parametrize("other_settings", [False, True])
    def test_counts_without_bell_settings_exit_2(self, sim_run, tmp_path, other_settings):
        # a header-only table, and a run's table with its Bell settings dropped
        table = qcert.load_table(sim_run / "counts.csv")
        kept = [name for name in table.settings()
                if other_settings and naming.parse_bell_setting(name) is None]
        save_table(table.restricted(kept), tmp_path / "counts.csv")
        res = run_cli("bell", "--counts", "counts.csv", "--no-timestamp", cwd=tmp_path)
        assert res.returncode == 2
        assert "no Bell settings" in res.stderr
        assert not (tmp_path / "bell_curve.csv").exists()

    def test_exact_from_config(self, small_config):
        out = small_config.parent / "bell_exact.csv"
        res = run_cli("bell", "--config", str(small_config), "--exact",
                      "--d-range", "2:3", "--out", str(out), "--no-timestamp",
                      cwd=small_config.parent)
        assert res.returncode == 0, res.stderr
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert all(r["variant"] == "exact" for r in rows)
        assert [r["d"] for r in rows] == ["2", "3"]


    def test_repeated_d_range_gives_one_row_set_on_both_paths(self, small_config, sim_run,
                                                              tmp_path):
        # the config's sampled curve draws the run's Bell counts, so the two
        # paths write the same rows, each dimension once and in order
        common = ["--d-range", "3,2,3", "--no-timestamp"]
        from_counts = run_cli("bell", "--counts", str(sim_run / "counts.csv"),
                              "--subtract-accidentals", "--out", "counts.csv", *common,
                              cwd=tmp_path)
        from_config = run_cli("bell", "--config", str(small_config), "--out", "config.csv",
                              *common, cwd=tmp_path)
        assert from_counts.returncode == from_config.returncode == 0
        rows = (tmp_path / "counts.csv").read_text()
        assert rows == (tmp_path / "config.csv").read_text()
        assert [line.split(",")[:2] for line in rows.splitlines()[1:]] == [
            ["2", "raw"], ["2", "corrected"], ["3", "raw"], ["3", "corrected"]]
        exact = run_cli("bell", "--config", str(small_config), "--exact", "--out", "exact.csv",
                        *common, cwd=tmp_path)
        assert exact.returncode == 0, exact.stderr
        assert [line.split(",")[0] for line in
                (tmp_path / "exact.csv").read_text().splitlines()[1:]] == ["2", "3"]


    @pytest.mark.parametrize("command", ["certify", "bell"])
    def test_incomplete_bell_dimension_exits_2(self, sim_run, tmp_path, command):
        # both commands read every dimension with a Bell setting, and refuse
        # one that lacks a setting rather than drop it
        table = qcert.load_table(sim_run / "counts.csv")
        kept = [name for name in table.settings() if name != "bell:d3:s0i0"]
        save_table(table.restricted(kept), tmp_path / "counts.csv")
        files = sorted(tmp_path.iterdir())
        res = run_cli(command, "--counts", "counts.csv", "--no-timestamp", cwd=tmp_path)
        assert res.returncode == 2, res.stderr
        assert "Traceback" not in res.stderr
        assert "bell:d3:s0i0" in res.stderr
        assert sorted(tmp_path.iterdir()) == files


class TestTomo:
    def test_both_variants_emitted(self, sim_run):
        out = sim_run / "tomo.json"
        res = run_cli("tomo", "--counts", str(sim_run / "counts.csv"), "--pair", "0,3",
                      "--bootstrap", "20", "--out", str(out), "--no-timestamp", cwd=sim_run)
        assert res.returncode == 0, res.stderr
        data = json.loads(out.read_text())
        assert set(data) >= {"raw", "corrected", "pair", "provenance"}
        for variant in ("raw", "corrected"):
            mat = np.asarray(data[variant]["matrix_re"])
            assert mat.shape == (4, 4)
            assert 0 <= data[variant]["fidelity"] <= 1

    def test_unknown_pair_exits_2(self, sim_run):
        res = run_cli("tomo", "--counts", str(sim_run / "counts.csv"), "--pair", "0,2",
                      cwd=sim_run)
        assert res.returncode == 2


class TestSweep:
    def test_grid_rows(self, small_config):
        out = small_config.parent / "sweep.csv"
        res = run_cli("sweep", "--config", str(small_config), "--param", "noise_fraction",
                      "--grid", "0:0.4:3", "--out", str(out), "--no-timestamp",
                      cwd=small_config.parent)
        assert res.returncode == 0, res.stderr
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        assert rows[0]["noise_fraction"] == "0.0"
        assert float(rows[0]["W_X"]) == pytest.approx(18.0, abs=1e-6)
        totals = [float(r["W_X"]) for r in rows]
        assert totals == sorted(totals, reverse=True)

    def test_unsupported_param_exits_2(self, small_config):
        res = run_cli("sweep", "--config", str(small_config), "--param", "eta_r",
                      "--grid", "0:1:2", cwd=small_config.parent)
        assert res.returncode == 2


def test_config_runs_record_the_simulate_config_hash(tmp_path):
    res = run_cli("simulate", "--preset", "calibrated-tomo", "--seed", "3", "--out-dir", "run",
                  "--no-timestamp", cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    expected = json.loads((tmp_path / "run" / "manifest.json").read_text())["inputs"]
    for args in (["bell", "--exact", "--out", "bell.csv"],
                 ["sweep", "--grid", "0,0.1", "--out", "sweep.csv"]):
        res = run_cli(*args, "--config", "run/config.json", "--no-timestamp", cwd=tmp_path)
        assert res.returncode == 0, res.stderr
        meta = json.loads((tmp_path / args[-1]).with_suffix(".meta.json").read_text())
        assert meta["inputs"] == expected


# config fields that must be rejected (exit 2), not truncated or crashed on
BAD_CONFIG_FIELDS = {
    "bell_dimensions": [2.5],
    "tomo_pair": [0, 1.5],
    "trials_per_setting": 1000.7,
    "seed": 2.5,
    "counting": [],
}


class TestInvalidInput:
    @pytest.mark.parametrize("command", [["certify"], ["bell"],
                                         ["sweep", "--preset", "ideal", "--grid", "0,0.1"]])
    @pytest.mark.parametrize("margin", ["-50", "-0.5"])
    def test_negative_margin_exits_2_before_any_output(self, tmp_path, sim_run, command,
                                                        margin):
        counts = [] if command[0] == "sweep" else ["--counts", str(sim_run / "counts.csv")]
        res = run_cli(*command, *counts, f"--margin={margin}", "--out", "out", cwd=tmp_path)
        assert res.returncode == 2, res.stderr
        assert "--margin" in res.stderr and "Traceback" not in res.stderr
        assert res.stdout == ""
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("args", [
        ["tomo", "--counts", "counts.csv", "--pair", "a,b"],
        ["tomo", "--counts", "counts.csv", "--pair", "0"],
        ["tomo", "--counts", "counts.csv", "--bootstrap", "0"],
        ["tomo", "--counts", "counts.csv", "--bootstrap", "1"],
        ["bell", "--d-range", "x"],
        ["sweep", "--grid", "0:1:x"],
        ["certify", "--counts", "counts.csv", "--margin", "nan"],
        ["simulate", "--workers", "0"],
        ["certify", "--counts", "counts.csv"],  # corrupt counts.meta.json
        ["simulate", "--preset", "ideal", "--seed", "-5"],
        ["simulate", "--config", "bell_dimensions.json"],
        ["bell", "--config", "bell_dimensions.json"],
        ["simulate", "--config", "tomo_pair.json"],
        ["simulate", "--config", "trials_per_setting.json"],
        ["simulate", "--config", "seed.json"],
        ["simulate", "--config", "counting.json"],
        ["simulate", "--config", "list.json"],
        ["simulate", "--config", "source_D.json"],
        ["sweep", "--config", "list.json", "--grid", "0,0.1"],
        ["sweep", "--preset", "ideal", "--grid", "0:1.5:3"],
        ["sweep", "--preset", "ideal", "--grid", "nan"],
        ["sweep", "--preset", "ideal", "--grid", "inf"],
        ["sweep", "--preset", "ideal", "--grid", "0.2,-0.1"],
        # one input per run, and no option that the input would ignore
        ["simulate", "--config", "c", "--preset", "ideal"],
        ["sweep", "--config", "c", "--preset", "ideal", "--grid", "0,0.1"],
        ["bell", "--counts", "counts.csv", "--preset", "ideal"],
        ["bell", "--counts", "counts.csv", "--config", "c"],
        ["bell", "--counts", "counts.csv", "--exact"],
        ["bell", "--preset", "ideal", "--exact", "--subtract-accidentals"],
    ])
    def test_exits_2_without_traceback(self, tmp_path, args):
        (tmp_path / "counts.csv").write_text(
            "setting,outcome_s,outcome_i,coincidences,singles_s,singles_i,trials\n")
        (tmp_path / "counts.meta.json").write_text("{not json")
        base = SimulationConfig(source=SourceConfig.uniform(4), trials_per_setting=1000,
                                spaces=("X",), bell_dimensions=(2,), tomo_pair=(0, 1))
        for field, value in BAD_CONFIG_FIELDS.items():
            (tmp_path / f"{field}.json").write_text(
                json.dumps({**base.to_json_dict(), field: value}))
        (tmp_path / "list.json").write_text(json.dumps([base.to_json_dict()]))
        (tmp_path / "c").write_text(json.dumps(base.to_json_dict()))
        cfg = base.to_json_dict()
        (tmp_path / "source_D.json").write_text(
            json.dumps({**cfg, "source": {**cfg["source"], "D": 4.7}}))
        files = sorted(tmp_path.iterdir())
        res = run_cli(*args, cwd=tmp_path)
        assert res.returncode == 2, res.stderr
        assert "Traceback" not in res.stderr
        assert "error" in res.stderr
        assert sorted(tmp_path.iterdir()) == files

    @pytest.mark.parametrize("args, refused", [
        (["bell", "--counts", "counts.csv", "--preset", "ideal"], "--preset"),
        (["bell", "--counts", "counts.csv", "--config", "config.json"], "--config"),
        (["bell", "--counts", "counts.csv", "--exact"], "--exact"),
        (["bell", "--config", "config.json", "--exact", "--subtract-accidentals"],
         "--subtract-accidentals"),
        (["sweep", "--config", "config.json", "--preset", "ideal", "--grid", "0,0.1"],
         "--preset"),
    ])
    def test_refused_combination_names_the_option(self, sim_run, args, refused, tmp_path):
        # valid inputs, so only the combination is at fault
        for name in ("counts.csv", "counts.meta.json", "config.json"):
            (tmp_path / name).write_bytes((sim_run / name).read_bytes())
        files = sorted(tmp_path.iterdir())
        res = run_cli(*args, "--no-timestamp", cwd=tmp_path)
        assert res.returncode == 2, res.stderr
        assert "Traceback" not in res.stderr
        assert f"argument {refused}: not allowed with argument" in res.stderr
        assert sorted(tmp_path.iterdir()) == files

    @pytest.mark.parametrize("command, default", [("simulate", "calibrated-witness"),
                                                  ("sweep", "ideal"), ("bell", "calibrated-bell")])
    def test_default_preset_still_conflicts_in_process(self, capsys, command, default):
        # argparse takes a value identical to the option's default for no value,
        # and a string literal from the caller can be that very object
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--config", "c.json", "--preset", default])
        assert exc.value.code == 2
        assert "argument --preset: not allowed with argument --config" in capsys.readouterr().err

    @pytest.mark.parametrize("args, binary", [
        (["certify", "--counts", "bin.csv"], "bin.csv"),
        (["certify", "--counts", "counts.csv"], "counts.meta.json"),
        (["simulate", "--config", "bin.json", "--out-dir", "run"], "bin.json"),
    ])
    def test_non_utf8_input_exits_2(self, tmp_path, monkeypatch, capsys, args, binary):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "counts.csv").write_text(
            "setting,outcome_s,outcome_i,coincidences,singles_s,singles_i,trials\n")
        (tmp_path / binary).write_bytes(b"\xff\xfe")
        assert cli.main(args) == 2
        assert binary in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["certify", "tomo"])
    def test_negative_seed_exits_2(self, sim_run, tmp_path, command):
        res = run_cli(command, "--counts", str(sim_run / "counts.csv"), "--seed", "-1",
                      "--out", str(tmp_path / "out.json"), cwd=tmp_path)
        assert res.returncode == 2, res.stderr
        assert "Traceback" not in res.stderr
        assert "--seed" in res.stderr

    @pytest.mark.parametrize("seed_env, args", [
        ("abc", ["bell", "--exact", "--d-range", "2:3"]),
        ("-1", ["bell", "--exact", "--d-range", "2:3"]),
        ("-1", ["simulate", "--preset", "ideal"]),
    ])
    def test_bad_seed_env_exits_2(self, tmp_path, seed_env, args):
        res = run_cli(*args, cwd=tmp_path, env={**cli_env(), "QCERT_SEED": seed_env})
        assert res.returncode == 2, res.stderr
        assert "Traceback" not in res.stderr
        assert "QCERT_SEED" in res.stderr

    def test_non_integer_sidecar_dimension_exits_2(self, tmp_path):
        (tmp_path / "counts.csv").write_text(
            "setting,outcome_s,outcome_i,coincidences,singles_s,singles_i,trials\n")
        (tmp_path / "counts.meta.json").write_text('{"D": "x"}')
        res = run_cli("certify", "--counts", "counts.csv", cwd=tmp_path)
        assert res.returncode == 2, res.stderr
        assert "Traceback" not in res.stderr
        assert "counts.meta.json" in res.stderr


    def test_sidecar_dimension_above_mode_limit_exits_2(self, tmp_path):
        # a complete hand-made 12-mode X table: refused at load, not analysed
        rows = ["setting,outcome_s,outcome_i,coincidences,singles_s,singles_i,trials"]
        for j in range(12):
            for k in range(j + 1, 12):
                for ax in "xyz":
                    for a in (1, -1):
                        for b in (1, -1):
                            rows.append(f"witX:{j}-{k}:{ax},{a},{b},{10 if a == b else 1},"
                                        "50,50,1000")
        for a in range(12):
            for b in range(12):
                rows.append(f"diagX,{a},{b},{10 if a == b else 1},200,200,1000")
        (tmp_path / "counts.csv").write_text("\n".join(rows) + "\n")
        (tmp_path / "counts.meta.json").write_text('{"D": 12}')
        res = run_cli("certify", "--counts", "counts.csv", cwd=tmp_path)
        assert res.returncode == 2, res.stderr
        assert "Traceback" not in res.stderr
        assert "counts.meta.json" in res.stderr

    @pytest.mark.parametrize("args", [["certify"], ["tomo", "--pair", "0,1"]])
    def test_counts_beyond_the_bootstrap_limit_exit_2(self, tmp_path, args):
        # a valid int64 table whose Poisson means numpy refuses
        cfg = SimulationConfig(source=SourceConfig.uniform(2), trials_per_setting=1000,
                               bell_dimensions=(2,), tomo_pair=(0, 1))
        table = run_simulation(cfg)
        save_table(qcert.CoincidenceTable(table.setting, table.labels,
                                          np.full_like(table.counts, 2**63 - 1), table.metadata),
                   tmp_path / "counts.csv")
        files = sorted(tmp_path.iterdir())
        res = run_cli(*args, "--counts", "counts.csv", cwd=tmp_path)
        assert res.returncode == 2, res.stderr
        assert "Traceback" not in res.stderr
        assert str(2**62) in res.stderr
        assert sorted(tmp_path.iterdir()) == files


def test_version_matches_pyproject(tmp_path):
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(qcert.__file__).resolve().parents[2] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        version = tomllib.load(fh)["project"]["version"]
    assert qcert.__version__ == version
    res = run_cli("--version", cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == f"qcert {version}"
