"""The seed-free plan inputs a run draws from, computed once per configuration.

``run_simulation`` and the sampled ``violation_curve`` keep the means, stream
keys and row keys of the last few configurations (every field but the seed)
and draw only the seeded part; these tests pin that the cache changes no
output, never mixes configurations and stays bounded.
"""

from dataclasses import replace

import numpy as np
import pytest

from qcert import CountingParams, SourceConfig, bases, cglmp, pipeline, save_table
from qcert.counting import plan_means
from qcert.pipeline import (PRESET_NAMES, CurvePoint, SimulationConfig, build_settings, preset,
                            run_simulation, violation_curve)


def small_config(seed=0):
    return SimulationConfig(
        source=SourceConfig.uniform(4, noise_fraction=0.15),
        counting=CountingParams(P_S=0.01, eta_r=0.2, P_bg_idler=0.001),
        trials_per_setting=50_000, seed=seed, bell_dimensions=(2, 3), tomo_pair=(0, 3))


def uncached(cfg):
    """The run's table straight from ``plan_means(...).draw``, through no cache."""
    return plan_means(pipeline.sampling_state(cfg), build_settings(cfg), cfg.trials_per_setting,
                      pipeline.effective_params(cfg)).draw(cfg.seed)


def assert_same_table(a, b):
    assert a.setting == b.setting
    assert np.array_equal(a.labels, b.labels) and np.array_equal(a.counts, b.counts)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_cached_runs_equal_cold_runs(tmp_path, name):
    pipeline._plan_means.cache_clear()
    run_simulation(replace(preset(name), seed=1))   # fills the entry
    for seed in (2, 7, 40):
        cfg = replace(preset(name), seed=seed)
        warm = run_simulation(cfg)
        pipeline._plan_means.cache_clear()
        cold = run_simulation(cfg)
        assert warm.row_keys is not cold.row_keys
        assert_same_table(warm, cold)
        assert warm.metadata == cold.metadata
        for table, path in ((warm, tmp_path / "warm.csv"), (cold, tmp_path / "cold.csv")):
            save_table(table, path)
        assert (tmp_path / "warm.csv").read_bytes() == (tmp_path / "cold.csv").read_bytes()


def test_cached_sampled_curve_equals_a_cold_one():
    cfg = preset("calibrated-bell")
    kwargs = dict(path="sampled", params=cfg.counting, trials=cfg.trials_per_setting)
    pipeline._plan_means.cache_clear()
    violation_curve(cfg.source, [2, 5, 9], seed=1, **kwargs)
    for seed in (2, 3):
        warm = violation_curve(cfg.source, [2, 5, 9], seed=seed, **kwargs)
        pipeline._plan_means.cache_clear()
        assert warm == violation_curve(cfg.source, [2, 5, 9], seed=seed, **kwargs)


@pytest.mark.parametrize("cfg", [
    replace(preset("calibrated-bell"), seed=4, bell_dimensions=(2, 6, 7, 10)),
    replace(small_config(seed=6), noise_channel="state"),
], ids=["calibrated-bell", "D4-state"])
def test_sampled_curve_reads_a_bell_only_draw(cfg):
    """The curve's rows are cglmp's on an uncached draw of the Bell settings
    alone: the run it simulates adds settings, each on its own stream."""
    dims = cfg.bell_dimensions
    plan = [st for d in dims for st in bases.bell_settings(d, cfg.source.num_modes)]
    table = plan_means(pipeline.sampling_state(cfg), plan, cfg.trials_per_setting,
                       pipeline.effective_params(cfg)).draw(cfg.seed)
    expected = []
    for d in dims:
        for variant, corrected in (("raw", False), ("corrected", True)):
            res = cglmp(table, d, corrected=corrected)
            expected.append(CurvePoint(d, variant, res.bell_parameter, res.bell_parameter_err,
                                       res.violated))
    pipeline._plan_means.cache_clear()
    assert violation_curve(cfg.source, dims, path="sampled", params=cfg.counting,
                           trials=cfg.trials_per_setting, seed=cfg.seed,
                           noise_channel=cfg.noise_channel) == expected


def test_one_changed_field_never_shares_an_entry():
    base = small_config()
    phases = np.zeros(4)
    phases[1] = np.nextafter(0.0, 1.0)
    variants = [
        replace(base, trials_per_setting=50_001),
        replace(base, counting=replace(base.counting,
                                       P_bg_idler=np.nextafter(base.counting.P_bg_idler, 1.0))),
        replace(base, noise_channel="state"),
        replace(base, source=SourceConfig.uniform(4, noise_fraction=0.15, phases=phases)),
        replace(base, tomo_pair=(1, 3)),
        replace(base, spaces=("X",)),
        replace(base, bell_dimensions=(2,)),
    ]
    pipeline._plan_means.cache_clear()
    base_means = pipeline._plan_means(base)
    for cfg in variants:
        means = pipeline._plan_means(replace(cfg, seed=0))
        assert means is not base_means
        assert pipeline._plan_means(base) is base_means
        assert_same_table(run_simulation(replace(cfg, seed=5)), uncached(replace(cfg, seed=5)))
    # the seed alone keys no entry
    assert run_simulation(replace(base, seed=9)).row_keys is base_means.row_keys


def test_sequence_fields_key_as_tuples():
    base = small_config(seed=3)
    listed = replace(base, spaces=["X", "K"], bell_dimensions=[2, 3], tomo_pair=[0, 3])
    assert listed == base and hash(listed) == hash(base)
    assert run_simulation(listed).row_keys is run_simulation(base).row_keys


def test_tables_of_one_entry_share_row_keys_not_metadata():
    pipeline._plan_means.cache_clear()
    a, b = run_simulation(small_config(seed=1)), run_simulation(small_config(seed=2))
    assert a.row_keys is b.row_keys
    assert a.metadata is not b.metadata
    assert (a.metadata["seed"], b.metadata["seed"]) == (1, 2)
    a.metadata["note"] = "a only"
    assert "note" not in b.metadata
    assert not np.array_equal(a.counts, b.counts)
    names = ["witX:0-1:x", "witX:0-1:y", "diagX"]
    sub_a, sub_b = a.restricted(names), b.restricted(reversed(names))
    assert sub_a.row_keys is sub_b.row_keys is not a.row_keys
    assert set(sub_a.setting) == set(names)
    keep = [name in names for name in a.setting]
    assert np.array_equal(sub_a.counts, a.counts[:, keep])
    assert np.array_equal(sub_b.counts, b.counts[:, keep])


def test_cache_stays_within_its_size():
    pipeline._plan_means.cache_clear()
    maxsize = pipeline._plan_means.cache_info().maxsize
    for trials in range(1000, 1000 + maxsize + 3):
        run_simulation(replace(small_config(), trials_per_setting=trials))
        assert pipeline._plan_means.cache_info().currsize <= maxsize
    assert pipeline._plan_means.cache_info().currsize == maxsize
