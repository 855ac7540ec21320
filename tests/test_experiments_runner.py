"""Focused tests for the experiment runner's caching behaviour."""

import pytest

from repro.experiments import ExperimentCache, ExperimentSettings
from repro.experiments.runner import reset_global_cache, global_cache


@pytest.fixture
def cache():
    return ExperimentCache(ExperimentSettings(trials=4, workloads=("tiff2bw",)))


class TestCacheKeys:
    def test_swap_variants_cached_separately(self, cache):
        normal = cache.prepared("tiff2bw", "original", swap_train_test=False)
        swapped = cache.prepared("tiff2bw", "original", swap_train_test=True)
        assert normal is not swapped
        assert normal.golden_instructions != swapped.golden_instructions

    def test_schemes_cached_separately(self, cache):
        a = cache.prepared("tiff2bw", "original")
        b = cache.prepared("tiff2bw", "dup")
        assert a is not b
        assert b.scheme_stats.num_duplicated > 0

    def test_campaign_reuses_prepared_module(self, cache):
        prepared = cache.prepared("tiff2bw", "dup")
        campaign = cache.campaign("tiff2bw", "dup")
        assert campaign.golden_instructions == prepared.golden_instructions

    def test_runtime_cycles_memoised(self, cache):
        a = cache.runtime_cycles("tiff2bw", "original")
        b = cache.runtime_cycles("tiff2bw", "original")
        assert a == b > 0

    def test_overhead_relative_to_original(self, cache):
        ratio = cache.overhead("tiff2bw", "full_dup")
        base = cache.runtime_cycles("tiff2bw", "original")
        protected = cache.runtime_cycles("tiff2bw", "full_dup")
        assert ratio == pytest.approx(protected / base - 1.0)

    def test_timing_runs_reuse_prepared_and_skip_capture(self, monkeypatch):
        """Figure 12 reuses a campaign's prepared module; any other timing
        run prepares without snapshot capture and keeps nothing, so no
        full_dup snapshot store stays resident.  Cycles do not move."""
        from repro.experiments import figure12, runner

        calls = []
        real_prepare = runner.prepare

        def spy(workload, scheme, config):
            calls.append((workload.name, scheme, config.snapshot_every))
            return real_prepare(workload, scheme, config)

        monkeypatch.setattr(runner, "prepare", spy)
        cache = ExperimentCache(ExperimentSettings(
            trials=4, workloads=("tiff2bw", "h264dec"),
        ))
        kept = cache.prepared("tiff2bw", "dup")
        assert kept.snapshots is not None
        rows = figure12.compute(cache)

        cycles = {
            (name, scheme): cache.runtime_cycles(name, scheme)
            for name in ("tiff2bw", "h264dec")
            for scheme in ("original", "dup", "dup_valchk", "full_dup")
        }
        assert cycles == {
            ("tiff2bw", "original"): 8854.0, ("tiff2bw", "dup"): 10590.0,
            ("tiff2bw", "dup_valchk"): 10803.0,
            ("tiff2bw", "full_dup"): 15183.5,
            ("h264dec", "original"): 15734.0, ("h264dec", "dup"): 16655.0,
            ("h264dec", "dup_valchk"): 18286.0,
            ("h264dec", "full_dup"): 28072.5,
        }
        assert rows[0].dup == pytest.approx(10590.0 / 8854.0 - 1.0)
        # one capturing prepare for the campaign module, reused by figure 12
        assert calls.count(("tiff2bw", "dup", None)) == 1
        assert ("tiff2bw", "dup", 0) not in calls
        assert sorted(c for c in calls if c[2] == 0) == sorted(
            (name, scheme, 0) for name in ("tiff2bw", "h264dec")
            for scheme in ("original", "dup", "dup_valchk", "full_dup")
            if (name, scheme) != ("tiff2bw", "dup")
        )
        assert list(cache._prepared) == [("tiff2bw", "dup", False)]


class TestGlobalCache:
    def test_reset_replaces_instance(self):
        first = reset_global_cache(
            ExperimentSettings(trials=2, workloads=("tiff2bw",))
        )
        assert global_cache() is first
        second = reset_global_cache(
            ExperimentSettings(trials=3, workloads=("tiff2bw",))
        )
        assert global_cache() is second
        assert second.settings.trials == 3

    def test_campaign_config_carries_settings(self):
        settings = ExperimentSettings(trials=11, seed=42)
        config = settings.campaign_config()
        assert config.trials == 11 and config.seed == 42
