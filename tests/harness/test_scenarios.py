"""Tests for scenario definitions and caching."""

import inspect

import pytest

from repro.harness import scenarios
from repro.harness.engine import ArtifactCache
from repro.harness.scenarios import (
    SCENARIOS,
    Scenario,
    get_scenario,
    scenario_longterm,
    scenario_ping,
    scenario_platform,
    scenario_traces,
)
from repro.obs.trace import Tracer, use_tracer


class TestScenarios:
    def test_known_names(self):
        assert {"small", "default", "large"} <= set(SCENARIOS)

    def test_unknown_name_lists_valid(self):
        with pytest.raises(KeyError, match="small"):
            get_scenario("nope")

    def test_platform_config_window_covers_campaigns(self):
        for scenario in SCENARIOS.values():
            config = scenario.platform_config()
            assert config.duration_hours >= scenario.longterm_days * 24.0
            assert config.duration_hours >= scenario.shortterm_trace_days * 24.0

    def test_congestion_rich_flag(self):
        assert SCENARIOS["large"].congestion_rich
        config = SCENARIOS["large"].platform_config()
        assert config.congestion.anchor_popularity_halflife is None

    def test_seed_parameterizes_config(self):
        scenario = get_scenario("small")
        assert scenario.platform_config(seed=5).seed == 5

    def test_grids(self):
        scenario = Scenario(
            name="x", cluster_count=4, longterm_days=30.0,
            shortterm_ping_days=7.0, shortterm_trace_days=10.0,
        )
        assert scenario.longterm_config().days == 30.0
        assert scenario.shortterm_config().ping_grid().rounds == 672


@pytest.mark.parametrize(
    "builder", [scenario_platform, scenario_longterm, scenario_ping, scenario_traces],
    ids=lambda builder: builder.__name__)
def test_memo_key_covers_every_parameter_that_shapes_the_result(builder):
    # The builders memoize on (name, seed), so any other parameter would
    # be ignored by a second call.  Worker counts and the artifact cache
    # never change the bits.
    assert set(inspect.signature(builder).parameters) - {"jobs", "cache"} == {"name", "seed"}


class TestCachedScenarios:
    @pytest.fixture
    def tiny(self, monkeypatch):
        monkeypatch.setitem(SCENARIOS, "tiny", Scenario(
            name="tiny", cluster_count=6, longterm_days=1.0,
            shortterm_ping_days=1.0, shortterm_trace_days=1.0,
        ))
        for memo in ("_platform_cache", "_longterm_cache"):
            monkeypatch.setattr(scenarios, memo, {})

    def _run(self, cache):
        """The long-term dataset from fresh memos, and the root spans of the call."""
        scenarios._platform_cache.clear()
        scenarios._longterm_cache.clear()
        tracer = Tracer()
        with use_tracer(tracer):
            dataset = scenario_longterm("tiny", 0, cache=cache)
        return dataset, [span.name for span in tracer.roots()]

    def test_longterm_hit_loads_no_platform(self, tmp_path, tiny):
        cache = ArtifactCache(tmp_path)
        built, cold = self._run(cache)
        loaded, warm = self._run(cache)
        assert cold[0] == "longterm-load" and cold[1] == "platform-load"
        assert cold[-3:] == ["platform-store", "longterm-build", "longterm-store"]
        assert warm == ["longterm-load"]
        assert not scenarios._platform_cache
        assert list(loaded.timelines) == list(built.timelines)
