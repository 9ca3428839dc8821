"""Tests for the deterministic fault schedule and recovery policies."""

import json
import math

import pytest

from repro.faults.plane import (
    FaultSchedule,
    FaultsConfig,
    RetryPolicy,
    SupervisionPolicy,
    backoff_delay,
    faults_config_from_dict,
    get_plane,
    install,
    load_faults_config,
    retry_policy_from_dict,
    supervision_policy_from_dict,
    uninstall,
)


class TestFaultsConfig:
    def test_inactive_by_default(self):
        config = FaultsConfig(seed=1)
        assert not config.active

    def test_active_with_any_injector(self):
        assert FaultsConfig(crash_units=(3,)).active
        assert FaultsConfig(stall_rate=0.1).active
        assert FaultsConfig(transient_units=(0,)).active
        assert FaultsConfig(corrupt_saves=(0,)).active
        assert FaultsConfig(skew_rate=0.5, skew_max_s=1.0).active
        # Skew needs both knobs: rate without magnitude never fires.
        assert not FaultsConfig(skew_rate=0.5).active

    def test_validation(self):
        with pytest.raises(ValueError, match="crash_rate"):
            FaultsConfig(crash_rate=1.5)
        with pytest.raises(ValueError, match="crash_repeats"):
            FaultsConfig(crash_repeats=0)
        with pytest.raises(ValueError, match="stall_s"):
            FaultsConfig(stall_s=-1.0)
        with pytest.raises(ValueError, match="crash_units"):
            FaultsConfig(crash_units=(-1,))
        with pytest.raises(ValueError, match="seed"):
            FaultsConfig(seed="nope")


class TestFaultSchedule:
    def test_decisions_are_deterministic(self):
        a = FaultSchedule(FaultsConfig(seed=42, crash_rate=0.3,
                                       stall_rate=0.3, transient_rate=0.3))
        b = FaultSchedule(FaultsConfig(seed=42, crash_rate=0.3,
                                       stall_rate=0.3, transient_rate=0.3))
        for index in range(200):
            assert a.crash(index, 0) == b.crash(index, 0)
            assert a.stall_s_for(index, 0) == b.stall_s_for(index, 0)
            assert a.transient(index, 0) == b.transient(index, 0)

    def test_seed_changes_the_schedule(self):
        a = FaultSchedule(FaultsConfig(seed=1, crash_rate=0.5))
        b = FaultSchedule(FaultsConfig(seed=2, crash_rate=0.5))
        decisions_a = [a.crash(i, 0) for i in range(256)]
        decisions_b = [b.crash(i, 0) for i in range(256)]
        assert decisions_a != decisions_b

    def test_rate_roughly_respected(self):
        plane = FaultSchedule(FaultsConfig(seed=7, transient_rate=0.25))
        hits = sum(plane.transient(i, 0) for i in range(4000))
        assert 800 < hits < 1200  # ~1000 expected

    def test_targeted_units_always_fire(self):
        plane = FaultSchedule(FaultsConfig(seed=0, crash_units=(3, 9)))
        assert plane.crash(3, 0) and plane.crash(9, 0)
        assert not plane.crash(4, 0)

    def test_attempt_gating_heals(self):
        plane = FaultSchedule(
            FaultsConfig(crash_units=(3,), crash_repeats=2,
                         stall_units=(5,), stall_s=0.5,
                         transient_units=(7,), transient_repeats=1)
        )
        assert plane.crash(3, 0) and plane.crash(3, 1)
        assert not plane.crash(3, 2)
        assert plane.stall_s_for(5, 0) == 0.5
        assert plane.stall_s_for(5, 1) == 0.0
        assert plane.transient(7, 0)
        assert not plane.transient(7, 1)

    def test_corrupt_targets_save_ordinals(self):
        plane = FaultSchedule(FaultsConfig(corrupt_saves=(1,)))
        assert not plane.corrupt("stream", 0)
        assert plane.corrupt("stream", 1)
        assert plane.corrupt("campaign-m", 1)  # ordinal-targeted, any store

    def test_corrupt_rate_distinguishes_stores(self):
        plane = FaultSchedule(FaultsConfig(seed=3, corrupt_rate=0.5))
        a = [plane.corrupt("stream", n) for n in range(128)]
        b = [plane.corrupt("campaign-x", n) for n in range(128)]
        assert a != b

    def test_cadence_skew_range_and_determinism(self):
        plane = FaultSchedule(FaultsConfig(seed=11, skew_rate=1.0,
                                           skew_max_s=2.0))
        skews = [plane.cadence_skew_s("m", cycle) for cycle in range(100)]
        assert skews == [plane.cadence_skew_s("m", c) for c in range(100)]
        assert all(-2.0 <= s <= 2.0 for s in skews)
        assert any(s < 0 for s in skews) and any(s > 0 for s in skews)
        assert plane.cadence_skew_s("other", 0) != plane.cadence_skew_s("m", 0)


class TestGlobalPlane:
    def test_install_get_uninstall(self):
        assert get_plane() is None
        plane = install(FaultsConfig(seed=5, crash_units=(0,)))
        assert get_plane() is plane
        uninstall()
        assert get_plane() is None


class TestBackoffDelay:
    def test_deterministic_and_jittered(self):
        a = backoff_delay(0.1, 10.0, 1, seed=9, key=2)
        assert a == backoff_delay(0.1, 10.0, 1, seed=9, key=2)
        assert 0.05 <= a < 0.15  # base * [0.5, 1.5)

    def test_exponential_growth_capped_by_ceiling(self):
        small = backoff_delay(0.1, 100.0, 1, 0, 0)
        bigger = backoff_delay(0.1, 100.0, 4, 0, 0)
        assert bigger > small
        capped = backoff_delay(0.1, 0.2, 50, 0, 0)
        assert capped < 0.2 * 1.5 + 1e-9

    def test_zero_base_is_zero(self):
        assert backoff_delay(0.0, 1.0, 3, 0, 0) == 0.0


class TestPolicies:
    def test_supervision_validation(self):
        with pytest.raises(ValueError):
            SupervisionPolicy(stall_timeout_s=0)
        with pytest.raises(ValueError):
            SupervisionPolicy(unit_attempts=0)
        with pytest.raises(ValueError, match="max_restarts must be an integer"):
            SupervisionPolicy(max_restarts=1.5)

    def test_retry_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)

    @pytest.mark.parametrize(
        "field",
        ["stall_timeout_s", "poll_s", "restart_backoff_s", "backoff_ceiling_s"],
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_supervision_rejects_non_finite(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            SupervisionPolicy(**{field: value})

    @pytest.mark.parametrize("field", ["backoff_s", "backoff_ceiling_s"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_retry_rejects_non_finite(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            RetryPolicy(**{field: value})


class TestLoaders:
    def test_strict_keys(self):
        with pytest.raises(ValueError, match="unknown faults config keys"):
            faults_config_from_dict({"crash_rte": 0.1})
        with pytest.raises(ValueError, match="unknown supervision"):
            supervision_policy_from_dict({"stall_timeout": 1})
        with pytest.raises(ValueError, match="unknown retry"):
            retry_policy_from_dict({"attempts": 1})
        with pytest.raises(ValueError, match="must be an object"):
            faults_config_from_dict([1, 2])

    def test_load_file_with_seed_override(self, tmp_path):
        path = tmp_path / "faults.json"
        path.write_text(json.dumps({"seed": 1, "crash_units": [3]}))
        config = load_faults_config(path)
        assert (config.seed, config.crash_units) == (1, (3,))
        assert load_faults_config(path, seed=99).seed == 99
