"""Tests for the service/campaign config shapes and the JSON loader."""

import json
import math

import pytest

from repro.service.campaign import driver_for
from repro.service.config import (
    CampaignConfig,
    ServiceConfig,
    service_config_from_dict,
)
from repro.stream.mesh import MeshConfig


class TestCampaignConfig:
    def test_defaults(self):
        config = CampaignConfig(name="mesh")
        assert config.kind == "mesh"
        assert config.shards == 1

    @pytest.mark.parametrize("name", ["", "has space", "has/slash", "a{b}"])
    def test_rejects_unroutable_names(self, name):
        with pytest.raises(ValueError, match="invalid campaign name"):
            CampaignConfig(name=name)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown campaign kind"):
            CampaignConfig(name="m", kind="icmp")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"cadence_s": 0},
            {"rounds_per_cycle": 0},
            {"cycles": 0},
            {"shards": 0},
            {"queue_units": 0},
            {"checkpoint_every": 0},
            {"cadence_s": math.nan},
            {"cadence_s": math.inf},
            {"rounds_per_cycle": 2.5},
            {"cycles": 2.5},
            {"shards": 2.5},
            {"queue_units": 2.5},
            {"checkpoint_every": 2.5},
        ],
    )
    def test_rejects_nonpositive_knobs(self, kwargs):
        with pytest.raises(ValueError):
            CampaignConfig(name="m", **kwargs)

    def test_rejects_mesh_rounds_that_disagree(self):
        with pytest.raises(ValueError, match="disagrees"):
            CampaignConfig(
                name="m", rounds_per_cycle=16,
                mesh=MeshConfig(pairs=1000, rounds_per_cycle=8),
            )

    @pytest.mark.parametrize("kind", ["trace", "ping"])
    def test_rejects_retired_kinds(self, kind):
        with pytest.raises(ValueError, match=f"kind '{kind}' was retired"):
            CampaignConfig(name="m", kind=kind)


    def test_mesh_driver_falls_back_to_the_campaign_rounds(self):
        config = CampaignConfig(name="m", rounds_per_cycle=16)
        driver = driver_for(config)
        assert driver.mesh == MeshConfig(rounds_per_cycle=16)


class TestServiceConfig:
    def test_needs_campaigns(self):
        with pytest.raises(ValueError, match="at least one campaign"):
            ServiceConfig(campaigns=())

    def test_rejects_duplicate_names(self):
        with pytest.raises(ValueError, match="duplicate campaign names"):
            ServiceConfig(
                campaigns=(CampaignConfig(name="m"), CampaignConfig(name="m"))
            )

    @pytest.mark.parametrize(
        "kwargs",
        [{"time_scale": 0}, {"live_interval_s": 0}, {"drain_after_s": 0}]
        + [
            {field: value}
            for field in ("time_scale", "live_interval_s", "drain_after_s",
                          "drain_grace_s")
            for value in (math.nan, math.inf)
        ],
    )
    def test_rejects_nonpositive_knobs(self, kwargs):
        with pytest.raises(ValueError):
            ServiceConfig(campaigns=(CampaignConfig(name="m"),), **kwargs)


class TestServiceConfigFromDict:
    def test_full_document(self):
        config = service_config_from_dict(
            {
                "campaigns": [
                    {
                        "name": "mesh",
                        "cycles": 2,
                        "mesh": {"pairs": 1024, "block_pairs": 256},
                    },
                    {"name": "slow", "kind": "mesh", "cadence_s": 900},
                ],
                "time_scale": 0.01,
                "port": 0,
            }
        )
        assert [c.name for c in config.campaigns] == ["mesh", "slow"]
        assert config.campaigns[0].mesh == MeshConfig(pairs=1024, block_pairs=256)
        assert config.time_scale == 0.01

    def test_mesh_document_takes_the_campaign_rounds(self):
        config = service_config_from_dict(
            {"campaigns": [{"name": "m", "kind": "mesh", "rounds_per_cycle": 16,
                            "mesh": {"pairs": 1000}}]}
        )
        campaign = config.campaigns[0]
        assert campaign.mesh.rounds_per_cycle == 16
        source = driver_for(campaign).source_for_cycle(0).source
        assert source.unit_at(0).columns.rtt_ms.shape == (1000, 16)

    def test_mesh_document_without_campaign_rounds_uses_the_default(self):
        config = service_config_from_dict(
            {"campaigns": [{"name": "m", "mesh": {"pairs": 1000}}]}
        )
        assert config.campaigns[0].mesh.rounds_per_cycle == 8

    def test_mesh_document_rounds_that_disagree_fail(self):
        with pytest.raises(ValueError, match="disagrees"):
            service_config_from_dict(
                {"campaigns": [{"name": "m", "rounds_per_cycle": 4,
                                "mesh": {"pairs": 1000, "rounds_per_cycle": 8}}]}
            )

    @pytest.mark.parametrize("kind", ["trace", "ping"])
    def test_retired_kind_document_fails(self, kind):
        with pytest.raises(ValueError, match=f"kind '{kind}' was retired"):
            service_config_from_dict({"campaigns": [{"name": "p", "kind": kind}]})

    @pytest.mark.parametrize(
        "field",
        ["rounds_per_cycle", "cycles", "shards", "queue_units", "checkpoint_every"],
    )
    def test_non_integer_count_document_fails(self, field):
        # rounds_per_cycle 2.5 once made cycles 0 and 1 both count round 2.
        document = json.loads(f'{{"campaigns": [{{"name": "m", "{field}": 2.5}}]}}')
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            service_config_from_dict(document)

    def test_non_integer_mesh_rounds_document_fails(self):
        document = json.loads(
            '{"campaigns": [{"name": "m", "mesh": {"rounds_per_cycle": 2.5}}]}'
        )
        with pytest.raises(ValueError, match="rounds_per_cycle must be an integer"):
            service_config_from_dict(document)

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_cadence_document_fails(self, literal):
        document = json.loads(
            f'{{"campaigns": [{{"name": "m", "cadence_s": {literal}}}]}}'
        )
        with pytest.raises(ValueError, match="cadence_s must be finite"):
            service_config_from_dict(document)

    @pytest.mark.parametrize(
        "field", ["time_scale", "live_interval_s", "drain_after_s", "drain_grace_s"]
    )
    @pytest.mark.parametrize("literal", ["NaN", "Infinity"])
    def test_non_finite_service_document_fails(self, field, literal):
        document = json.loads(
            f'{{"campaigns": [{{"name": "m"}}], "{field}": {literal}}}'
        )
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            service_config_from_dict(document)

    @pytest.mark.parametrize("field", ["backoff_s", "backoff_ceiling_s"])
    @pytest.mark.parametrize("literal", ["NaN", "Infinity"])
    def test_non_finite_retry_document_fails(self, field, literal):
        document = json.loads(
            f'{{"campaigns": [{{"name": "m", "retry": {{"{field}": {literal}}}}}]}}'
        )
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            service_config_from_dict(document)

    @pytest.mark.parametrize(
        "field",
        ["stall_timeout_s", "poll_s", "restart_backoff_s", "backoff_ceiling_s"],
    )
    @pytest.mark.parametrize("literal", ["NaN", "Infinity"])
    def test_non_finite_supervision_document_fails(self, field, literal):
        document = json.loads(
            f'{{"campaigns": [{{"name": "m"}}], '
            f'"supervision": {{"{field}": {literal}}}}}'
        )
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            service_config_from_dict(document)

    def test_unknown_service_key_fails_loudly(self):
        with pytest.raises(ValueError, match="unknown service keys"):
            service_config_from_dict(
                {"campaigns": [{"name": "m"}], "time_scael": 1.0}
            )

    @pytest.mark.parametrize("key", ["scenario", "seed"])
    def test_platform_world_keys_are_gone(self, key):
        with pytest.raises(ValueError, match="unknown service keys"):
            service_config_from_dict({"campaigns": [{"name": "m"}], key: 0})

    def test_unknown_campaign_key_fails_loudly(self):
        with pytest.raises(ValueError, match="unknown campaign keys"):
            service_config_from_dict({"campaigns": [{"name": "m", "shrads": 2}]})

    def test_unknown_mesh_key_fails_loudly(self):
        with pytest.raises(ValueError, match="unknown mesh keys"):
            service_config_from_dict(
                {"campaigns": [{"name": "m", "mesh": {"pears": 7}}]}
            )

    @pytest.mark.parametrize(
        "payload",
        [[], {"campaigns": {}}, {"campaigns": ["m"]},
         {"campaigns": [{"name": "m", "mesh": 3}]}],
    )
    def test_rejects_malformed_documents(self, payload):
        with pytest.raises(ValueError):
            service_config_from_dict(payload)
