"""Tests for the service/campaign config shapes and the JSON loader."""

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
    def test_rejects_mesh_block_on_platform_kind(self, kind):
        with pytest.raises(ValueError, match="needs kind 'mesh'"):
            CampaignConfig(name="m", kind=kind, mesh=MeshConfig(pairs=1000))

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
        [{"time_scale": 0}, {"live_interval_s": 0}, {"drain_after_s": 0}],
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
                    {"name": "pings", "kind": "ping", "cadence_s": 900},
                ],
                "scenario": "small",
                "time_scale": 0.01,
                "port": 0,
            }
        )
        assert [c.name for c in config.campaigns] == ["mesh", "pings"]
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

    def test_mesh_document_on_ping_campaign_fails(self):
        with pytest.raises(ValueError, match="needs kind 'mesh'"):
            service_config_from_dict(
                {"campaigns": [{"name": "p", "kind": "ping",
                                "mesh": {"pairs": 1000}}]}
            )

    def test_unknown_service_key_fails_loudly(self):
        with pytest.raises(ValueError, match="unknown service keys"):
            service_config_from_dict(
                {"campaigns": [{"name": "m"}], "time_scael": 1.0}
            )

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
