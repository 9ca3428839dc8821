"""Tests for the campaign config shape."""

import dataclasses
import math

import pytest

from repro.service.campaign import driver_for
from repro.service.config import CampaignConfig
from repro.stream.mesh import MeshConfig

COUNT_FIELDS = (
    "rounds_per_cycle", "cycles", "shards", "queue_units", "checkpoint_every",
)


class TestCampaignConfig:
    def test_defaults(self):
        config = CampaignConfig(name="mesh")
        assert config.kind == "mesh"
        assert config.shards == 1

    @pytest.mark.parametrize("name", ["", "has space", "has/slash", "a{b}"])
    def test_rejects_unroutable_names(self, name):
        with pytest.raises(ValueError, match="invalid campaign name"):
            CampaignConfig(name=name)

    @pytest.mark.parametrize("name", ["m", "mesh-1", "a_b.c", "Mesh7"])
    def test_accepts_routable_names(self, name):
        assert CampaignConfig(name=name).name == name

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
            {"rounds_per_cycle": True},
            {"cycles": True},
            {"shards": True},
            {"queue_units": True},
            {"checkpoint_every": True},
        ],
    )
    def test_rejects_nonpositive_knobs(self, kwargs):
        with pytest.raises(ValueError):
            CampaignConfig(name="m", **kwargs)

    @pytest.mark.parametrize("value", [-1, False, "4", 4.0])
    @pytest.mark.parametrize("field", COUNT_FIELDS)
    def test_rejects_counts_that_are_not_positive_integers(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer >= 1"):
            CampaignConfig(name="m", **{field: value})

    @pytest.mark.parametrize("field", COUNT_FIELDS)
    def test_accepts_a_count_of_one(self, field):
        assert getattr(CampaignConfig(name="m", **{field: 1}), field) == 1

    @pytest.mark.parametrize("value", [-math.inf, -1.0, -0.0, True, "900"])
    def test_rejects_cadences_that_are_not_positive_finite_seconds(self, value):
        with pytest.raises(ValueError, match="cadence_s must be finite"):
            CampaignConfig(name="m", cadence_s=value)

    def test_accepts_an_integer_cadence(self):
        assert CampaignConfig(name="m", cadence_s=60).cadence_s == 60

    def test_is_frozen(self):
        config = CampaignConfig(name="m")
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.shards = 2

    def test_accepts_mesh_rounds_that_agree(self):
        mesh = MeshConfig(pairs=1000, rounds_per_cycle=16)
        config = CampaignConfig(name="m", rounds_per_cycle=16, mesh=mesh)
        assert driver_for(config).mesh is mesh

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

    @pytest.mark.parametrize("kind", ["", "MESH", "mesh ", "traceroute"])
    def test_rejects_kinds_that_are_neither_mesh_nor_retired(self, kind):
        with pytest.raises(ValueError, match="unknown campaign kind"):
            CampaignConfig(name="m", kind=kind)

    @pytest.mark.parametrize("retry", [0, 3, False, "none", {}])
    def test_rejects_every_retry_value_but_none(self, retry):
        with pytest.raises(ValueError, match="retry must be None"):
            CampaignConfig(name="m", retry=retry)

    def test_rejects_a_retry_policy(self):
        with pytest.raises(ValueError, match="retry must be None"):
            CampaignConfig(name="m", retry={"max_attempts": 3})

    def test_mesh_driver_falls_back_to_the_campaign_rounds(self):
        config = CampaignConfig(name="m", rounds_per_cycle=16)
        driver = driver_for(config)
        assert driver.mesh == MeshConfig(rounds_per_cycle=16)
