"""Tests for the artifact cache, its build-or-load path and its stage timings."""

from __future__ import annotations

import dataclasses
import enum
import pickle

import numpy as np
import pytest

from repro.harness import engine
from repro.harness.engine import ArtifactCache, config_fingerprint, default_cache_dir
from repro.datasets.longterm import LongTermConfig, build_longterm_dataset
from repro.harness.scenarios import get_scenario
from repro.measurement.platform import MeasurementPlatform, PlatformConfig
from repro.net.ip import IPVersion
from repro.obs.trace import Tracer, use_tracer
from repro.service.checkpoint import campaign_fingerprint
from repro.service.config import CampaignConfig


def _seeded_cache(tmp_path, config):
    """A cache whose platform entry for ``config`` is a cheap stand-in."""
    cache = ArtifactCache(tmp_path)
    cache.store("platform", config_fingerprint("platform", config), "stand-in")
    return cache


def _platform(cache, config):
    """The platform of ``config`` through the cache's build-or-load path."""
    return cache.load_or_build("platform", (config,), lambda: MeasurementPlatform(config))


def _longterm(cache, platform_config, config, builds=None):
    """The long-term dataset through the cache; each build appends to ``builds``."""
    def build():
        if builds is not None:
            builds.append(1)
        return build_longterm_dataset(_platform(cache, platform_config), config)

    return cache.load_or_build("longterm", (platform_config, config), build)


def _closed_span(tracer, name, seconds):
    """A span under the current one, closed with a duration of ``seconds``."""
    with tracer.span(name) as closed:
        pass
    closed.start = closed.end - seconds


class TestTimings:
    """Stage timings are spans on the current tracer, read per root child."""

    def test_stage_context_records(self, tmp_path):
        config = PlatformConfig(seed=5)
        cache = _seeded_cache(tmp_path, config)
        tracer = Tracer()
        with use_tracer(tracer), tracer.span("run"):
            assert _platform(cache, config) == "stand-in"
        stages = tracer.stage_seconds()
        assert list(stages) == ["platform-load"]
        assert stages["platform-load"] >= 0.0

    def test_record_and_total(self):
        from repro.__main__ import render_stage_timings

        tracer = Tracer()
        with tracer.span("run"):
            _closed_span(tracer, "a", 1.5)
            _closed_span(tracer, "b", 0.5)
        assert sum(tracer.stage_seconds().values()) == pytest.approx(2.0)
        assert render_stage_timings(tracer).splitlines()[-1].split() == [
            "total", "2.000s"
        ]

    def test_as_dict_sums_repeats(self):
        tracer = Tracer()
        with tracer.span("run"):
            _closed_span(tracer, "x", 1.0)
            _closed_span(tracer, "y", 2.0)
            _closed_span(tracer, "x", 3.0)
        stages = tracer.stage_seconds()
        assert stages == pytest.approx({"x": 4.0, "y": 2.0})
        # Insertion order of first appearance is preserved.
        assert list(stages) == ["x", "y"]

    def test_as_records_keeps_completion_order(self):
        tracer = Tracer()
        with tracer.span("run"):
            _closed_span(tracer, "x", 1.0)
            _closed_span(tracer, "x", 2.0)
        repeats = [item for item in tracer.spans if item.name == "x"]
        assert [item.duration_seconds for item in repeats] == pytest.approx([1.0, 2.0])
        assert tracer.summary()["x"] == {"count": 2, "seconds": 3.0}

    def test_render_mentions_stages_and_total(self):
        from repro.__main__ import render_stage_timings

        tracer = Tracer()
        with tracer.span("reproduce"):
            _closed_span(tracer, "topology", 0.25)
        lines = render_stage_timings(tracer).splitlines()
        assert lines[0] == "== stage timings =="
        rows = [line.split() for line in lines[3:]]  # below header and rule
        assert rows == [["topology", "0.250s"], ["total", "0.250s"]]

    def test_stage_records_on_exception(self, tmp_path, monkeypatch):
        config = PlatformConfig(seed=5)
        cache = _seeded_cache(tmp_path, config)

        def broken_load(kind, fingerprint):
            raise RuntimeError("disk gone")

        monkeypatch.setattr(cache, "load", broken_load)
        tracer = Tracer()
        with use_tracer(tracer), tracer.span("run") as root:
            with pytest.raises(RuntimeError):
                _platform(cache, config)
            assert tracer.current() is root
        assert all(item.end is not None for item in tracer.spans)
        assert list(tracer.stage_seconds()) == ["platform-load"]


class TestFingerprint:
    def test_equal_configs_equal_fingerprint(self):
        a = PlatformConfig(seed=3, cluster_count=8)
        b = PlatformConfig(seed=3, cluster_count=8)
        assert config_fingerprint("platform", a) == config_fingerprint("platform", b)

    def test_seed_changes_fingerprint(self):
        a = PlatformConfig(seed=3)
        b = PlatformConfig(seed=4)
        assert config_fingerprint("platform", a) != config_fingerprint("platform", b)

    def test_nested_field_changes_fingerprint(self):
        a = PlatformConfig(seed=3)
        b = PlatformConfig(seed=3)
        b.congestion = dataclasses.replace(b.congestion, anchor_fraction=0.9)
        assert config_fingerprint("platform", a) != config_fingerprint("platform", b)

    def test_kind_separates_namespaces(self):
        config = PlatformConfig(seed=3)
        assert config_fingerprint("platform", config) != config_fingerprint(
            "longterm", config
        )


class TestArtifactCache:
    def test_roundtrip(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        payload = {"answer": 42, "array": np.arange(5)}
        cache.store("demo", "abc123", payload)
        loaded = cache.load("demo", "abc123")
        assert loaded["answer"] == 42
        assert np.array_equal(loaded["array"], payload["array"])

    def test_miss_returns_none(self, tmp_path):
        assert ArtifactCache(tmp_path).load("demo", "missing") is None

    @pytest.mark.parametrize(
        "garbage",
        [b"this is not a pickle", b"garbage\n", b"", b"\x80\x05"],
        ids=["text", "get-opcode", "empty", "truncated"],
    )
    def test_corrupt_entry_reads_as_miss_and_is_removed(self, tmp_path, garbage):
        cache = ArtifactCache(tmp_path)
        path = cache.path("demo", "bad")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(garbage)
        assert cache.load("demo", "bad") is None
        assert not path.exists()

    def test_clear_removes_entries(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.store("demo", "one", 1)
        cache.store("demo", "two", 2)
        assert cache.clear() == 2
        assert cache.load("demo", "one") is None

    def test_clear_removes_entries_of_every_layout_version(self, tmp_path, monkeypatch):
        cache = ArtifactCache(tmp_path)
        with monkeypatch.context() as patch:
            patch.setattr(engine, "CACHE_SCHEMA_VERSION", 1)
            old = cache.store("demo", "one", 1)
        current = cache.store("demo", "one", 1)
        # The cache directory may be shared: only v<N>/ directories are its own.
        foreign = tmp_path / "vendor" / "x.pkl"
        foreign.parent.mkdir()
        foreign.write_bytes(b"not ours")
        assert old.parent.name == "v1" and current.parent.name != "v1"
        assert cache.clear() == 2
        assert not old.exists() and not current.exists()
        assert foreign.read_bytes() == b"not ours"

    def test_layout_version_moves_the_path_not_the_fingerprints(self, tmp_path, monkeypatch):
        # The layout version names the directory only: a bump orphans
        # cache entries but leaves every fingerprint, and with it every
        # campaign checkpoint, as it was.
        config = PlatformConfig(seed=3)
        cache = ArtifactCache(tmp_path)

        def keys():
            return (config_fingerprint("platform", config),
                    campaign_fingerprint(CampaignConfig(name="m")),
                    cache.path("platform", "abc"))

        fingerprint, campaign, path = keys()
        cache.store("platform", fingerprint, "old layout")
        monkeypatch.setattr(engine, "CACHE_SCHEMA_VERSION", engine.CACHE_SCHEMA_VERSION + 1)
        bumped_fingerprint, bumped_campaign, bumped_path = keys()
        assert (bumped_fingerprint, bumped_campaign) == (fingerprint, campaign)
        assert bumped_path != path and bumped_path.name == path.name
        assert cache.load("platform", fingerprint) is None
        assert cache.load_or_build("platform", (config,), lambda: "rebuilt") == "rebuilt"

    def test_corrupt_entry_is_rebuilt_and_stored_again(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        path = cache.path("demo", config_fingerprint("demo", 7))
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"garbage")
        assert cache.load_or_build("demo", (7,), lambda: "rebuilt") == "rebuilt"
        assert cache.load_or_build("demo", (7,), lambda: "not again") == "rebuilt"

    def test_default_cache_dir_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "elsewhere"))
        assert default_cache_dir() == tmp_path / "elsewhere"

    def test_outcomes_are_counted(self, tmp_path):
        from repro.obs.metrics import get_registry

        registry = get_registry()
        registry.reset()
        cache = ArtifactCache(tmp_path)
        cache.load("demo", "nothing")          # miss
        cache.store("demo", "abc", [1, 2])     # store
        cache.load("demo", "abc")              # hit
        bad = cache.path("demo", "bad")
        bad.write_bytes(b"garbage")
        cache.load("demo", "bad")              # corrupt
        counters = registry.snapshot()["counters"]
        registry.reset()
        assert counters["cache.miss"] == 1
        assert counters["cache.store"] == 1
        assert counters["cache.hit"] == 1
        assert counters["cache.corrupt"] == 1


@pytest.fixture(scope="module")
def tiny_config():
    return PlatformConfig(seed=21, cluster_count=6, duration_hours=24.0)


class TestLoadOrBuild:
    def test_platform_miss_then_hit(self, tmp_path, tiny_config):
        cache = ArtifactCache(tmp_path)
        miss, hit = Tracer(), Tracer()
        with use_tracer(miss):
            built = _platform(cache, tiny_config)
        with use_tracer(hit):
            loaded = _platform(cache, tiny_config)
        assert loaded is not built
        assert [s.server_id for s in loaded.measurement_servers()] == [
            s.server_id for s in built.measurement_servers()
        ]
        assert [span.name for span in miss.roots()] == [
            "platform-load", "topology", "addressing", "routers", "cdn",
            "routing", "dynamics", "congestion", "platform-store",
        ]
        assert [span.name for span in hit.roots()] == ["platform-load"]

    def test_longterm_miss_then_hit_bit_identical(self, tmp_path, tiny_config):
        cache = ArtifactCache(tmp_path)
        config = LongTermConfig(days=1.0)
        builds = []
        built = _longterm(cache, tiny_config, config, builds)
        loaded = _longterm(cache, tiny_config, config, builds)
        assert len(builds) == 1
        assert list(built.timelines) == list(loaded.timelines)
        for key, expected in built.timelines.items():
            actual = loaded.timelines[key]
            assert np.array_equal(expected.rtt_ms, actual.rtt_ms, equal_nan=True)
            assert np.array_equal(expected.path_id, actual.path_id)
            assert expected.paths == actual.paths

    @pytest.fixture
    def longterm_built_and_loaded(self, tmp_path, tiny_config):
        cache = ArtifactCache(tmp_path)
        config = LongTermConfig(days=1.0)
        builds = []
        built = _longterm(cache, tiny_config, config, builds)
        loaded = _longterm(cache, tiny_config, config, builds)
        assert len(builds) == 1
        return built, loaded

    def test_longterm_hit_keeps_grid_outcomes_and_candidate_runs(
        self, longterm_built_and_loaded
    ):
        # The cache's pickle is the one on-disk form of a dataset, so it
        # must carry every column an analysis reads, byte for byte.
        built, loaded = longterm_built_and_loaded
        assert loaded.grid == built.grid
        for key, expected in built.timelines.items():
            actual = loaded.timelines[key]
            assert actual.outcome.tobytes() == expected.outcome.tobytes()
            assert actual.path_id.dtype == expected.path_id.dtype
            for held, reference in zip(actual.candidate_runs(), expected.candidate_runs()):
                assert held.tobytes() == reference.tobytes()

    def test_longterm_hit_analyzes_like_the_build(self, longterm_built_and_loaded):
        from repro.core.routechange import analyze_timeline

        built, loaded = longterm_built_and_loaded
        assert built.timelines
        for key, expected in built.timelines.items():
            assert analyze_timeline(loaded.timelines[key]) == analyze_timeline(expected)

    def test_unpickled_platform_realizes_every_candidate_identically(self, tmp_path):
        config = get_scenario("default").platform_config(0)
        cache = ArtifactCache(tmp_path)
        built = _platform(cache, config)
        loaded = cache.load_or_build(
            "platform", (config,), lambda: pytest.fail("expected a cache hit")
        )
        assert loaded is not built
        # The pickle carries the AS-step memo the build filled.
        assert loaded._steps.keys() == built._steps.keys()
        realized = 0
        for src, dst in built.server_pairs():
            for version in (IPVersion.V4, IPVersion.V6):
                for index in range(len(built.candidates(src.asn, dst.asn, version))):
                    want = built.realization(src, dst, version, index)
                    assert loaded.realization(src, dst, version, index) == want
                    realized += want is not None
        assert realized > 1000

    def test_clear_forces_rebuild(self, tmp_path, tiny_config):
        # The --refresh-cache path: clear the store, then the next call misses.
        cache = ArtifactCache(tmp_path)
        _platform(cache, tiny_config)
        assert cache.clear() == 1
        tracer = Tracer()
        with use_tracer(tracer):
            _platform(cache, tiny_config)
        assert [span.name for span in tracer.roots()][-1] == "platform-store"


def _pickled_layout(*roots):
    """Every package class reachable from ``roots``'s pickles, with the names it pickles."""
    layout = {}
    seen = set()
    stack = list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
            continue
        if isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
            continue
        if not type(obj).__module__.startswith("repro.") or isinstance(obj, enum.Enum):
            continue
        state = obj.__reduce_ex__(pickle.HIGHEST_PROTOCOL)[2]
        parts = state if isinstance(state, tuple) else (state,)
        fields = {}
        for part in parts:
            fields.update(part or {})
        name = f"{type(obj).__module__}.{type(obj).__qualname__}"
        layout.setdefault(name, set()).update(fields)
        stack.extend(fields.values())
    return {name: tuple(sorted(fields)) for name, fields in sorted(layout.items())}


# What the cached artifacts pickle, class by class, at this layout version.
# A change to any of it must bump CACHE_SCHEMA_VERSION: unpickling has no
# compatibility branch, so an older entry read under the same version
# would load into a half-filled object instead of reading as a miss.
PICKLED_LAYOUT_VERSION = 2
PICKLED_LAYOUT = {
    "repro.datasets.longterm.LongTermDataset": ("grid", "servers", "timelines"),
    "repro.datasets.timeline.TraceTimeline": (
        "_candidate_bounds", "_candidate_values", "dst_server_id", "outcome", "path_id",
        "paths", "rtt_ms", "src_server_id", "times_hours", "version",
    ),
    "repro.measurement.congestionmodel.CongestionConfig": (
        "anchor_fraction", "anchor_min_duration_days", "anchor_popularity_halflife",
        "anchor_start_range_hours", "episode_duration_median_days",
        "episode_duration_sigma", "episodes_range", "fraction_inter_congested",
        "fraction_intra_congested", "peak_local_hour_range", "peer_weight_multiplier",
        "popularity_bias_inter", "regional_amplitude_median",
        "regional_amplitude_sigma", "transcontinental_amplitude_median",
        "transcontinental_amplitude_sigma", "transcontinental_km",
        "transcontinental_weight", "us_amplitude_median", "us_amplitude_sigma",
        "width_hours_range",
    ),
    "repro.measurement.congestionmodel.CongestionEvent": (
        "amplitude_ms", "end_hour", "longitude", "peak_local_hour", "start_hour",
        "width_hours",
    ),
    "repro.measurement.congestionmodel.CongestionSchedule": ("events",),
    "repro.measurement.platform.MeasurementPlatform": (
        "_base_rtts", "_measured_as_pairs_cache", "_realizations",
        "_server_pairs_cache", "_steps", "cdn", "config", "congestion", "delay_model",
        "engine", "graph", "plan", "schedules", "tables", "topology",
    ),
    "repro.measurement.platform.PlatformConfig": (
        "addressing", "artifacts", "cluster_count", "congestion", "delay",
        "dual_stack_fraction", "duration_hours", "dynamics", "max_alternatives",
        "paris_adoption_fraction", "seed", "servers_per_cluster", "topology",
    ),
    "repro.measurement.realization.HopSpec": (
        "address", "city", "distance_km", "is_destination", "mapped_asn", "owner",
        "respond_probability", "segment_key",
    ),
    "repro.measurement.realization.PathRealization": (
        "as_path", "dst_server_id", "hops", "load_balanced", "observed_path_complete",
        "src_server_id", "version",
    ),
    "repro.measurement.rttmodel.DelayModel": ("_stretch_cache", "params"),
    "repro.measurement.rttmodel.DelayParams": (
        "ipv6_noise_factor", "min_segment_one_way_ms", "noise_scale_ms", "noise_shape",
        "per_hop_processing_ms", "spike_mean_ms", "spike_probability", "stretch_max",
        "stretch_min",
    ),
    "repro.measurement.scheduler.CampaignGrid": (
        "period_hours", "rounds", "start_hour",
    ),
    "repro.measurement.traceroute.ArtifactParams": (
        "incomplete_probability", "loop_probability_classic",
        "loop_probability_classic_lb", "loop_probability_classic_lb_v6",
        "loop_probability_paris",
    ),
    "repro.measurement.traceroute.TracerouteEngine": (
        "artifacts", "congestion", "delay_model",
    ),
    "repro.net.asn.RelationshipTable": ("_neighbors", "_relations"),
    "repro.net.geo.GeoLocation": (
        "city", "continent", "country", "latitude", "longitude",
    ),
    "repro.net.ip.IPAddress": ("value", "version"),
    "repro.net.prefix.Prefix": ("length", "network", "version"),
    "repro.net.prefix.PrefixTrie": ("_root", "_size", "version"),
    "repro.net.prefix._Node": ("children", "has_payload", "payload"),
    "repro.routing.dynamics.EdgeOutage": ("edge", "end_hour", "start_hour"),
    "repro.routing.dynamics.PairFlap": ("end_hour", "pair", "start_hour"),
    "repro.routing.dynamics.PathEpoch": ("candidate_index", "end_hour", "start_hour"),
    "repro.routing.dynamics.RoutingDynamicsConfig": (
        "duration_mixture", "edge_rate_sigma", "flap_duration_median_hours",
        "flap_duration_sigma", "flaps_per_pair_per_month",
        "mean_outages_per_edge_per_month",
    ),
    "repro.routing.dynamics.RoutingSchedule": (
        "duration_hours", "flaps", "outages", "timelines",
    ),
    "repro.routing.table.CandidateRoute": (
        "edges", "path", "rank", "route_class", "tier", "via",
    ),
    "repro.routing.table.RouteTable": ("candidates", "version"),
    "repro.topology.addressing.ASAddressing": (
        "announced_v4", "announced_v6", "asn", "infra_v4", "infra_v6",
    ),
    "repro.topology.addressing.AddressPlan": (
        "_host_counters", "_link_counters", "_origin_cache", "bgp_v4", "bgp_v6",
        "config", "ixp_lan_announced", "ixp_lan_v4", "ixp_lan_v6", "per_as",
    ),
    "repro.topology.addressing.AddressingConfig": (
        "ixp_lan_announced_probability", "link_unannounced_probability_v4",
        "link_unannounced_probability_v6",
    ),
    "repro.topology.cdn.CDNDeployment": ("_by_address", "clusters", "servers"),
    "repro.topology.cdn.Cluster": ("asn", "city", "cluster_id", "servers"),
    "repro.topology.cdn.Server": (
        "asn", "city", "cluster_id", "ipv4", "ipv6", "server_id",
    ),
    "repro.topology.generator.ASGraph": (
        "ases", "edge_ipv6", "edge_ixp", "edge_media", "ixps", "relationships",
    ),
    "repro.topology.generator.AutonomousSystem": (
        "asn", "cities", "ipv6_capable", "tier",
    ),
    "repro.topology.generator.IXPDescriptor": ("city", "ixp_id", "members"),
    "repro.topology.generator.TopologyConfig": (
        "edge_ipv6_probability", "first_asn", "ipv6_capable_probability", "ixp_count",
        "ixp_member_probability", "ixp_public_peer_probability", "n_stub", "n_tier1",
        "n_transit", "stub_cities", "stub_peer_probability", "stub_providers",
        "tier1_cities", "transit_cities", "transit_peer_probability",
        "transit_providers",
    ),
    "repro.topology.routers.InterdomainLink": (
        "asn_a", "asn_b", "interface_a_v4", "interface_a_v6", "interface_b_v4",
        "interface_b_v6", "link_id", "medium", "router_a", "router_b", "subnet_owner",
        "subnet_v4", "subnet_v6",
    ),
    "repro.topology.routers.Interface": ("address", "owner", "router_id"),
    "repro.topology.routers.Router": (
        "city", "owner", "respond_probability", "router_id",
    ),
    "repro.topology.routers.RouterTopology": (
        "border", "core", "interfaces", "internal_v4", "internal_v6", "links",
        "routers",
    ),
}


def test_pickled_layout_is_pinned_to_the_layout_version(tiny_config):
    platform = MeasurementPlatform(tiny_config)
    dataset = build_longterm_dataset(platform, LongTermConfig(days=1.0))
    layout = _pickled_layout(platform, dataset)
    assert (engine.CACHE_SCHEMA_VERSION, layout) == (PICKLED_LAYOUT_VERSION, PICKLED_LAYOUT), (
        "a cached class changed what it pickles: bump CACHE_SCHEMA_VERSION "
        "and re-pin PICKLED_LAYOUT_VERSION and PICKLED_LAYOUT"
    )
