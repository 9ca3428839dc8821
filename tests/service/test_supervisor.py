"""Tests for the asyncio supervisor and its HTTP control surface."""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.obs import live as obs_live
from repro.service.api import CAMPAIGNS_SCHEMA
from repro.service.config import CampaignConfig, ServiceConfig
from repro.service.supervisor import ServiceSupervisor
from repro.stream.mesh import MeshConfig

MESH = MeshConfig(pairs=512, block_pairs=128)


def _service_config(tmp_path, campaigns, **overrides):
    fields = dict(
        campaigns=tuple(campaigns),
        checkpoint_dir=str(tmp_path / "state"),
        time_scale=0.001,
        port=0,
    )
    fields.update(overrides)
    return ServiceConfig(**fields)


def _mesh(name, **overrides):
    fields = dict(
        name=name, kind="mesh", cadence_s=60.0, cycles=2,
        rounds_per_cycle=8, checkpoint_every=2, mesh=MESH,
    )
    fields.update(overrides)
    return CampaignConfig(**fields)


def _get(url):
    with urllib.request.urlopen(url, timeout=5) as response:
        return response.status, json.loads(response.read())


def _post(url):
    request = urllib.request.Request(url, method="POST")
    with urllib.request.urlopen(request, timeout=5) as response:
        return response.status, json.loads(response.read())


class TestSupervisorRun:
    def test_two_campaigns_run_to_done(self, tmp_path):
        config = _service_config(tmp_path, [_mesh("a"), _mesh("b", cycles=3)])
        supervisor = ServiceSupervisor(config, serve=False)
        outcomes = supervisor.run()
        assert outcomes == {"a": "done", "b": "done"}
        assert supervisor.campaign("a").results_path.exists()
        assert supervisor.campaign("b").results["cycles"] == 3

    def test_drain_after_deadline_drains_everything(self, tmp_path):
        config = _service_config(
            tmp_path,
            [_mesh("slow", cycles=1000, cadence_s=0.05)],
            time_scale=1.0,
            drain_after_s=0.4,
        )
        supervisor = ServiceSupervisor(config, serve=False)
        outcomes = supervisor.run()
        assert outcomes == {"slow": "drained"}
        assert supervisor.draining
        assert supervisor.campaign("slow").store.load() is not None

    def test_restart_resumes_and_matches_uninterrupted(self, tmp_path):
        reference = _service_config(
            tmp_path / "ref", [_mesh("m", cycles=4)]
        )
        ServiceSupervisor(reference, serve=False).run()

        interrupted = _service_config(tmp_path / "live", [_mesh("m", cycles=4)])
        first = ServiceSupervisor(interrupted, serve=False)
        timer = threading.Timer(0.15, first.request_drain)
        timer.start()
        try:
            first.run()
        finally:
            timer.cancel()

        second = ServiceSupervisor(interrupted, serve=False)
        assert second.run() == {"m": "done"}
        assert (
            second.campaign("m").results_path.read_bytes()
            == ServiceSupervisor(reference, serve=False)
            .campaign("m")
            .results_path.read_bytes()
        )

    def test_status_board_reports_campaigns(self, tmp_path):
        config = _service_config(tmp_path, [_mesh("a")])
        ServiceSupervisor(config, serve=False).run()
        board = obs_live.get_status().as_dict()["campaigns"]
        assert [row["name"] for row in board] == ["a"]
        assert board[0]["state"] == "done"
        assert board[0]["cycle"] == 2


class TestDegradedCampaigns:
    def test_hung_cycle_races_drain_deadline_and_degrades(self, tmp_path):
        """A cycle that never returns must not block the drain deadline.

        The drain fires while the cycle hangs on the executor; after
        ``drain_grace_s`` the supervisor abandons the thread, parks the
        campaign as degraded, and still exits cleanly.
        """
        config = _service_config(
            tmp_path,
            [_mesh("hang", cycles=5, cadence_s=0.05)],
            time_scale=1.0,
            drain_after_s=0.2,
            drain_grace_s=0.2,
        )
        supervisor = ServiceSupervisor(config, serve=False)
        release = threading.Event()
        campaign = supervisor.campaign("hang")

        def hung_cycle():
            release.wait()
            return "completed"

        campaign.run_cycle = hung_cycle
        try:
            outcomes = supervisor.run()
        finally:
            release.set()  # unhang the fake so the executor thread exits
        assert outcomes == {"hang": "degraded"}
        assert campaign.state == "degraded"
        board = obs_live.get_status().as_dict()["campaigns"]
        assert board[0]["state"] == "degraded"
        assert board[0]["reason"] == "hung-cycle"

    def test_crash_loop_parks_campaign_as_degraded(self, tmp_path):
        from repro.faults.plane import RetryPolicy
        from repro.obs.metrics import get_registry

        retry = RetryPolicy(
            max_attempts=2, backoff_s=0.01, backoff_ceiling_s=0.02
        )
        config = _service_config(
            tmp_path, [_mesh("sick", retry=retry), _mesh("ok")]
        )
        supervisor = ServiceSupervisor(config, serve=False)
        sick = supervisor.campaign("sick")

        def failing_cycle():
            raise RuntimeError("boom")

        sick.run_cycle = failing_cycle
        outcomes = supervisor.run()
        # The crash-looping campaign degrades; its sibling still finishes.
        assert outcomes == {"sick": "degraded", "ok": "done"}
        assert sick.state == "degraded"
        registry = get_registry()
        assert registry.counter(
            "service.cycle_failures{campaign=sick}"
        ).value == 2
        assert registry.counter("campaign.degraded").value >= 1

    def test_degraded_campaign_visible_via_campaigns_route(self, tmp_path):
        config = _service_config(tmp_path, [_mesh("deg")])
        supervisor = ServiceSupervisor(config, serve=False)
        campaign = supervisor.campaign("deg")
        campaign.mark_degraded("crash-loop: 3 consecutive cycle failures")
        from repro.service.api import ServiceAPI

        class _Routes:
            def add_route(self, *args):
                pass

        payload = ServiceAPI(supervisor, _Routes()).campaigns_payload()
        (row,) = payload["campaigns"]
        assert row["state"] == "degraded"
        assert row["reason"].startswith("crash-loop")


class TestControlAPI:
    @pytest.fixture
    def running_service(self, tmp_path):
        """A served supervisor mid-run, paused so requests see it live."""
        config = _service_config(
            tmp_path,
            [_mesh("mesh-a", cycles=500, cadence_s=0.05)],
            time_scale=1.0,
        )
        supervisor = ServiceSupervisor(config)
        supervisor.campaign("mesh-a").pause()
        thread = threading.Thread(target=supervisor.run, daemon=True)
        thread.start()
        deadline = time.monotonic() + 10
        while supervisor.server is None or supervisor.server.url is None:
            assert time.monotonic() < deadline, "server never came up"
            time.sleep(0.01)
        yield supervisor
        supervisor.request_drain("test-teardown")
        thread.join(timeout=10)
        assert not thread.is_alive()

    def test_campaigns_document(self, running_service):
        status, payload = _get(f"{running_service.server.url}/campaigns")
        assert status == 200
        assert payload["schema"] == CAMPAIGNS_SCHEMA
        assert payload["draining"] is False
        assert payload["uptime_s"] >= 0
        (row,) = payload["campaigns"]
        assert row["name"] == "mesh-a"
        assert row["kind"] == "mesh"
        assert row["paused"] is True
        assert row["fingerprint"]
        assert row["shards"] == 1

    def test_pause_resume_roundtrip(self, running_service):
        url = running_service.server.url
        status, payload = _post(f"{url}/campaigns/mesh-a/resume")
        assert (status, payload["paused"]) == (200, False)
        assert not running_service.campaign("mesh-a").paused
        status, payload = _post(f"{url}/campaigns/mesh-a/pause")
        assert (status, payload["paused"]) == (200, True)
        assert running_service.campaign("mesh-a").paused

    def test_unknown_route_is_404(self, running_service):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(f"{running_service.server.url}/campaigns/nope/pause")
        assert excinfo.value.code == 404

    def test_drain_route_stops_the_service(self, running_service):
        status, payload = _post(f"{running_service.server.url}/drain")
        assert (status, payload["draining"]) == (202, True)
        assert running_service.draining
