"""Tests for the per-figure experiment drivers on the session platform."""

import pickle

import numpy as np
import pytest

from repro.core.congestion import CongestionDetector
from repro.datasets.longterm import LongTermConfig, build_longterm_dataset
from repro.datasets.shortterm import ShortTermTraceDataset
from repro.harness import experiments
from repro.harness.experiments import (
    EXPERIMENTS,
    ExperimentResult,
    experiment_congestion_norm,
    experiment_fig1,
    experiment_fig2,
    experiment_fig3,
    experiment_fig4,
    experiment_fig5,
    experiment_fig6,
    experiment_fig9,
    experiment_fig10a,
    experiment_fig10b,
    experiment_link_classification,
    experiment_localization,
    experiment_table1,
    run_all_experiments,
)
from repro.net.ip import IPVersion


class TestExperimentShape:
    """Every driver returns metrics and a renderable report."""

    @pytest.fixture(scope="class")
    def results(self, platform, longterm, ping_dataset, trace_dataset):
        return [
            experiment_table1(longterm),
            experiment_fig1(platform, longterm),
            experiment_fig2(longterm),
            experiment_fig3(longterm),
            experiment_fig4(longterm),
            experiment_fig5(longterm),
            experiment_fig6(longterm),
            experiment_congestion_norm(ping_dataset),
            experiment_localization(trace_dataset, platform),
            experiment_link_classification(trace_dataset, platform),
            experiment_fig9(trace_dataset, platform),
            experiment_fig10a(longterm),
            experiment_fig10b(longterm),
        ]

    def test_all_render(self, results):
        for result in results:
            text = result.render()
            assert result.experiment_id in text
            assert "paper" in text and "measured" in text

    def test_metric_lookup(self, results):
        table1 = results[0]
        metric = table1.metric("complete AS-level v4")
        assert metric.paper == pytest.approx(70.30)
        with pytest.raises(KeyError):
            table1.metric("nonexistent")

    def test_unique_ids(self, results):
        ids = [result.experiment_id for result in results]
        assert len(ids) == len(set(ids))


class TestSubstance:
    def test_table1_fractions_finite(self, longterm):
        result = experiment_table1(longterm)
        for metric in result.metrics:
            assert np.isfinite(metric.measured)

    def test_fig2_counts_positive(self, longterm):
        result = experiment_fig2(longterm)
        assert result.metric("paths/timeline p80 v4").measured >= 1

    def test_fig3_dominance(self, longterm):
        result = experiment_fig3(longterm)
        dominant = result.metric(
            "timelines with dominant path (prev>=50%) v4"
        ).measured
        assert 50.0 <= dominant <= 100.0

    def test_fig4_has_heatmap(self, longterm):
        result = experiment_fig4(longterm)
        assert "RTT increase over best path" in result.report

    def test_fig10a_band_sensible(self, longterm):
        result = experiment_fig10a(longterm)
        band = result.metric("traceroutes with |RTTv4-RTTv6| <= 10ms").measured
        assert 10.0 <= band <= 100.0

    def test_fig10b_inflation_physical(self, longterm):
        result = experiment_fig10b(longterm)
        assert result.metric("median inflation v4").measured > 1.4

    def test_congestion_not_the_norm(self, ping_dataset):
        result = experiment_congestion_norm(ping_dataset)
        congested = result.metric("pairs with strong diurnal + spread v4").measured
        assert congested < 30.0  # a small minority, as the paper concludes


class TestExperimentTable:
    def test_drivers_call_the_module_functions_with_their_declared_inputs(
        self, monkeypatch
    ):
        calls = []

        def fake(attr):
            def run(*args, **kwargs):
                calls.append((attr, args, kwargs))
                return ExperimentResult(attr, "fake")
            return run

        for attr in [name for name in vars(experiments) if name.startswith("experiment_")]:
            monkeypatch.setattr(experiments, attr, fake(attr))
        results = run_all_experiments("platform", "longterm", "pings", "traces", jobs=3)
        assert [result.experiment_id for result in results] == [c[0] for c in calls]
        assert calls == [
            ("experiment_table1", ("longterm",), {}),
            ("experiment_fig1", ("platform", "longterm"), {}),
            ("experiment_fig2", ("longterm",), {}),
            ("experiment_fig3", ("longterm",), {}),
            ("experiment_fig4", ("longterm",), {}),
            ("experiment_fig5", ("longterm",), {}),
            ("experiment_fig6", ("longterm",), {}),
            ("experiment_fig7", ("platform",), {"jobs": 3}),
            ("experiment_congestion_norm", ("pings",), {}),
            ("experiment_localization", ("traces", "platform"), {}),
            ("experiment_link_classification", ("traces", "platform"), {}),
            ("experiment_fig9", ("traces", "platform"), {}),
            ("experiment_fig10a", ("longterm",), {}),
            ("experiment_fig10b", ("longterm",), {}),
            ("experiment_loss", ("pings",), {}),
            ("experiment_sharedinfra", ("longterm",), {}),
        ]
        # Each row declares exactly the datasets its driver passes on.
        for name, (_, args, _) in zip(EXPERIMENTS, calls):
            assert set(EXPERIMENTS[name].inputs) == set(args) - {"platform"}


class TestPickleLayout:
    """Analyses cache derived products on timelines, never in their pickles."""

    def test_experiments_leave_dataset_pickles_unchanged(
        self, platform, ping_dataset, trace_dataset
    ):
        longterm = build_longterm_dataset(platform, LongTermConfig(days=60))
        datasets = (longterm, ping_dataset, trace_dataset)
        before = [pickle.dumps(d, protocol=pickle.HIGHEST_PROTOCOL) for d in datasets]
        results = run_all_experiments(
            platform, longterm, ping_dataset, trace_dataset, include_fig7=False
        )
        assert len(results) == 15
        after = [pickle.dumps(d, protocol=pickle.HIGHEST_PROTOCOL) for d in datasets]
        assert after == before

    def test_ping_verdict_memo_stays_out_of_the_ping_pickle(
        self, platform, longterm, ping_dataset, trace_dataset
    ):
        before = pickle.dumps(ping_dataset, protocol=pickle.HIGHEST_PROTOCOL)
        run_all_experiments(
            platform, longterm, ping_dataset, trace_dataset, include_fig7=False
        )
        timelines = list(ping_dataset.timelines.values())
        key = CongestionDetector()._memo_key()
        assert all(key in vars(timeline)["_products"] for timeline in timelines)
        assert pickle.dumps(ping_dataset, protocol=pickle.HIGHEST_PROTOCOL) == before
        restored = pickle.loads(before)
        assert all("_products" not in vars(t) for t in restored.timelines.values())
        assert experiment_congestion_norm(restored).render() == (
            experiment_congestion_norm(ping_dataset).render())

    @pytest.mark.parametrize("name", ["longterm", "ping_dataset", "trace_dataset"])
    def test_key_order_cache_is_not_pickled(self, request, name):
        dataset = request.getfixturevalue(name)
        for version in IPVersion:
            dataset.by_version(version)
        assert getattr(dataset, dataset._KEY_CACHE) is not None
        restored = pickle.loads(pickle.dumps(dataset, protocol=pickle.HIGHEST_PROTOCOL))
        assert getattr(restored, dataset._KEY_CACHE) is None
        pairs = [entry.pair for entry in dataset.by_version(IPVersion.V4)]
        assert [entry.pair for entry in restored.by_version(IPVersion.V4)] == pairs

    def test_restored_dataset_reproduces_reports(self, platform, longterm):
        warm = experiment_fig3(longterm).render()
        restored = pickle.loads(pickle.dumps(longterm, protocol=pickle.HIGHEST_PROTOCOL))
        assert experiment_fig3(restored).render() == warm


class TestOwnershipCache:
    """Ownership is inferred once per (trace corpus, platform) pair."""

    @pytest.fixture
    def traces(self, trace_dataset):
        # A private corpus: the test mutates its entries dict.
        return ShortTermTraceDataset(
            grid=trace_dataset.grid, entries=dict(trace_dataset.entries)
        )

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        infer = experiments.infer_ownership

        def counted(*args, **kwargs):
            calls.append(1)
            return infer(*args, **kwargs)

        monkeypatch.setattr(experiments, "infer_ownership", counted)
        return calls

    def test_inferred_once_and_rebuilt_after_mutation(self, platform, traces, calls):
        link = experiment_link_classification(traces, platform).render()
        fig9 = experiment_fig9(traces, platform).render()
        assert len(calls) == 1
        key = next(iter(traces.entries))
        traces.entries[key] = traces.entries[key]
        assert experiment_fig9(traces, platform).render() == fig9
        assert len(calls) == 2
        assert experiment_link_classification(traces, platform).render() == link
        assert len(calls) == 2

    def test_another_platform_object_gets_its_own_inference(self, traces):
        first, second = object(), object()
        assert traces.corpus_product(first, lambda: "a") == "a"
        assert traces.corpus_product(first, lambda: "b") == "a"
        assert traces.corpus_product(second, lambda: "c") == "c"
        assert traces.corpus_product(first, lambda: "d") == "d"

    def test_cache_is_not_pickled(self, platform, traces, calls):
        cold = pickle.dumps(traces, protocol=pickle.HIGHEST_PROTOCOL)
        report = experiment_link_classification(traces, platform).render()
        assert traces._corpus_cache is not None
        assert pickle.dumps(traces, protocol=pickle.HIGHEST_PROTOCOL) == cold
        restored = pickle.loads(cold)
        assert restored._corpus_cache is None
        assert experiment_link_classification(restored, platform).render() == report
        assert len(calls) == 2
