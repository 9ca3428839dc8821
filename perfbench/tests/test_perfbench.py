"""Tests of the benchmark's own arithmetic and checks.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import json
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import compare  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


def span(name, span_id, parent, start, end):
    return tracing.Span(name, span_id, parent, start, end)


class TestSelfTime:
    @pytest.fixture
    def tree(self):
        return [
            span("root", 1, None, 0.0, 10.0),
            span("a", 2, 1, 1.0, 4.0),
            span("leaf", 3, 2, 2.0, 3.0),
            span("b", 4, 1, 3.0, 6.0),   # overlaps a: covered once
            span("a", 5, 1, 9.0, 12.0),  # runs past its parent: clipped
        ]

    def test_self_time_subtracts_merged_child_coverage(self, tree):
        own = tracing.self_times(tree)
        assert own[1] == pytest.approx(10.0 - 5.0 - 1.0)
        assert own[2] == pytest.approx(2.0)
        assert own[3] == pytest.approx(1.0)
        assert own[4] == pytest.approx(3.0)
        assert own[5] == pytest.approx(3.0)

    def test_summary_sums_self_time_per_name(self, tree):
        summary = tracing.summarize(tree)
        assert summary["a"] == {"calls": 2, "self_s": pytest.approx(5.0)}
        assert summary["root"]["calls"] == 1

    def test_self_times_of_nested_calls_add_up_to_covered_wall(self):
        nested = [span("root", 1, None, 0.0, 10.0), span("a", 2, 1, 1.0, 4.0),
                  span("leaf", 3, 2, 2.0, 3.0), span("b", 4, 1, 5.0, 6.0),
                  span("late", 5, None, 11.0, 12.0)]
        total = sum(tracing.self_times(nested).values())
        assert total == pytest.approx(tracing.covered_seconds(nested, 0.0, 12.0))

    def test_covered_seconds_counts_roots_only_once(self):
        roots = [span("x", 1, None, 1.0, 3.0), span("y", 2, None, 2.0, 5.0),
                 span("z", 3, 1, 1.5, 2.5)]
        assert tracing.covered_seconds(roots, 0.0, 4.0) == pytest.approx(3.0)


class TestPatching:
    def test_function_is_patched_at_every_binding(self, monkeypatch):
        def analyze(value):
            return value

        home = types.ModuleType("repro_benchtest_home")
        home.analyze = analyze
        user = types.ModuleType("repro_benchtest_user")
        user.analyze = analyze  # as after ``from home import analyze``
        monkeypatch.setitem(sys.modules, home.__name__, home)
        monkeypatch.setitem(sys.modules, user.__name__, user)
        recorder = tracing.Recorder()
        assert tracing.patch_function(recorder, home, "analyze", "layer.analyze",
                                      track_inputs=True) == 2
        payload = object()
        assert user.analyze(3) == 3
        home.analyze(payload)
        user.analyze(payload)
        assert [s.name for s in recorder.spans] == ["layer.analyze"] * 3
        assert len(recorder.inputs["layer.analyze"]) == 2

    def test_distinct_inputs_key_scalars_by_value_and_objects_by_identity(self):
        def percentiles(timeline, q):
            return q

        recorder = tracing.Recorder()
        module = types.ModuleType("repro_benchtest_inputs")
        module.percentiles = percentiles
        sys.modules[module.__name__] = module
        try:
            tracing.patch_function(recorder, module, "percentiles", "p", track_inputs=True)
        finally:
            del sys.modules[module.__name__]
        timeline = object()
        module.percentiles(timeline, 50.0)
        module.percentiles(timeline, float("5" + "0"))  # equal value, another object
        module.percentiles(timeline, q=95.0)
        for _ in range(3):
            module.percentiles([1, 2], 50.0)  # a freed temporary each time
        # Each temporary list is held, so its id is never reused for the next.
        assert len(recorder.inputs["p"]) == 2 + 3

    def test_generator_spans_exclude_the_consumer(self):
        class Source:
            def items(self):
                yield from range(3)

        recorder = tracing.Recorder()
        tracing.patch_methods(recorder, Source, ["items"], "source")
        consumed = []
        for item in Source().items():
            outer = recorder.open("consumer")
            consumed.append(item)
            recorder.close(outer)
        assert consumed == [0, 1, 2]
        assert recorder.items["source"] == 3
        assert all(s.parent_id is None for s in recorder.spans)


class TestDigestCheck:
    REPORT = "== fig3: Figure 3 ==\nmetric  paper  measured\nchanges  2.7  2.812\n"

    def test_identical_report_passes(self):
        expected = {"fig3": checks.digest(self.REPORT)}
        assert checks.failed_ids({"fig3": checks.digest(self.REPORT)}, expected) == []

    def test_one_byte_change_fails(self):
        expected = {"fig3": checks.digest(self.REPORT)}
        perturbed = self.REPORT.replace("2.812", "2.813")
        assert len(perturbed) == len(self.REPORT)
        assert checks.failed_ids({"fig3": checks.digest(perturbed)}, expected) == ["fig3"]

    def test_missing_report_fails(self):
        assert checks.failed_ids({}, {"fig3": "x"}) == ["fig3"]

    def test_recorded_seed_uses_the_reference(self):
        reference = {"digests": {"0": {"batch-default": {"fig1": "ref"}}}}
        expected = checks.expected_digests("batch-default", 0, reference, {"fig1": "r1"})
        assert expected == {"fig1": "ref"}

    def test_unrecorded_seed_uses_first_repetition(self):
        expected = checks.expected_digests("batch-default", 7, {"digests": {}}, {"fig1": "r1"})
        assert expected == {"fig1": "r1"}


class TestCountCheck:
    UNTRACED = {"sizes": {"datasets.longterm.timelines": 1488,
                          "datasets.longterm.array_mb": 12.5}}
    TRACED = {"sizes": {"datasets.longterm.timelines": 1488,
                        "datasets.longterm.array_mb": 12.5},
              "layers": {"core.loss.assess_loss.calls": 1602,
                         "core.loss.assess_loss.self_s": 0.4}}

    def test_counts_exclude_sizes_in_bytes_and_times(self):
        assert run.rep_counts(self.TRACED) == {"datasets.longterm.timelines": 1488,
                                               "core.loss.assess_loss.calls": 1602}

    def test_repeated_counts_pass(self):
        reps = [self.UNTRACED, self.TRACED, self.TRACED]
        assert checks.count_mismatches([run.rep_counts(rep) for rep in reps]) == {}

    def test_a_call_count_that_moves_between_repetitions_fails(self):
        moved = {"sizes": self.TRACED["sizes"],
                 "layers": {**self.TRACED["layers"], "core.loss.assess_loss.calls": 1603}}
        reps = [self.UNTRACED, self.TRACED, moved]
        assert checks.count_mismatches([run.rep_counts(rep) for rep in reps]) == {
            "core.loss.assess_loss.calls": [1602, 1603]}

    def test_a_dataset_size_that_moves_against_the_untraced_run_fails(self):
        untraced = {"sizes": {"datasets.longterm.timelines": 1487}}
        reps = [untraced, self.TRACED, self.TRACED]
        assert list(checks.count_mismatches([run.rep_counts(rep) for rep in reps])) == [
            "datasets.longterm.timelines"]


class TestCompareVerdict:
    def test_clear_gain_is_better(self):
        old = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.02, 9.98, 10.01, 9.99]
        new = [value * 0.8 for value in old]
        row = compare.verdict(old, new, "lower", 0.1)
        assert row["verdict"] == "better" and row["new_won"] == 1.0

    def test_noise_is_unchanged(self):
        old = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.02, 9.98, 10.01, 9.99]
        new = list(reversed(old))
        assert compare.verdict(old, new, "lower", 0.1)["verdict"] == "unchanged"

    def test_regression_beyond_bound_is_worse(self):
        old = [10.0] * 5 + [10.1] * 5
        new = [12.0] * 5 + [12.1] * 5
        assert compare.verdict(old, new, "lower", 0.1)["verdict"] == "worse"

    def test_wide_spread_is_unresolved(self):
        old = [5.0, 15.0, 10.0, 8.0, 12.0]
        new = [6.0, 14.0, 9.0, 9.0, 11.0]
        assert compare.verdict(old, new, "lower", 0.1)["verdict"] == "unresolved"

    def test_higher_is_better_metrics(self):
        old = [100.0 + i * 0.1 for i in range(10)]
        new = [150.0 + i * 0.1 for i in range(10)]
        assert compare.verdict(old, new, "higher", 0.1)["verdict"] == "better"

    @staticmethod
    def records(values, starts):
        return [{"started": start, "result": {"metrics": {"wall_s": {"value": value}}}}
                for value, start in zip(values, starts)]

    SPEC = {"name": "wall_s", "better": "lower", "bound": 0.1}
    OLD = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.02, 9.98, 10.01, 9.99]

    def test_alternated_sets_get_a_verdict(self):
        old = self.records(self.OLD, [2.0 * i for i in range(10)])
        new = self.records([v * 0.8 for v in self.OLD], [2.0 * i + 1 for i in range(10)])
        assert compare.alternated(old, new)
        assert compare.compare_workload(old, new, self.SPEC)["verdict"] == "better"

    def test_sequential_sets_are_unresolved(self):
        old = self.records(self.OLD, [float(i) for i in range(10)])
        new = self.records([v * 0.8 for v in self.OLD], [10.0 + i for i in range(10)])
        assert not compare.alternated(old, new)
        assert compare.compare_workload(old, new, self.SPEC)["verdict"] == "unresolved"

    def test_records_without_start_times_are_unresolved(self):
        old = [{"result": {"metrics": {"wall_s": {"value": v}}}} for v in self.OLD]
        new = [{"result": {"metrics": {"wall_s": {"value": v * 0.8}}}} for v in self.OLD]
        assert compare.compare_workload(old, new, self.SPEC)["verdict"] == "unresolved"


def test_every_layer_metric_has_a_prediction():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    layers = json.loads((HERE / "layers.json").read_text())
    predicted = [name for group in layers["groups"] for name in group["metrics"]]
    assert sorted(predicted) == sorted(spec["name"] for spec in bench["per_layer"])
    end_to_end = {spec["name"] for spec in bench["end_to_end"]}
    assert {spec["name"] for spec in bench["workloads"]} <= set(run.SHARDS)
    for group in layers["groups"]:
        assert set(group["moves"]) <= end_to_end
        assert set(group["on"]) <= set(run.SHARDS)
