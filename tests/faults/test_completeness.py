"""Tests for the data-completeness accountant."""

import itertools
import json

import pytest

from repro.service.completeness import DataCompleteness

# A snapshot as an older run that lost units wrote it.
DEGRADED_STATE = {
    "delivered": 2,
    "missing": [
        {"index": 3, "shard": 1, "reason": "failed", "key": [0, 3, 4]},
        {"index": 1, "shard": 1, "reason": "quarantined", "key": None},
    ],
}


class TestDataCompleteness:
    def test_all_delivered(self):
        acc = DataCompleteness()
        for _ in range(4):
            acc.deliver()
        report = acc.report()
        assert report["expected"] == 4
        assert report["delivered"] == 4
        assert report["missing"] == []
        assert report["coverage"] == 1.0
        assert acc.coverage() == 1.0

    def test_missing_units_are_reported_exactly(self):
        acc = DataCompleteness.from_state(DEGRADED_STATE)
        report = acc.report()
        assert report["expected"] == 4
        assert report["delivered"] == 2
        assert report["coverage"] == 0.5
        assert acc.missing_count == 2
        assert [row["index"] for row in report["missing"]] == [1, 3]
        assert report["missing"][0]["reason"] == "quarantined"
        assert report["missing"][1]["key"] == [0, 3, 4]  # JSON-friendly list

    def test_empty_accountant_is_complete(self):
        assert DataCompleteness().coverage() == 1.0

    def test_state_round_trip(self):
        acc = DataCompleteness.from_state(DEGRADED_STATE)
        acc.deliver()
        clone = DataCompleteness.from_state(acc.state())
        assert clone.report() == acc.report()
        assert clone.report()["delivered"] == 3
        assert DataCompleteness.from_state(None).report() == DataCompleteness().report()

    @pytest.mark.parametrize(
        "delivered, missing, coverage",
        [(0, 0, 1.0), (1, 0, 1.0), (0, 1, 0.0), (1, 1, 0.5), (3, 1, 0.75),
         (1, 3, 0.25)],
    )
    def test_coverage_is_delivered_over_expected(self, delivered, missing, coverage):
        rows = [
            {"index": index, "shard": 0, "reason": "failed", "key": None}
            for index in range(missing)
        ]
        acc = DataCompleteness.from_state({"delivered": delivered, "missing": rows})
        report = acc.report()
        assert report["expected"] == delivered + missing
        assert report["coverage"] == acc.coverage() == coverage

    @pytest.mark.parametrize(
        "order", list(itertools.permutations(range(len(DEGRADED_STATE["missing"]) + 1)))
    )
    def test_report_bytes_do_not_depend_on_row_order(self, order):
        rows = DEGRADED_STATE["missing"] + [
            {"index": 0, "shard": 0, "reason": "failed", "key": [0, 0, 4]}
        ]
        shuffled = {"delivered": 2, "missing": [rows[i] for i in order]}
        sorted_state = {"delivered": 2, "missing": sorted(rows, key=lambda r: r["index"])}
        report = DataCompleteness.from_state(shuffled).report()
        assert [row["index"] for row in report["missing"]] == [0, 1, 3]
        assert json.dumps(report, sort_keys=True) == json.dumps(
            DataCompleteness.from_state(sorted_state).report(), sort_keys=True
        )

    def test_from_state_normalizes_row_types(self):
        acc = DataCompleteness.from_state({
            "delivered": "5",
            "missing": [{"index": "7", "shard": "2", "reason": 9, "key": (1, 7, 4)}],
        })
        assert acc.report()["delivered"] == 5
        assert acc.report()["missing"] == [
            {"index": 7, "shard": 2, "reason": "9", "key": [1, 7, 4]}
        ]

    def test_from_state_of_an_empty_state_is_fresh(self):
        for state in ({}, {"delivered": 0}):
            assert DataCompleteness.from_state(state).report() == (
                DataCompleteness().report()
            )

    def test_report_and_state_are_copies(self):
        acc = DataCompleteness.from_state(DEGRADED_STATE)
        acc.report()["missing"].clear()
        acc.state()["missing"].clear()
        assert acc.missing_count == 2
        assert len(DEGRADED_STATE["missing"]) == 2

    @pytest.mark.parametrize("units", [1, 2, 7])
    def test_delivery_keeps_the_recorded_misses(self, units):
        acc = DataCompleteness.from_state(DEGRADED_STATE)
        for _ in range(units):
            acc.deliver()
        report = acc.report()
        assert report["delivered"] == 2 + units
        assert report["expected"] == 4 + units
        assert [row["index"] for row in report["missing"]] == [1, 3]
