"""Batch equivalence of the streaming path behind the campaign service.

A ``trace`` campaign ingests the long-term mesh cycle by cycle: a
windowed, columnar platform source feeds a :class:`PathStatsOperator`.
Over the whole grid it must see exactly what the batch driver's fig3
sees: the same route-change count and popular-path prevalence for
every timeline.
"""

from repro.core.routechange import analyze_timeline
from repro.datasets.longterm import LongTermConfig
from repro.service.campaign import TraceDriver
from repro.service.config import CampaignConfig

LONGTERM_CONFIG = LongTermConfig(days=60)


def _fig3_inputs(stats):
    """Per version: fig3's two ECDF samples, as sorted lists."""
    inputs = {}
    for version, changes, prevalence in stats:
        entry = inputs.setdefault(int(version), ([], []))
        entry[0].append(changes)
        if prevalence is not None:
            entry[1].append(prevalence)
    return {
        version: (sorted(changes), sorted(prevalences))
        for version, (changes, prevalences) in inputs.items()
    }


class TestBatchEquivalence:
    def test_fig3_identical(self, platform, longterm):
        rounds = LONGTERM_CONFIG.grid().rounds
        driver = TraceDriver(
            CampaignConfig(name="trace", kind="trace",
                           rounds_per_cycle=rounds // 3 + 1),
            platform, LONGTERM_CONFIG,
        )
        assert driver.total_cycles == 3
        operator = driver.make_operator()
        for cycle in range(driver.total_cycles):
            for unit in driver.source_for_cycle(cycle):
                operator.start_unit(unit.key, unit.meta)
                operator.observe_columns(unit.columns)
        summaries = operator.finalize()
        assert len(summaries) == len(longterm.timelines)

        batch = {key: analyze_timeline(t) for key, t in longterm.timelines.items()}
        streamed = _fig3_inputs(
            (key[2], s.changes, s.popular_prevalence) for key, s in summaries.items()
        )
        expected = _fig3_inputs(
            (key[2], s.changes,
             None if s.popular_path_id is None else s.popular_prevalence)
            for key, s in batch.items()
        )
        assert streamed == expected

        versions = driver.results(operator, driver.total_cycles)["versions"]
        for version, (changes, _prevalences) in expected.items():
            assert versions[str(version)]["pairs"] == len(changes)
            assert versions[str(version)]["changes"] == sum(changes)
