"""Dataset completeness summary (Table 1).

Table 1 reports, over *complete* traceroutes (those that reached their
destination), the split between traceroutes with complete AS-level data,
missing AS-level data (unmappable addresses) and missing IP-level data
(unresponsive hops).  AS-loop traceroutes, which the paper excludes from
analyses, are reported alongside (Section 2.1 gives 2.16% / 5.5%).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.datasets.longterm import LongTermDataset
from repro.measurement.traceroute import TraceOutcome
from repro.net.ip import IPVersion

__all__ = ["VersionSummary", "dataset_summary"]


@dataclass
class VersionSummary:
    """Completeness accounting for one protocol."""

    collected: int
    reached: int
    complete_as: int
    missing_as: int
    missing_ip: int
    loops: int

    @property
    def reached_fraction(self) -> float:
        """Fraction of collected traceroutes that reached the destination."""
        return self.reached / self.collected if self.collected else float("nan")

    def fraction_of_reached(self, count: int) -> float:
        """Helper: share of the reached population."""
        return count / self.reached if self.reached else float("nan")

    @property
    def complete_as_fraction(self) -> float:
        """Table 1 row 1 (e.g. 70.30% for IPv4)."""
        return self.fraction_of_reached(self.complete_as)

    @property
    def missing_as_fraction(self) -> float:
        """Table 1 row 2 (e.g. 1.58% for IPv4)."""
        return self.fraction_of_reached(self.missing_as)

    @property
    def missing_ip_fraction(self) -> float:
        """Table 1 row 3 (e.g. 28.12% for IPv4)."""
        return self.fraction_of_reached(self.missing_ip)

    @property
    def loop_fraction(self) -> float:
        """AS-loop share of reached traceroutes (excluded from analyses)."""
        return self.fraction_of_reached(self.loops)


_OUTCOME_CODES = int(max(TraceOutcome)) + 1


def dataset_summary(dataset: LongTermDataset) -> Dict[IPVersion, VersionSummary]:
    """Tally Table 1's rows over a long-term dataset."""
    summaries: Dict[IPVersion, VersionSummary] = {}
    for version in (IPVersion.V4, IPVersion.V6):
        collected = reached = complete = missing_as = missing_ip = loops = 0
        for timeline in dataset.by_version(version):
            outcomes = timeline.outcome
            collected += outcomes.size
            # Construction keeps every code within TraceOutcome, so one
            # bincount over the small codes tallies them.
            counts = np.bincount(
                outcomes.astype(np.intp, copy=False), minlength=_OUTCOME_CODES
            ).tolist()
            reached += outcomes.size - counts[int(TraceOutcome.INCOMPLETE)]
            complete += counts[int(TraceOutcome.COMPLETE)]
            missing_as += counts[int(TraceOutcome.MISSING_AS)]
            missing_ip += counts[int(TraceOutcome.MISSING_IP)]
            loops += counts[int(TraceOutcome.LOOP)]
        summaries[version] = VersionSummary(
            collected=collected,
            reached=reached,
            complete_as=complete,
            missing_as=missing_as,
            missing_ip=missing_ip,
            loops=loops,
        )
    return summaries
