"""Output checks shared by the workers, the runner and the tests."""

from __future__ import annotations

import hashlib
from typing import Dict, List, Mapping, Sequence

COUNT_NAMES = ("datasets.longterm.timelines", "datasets.ping.timelines",
               "datasets.trace.entries", "stream.source.units", "service.checkpoint.saves")
"""Counts, besides every ``.calls``, that must repeat exactly for one seed."""


def digest(text: str) -> str:
    """sha256 of a rendered report."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def failed_ids(got: Mapping[str, str], expected: Mapping[str, str]) -> List[str]:
    """Expected report ids whose digest is missing from ``got`` or differs."""
    return sorted(key for key, want in expected.items() if got.get(key) != want)


def expected_digests(workload: str, seed: int, reference: Mapping[str, Dict],
                     first_run: Mapping[str, str]) -> Dict[str, str]:
    """The digests a run of ``workload`` at ``seed`` must reproduce.

    A recorded reference wins; a seed without one is held to run-to-run
    equality with its first repetition.
    """
    recorded = reference.get("digests", {}).get(str(seed), {}).get(workload)
    return dict(recorded if recorded is not None else first_run)


def count_mismatches(counts: Sequence[Mapping[str, float]]) -> Dict[str, List[float]]:
    """Counts that differ between repetitions of one seed, with every value seen.

    A count one repetition does not report (an untraced run has no
    ``.calls``) is compared among the repetitions that do.
    """
    names = sorted({name for rep in counts for name in rep})
    seen = {name: [rep[name] for rep in counts if name in rep] for name in names}
    return {name: values for name, values in seen.items() if len(set(values)) > 1}
