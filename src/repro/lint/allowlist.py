"""The documented suppression allowlist.

A ``# repro: noqa[RULE]`` comment is only honored when a matching entry
here names the file, the rule, and the reason.  The linter raises
LNT000 for any noqa without an entry, so this module is the complete,
reviewable inventory of everywhere the repo opts out of an invariant.

Keep entries narrow (one file, one rule) and the reason specific enough
that a reviewer can decide whether it still holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Tuple

__all__ = ["Allowance", "SUPPRESSION_ALLOWLIST", "is_allowlisted"]


@dataclass(frozen=True)
class Allowance:
    """Permission for one file to suppress one rule, with its justification."""

    path: str
    """POSIX path suffix, e.g. ``repro/core/loss.py``."""

    rule: str
    reason: str


SUPPRESSION_ALLOWLIST: Tuple[Allowance, ...] = (
    Allowance(
        path="repro/core/ownership.py",
        rule="DET002",
        reason=(
            "_resolve() extracts the sole element of a len()==1 set with "
            "next(iter(...)); a singleton has one iteration order, so the "
            "result cannot depend on hashing or insertion history."
        ),
    ),
    Allowance(
        path="repro/measurement/fastseed.py",
        rule="DET010",
        reason=(
            "RecycledGenerator.__init__ seeds its PCG64 with SeedSequence(0) "
            "only to construct the object; set(state, inc) overwrites the "
            "complete bit-generator state before any draw, so the literal "
            "never influences an output stream."
        ),
    ),
)


def is_allowlisted(path: Path, rule: str) -> bool:
    """Whether ``(path, rule)`` matches an allowlist entry.

    Suffix matching stops at path-component boundaries so an allowance
    for ``repro/core/ownership.py`` does not also cover, say,
    ``other_repro/core/ownership.py``.
    """
    posix = path.as_posix()
    return any(
        (posix == allowance.path or posix.endswith("/" + allowance.path))
        and allowance.rule == rule
        for allowance in SUPPRESSION_ALLOWLIST
    )
