"""Data-completeness accounting for a campaign.

Every finished campaign reports its *coverage* next to its results:
how many units were expected, how many were delivered, and which went
missing.  A campaign delivers every unit or stops with an error, so a
new run always reports full coverage with an empty missing list; the
missing rows survive only in snapshots restored from older runs, which
report them unchanged.  The report is byte-stable under JSON
canonicalization (sorted keys, missing rows ordered by unit index).

The expected-unit total is derived (``delivered + missing``) rather
than pre-registered, which makes the accountant resume-safe: a
checkpointed run restores its state and keeps counting without
re-declaring units it already processed.
"""

from __future__ import annotations

from typing import List, Optional

__all__ = ["DataCompleteness"]


class DataCompleteness:
    """Delivered/missing accountant for one campaign."""

    def __init__(self) -> None:
        self._delivered = 0
        self._missing: List[dict] = []

    def deliver(self) -> None:
        """Count one delivered unit."""
        self._delivered += 1

    @property
    def missing_count(self) -> int:
        return len(self._missing)

    def coverage(self) -> float:
        """Delivered fraction of expected units (1.0 when nothing ran)."""
        expected = self._delivered + len(self._missing)
        return 1.0 if expected == 0 else self._delivered / expected

    def report(self) -> dict:
        """The machine-readable deficit: expected/delivered/missing rows."""
        return {
            "expected": self._delivered + len(self._missing),
            "delivered": self._delivered,
            "missing": list(self._missing),
            "coverage": self.coverage(),
        }

    def state(self) -> dict:
        """Picklable snapshot for checkpoint payloads."""
        return {"delivered": self._delivered, "missing": list(self._missing)}

    @classmethod
    def from_state(cls, state: Optional[dict]) -> "DataCompleteness":
        """Rebuild an accountant from :meth:`state` (None = fresh)."""
        accountant = cls()
        if not state:
            return accountant
        accountant._delivered = int(state.get("delivered", 0))
        rows = sorted(state.get("missing", ()), key=lambda row: int(row["index"]))
        accountant._missing = [
            {
                "index": int(row["index"]),
                "shard": int(row["shard"]),
                "reason": str(row["reason"]),
                "key": list(row["key"]) if row.get("key") is not None else None,
            }
            for row in rows
        ]
        return accountant
