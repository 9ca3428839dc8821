"""Rule modules; importing this package populates the registry."""

from repro.lint.rules import (
    api,
    cache,
    determinism,
    forksafety,
    meta,
    telemetry,
)

__all__ = [
    "api",
    "cache",
    "determinism",
    "forksafety",
    "meta",
    "telemetry",
]
