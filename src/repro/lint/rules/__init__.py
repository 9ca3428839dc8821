"""Rule modules; importing this package populates the registry."""

from repro.lint.rules import (
    api,
    cache,
    determinism,
    forksafety,
    interdet,
    meta,
    schemacompat,
    telemetry,
)

__all__ = [
    "api",
    "cache",
    "determinism",
    "forksafety",
    "interdet",
    "meta",
    "schemacompat",
    "telemetry",
]
