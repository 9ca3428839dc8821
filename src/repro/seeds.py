"""Named default RNG seeds: the single home for literal seed values.

Each zero-argument entry point that builds part of the world
(``generate_topology()``, ``allocate_addresses()``, ...) falls back to
its own fixed seed so the call is reproducible *and* the default streams
stay disjoint from one another.  Those literals used to be magic numbers
scattered across call sites; they live here now, and DET001 enforces it:
``repro.seeds`` is the only module where an integer literal may be
passed to ``np.random.default_rng`` (the ``SEED_LITERAL_WHITELIST`` in
:mod:`repro.lint.rules.determinism`).

Seeded platform builds never touch these -- the platform derives every
stream from its config seed via ``_stream_seed`` hashing.  The constants
only matter when a component is exercised standalone with ``rng=None``.

The values are frozen history, not tunables: changing one changes every
default-built artifact (and its cache fingerprint stays put, because the
seed is not a config field -- which is exactly why they must never
drift).
"""

from __future__ import annotations

__all__ = [
    "PLATFORM_SEED",
    "TOPOLOGY_SEED",
    "ADDRESSING_SEED",
    "ROUTERS_SEED",
    "CDN_SEED",
    "OUTAGES_SEED",
    "FLAPS_SEED",
    "CONGESTION_SEED",
    "DEFAULT_SEEDS",
]

PLATFORM_SEED = 0
"""Default for :class:`repro.measurement.platform.PlatformConfig`'s base
seed, from which every platform stream is derived via ``_stream_seed``
hashing.  A run at any other seed must draw from none of the same
streams; ``tests/integration/test_seed_provenance.py`` checks that by
running two seeds and comparing the seed material of every stream."""

TOPOLOGY_SEED = 0
"""Default for :func:`repro.topology.generator.generate_topology`."""

ADDRESSING_SEED = 1
"""Default for :func:`repro.topology.addressing.allocate_addresses`."""

ROUTERS_SEED = 2
"""Default for :func:`repro.topology.routers.build_router_topology`."""

CDN_SEED = 3
"""Default for :func:`repro.topology.cdn.deploy_cdn`."""

OUTAGES_SEED = 4
"""Default for :func:`repro.routing.dynamics.sample_edge_outages`."""

FLAPS_SEED = 5
"""Default for :func:`repro.routing.dynamics.sample_pair_flaps`."""

CONGESTION_SEED = 6
"""Default for :func:`repro.measurement.congestionmodel.assign_congestion`."""

DEFAULT_SEEDS = {
    "topology": TOPOLOGY_SEED,
    "addressing": ADDRESSING_SEED,
    "routers": ROUTERS_SEED,
    "cdn": CDN_SEED,
    "outages": OUTAGES_SEED,
    "flaps": FLAPS_SEED,
    "congestion": CONGESTION_SEED,
}
"""Component name -> default seed, for docs and audit tooling."""
