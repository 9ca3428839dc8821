"""Checkpoint-hardening test isolation: reset metrics around each test."""

import pytest

from repro.obs.metrics import get_registry


@pytest.fixture(autouse=True)
def _clean_registry():
    """Reset the default metrics registry before and after each test."""
    get_registry().reset()
    yield
    get_registry().reset()
