"""Shared service-test isolation.

Campaign runs write to the default metrics registry; every test here
starts and ends with it empty so service tests neither see state from
the wider suite nor leak any into it.
"""

import pytest

from repro.obs import metrics


@pytest.fixture(autouse=True)
def clean_service_state():
    metrics.get_registry().reset()
    yield
    metrics.get_registry().reset()
