"""Shared fixtures for the observability tests.

The tracer and the metrics registry are process-global; every test
here starts and ends with both disabled
and empty so ordering never leaks state between tests (or into the rest
of the suite).
"""

import pytest

from repro.obs import metrics, trace


def _clean() -> None:
    trace.disable()
    trace.reset()
    metrics.disable()
    metrics.reset()
    metrics.set_heartbeat_sink(None)


@pytest.fixture(autouse=True)
def clean_telemetry():
    _clean()
    yield
    _clean()
