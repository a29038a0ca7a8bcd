"""Pytest plugin: sanitize the protocol events every test produces.

An autouse fixture installs a fresh ambient :class:`~repro.obs.Observability`
for each test, so every server touched through the default ambient path
emits protocol events; at teardown the sanitizer replays everything the
test captured and fails the test on any violation.  Liveness checks
(DPR starvation, lost wakeups) apply only to run captures a runner marked
``complete`` — direct server unit tests legitimately leave pulls buffered.

Opt a test out with ``@pytest.mark.no_sanitize`` (needed by tests that
assert the ambient-observability machinery itself, or that intentionally
drive servers into invalid states).
"""

from __future__ import annotations

import pytest

from repro.analysis.sanitizer import sanitize_observability
from repro.obs import MetricsRegistry, Observability, set_current_observability


def pytest_configure(config):
    """Register the opt-out marker."""
    config.addinivalue_line(
        "markers",
        "no_sanitize: skip the protocol sanitizer for this test",
    )


@pytest.fixture(autouse=True)
def protocol_sanitizer(request):
    """Capture ambient protocol events during the test and sanitize them."""
    if request.node.get_closest_marker("no_sanitize") is not None:
        yield None
        return
    obs = Observability(MetricsRegistry("sanitizer"))
    previous = set_current_observability(obs)
    try:
        yield obs
    finally:
        set_current_observability(previous)
    report = sanitize_observability(obs)
    if not report.ok:
        pytest.fail(
            "protocol sanitizer found violations in this test's event "
            "stream:\n" + report.describe(),
            pytrace=False,
        )
