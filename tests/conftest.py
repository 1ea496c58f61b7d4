"""Suite-wide per-test wall-clock budget, and the Hypothesis profiles.

Every layer runs inside one event loop, so a livelock (an event that
re-arms itself at the same sim instant) does not fail a test: it hangs
the suite. Each test therefore runs under a watchdog that, once the
budget is spent, dumps every thread's traceback and exits the process.
"""

import faulthandler
import os

import pytest

# Well above the slowest tier-1 test (~15 s here, a full Fig-8 run with
# every collector on), so only a hang trips it, on CI's slower boxes too.
TEST_WALL_BUDGET_S = 300

_stderr_fd = None

# ``HYPOTHESIS_PROFILE=thorough`` (``make props``, CI tier-2) runs the
# differential batteries ten times deeper; tier-1 keeps the default
# profile and each battery's own example count.
try:
    from hypothesis import settings
except ImportError:  # the batteries importorskip hypothesis themselves
    settings = None
else:
    settings.register_profile("thorough", max_examples=1000, deadline=None)
    settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def battery(max_examples):
    """``@settings`` for a differential battery: ``max_examples`` in
    tier-1, the selected profile's when ``HYPOTHESIS_PROFILE`` is set."""
    if os.environ.get("HYPOTHESIS_PROFILE"):
        return settings(settings.default)
    return settings(max_examples=max_examples, deadline=None)


def pytest_configure(config):
    # Capture is suspended while plugins are configured, so fd 2 is the
    # real stderr here; during a test it is pytest's capture file, whose
    # contents would die with the process.
    global _stderr_fd
    _stderr_fd = os.dup(2)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item):
    faulthandler.dump_traceback_later(
        TEST_WALL_BUDGET_S, exit=True, file=_stderr_fd)
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()
