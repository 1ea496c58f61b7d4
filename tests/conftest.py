"""Suite-wide per-test wall-clock budget, and the Hypothesis profiles.

Every layer runs inside one event loop, so a livelock (an event that
re-arms itself at the same sim instant) does not fail a test: it hangs
the suite. Each test therefore runs under a watchdog that, once the
budget is spent, dumps every thread's traceback and exits the process.
"""

import faulthandler
import gc
import os

import pytest

# Well above the slowest tier-1 test (~8 s on a 2-core x86 box, the
# query over a spill ten times larger than peak memory), so only a hang
# trips it, on CI's slower boxes too.
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


def battery(max_examples, thorough=None):
    """``@settings`` for a differential battery: ``max_examples`` in
    tier-1; when ``HYPOTHESIS_PROFILE`` is set, ``thorough`` examples, or
    the selected profile's count if the battery names none."""
    if os.environ.get("HYPOTHESIS_PROFILE"):
        if thorough is not None:
            return settings(settings.default, max_examples=thorough)
        return settings(settings.default)
    return settings(max_examples=max_examples, deadline=None)


class DropWatch:
    """The drop records and flights of one simulator: ``track(packet)``
    opens a flight on ``packet``, ``drops()`` lists ``(where, reason)``
    per drop record, and ``open_flights`` are the flights not yet closed."""

    def __init__(self, sim):
        from repro.obs.spans import FlightRecorder

        sim.trace.enable("drop")
        self.sim = sim
        self.recorder = FlightRecorder(sim).install()

    def track(self, packet):
        self.recorder.flight_begin(packet, "probe", node="test")
        return packet

    def drops(self):
        return [(r["where"], r["reason"]) for r in self.sim.trace.select("drop")]

    @property
    def open_flights(self):
        return self.recorder._open


@pytest.fixture
def gc_paused():
    """For the tests that count calls or frames under ``sys.setprofile``:
    collect now, and keep the cyclic collector off until the test ends.
    A collection landing inside a profiled window finalizes an earlier
    test's garbage (closing a suspended generator is a call), so an exact
    count would move with whatever ran before and with the str-hash seed."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


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
