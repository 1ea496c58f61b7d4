"""Unit tests for PeriodicTimer and Timeout."""

import pytest

from repro.sim import PeriodicTimer, Simulator, Timeout


def test_periodic_timer_fires_each_interval():
    sim = Simulator()
    times = []
    PeriodicTimer(sim, 2.0, lambda: times.append(sim.now))
    sim.run(until=7.0)
    assert times == [2.0, 4.0, 6.0]


def test_periodic_timer_stop():
    sim = Simulator()
    times = []
    timer = PeriodicTimer(sim, 1.0, lambda: times.append(sim.now))
    sim.at(2.5, timer.stop)
    sim.run(until=10.0)
    assert times == [1.0, 2.0]
    assert not timer.running


def test_periodic_timer_restart_after_stop():
    sim = Simulator()
    times = []
    timer = PeriodicTimer(sim, 1.0, lambda: times.append(sim.now))
    sim.at(1.5, timer.stop)
    sim.at(5.0, timer.start)
    sim.run(until=7.5)
    assert times == [1.0, 6.0, 7.0]


def test_periodic_timer_jitter_bounds():
    sim = Simulator(seed=7)
    times = []
    PeriodicTimer(sim, 10.0, lambda: times.append(sim.now), jitter=0.25)
    sim.run(until=100.0)
    gaps = [b - a for a, b in zip([0.0] + times, times)]
    assert all(7.5 <= gap <= 10.0 for gap in gaps)
    assert len(set(round(g, 6) for g in gaps)) > 1  # actually jittered


def test_periodic_timer_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        PeriodicTimer(sim, 0.0, lambda: None)
    with pytest.raises(ValueError):
        PeriodicTimer(sim, 1.0, lambda: None, jitter=1.0)


def test_timeout_fires_once():
    sim = Simulator()
    fired = []
    timeout = Timeout(sim, 3.0, lambda: fired.append(sim.now))
    timeout.start()
    sim.run(until=10.0)
    assert fired == [3.0]
    assert not timeout.armed


def test_timeout_restart_extends_deadline():
    sim = Simulator()
    fired = []
    timeout = Timeout(sim, 3.0, lambda: fired.append(sim.now))
    timeout.start()
    sim.at(2.0, timeout.restart)  # push deadline to t=5
    sim.run(until=10.0)
    assert fired == [5.0]


def test_timeout_cancel():
    sim = Simulator()
    fired = []
    timeout = Timeout(sim, 3.0, lambda: fired.append(sim.now))
    timeout.start()
    sim.at(1.0, timeout.cancel)
    sim.run(until=10.0)
    assert fired == []


def test_timeout_expires_at():
    sim = Simulator()
    timeout = Timeout(sim, 4.0, lambda: None)
    timeout.start()
    assert timeout.expires_at == 4.0
    timeout.cancel()
    assert timeout.expires_at is None


def test_periodic_timer_stop_from_callback():
    sim = Simulator()
    times = []

    def tick():
        times.append(sim.now)
        if len(times) == 3:
            timer.stop()

    timer = PeriodicTimer(sim, 1.0, tick)
    sim.run(until=10.0)
    assert times == [1.0, 2.0, 3.0]
    assert sim.pending == 0
