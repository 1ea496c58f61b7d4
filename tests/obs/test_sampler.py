"""Unit tests for repro.obs.sampler: sim-clock periodic snapshots."""

import pytest

from repro.obs import PeriodicSampler
from repro.sim import Simulator


def _sim_with_counter():
    sim = Simulator()
    counter = sim.metrics.counter("ticks")
    sim.schedule_periodic(0.1, counter.inc)
    return sim, counter


def test_sampler_records_series_on_sim_clock():
    sim, counter = _sim_with_counter()
    sampler = PeriodicSampler(sim, 1.0).watch("ticks", metric=counter).start()
    sim.run(until=3.0)
    series = sampler.series("ticks")
    times = [t for t, _v in series]
    assert times == [0.0, 1.0, 2.0, 3.0]
    # 10 increments per second; the tick at t=k sees k*10 increments
    # (the periodic increment at the same timestamp is scheduled before
    # the sampler snapshot or after, deterministically by seq).
    values = [v for _t, v in series]
    assert values[0] == 0
    assert values[-1] >= 29


def test_sampler_delta_and_rate():
    sim, counter = _sim_with_counter()
    sampler = PeriodicSampler(sim, 1.0).watch("ticks", metric=counter).start()
    sim.run(until=4.0)
    d = sampler.delta("ticks", 1.0, 3.0)
    assert d == sampler.value_at("ticks", 3.0) - sampler.value_at("ticks", 1.0)
    assert sampler.rate("ticks", 1.0, 3.0) == pytest.approx(d / 2.0)
    with pytest.raises(ValueError):
        sampler.rate("ticks", 3.0, 1.0)


def test_sampler_histogram_windowed_mean():
    sim = Simulator()
    hist = sim.metrics.histogram("lat")
    # One observation of value t/10 at every t = 0.25, 0.5, ...
    state = {"t": 0.0}

    def observe():
        state["t"] += 0.25
        hist.observe(state["t"] / 10.0)

    sim.schedule_periodic(0.25, observe)
    sampler = PeriodicSampler(sim, 1.0).watch("lat", metric=hist).start()
    # A histogram nothing observes: its windows are empty.
    sampler.watch("quiet", metric=sim.metrics.histogram("quiet"))
    sim.run(until=4.0)
    # The sampler tick at t=k re-arms earlier than the workload event at
    # t=k, so a snapshot excludes same-timestamp observations: the
    # window (1.0, 3.0] holds the observations at t = 1.0 .. 2.75.
    expected = [t / 10.0 for t in (1.0, 1.25, 1.5, 1.75, 2.0, 2.25, 2.5, 2.75)]
    dcount, dsum = sampler.delta("lat", 1.0, 3.0)
    assert dcount == len(expected)
    assert dsum == pytest.approx(sum(expected), rel=1e-12)
    got = sampler.windowed_mean("lat", 1.0, 3.0)
    assert got == pytest.approx(sum(expected) / len(expected), rel=1e-12)
    # Empty window reads 0.0, not NaN.
    assert sampler.windowed_mean("quiet", 1.0, 3.0) == 0.0


def test_sampler_watch_validation():
    sim = Simulator()
    sampler = PeriodicSampler(sim, 1.0)
    with pytest.raises(ValueError):
        sampler.watch("x")  # neither metric nor fn
    with pytest.raises(ValueError):
        sampler.watch("x", metric=sim.metrics.counter("c"), fn=lambda: 0)
    sampler.watch("x", fn=lambda: 1)
    with pytest.raises(ValueError):
        sampler.watch("x", fn=lambda: 2)  # duplicate key
    with pytest.raises(ValueError):
        PeriodicSampler(sim, 0.0)


def test_sampler_value_at_before_first_snapshot_raises():
    sim = Simulator()
    sampler = PeriodicSampler(sim, 1.0).watch("x", fn=lambda: 1)
    sim.at(2.0, lambda: None)
    sim.run(until=2.0)
    sampler.start()  # immediate snapshot at t=2
    with pytest.raises(ValueError):
        sampler.value_at("x", 1.0)
    assert sampler.value_at("x", 2.0) == 1


def test_sampler_stop_takes_final_snapshot_and_restart_rejected():
    sim, counter = _sim_with_counter()
    sampler = PeriodicSampler(sim, 1.0).watch("ticks", metric=counter).start()
    with pytest.raises(RuntimeError):
        sampler.start()
    sim.run(until=2.5)
    sampler.stop(final=True)
    assert sampler.series("ticks")[-1][0] == 2.5
    before = len(sampler.series("ticks"))
    sim.run(until=5.0)
    assert len(sampler.series("ticks")) == before  # no ticks after stop


def test_sampler_does_not_perturb_event_order():
    """The same workload with and without a sampler produces the same
    trace — snapshots interleave, they do not reorder."""

    def run(with_sampler: bool):
        sim = Simulator(seed=3)
        counter = sim.metrics.counter("n")

        def work():
            counter.inc()
            sim.trace.log("work", n=counter.value)

        sim.schedule_periodic(0.3, work)
        if with_sampler:
            PeriodicSampler(sim, 1.0).watch("n", metric=counter).start()
        sim.run(until=5.0)
        return [(r.time, r.kind, sorted(r.fields.items())) for r in sim.trace.records]

    assert run(True) == run(False)


def test_sampler_retention_validation():
    """A cap is lossless or absent: ``max_points`` must be positive and
    comes with the file the older half spills to (the spill itself is
    exercised in test_live.py)."""
    sim = Simulator()
    with pytest.raises(ValueError):
        PeriodicSampler(sim, 1.0, max_points=0, spill_path="x")
    with pytest.raises(ValueError):
        PeriodicSampler(sim, 1.0, max_points=5)
    with pytest.raises(TypeError):
        PeriodicSampler(sim, 1.0, max_points=5, retention="tail")
