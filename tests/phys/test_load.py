"""Unit tests for background CPU load generators."""

import pytest

from repro.phys.load import CPUHog
from repro.phys.node import PhysicalNode
from repro.phys.process import Process
from repro.sim import Simulator


def test_hog_consumes_full_cpu_when_alone():
    sim = Simulator(seed=1)
    node = PhysicalNode(sim, "n")
    hog = CPUHog(node, heavy_tail_prob=0.0).start()
    sim.run(until=5.0)
    assert hog.process.cpu_used == pytest.approx(5.0, rel=0.02)


def test_hogs_share_fairly():
    sim = Simulator(seed=2)
    node = PhysicalNode(sim, "n")
    hogs = [CPUHog(node, name=f"h{i}", heavy_tail_prob=0.0).start() for i in range(4)]
    sim.run(until=8.0)
    for hog in hogs:
        assert hog.process.cpu_used == pytest.approx(2.0, rel=0.1)


def test_hog_starves_default_share_victim():
    """The PlanetLab problem: a fair-share process waits behind hogs."""
    sim = Simulator(seed=3)
    node = PhysicalNode(sim, "n")
    for i in range(7):
        CPUHog(node, name=f"h{i}", heavy_tail_prob=0.0).start()
    victim = Process(node, "click")
    latencies = []

    def wake():
        start = sim.now
        victim.exec_after(0.0001, lambda: latencies.append(sim.now - start))
        sim.at(0.05, wake)

    sim.at(0.0, wake)
    sim.run(until=5.0)
    mean = sum(latencies) / len(latencies)
    assert mean > 0.001  # milliseconds of scheduling latency


def test_realtime_victim_not_starved():
    sim = Simulator(seed=3)
    node = PhysicalNode(sim, "n")
    for i in range(7):
        CPUHog(node, name=f"h{i}", heavy_tail_prob=0.0).start()
    victim = Process(node, "click", realtime=True)
    latencies = []

    def wake():
        start = sim.now
        victim.exec_after(0.0001, lambda: latencies.append(sim.now - start))
        sim.at(0.05, wake)

    sim.at(0.0, wake)
    sim.run(until=5.0)
    mean = sum(latencies) / len(latencies)
    assert mean < 0.0005


def test_duty_cycle_reduces_load():
    sim = Simulator(seed=4)
    node = PhysicalNode(sim, "n")
    hog = CPUHog(node, duty_cycle=0.3, heavy_tail_prob=0.0).start()
    sim.run(until=20.0)
    assert hog.process.cpu_used / 20.0 == pytest.approx(0.3, rel=0.25)


def test_stop_halts_consumption():
    sim = Simulator(seed=5)
    node = PhysicalNode(sim, "n")
    hog = CPUHog(node, heavy_tail_prob=0.0).start()
    sim.at(1.0, hog.stop)
    sim.run(until=5.0)
    assert hog.process.cpu_used < 1.1


def test_heavy_tail_produces_long_chunks():
    sim = Simulator(seed=6)
    node = PhysicalNode(sim, "n")
    hog = CPUHog(node, heavy_tail_prob=0.5, heavy_tail_max=0.06)
    chunks = {hog._chunk() for _ in range(200)}
    assert max(chunks) > 0.02
    assert min(chunks) == hog.quantum


def test_invalid_duty_cycle():
    sim = Simulator()
    node = PhysicalNode(sim, "n")
    with pytest.raises(ValueError):
        CPUHog(node, duty_cycle=0.0)
