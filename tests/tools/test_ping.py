"""Tests for the ping tool on physical and overlay paths."""

import pytest

from repro.core import VINI, Experiment
from repro.phys.node import PhysicalNode, connect
from repro.sim import Simulator
from repro.tools import Ping


def test_ping_physical_rtt_matches_path_delay():
    sim = Simulator(seed=1)
    a = PhysicalNode(sim, "a")
    b = PhysicalNode(sim, "b")
    connect(sim, a, b, bandwidth=1e9, delay=0.012, subnet="192.0.2.0/30")
    ping = Ping(a, "192.0.2.2", interval=0.5, count=10).start()
    sim.run(until=10.0)
    stats = ping.stats()
    assert stats.transmitted == 10
    assert stats.received == 10
    assert stats.loss_pct == 0.0
    assert stats.avg_rtt == pytest.approx(0.024, rel=0.1)
    assert stats.mdev < 0.001


def test_ping_flood_mode():
    sim = Simulator(seed=2)
    a = PhysicalNode(sim, "a")
    b = PhysicalNode(sim, "b")
    connect(sim, a, b, bandwidth=1e9, delay=0.0002, subnet="192.0.2.0/30")
    ping = Ping(a, "192.0.2.2", interval=0.001, count=1000).start()
    sim.run(until=3.0)
    stats = ping.stats()
    assert stats.transmitted == 1000
    assert stats.received == 1000


def test_ping_counts_losses_on_dead_link():
    sim = Simulator(seed=3)
    a = PhysicalNode(sim, "a")
    b = PhysicalNode(sim, "b")
    link = connect(sim, a, b, bandwidth=1e9, delay=0.001, subnet="192.0.2.0/30")
    ping = Ping(a, "192.0.2.2", interval=0.5, count=10).start()
    sim.at(2.2, link.fail)
    sim.run(until=10.0)
    stats = ping.stats()
    assert stats.transmitted == 10
    assert 0 < stats.received < 10
    assert stats.loss_pct > 0


def test_ping_over_overlay():
    vini = VINI(seed=4)
    for name in ("p0", "p1", "p2"):
        vini.add_node(name)
    vini.connect("p0", "p1", delay=0.005)
    vini.connect("p1", "p2", delay=0.005)
    vini.install_underlay_routes()
    exp = Experiment(vini, "iias", realtime=True)
    for i in range(3):
        exp.add_node(f"v{i}", f"p{i}")
    exp.connect("v0", "v1")
    exp.connect("v1", "v2")
    exp.configure_ospf(hello_interval=2.0, dead_interval=6.0)
    exp.run(until=20.0)
    v0 = exp.network.nodes["v0"]
    v2 = exp.network.nodes["v2"]
    ping = Ping(
        v0.phys_node, v2.tap_addr, sliver=v0.sliver, interval=1.0, count=5
    ).start()
    vini.run(until=30.0)
    stats = ping.stats()
    assert stats.received == 5
    # Two physical hops each way plus Click processing.
    assert stats.avg_rtt > 0.020
    assert stats.avg_rtt < 0.030


def test_ping_trace_records():
    sim = Simulator(seed=5)
    a = PhysicalNode(sim, "a")
    b = PhysicalNode(sim, "b")
    connect(sim, a, b, bandwidth=1e9, delay=0.001, subnet="192.0.2.0/30")
    Ping(a, "192.0.2.2", interval=0.5, count=3).start()
    sim.run(until=5.0)
    assert sim.trace.count("ping") == 3


def test_ping_stop():
    sim = Simulator(seed=6)
    a = PhysicalNode(sim, "a")
    b = PhysicalNode(sim, "b")
    connect(sim, a, b, bandwidth=1e9, delay=0.001, subnet="192.0.2.0/30")
    ping = Ping(a, "192.0.2.2", interval=0.5).start()
    sim.at(2.2, ping.stop)
    sim.run(until=10.0)
    assert ping.transmitted == 5
