"""Tests for the traffic generators and flash crowds."""

import pytest

from repro.phys.node import PhysicalNode, connect
from repro.phys.process import Process
from repro.sim import Simulator
from repro.tools.traffic import CBRSource, FlashCrowd


def make_world(n_sources=1):
    sim = Simulator(seed=81)
    server = PhysicalNode(sim, "server")
    sources = []
    for i in range(n_sources):
        node = PhysicalNode(sim, f"s{i}")
        connect(sim, node, server, bandwidth=1e9, delay=0.001,
                subnet=f"10.{i}.0.0/30")
        # Every source can reach the server's primary address.
        node.add_route("10.0.0.0/30", interface="eth0")
        sources.append(node)
    proc = Process(server, "sink")
    sock = server.udp_socket(proc, port=7000, rcvbuf=10**7,
                             local_addr=server.interfaces["eth0"].address)
    received = []
    sock.on_receive = lambda pkt, src, sport: received.append(sim.now)
    return sim, server, sources, received


def server_addr(server):
    return server.interfaces["eth0"].address


def test_cbr_rate_accuracy():
    sim, server, (src,), received = make_world()
    CBRSource(src, server_addr(server), 7000, rate_bps=1e6, payload=1000).start()
    sim.run(until=4.0)
    expected = 1e6 * 4.0 / (1000 * 8)
    assert len(received) == pytest.approx(expected, rel=0.05)


def test_cbr_stop():
    sim, server, (src,), received = make_world()
    source = CBRSource(src, server_addr(server), 7000, rate_bps=1e6).start()
    sim.at(1.0, source.stop)
    sim.run(until=5.0)
    count_at_stop = len(received)
    assert count_at_stop < 120
    assert source.sent == count_at_stop


def test_flash_crowd_window():
    sim, server, sources, received = make_world(n_sources=3)
    crowd = FlashCrowd(sources, server_addr(server), 7000,
                       n_sources=6, rate_bps=2e6, payload=1000)
    crowd.schedule(start=5.0, duration=2.0)
    sim.run(until=10.0)
    assert all(5.0 <= t <= 7.2 for t in received)
    # 6 senders x 2 Mb/s x 2 s / 8000 bits = ~3000 datagrams.
    assert crowd.sent == pytest.approx(3000, rel=0.1)
    assert len(received) > 2000  # most arrive (1 Gb/s links)


def test_validation():
    sim, server, (src,), _ = make_world()
    with pytest.raises(ValueError):
        CBRSource(src, server_addr(server), 7000, rate_bps=0)
    with pytest.raises(ValueError):
        FlashCrowd([], server_addr(server), 7000)
