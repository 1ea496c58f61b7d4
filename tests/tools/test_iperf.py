"""Tests for the iperf tool (TCP and UDP modes)."""

import pytest

from repro.phys.node import PhysicalNode, connect
from repro.sim import Simulator
from repro.tools import IperfTCPClient, IperfTCPServer, IperfUDPClient, IperfUDPServer


def make_pair(bandwidth=100e6, delay=0.005):
    sim = Simulator(seed=11)
    a = PhysicalNode(sim, "client")
    b = PhysicalNode(sim, "server")
    connect(sim, a, b, bandwidth=bandwidth, delay=delay, subnet="192.0.2.0/30",
            queue_bytes=256 * 1024)
    return sim, a, b


class TestTCP:
    def test_single_stream_throughput_window_limited(self):
        sim, a, b = make_pair(bandwidth=1e9, delay=0.010)  # RTT 20 ms
        server = IperfTCPServer(b, window=16 * 1024)
        client = IperfTCPClient(
            a, "192.0.2.2", streams=1, duration=5.0, server=server
        ).start()
        sim.run(until=6.0)
        result = client.result()
        # 16 KB / 20 ms = 6.5 Mb/s ceiling.
        assert result.throughput_mbps < 7.5
        assert result.throughput_mbps > 3.0

    def test_twenty_streams_fill_fast_link(self):
        sim, a, b = make_pair(bandwidth=100e6, delay=0.005)
        server = IperfTCPServer(b, window=16 * 1024)
        client = IperfTCPClient(
            a, "192.0.2.2", streams=20, duration=5.0, server=server
        ).start()
        sim.run(until=6.0)
        result = client.result()
        assert result.streams == 20
        # 20 windows in flight saturate most of the 100 Mb/s link.
        assert result.throughput_mbps > 60.0
        assert result.throughput_mbps < 100.0

    def test_result_requires_server(self):
        sim, a, b = make_pair()
        client = IperfTCPClient(a, "192.0.2.2", streams=1, duration=1.0)
        with pytest.raises(RuntimeError):
            client.result()

    def test_a_closed_server_frees_its_port(self):
        sim, a, b = make_pair()
        IperfTCPServer(b).close()
        IperfTCPServer(b)  # rebinding port 5001 succeeds


class TestUDP:
    def test_cbr_no_loss_on_fast_link(self):
        sim, a, b = make_pair(bandwidth=100e6)
        server = IperfUDPServer(b)
        client = IperfUDPClient(
            a, "192.0.2.2", rate_bps=10e6, duration=3.0, server=server
        ).start()
        sim.run(until=5.0)
        result = client.result()
        assert result.sent == pytest.approx(10e6 * 3.0 / (1430 * 8), rel=0.02)
        assert result.loss_pct == 0.0
        assert result.jitter < 0.0005

    def test_overload_drops_at_link_queue(self):
        sim, a, b = make_pair(bandwidth=5e6)  # offered 10M > 5M link
        server = IperfUDPServer(b)
        client = IperfUDPClient(
            a, "192.0.2.2", rate_bps=10e6, duration=3.0, server=server
        ).start()
        sim.run(until=6.0)
        result = client.result()
        assert result.loss_pct > 30.0

    def test_jitter_reflects_queueing(self):
        sim, a, b = make_pair(bandwidth=12e6)
        server = IperfUDPServer(b)
        client = IperfUDPClient(
            a, "192.0.2.2", rate_bps=11.5e6, duration=3.0, server=server
        ).start()
        sim.run(until=6.0)
        result = client.result()
        # Near saturation the queue breathes: jitter is visible but finite.
        assert result.jitter >= 0.0

    def test_rate_validation(self):
        sim, a, b = make_pair()
        with pytest.raises(ValueError):
            IperfUDPClient(a, "192.0.2.2", rate_bps=0)

    def test_a_closed_server_frees_its_port(self):
        sim, a, b = make_pair()
        IperfUDPServer(b).close()
        IperfUDPServer(b)  # rebinding port 5002 succeeds
