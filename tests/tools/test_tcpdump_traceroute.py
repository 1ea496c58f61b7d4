"""Tests for tcpdump and traceroute."""

import pytest

from repro.core import VINI, Experiment
from repro.phys.node import PhysicalNode, connect
from repro.sim import Simulator
from repro.tools import IperfTCPClient, IperfTCPServer, Tcpdump, Traceroute, traceroute
from repro.tools.tcpdump import tcp_filter


class TestTcpdump:
    def test_captures_tcp_arrivals_in_order(self):
        sim = Simulator(seed=21)
        a = PhysicalNode(sim, "a")
        b = PhysicalNode(sim, "b")
        connect(sim, a, b, bandwidth=100e6, delay=0.005, subnet="192.0.2.0/30")
        dump = Tcpdump(b, filter=tcp_filter(5001), direction="in").start()
        server = IperfTCPServer(b, window=16 * 1024)
        IperfTCPClient(a, "192.0.2.2", streams=1, duration=2.0, server=server).start()
        sim.run(until=3.0)
        arrivals = dump.tcp_arrivals()
        assert len(arrivals) > 50
        times = [t for t, _seq, _l in arrivals]
        assert times == sorted(times)
        seqs = [s for _t, s, _l in arrivals]
        assert seqs == sorted(seqs)  # no loss: monotone byte positions

    def test_stop_detaches(self):
        sim = Simulator(seed=22)
        a = PhysicalNode(sim, "a")
        b = PhysicalNode(sim, "b")
        connect(sim, a, b, bandwidth=100e6, delay=0.001, subnet="192.0.2.0/30")
        dump = Tcpdump(b).start()
        dump.stop()
        server = IperfTCPServer(b)
        IperfTCPClient(a, "192.0.2.2", streams=1, duration=1.0, server=server).start()
        sim.run(until=2.0)
        assert len(dump) == 0

    @pytest.mark.parametrize("direction", ["inbound", "IN", "", "both"])
    def test_unknown_direction_is_refused(self, direction):
        node = PhysicalNode(Simulator(seed=22), "a")
        with pytest.raises(ValueError, match="direction"):
            Tcpdump(node, direction=direction)

    def test_port_selection_is_the_capture_filters_alone(self):
        # tcp_arrivals once took a dport it never read; the filter is
        # the one way to pick a port.
        sim = Simulator(seed=21)
        a = PhysicalNode(sim, "a")
        b = PhysicalNode(sim, "b")
        connect(sim, a, b, bandwidth=100e6, delay=0.005, subnet="192.0.2.0/30")
        other = Tcpdump(b, filter=tcp_filter(5002), direction="in").start()
        every = Tcpdump(b, direction="in").start()
        server = IperfTCPServer(b, window=16 * 1024)
        IperfTCPClient(a, "192.0.2.2", streams=1, duration=1.0, server=server).start()
        sim.run(until=2.0)
        assert other.tcp_arrivals() == []
        assert len(every.tcp_arrivals()) > 50
        with pytest.raises(TypeError):
            every.tcp_arrivals(dport=5001)


class TestTraceroute:
    def build_overlay(self, n=4):
        vini = VINI(seed=23)
        for i in range(n):
            vini.add_node(f"p{i}")
        for i in range(n - 1):
            vini.connect(f"p{i}", f"p{i + 1}", delay=0.003)
        vini.install_underlay_routes()
        exp = Experiment(vini, "iias", realtime=True)
        for i in range(n):
            exp.add_node(f"v{i}", f"p{i}")
        for i in range(n - 1):
            exp.connect(f"v{i}", f"v{i + 1}")
        exp.configure_ospf(hello_interval=2.0, dead_interval=6.0)
        exp.run(until=20.0)
        return vini, exp

    def test_traceroute_walks_virtual_hops(self):
        vini, exp = self.build_overlay(4)
        v0 = exp.network.nodes["v0"]
        v3 = exp.network.nodes["v3"]
        trace = Traceroute(v0.phys_node, v3.tap_addr, sliver=v0.sliver).start()
        vini.run(until=40.0)
        assert trace.done
        # Hops: local click (v0), v1, v2, then the destination answers.
        expected = [
            str(exp.network.nodes["v0"].tap_addr),
            str(exp.network.nodes["v1"].tap_addr),
            str(exp.network.nodes["v2"].tap_addr),
            str(v3.tap_addr),
        ]
        assert trace.path() == expected
        assert all(rtt is not None and rtt >= 0 for rtt in trace.rtts)

    def test_traceroute_timeout_on_blackhole(self, monkeypatch):
        monkeypatch.setattr(traceroute, "MAX_HOPS", 4)
        monkeypatch.setattr(traceroute, "PROBE_TIMEOUT", 1.0)
        vini, exp = self.build_overlay(3)
        exp.network.fail_link("v1", "v2")
        v0 = exp.network.nodes["v0"]
        v2 = exp.network.nodes["v2"]
        trace = Traceroute(v0.phys_node, v2.tap_addr, sliver=v0.sliver).start()
        vini.run(until=60.0)
        assert trace.done
        assert None in trace.path()

    def test_probe_idents_repeat_across_same_seed_worlds(self):
        def probe_idents():
            sim = Simulator(seed=23)
            a = PhysicalNode(sim, "a")
            b = PhysicalNode(sim, "b")
            connect(sim, a, b, bandwidth=100e6, delay=0.001, subnet="192.0.2.0/30")
            sent = []
            a.add_capture(
                lambda pkt, point: point == "out" and sent.append(pkt.icmp.ident)
            )
            trace = Traceroute(a, "192.0.2.2").start()
            sim.run(until=5.0)
            assert trace.done
            return sent

        assert probe_idents() == probe_idents() == [20001]
