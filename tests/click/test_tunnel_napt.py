"""Tests for UDP tunnels across real (simulated) nodes and for NAPT."""

import pytest

from repro.click import NAPT, UDPTunnel
from repro.click.element import Element
from repro.click.router import SYSCALLS_PER_PACKET
from repro.net.addr import ip
from repro.net.packet import (
    IPv4Header,
    OpaquePayload,
    Packet,
    PROTO_TCP,
    PROTO_UDP,
    TCPHeader,
    UDPHeader,
)
from repro.phys.vserver import Slice
from tests.click.conftest import Sink


def overlay_packet(src="10.1.1.1", dst="10.1.2.2", size=100):
    return Packet(
        IPv4Header(src, dst, PROTO_UDP), UDPHeader(4000, 4001),
        payload=OpaquePayload(size),
    )


class TestUDPTunnel:
    def test_end_to_end_encap_decap(self, pair):
        sim, a, b, router_a, router_b = pair
        tun_a = router_a.add(
            "tun", UDPTunnel("198.51.100.2", remote_port=33001, local_port=33000)
        )
        tun_b = router_b.add(
            "tun", UDPTunnel("198.51.100.1", remote_port=33000, local_port=33001)
        )
        sink = router_b.add("sink", Sink())
        router_b["tun"].connect(router_b["sink"])
        router_a.initialize()
        router_b.initialize()
        inner = overlay_packet()
        tun_a.push(0, inner)
        sim.run()
        assert len(sink.packets) == 1
        received = sink.packets[0]
        assert str(received.ip.dst) == "10.1.2.2"
        # Decapsulated: the inner packet itself, not the outer datagram.
        assert received is inner
        assert received.wire_len == 20 + 8 + 100
        assert tun_a.tx_packets == 1
        assert tun_b.rx_packets == 1

    def test_a_closed_tunnel_receives_nothing_and_frees_its_port(self, pair):
        sim, a, b, router_a, router_b = pair
        tun_a = router_a.add(
            "tun", UDPTunnel("198.51.100.2", remote_port=33001, local_port=33000)
        )
        tun_b = router_b.add(
            "tun", UDPTunnel("198.51.100.1", remote_port=33000, local_port=33001)
        )
        sink = router_b.add("sink", Sink())
        router_b["tun"].connect(router_b["sink"])
        router_a.initialize()
        router_b.initialize()
        tun_b.close()
        tun_a.push(0, overlay_packet())
        sim.run()
        assert sink.packets == [] and tun_b.rx_packets == 0
        router_b.udp_socket(port=33001)  # rebinding succeeds

    def test_tunnel_overhead_is_28_bytes(self, pair):
        sim, a, b, router_a, router_b = pair
        tun_a = router_a.add(
            "tun", UDPTunnel("198.51.100.2", remote_port=33001, local_port=33000)
        )
        router_a.initialize()
        inner = overlay_packet(size=100)
        tun_a.push(0, inner)
        sim.run()
        link = a.interfaces["eth0"].link
        stats = link.stats()
        assert stats["tx_bytes"] == inner.wire_len + 28

    def test_bidirectional(self, pair):
        sim, a, b, router_a, router_b = pair
        tun_a = router_a.add(
            "tun", UDPTunnel("198.51.100.2", remote_port=33001, local_port=33000)
        )
        tun_b = router_b.add(
            "tun", UDPTunnel("198.51.100.1", remote_port=33000, local_port=33001)
        )
        sink_a = router_a.add("sink", Sink())
        sink_b = router_b.add("sink", Sink())
        router_a["tun"].connect(router_a["sink"])
        router_b["tun"].connect(router_b["sink"])
        router_a.initialize()
        router_b.initialize()
        tun_a.push(0, overlay_packet(dst="10.1.2.2"))
        tun_b.push(0, overlay_packet(dst="10.1.1.1"))
        sim.run()
        assert len(sink_a.packets) == 1
        assert len(sink_b.packets) == 1

    def test_click_cpu_charged_per_tunnel_packet(self, pair):
        sim, a, b, router_a, router_b = pair
        tun_a = router_a.add(
            "tun", UDPTunnel("198.51.100.2", remote_port=33001, local_port=33000)
        )
        tun_b = router_b.add(
            "tun", UDPTunnel("198.51.100.1", remote_port=33000, local_port=33001)
        )
        router_b.add("sink", Sink())
        router_b["tun"].connect(router_b["sink"])
        router_a.initialize()
        router_b.initialize()
        tun_a.push(0, overlay_packet())
        sim.run()
        # Receiving Click paid at least the syscall tax for the packet.
        assert router_b.process.cpu_used >= router_b.syscall_cost * SYSCALLS_PER_PACKET


class TestNAPT:
    def build(self, world):
        sim, node, sliver, router = world
        napt = router.add("napt", NAPT(public_addr="198.51.100.1"))
        out_sink, in_sink = router.add("out", Sink()), router.add("in", Sink())
        router["napt"].connect(router["out"], out_port=0)
        router["napt"].connect(router["in"], out_port=1)
        return sim, node, router, napt, out_sink, in_sink

    def test_outbound_rewrites_src_and_port(self, world):
        sim, node, router, napt, out_sink, in_sink = self.build(world)
        pkt = Packet(
            IPv4Header("10.1.87.2", "64.236.16.20", PROTO_TCP),
            TCPHeader(5555, 80),
            payload=OpaquePayload(100),
        )
        napt.push(0, pkt)
        (sent,) = out_sink.packets
        assert str(sent.ip.src) == "198.51.100.1"
        assert sent.tcp.sport >= 50000
        assert napt.translated_out == 1

    def test_return_traffic_translated_back(self, world):
        sim, node, router, napt, out_sink, in_sink = self.build(world)
        pkt = Packet(
            IPv4Header("10.1.87.2", "64.236.16.20", PROTO_TCP),
            TCPHeader(5555, 80),
            payload=OpaquePayload(100),
        )
        napt.push(0, pkt)
        public_port = out_sink.packets[0].tcp.sport
        reply = Packet(
            IPv4Header("64.236.16.20", "198.51.100.1", PROTO_TCP),
            TCPHeader(80, public_port),
            payload=OpaquePayload(500),
        )
        napt.push(1, reply)
        (back,) = in_sink.packets
        assert str(back.ip.dst) == "10.1.87.2"
        assert back.tcp.dport == 5555

    def test_same_flow_reuses_mapping(self, world):
        sim, node, router, napt, out_sink, in_sink = self.build(world)
        for _ in range(3):
            pkt = Packet(
                IPv4Header("10.1.87.2", "64.236.16.20", PROTO_UDP),
                UDPHeader(5555, 53),
                payload=OpaquePayload(60),
            )
            napt.push(0, pkt)
        ports = {p.udp.sport for p in out_sink.packets}
        assert len(ports) == 1
        assert napt.mappings() == 1

    def test_distinct_flows_get_distinct_ports(self, world):
        sim, node, router, napt, out_sink, in_sink = self.build(world)
        for sport in (5555, 5556):
            pkt = Packet(
                IPv4Header("10.1.87.2", "64.236.16.20", PROTO_UDP),
                UDPHeader(sport, 53),
                payload=OpaquePayload(60),
            )
            napt.push(0, pkt)
        ports = {p.udp.sport for p in out_sink.packets}
        assert len(ports) == 2

    def test_unknown_return_port_dropped(self, world):
        sim, node, router, napt, out_sink, in_sink = self.build(world)
        reply = Packet(
            IPv4Header("64.236.16.20", "198.51.100.1", PROTO_TCP),
            TCPHeader(80, 50099),
            payload=OpaquePayload(500),
        )
        napt.push(1, reply)
        assert in_sink.packets == []
        assert sim.trace.count("drop", where=router.name) == 1
        assert sim.trace.count("drop", where=router.name, reason="napt_no_mapping") == 1

    def test_wrong_remote_blocked(self, world):
        sim, node, router, napt, out_sink, in_sink = self.build(world)
        pkt = Packet(
            IPv4Header("10.1.87.2", "64.236.16.20", PROTO_UDP),
            UDPHeader(5555, 53),
            payload=OpaquePayload(60),
        )
        napt.push(0, pkt)
        public_port = out_sink.packets[0].udp.sport
        spoofed = Packet(
            IPv4Header("203.0.113.9", "198.51.100.1", PROTO_UDP),
            UDPHeader(53, public_port),
            payload=OpaquePayload(60),
        )
        napt.push(1, spoofed)
        assert in_sink.packets == []

    def test_napt_ports_reserved_in_vnet(self, world):
        sim, node, router, napt, out_sink, in_sink = self.build(world)
        pkt = Packet(
            IPv4Header("10.1.87.2", "64.236.16.20", PROTO_UDP),
            UDPHeader(5555, 53),
            payload=OpaquePayload(60),
        )
        napt.push(0, pkt)
        public_port = out_sink.packets[0].udp.sport
        assert node.vnet.lookup(PROTO_UDP, public_port) is not None
        napt.close()
        assert node.vnet.lookup(PROTO_UDP, public_port) is None

    def test_a_port_reserved_by_another_slice_is_skipped(self, world):
        sim, node, router, napt, out_sink, in_sink = self.build(world)
        other = node.create_sliver(Slice("other")).create_process("app")
        node.raw_intercept(other, PROTO_UDP, 50000, lambda packet: None)
        napt.push(0, Packet(IPv4Header("10.1.87.2", "64.236.16.20", PROTO_UDP),
                            UDPHeader(5555, 53), OpaquePayload(60)))
        assert out_sink.packets[0].udp.sport == 50001

    def test_an_intercept_error_that_is_no_port_conflict_propagates(self, world, monkeypatch):
        # Only a PortConflictError means "try the next port"; anything
        # else is a fault, not 4 096 conflicts and napt_ports_exhausted.
        sim, node, router, napt, out_sink, in_sink = self.build(world)
        attempts = []

        def broken(*args, **kwargs):
            attempts.append(args[2])
            raise RuntimeError("intercept table corrupt")

        monkeypatch.setattr(node, "raw_intercept", broken)
        with pytest.raises(RuntimeError, match="corrupt"):
            napt.push(0, Packet(IPv4Header("10.1.87.2", "64.236.16.20", PROTO_UDP),
                                UDPHeader(5555, 53), OpaquePayload(60)))
        assert attempts == [50000]
        assert sim.trace.count("drop", where=router.name) == 0 and out_sink.packets == []

    def test_flight_span_carried_across_napt(self, world):
        """A spanned packet keeps its flight identity through the NAT:
        the fresh return packet (span=None, the external host knows
        nothing of tracing) rejoins the same trace at ingress."""
        from repro.obs.spans import FlightRecorder

        sim, node, router, napt, out_sink, in_sink = self.build(world)
        recorder = FlightRecorder(sim).install()
        pkt = Packet(
            IPv4Header("10.1.87.2", "64.236.16.20", PROTO_TCP),
            TCPHeader(5555, 80),
            payload=OpaquePayload(100),
        )
        ctx = recorder.flight_begin(pkt, "web_fetch", node=node.name)
        napt.push(0, pkt)
        (sent,) = out_sink.packets
        assert sent.span is ctx  # the rewrite kept the shared context
        public_port = sent.tcp.sport
        reply = Packet(
            IPv4Header("64.236.16.20", "198.51.100.1", PROTO_TCP),
            TCPHeader(80, public_port),
            payload=OpaquePayload(500),
        )
        assert reply.span is None
        napt.push(1, reply)
        (back,) = in_sink.packets
        assert back.span is ctx  # reply leg rejoined the flight
        recorder.flight_end(back)
        (flight,) = recorder.flights()
        assert flight.status == "ok"
        # Both NAT traversals staged into the one flight.
        stages = [name for name, _node, _d in flight.stage_durations()]
        assert stages.count("click.napt") == 2

    def test_napt_spans_not_tracked_when_recorder_disabled(self, world):
        sim, node, router, napt, out_sink, in_sink = self.build(world)
        pkt = Packet(
            IPv4Header("10.1.87.2", "64.236.16.20", PROTO_TCP),
            TCPHeader(5555, 80),
            payload=OpaquePayload(100),
        )
        napt.push(0, pkt)
        assert napt._spans == {}  # no recorder: zero bookkeeping

    def test_icmp_not_translated(self, world):
        sim, node, router, napt, out_sink, in_sink = self.build(world)
        from repro.net.packet import ICMPHeader, PROTO_ICMP

        pkt = Packet(
            IPv4Header("10.1.87.2", "64.236.16.20", PROTO_ICMP),
            ICMPHeader(8),
            payload=OpaquePayload(56),
        )
        napt.push(0, pkt)
        assert out_sink.packets == []
        assert sim.trace.count("drop", where=router.name) == 1
        assert sim.trace.count("drop", where=router.name, reason="napt_unsupported_proto") == 1
