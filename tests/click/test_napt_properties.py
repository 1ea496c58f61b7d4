"""Property tests for NAPT: translation is a bijection per flow."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.click import NAPT
from repro.net.packet import (
    IPv4Header,
    OpaquePayload,
    Packet,
    PROTO_TCP,
    PROTO_UDP,
    TCPHeader,
    UDPHeader,
)
from repro.phys.node import PhysicalNode
from repro.phys.vserver import Slice
from repro.sim import Simulator
from tests.click.conftest import Sink


def build_napt():
    sim = Simulator(seed=71)
    node = PhysicalNode(sim, "egress")
    node.add_interface("eth0").configure("198.51.100.1", 24)
    sliver = node.create_sliver(Slice("exp", realtime=True))
    process = sliver.create_process("click")
    from repro.click import ClickRouter

    router = ClickRouter(node, process)
    napt = router.add("napt", NAPT(public_addr="198.51.100.1"))
    out_sink, in_sink = Sink(), Sink()
    router.add("out", out_sink)
    router.add("in", in_sink)
    router["napt"].connect(router["out"], out_port=0)
    router["napt"].connect(router["in"], out_port=1)
    return napt, out_sink, in_sink


flows = st.tuples(
    st.sampled_from([PROTO_TCP, PROTO_UDP]),
    st.integers(min_value=1, max_value=65535),  # private sport
    st.integers(min_value=0, max_value=255),  # private host octet
    st.integers(min_value=1, max_value=65535),  # remote dport
)


def make_outbound(proto, sport, host_octet, dport, remote="203.0.113.7"):
    transport = (
        TCPHeader(sport, dport) if proto == PROTO_TCP else UDPHeader(sport, dport)
    )
    return Packet(
        IPv4Header(f"10.1.87.{host_octet}", remote, proto), transport,
        payload=OpaquePayload(64),
    )


@settings(max_examples=30, deadline=None)
@given(st.lists(flows, min_size=1, max_size=25, unique=True))
def test_distinct_flows_get_distinct_public_ports(flow_list):
    napt, out_sink, in_sink = build_napt()
    seen_ports = {}
    for proto, sport, host, dport in flow_list:
        napt.push(0, make_outbound(proto, sport, host, dport))
    assert len(out_sink.packets) == len(flow_list)
    for packet, flow in zip(out_sink.packets, flow_list):
        proto = flow[0]
        transport = packet.tcp if proto == PROTO_TCP else packet.udp
        key = (proto, transport.sport)
        assert key not in seen_ports, "public (proto, port) collision"
        seen_ports[key] = flow


@settings(max_examples=30, deadline=None)
@given(st.lists(flows, min_size=1, max_size=15, unique=True))
def test_return_translation_inverts_outbound(flow_list):
    napt, out_sink, in_sink = build_napt()
    for proto, sport, host, dport in flow_list:
        napt.push(0, make_outbound(proto, sport, host, dport))
    # Build replies from the remote and push them back inbound.
    for packet, flow in zip(list(out_sink.packets), flow_list):
        proto, sport, host, dport = flow
        public_port = (packet.tcp or packet.udp).sport
        transport = (
            TCPHeader(dport, public_port)
            if proto == PROTO_TCP
            else UDPHeader(dport, public_port)
        )
        reply = Packet(
            IPv4Header("203.0.113.7", "198.51.100.1", proto), transport,
            payload=OpaquePayload(64),
        )
        napt.push(1, reply)
    assert len(in_sink.packets) == len(flow_list)
    for packet, flow in zip(in_sink.packets, flow_list):
        proto, sport, host, dport = flow
        assert str(packet.ip.dst) == f"10.1.87.{host}"
        assert (packet.tcp or packet.udp).dport == sport
