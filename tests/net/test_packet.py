"""Unit tests for the packet model."""

import pytest

from repro.net import (
    ICMPHeader,
    IPv4Header,
    OpaquePayload,
    Packet,
    TCPHeader,
    UDPHeader,
    ip,
)
from repro.net.packet import ICMP_ECHO_REQUEST, PROTO_TCP, PROTO_UDP, TCP_ACK, TCP_SYN


def make_udp_packet(payload=64):
    return Packet(
        IPv4Header("10.1.1.2", "10.1.2.3", PROTO_UDP),
        UDPHeader(5000, 5001),
        payload=OpaquePayload(payload),
    )


class TestHeaderStack:
    def test_wire_len_accounts_for_all_layers(self):
        pkt = make_udp_packet(payload=1430)
        assert pkt.wire_len == 20 + 8 + 1430

    def test_transport_lands_in_the_slot_its_class_names(self):
        tcp = TCPHeader(1, 2)
        pkt = Packet(IPv4Header("10.0.0.1", "10.0.0.2", PROTO_TCP), tcp)
        assert pkt.tcp is tcp and pkt.udp is None and pkt.icmp is None
        icmp = Packet(None, ICMPHeader(ICMP_ECHO_REQUEST))
        assert icmp.ip is None and icmp.icmp is not None
        assert icmp.wire_len == 8
        assert Packet(None).wire_len == 0
        with pytest.raises(TypeError):
            Packet(None, IPv4Header("10.0.0.1", "10.0.0.2", PROTO_UDP))

    def test_a_tunnel_carries_the_inner_packet_as_payload(self):
        inner = make_udp_packet()
        # IIAS UDP tunnels: outer IP + UDP around the whole inner packet.
        outer = Packet(
            IPv4Header("198.32.154.170", "198.32.154.250", PROTO_UDP),
            UDPHeader(33000, 33001),
            payload=OpaquePayload(inner.wire_len, data=inner),
        )
        assert outer.wire_len == 20 + 8 + 20 + 8 + 64
        assert str(outer.ip.dst) == "198.32.154.250"
        assert outer.payload.data.ip is inner.ip

    def test_copy_isolates_header_writes_and_meta(self):
        pkt = make_udp_packet()
        pkt.meta["annotation"] = "x"
        clone = pkt.copy()
        clone.ip.ttl = 1
        clone.udp.dport = 9
        clone.meta["annotation"] = "y"
        assert pkt.ip.ttl == 64
        assert pkt.udp.dport == 5001
        assert pkt.meta["annotation"] == "x"
        assert clone.uid != pkt.uid

    def test_original_write_does_not_leak_into_clone(self):
        pkt = make_udp_packet()
        clone = pkt.copy()
        pkt.ip.ttl = 3
        assert clone.ip.ttl == 64

    def test_deep_copy_still_available(self):
        # copy() is the one clone (Click's Tee): private headers, the
        # payload and the span shared, a fresh uid, meta copied.
        pkt = make_udp_packet()
        pkt.span = object()
        pkt.meta["gw"] = "10.8.8.8"
        clone = pkt.copy()
        assert clone.ip is not pkt.ip and clone.udp is not pkt.udp
        assert (clone.ip.src, clone.ip.dst, clone.ip.ttl) == (pkt.ip.src, pkt.ip.dst, 64)
        assert (clone.udp.sport, clone.udp.dport) == (5000, 5001)
        assert clone.tcp is None and clone.icmp is None
        assert clone.payload is pkt.payload
        assert clone.span is pkt.span
        assert clone.meta == pkt.meta and clone.meta is not pkt.meta
        assert clone.uid > pkt.uid
        assert clone.wire_len == pkt.wire_len

    def test_payload_data_travels(self):
        pkt = Packet(None, payload=OpaquePayload(100, data={"t": 1.5}, tag="ping"))
        assert pkt.payload.data == {"t": 1.5}
        assert pkt.copy().payload.data == {"t": 1.5}

    def test_negative_payload_rejected(self):
        with pytest.raises(ValueError):
            OpaquePayload(-1)


class TestTCPFlags:
    def test_flag_string(self):
        assert TCPHeader(1, 2, flags=TCP_SYN).flag_string() == "S"
        assert "." in TCPHeader(1, 2, flags=TCP_ACK).flag_string()
        assert TCPHeader(1, 2).flag_string() == "-"
