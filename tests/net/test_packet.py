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

    def test_payload_data_travels(self):
        pkt = Packet(None, payload=OpaquePayload(100, data={"t": 1.5}, tag="ping"))
        assert pkt.payload.data == {"t": 1.5}

    def test_negative_payload_rejected(self):
        with pytest.raises(ValueError):
            OpaquePayload(-1)


class TestTCPFlags:
    def test_flag_string(self):
        assert TCPHeader(1, 2, flags=TCP_SYN).flag_string() == "S"
        assert "." in TCPHeader(1, 2, flags=TCP_ACK).flag_string()
        assert TCPHeader(1, 2).flag_string() == "-"
